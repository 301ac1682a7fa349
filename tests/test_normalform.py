"""Normalizer, symmetry preservation, Psi conjugation."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bgnf import models, normalform, poly
from bgnf.scalars import CC, RATIONAL, QuadExt, quad_field
from bgnf.poly import (
    COMPLEX,
    REAL,
    Polynomial,
    TruncatedMap,
    apply_D,
    compose_maps,
    linear_substitute,
    symplectic_defect,
    to_complex,
    to_real,
)
from bgnf.resonance import NONRESONANT, Frequencies
from bgnf.normalform import (
    NormalFormResult,
    check_plane_invariance,
    check_zp_invariance,
    diagonal_reversors,
    normalize,
    psi_conjugate,
    verify,
    zp_phase_gcd,
)
from bgnf.models import henon_heiles, hill_regularized, isosceles, quadratic

from conftest import (all_exponents, from_terms, map_commutes, oracle_psi,
                      oracle_psi_matrix, oracle_zp_invariance,
                      random_real_hamiltonian, random_real_quadratic_freqs,
                      real_chart_polynomials)


def test_pure_h2_normalizes_trivially(freqs12):
    h = Polynomial.quadratic_h2((F(1), F(2)), REAL, RATIONAL, 6)
    nf = normalize(h, 6, freqs12)
    assert nf.h_n == Polynomial.quadratic_h2((F(1), F(2)), COMPLEX, RATIONAL, 6)
    assert all(g.is_zero() for g in nf.generators)
    assert not nf.table


def test_rejects_bad_quadratic_part(freqs12):
    h = from_terms(REAL, [((2, 0, 0, 0), 1), ((0, 0, 2, 0), 1)],
                   RATIONAL, 6)
    with pytest.raises(ValueError, match="quadratic part"):
        normalize(h, 4, freqs12)


def test_rejects_insufficient_taylor_data(freqs12):
    h = Polynomial.quadratic_h2((F(1), F(2)), REAL, RATIONAL, 4)
    with pytest.raises(ValueError, match="Taylor data"):
        normalize(h, 6, freqs12)


def test_henon_heiles_gamma3_zero_gamma4_exact():
    m = henon_heiles(order=4)
    nf = m.normal_form(4)
    assert nf.gamma(3).is_zero()
    want = {
        (2, 0, 2, 0): CC(F(-5, 48)), (0, 2, 0, 2): CC(F(-5, 48)),
        (1, 1, 1, 1): CC(F(1, 12)),
        (0, 2, 2, 0): CC(F(-7, 48)), (2, 0, 0, 2): CC(F(-7, 48)),
    }
    assert nf.gamma(4).coeffs == want


def test_henon_heiles_g3_exact_value():
    nf = henon_heiles(order=4).normal_form(4)
    g3 = nf.generators[0]
    want = from_terms(REAL, [
        ((2, 1, 0, 0), F(2, 3)), ((1, 0, 1, 1), F(2, 3)),
        ((0, 3, 0, 0), F(-2, 9)), ((0, 1, 2, 0), F(1, 3)),
        ((0, 1, 0, 2), F(-1, 3))], RATIONAL, g3.order)
    assert g3 == want


def test_normalize_accepts_complex_chart_input(rng):
    h = random_real_hamiltonian(rng, (1, 2), order=5, terms_per_degree=2)
    a = normalize(h, 5, Frequencies(F(1), F(2)))
    b = normalize(to_complex(h), 5, Frequencies(F(1), F(2)))
    assert a.h_n == b.h_n
    assert verify(b, to_complex(h)).ok


def test_normalize_determinism():
    m1 = henon_heiles(order=6).normal_form(6)
    m2 = henon_heiles(order=6).normal_form(6)
    assert m1.h_n == m2.h_n
    assert m1.table == m2.table


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rnd=st.randoms(use_true_random=False),
       alpha=st.sampled_from([(1, 1), (1, 2), (2, 3), (1, 3), "sqrt2"]),
       order=st.sampled_from([4, 5, 6]))
def test_order_stability_prefix_property(rnd, alpha, order):
    # normalize(H, N) truncated to N-1 equals normalize(H, N-1), and
    # verify passes on normalize(H, N)
    if alpha == "sqrt2":
        h, pair = random_real_quadratic_freqs(rnd, order, terms_per_degree=3)
        freqs = Frequencies(*pair)
    else:
        h = random_real_hamiltonian(rnd, alpha, order, terms_per_degree=3)
        freqs = Frequencies(F(alpha[0]), F(alpha[1]))
    nf = normalize(h, order, freqs)
    below = normalize(h.truncate(order - 1), order - 1, freqs)
    assert nf.h_n.up_to_degree(order - 1) == below.h_n.truncate(order - 1)
    assert verify(nf, h).ok


def test_gauge_no_kernel_monomials(rng):
    from bgnf.poly import split_ker_im
    h = random_real_hamiltonian(rng, (1, 1), order=5, terms_per_degree=4)
    nf = normalize(h, 5, Frequencies(F(1), F(1)))
    for g in nf.generators:
        if g.is_zero():
            continue
        ker, _ = split_ker_im(to_complex(g), nf.res)
        assert ker.is_zero()


def test_verify_passes_and_catches_corruption(rng):
    h = random_real_hamiltonian(rng, (2, 3), order=5, terms_per_degree=3)
    nf = normalize(h, 5, Frequencies(F(2), F(3)))
    assert verify(nf, h).ok
    # corrupt one coefficient
    bad_hn = nf.h_n + Polynomial.monomial(COMPLEX, (2, 0, 2, 0), F(1, 1000),
                                          RATIONAL, nf.order)
    bad = NormalFormResult(h_n=bad_hn, generators=nf.generators,
                           steps=nf.steps, alpha=nf.alpha,
                           res=nf.res, order=nf.order)
    rep = verify(bad, h)
    assert not rep.ok
    assert any("H o Phi" in f or "D.H_N" in f for f in rep.failures)


@pytest.mark.parametrize("plant,message", [
    ({(3, 0, 0, 0): CC(F(1)), (0, 0, 3, 0): CC(F(1))}, "D.H_N != 0"),
    ({(2, 0, 2, 0): CC(F(0), F(1))}, "reality violated"),
    ({(1, 0, 1, 0): CC(F(1, 1000))}, "quadratic part of H_N differs from H2"),
], ids=["outside-ker-D", "not-real-valued", "quadratic-part"])
def test_verify_names_each_planted_defect(plant, message):
    # each defect also leaves H o Phi - H_N nonzero, and nothing else fails
    m = henon_heiles(order=4)
    nf = m.normal_form(4)
    bad = NormalFormResult(
        h_n=nf.h_n + Polynomial(COMPLEX, RATIONAL, 4, plant),
        generators=nf.generators, steps=nf.steps, alpha=nf.alpha,
        res=nf.res, order=nf.order)
    failures = verify(bad, m.poly).failures
    assert len(failures) == 2
    assert failures[0].startswith(message)
    assert failures[1].startswith("H o Phi - H_N")


def test_verify_hill_builtin_d_annihilation():
    m = hill_regularized()
    assert apply_D(m.averaged_form.h_n, (F(1), F(1))).is_zero()


def test_psi_analysis_form_has_no_transform():
    m = henon_heiles(order=4)
    psi_nf, facts = m.analysis_form(4)
    assert psi_nf.transform is None and facts == {"zp": 3}
    with pytest.raises(ValueError, match="no coordinate transform"):
        verify(psi_nf, m.poly)
    assert hill_regularized().averaged_form.transform is None
    assert verify(m.normal_form(4), m.poly).ok


@pytest.fixture
def folds(monkeypatch):
    """Arguments of every compose_maps call the normalizer module makes."""
    calls = []
    inner = normalform.compose_maps

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(normalform, "compose_maps", counted)
    return calls


def test_normalize_folds_no_transform(folds):
    nf = henon_heiles(order=6).normal_form(6)
    assert folds == []
    assert len(nf.steps) == sum(not g.is_zero() for g in nf.generators) > 0


def test_first_transform_read_folds_once(folds):
    nf = henon_heiles(order=6).normal_form(6)
    first = nf.transform
    assert len(folds) == len(nf.steps)
    assert nf.transform is first and len(folds) == len(nf.steps)


def _dense_sqrt2_hamiltonian(order):
    """Every monomial of degree 3..order, alpha = (1, sqrt 2), over Q(sqrt 2)."""
    field, rt2 = quad_field(2), QuadExt(0, 1, 2)
    rng = random.Random(5)
    terms = [((2, 0, 0, 0), F(1, 2)), ((0, 0, 2, 0), F(1, 2)),
             ((0, 2, 0, 0), rt2 / 2), ((0, 0, 0, 2), rt2 / 2)]
    terms += [(e, F(rng.randint(-9, 9) or 1, rng.randint(1, 5)))
              for d in range(3, order + 1) for e in all_exponents(d)]
    return from_terms(REAL, terms, field, order), rt2


@pytest.mark.parametrize("case", ["henon-heiles N=6", "dense (1,sqrt2) N=5"])
def test_transform_is_the_right_fold_of_the_steps(case):
    if case.startswith("henon"):
        m = henon_heiles(order=6)
        h, nf = m.poly, m.normal_form(6)
    else:
        h, rt2 = _dense_sqrt2_hamiltonian(5)
        nf = normalize(h, 5, Frequencies(F(1), rt2), NONRESONANT)
    want = TruncatedMap.identity(nf.field, nf.order)
    for phi in reversed(nf.steps):
        want = compose_maps(phi, want, nf.order)
    for got, comp in zip(nf.transform.components, want.components):
        assert got == comp
    assert verify(nf, h).ok


def test_quadratic_model_transform_is_identity():
    nf = quadratic(1, 2, order=6).normal_form(6)
    assert nf.steps == []
    assert nf.transform.components == TruncatedMap.identity(RATIONAL, 6).components


def test_plane_invariance_checks():
    iso = isosceles(3, 1, order=4)
    assert check_plane_invariance(iso.poly, "z2")
    assert not check_plane_invariance(iso.poly, "z1")
    hh = henon_heiles()
    assert not check_plane_invariance(hh.poly, "z2")   # x1^2 x2 term
    assert check_plane_invariance(hh.poly, "z1")
    h2 = Polynomial.quadratic_h2((F(1), F(2)), REAL, RATIONAL, 4)
    assert check_plane_invariance(h2, "z1")
    assert check_plane_invariance(h2, "z2")


def test_plane_invariance_preserved_by_normalization():
    iso = isosceles(3, 1, order=4)
    nf = iso.normal_form(4)
    assert check_plane_invariance(to_real(nf.h_n), "z2")
    for g in nf.generators:
        assert check_plane_invariance(g, "z2")


def test_zp_invariance_exact_cases():
    hh = henon_heiles()
    assert check_zp_invariance(hh.poly, 3)
    assert not check_zp_invariance(hh.poly, 4)
    hill = hill_regularized()
    assert check_zp_invariance(hill.poly, 4)
    h2 = Polynomial.quadratic_h2((F(1), F(1)), REAL, RATIONAL, 4)
    for p in (2, 3, 4, 6):
        assert check_zp_invariance(h2, p)


@pytest.mark.parametrize("build,g", [
    (henon_heiles, 3), (hill_regularized, 4), (lambda: isosceles(1), 1),
    (lambda: isosceles(3), 1), (lambda: quadratic(1, 1), 0),
    (lambda: quadratic(1, 2), 2), (lambda: quadratic(2, 3), 2)])
def test_zp_phase_gcd_of_the_models(build, g):
    h = build().poly
    assert zp_phase_gcd(h) == zp_phase_gcd(to_complex(h)) == g


def test_zp_invariance_script_r_any_p():
    # rotating the symplectic planes in opposite senses turns z1^k zbar^l by
    # the phase k2 - l2 - k1 + l1; on the Psi-conjugated hill form every
    # phase is a multiple of 4, and of no larger p
    psi_nf, _ = hill_regularized().analysis_form()
    phases = (e[2] - e[0] + e[1] - e[3] for e in psi_nf.h_n.coeffs)
    assert math.gcd(*phases) == 4


@pytest.mark.parametrize("build", [
    henon_heiles, lambda: henon_heiles(order=10), hill_regularized,
    lambda: isosceles(1), lambda: isosceles(3), lambda: quadratic(1, 2),
    lambda: quadratic(1, 1)], ids=["henon-heiles", "henon-heiles-N10", "hill",
                                   "isosceles-1", "isosceles-3",
                                   "quadratic-1-2", "quadratic-1-1"])
def test_zp_float_check_equals_the_exact_answer(build):
    model = build()
    for chart, h in ((REAL, model.poly), (COMPLEX, to_complex(model.poly))):
        for p in range(2, 13):
            want = oracle_zp_invariance(model.poly, p)
            assert check_zp_invariance(h, p) == want, (chart, p)


def test_zp_float_check_rejects_broken_symmetry():
    hh = henon_heiles(order=6).poly
    hill = hill_regularized().poly
    for h in (hh, to_complex(hh)):
        assert check_zp_invariance(h, 3)
        assert not check_zp_invariance(h, 5)
        assert not check_zp_invariance(h, 7)
    for h in (hill, to_complex(hill)):
        assert check_zp_invariance(h, 4)
        assert not check_zp_invariance(h, 8)
    # a symmetry broken by a term of size 1e-6 is seen
    h2 = Polynomial.quadratic_h2((F(1), F(1)), REAL, RATIONAL, 4)
    bent = h2 + Polynomial.monomial(REAL, (0, 0, 3, 0), F(1, 10 ** 6),
                                    RATIONAL, 4)
    assert check_zp_invariance(h2, 5)
    assert not check_zp_invariance(bent, 5)


# (u, ubar, v, vbar) in (y1, y2, x1, x2): u = y1 + i y2, v = x1 + i x2
_UV_TO_REAL = ((1, CC(0, 1), 0, 0), (1, CC(0, -1), 0, 0),
               (0, 0, 1, CC(0, 1)), (0, 0, 1, CC(0, -1)))


@st.composite
def zp_invariant_hamiltonians(draw):
    """(p, H): H2 of alpha = (1, 1) plus Z_p-invariant terms of degree 3..6.

    Each term u^a ubar^b v^c vbar^d has phase a - b + c - d = 0 mod p and
    comes with its mirror (b, a, d, c) and the conjugate coefficient, so
    H is real once written in (y1, y2, x1, x2).  The first term has a
    nonzero phase, so H is not invariant under every rotation.
    """
    p = draw(st.sampled_from([3, 4, 5, 6]))
    phase = {e: e[0] - e[1] + e[2] - e[3]
             for s in range(3, 7) for e in all_exponents(s)}
    allowed = [e for e, ph in phase.items() if ph % p == 0]
    terms = {}
    for e in [draw(st.sampled_from([e for e in allowed if phase[e]]))] + \
            draw(st.lists(st.sampled_from(allowed), max_size=3)):
        if e in terms:
            continue
        mirror = (e[1], e[0], e[3], e[2])
        re = draw(st.integers(-3, 3) if terms else st.integers(1, 3))
        im = 0 if mirror == e else draw(st.integers(-3, 3))
        terms[e] = CC(F(re), F(im))
        terms[mirror] = CC(F(re), F(-im))
    h = linear_substitute(Polynomial(REAL, RATIONAL, 6, terms), _UV_TO_REAL)
    return p, h + Polynomial.quadratic_h2((1, 1), REAL, RATIONAL, 6)


@settings(max_examples=24, deadline=None)
@given(zp_invariant_hamiltonians())
def test_normalization_keeps_the_zp_symmetry(case):
    # the kernel/image split is equivariant, so H_N and every G_s inherit
    # the input's Z_p symmetry without a run-time check
    p, h = case
    assert h.is_real_valued() and zp_phase_gcd(h) % p == 0
    nf = normalize(h, 6, Frequencies(F(1), F(1)))
    assert zp_phase_gcd(nf.h_n) % p == 0
    for g in nf.generators:
        assert g.is_zero() or zp_phase_gcd(g) % p == 0


# the four diagonal anti-symplectic maps diag(s1, s2, -s1, -s2)
_ANTI_SYMPLECTIC_SIGNS = ((1, 1, -1, -1), (1, -1, -1, 1), (-1, 1, 1, -1),
                          (-1, -1, 1, 1))


@st.composite
def sign_patterned_polynomials(draw):
    """Real-chart polynomials of degree 2..5.  Half the draws keep only the
    monomials even under one drawn diagonal sign map, so every reversor
    set from none to all four turns up."""
    keep = draw(st.sampled_from(_ANTI_SYMPLECTIC_SIGNS))
    exps = draw(st.lists(st.sampled_from(
        [e for s in range(2, 6) for e in all_exponents(s)]),
        min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        exps = [e for e in exps
                if sum(k for k, s in zip(e, keep) if s < 0) % 2 == 0]
    return Polynomial(REAL, RATIONAL, 5, {
        e: CC(F(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3))))
        for e in exps})


@settings(max_examples=60, deadline=None)
@given(sign_patterned_polynomials())
def test_diagonal_reversors_are_the_sign_maps_fixing_h(h):
    # the parity rule picks exactly the R with H o R = H, R substituted
    want = tuple(r for r in _ANTI_SYMPLECTIC_SIGNS
                 if linear_substitute(h, [[r[i] if i == j else 0
                                           for j in range(4)]
                                          for i in range(4)]) == h)
    assert diagonal_reversors(h) == want
    assert diagonal_reversors(to_complex(h)) == want


@pytest.mark.parametrize("build,want", [
    (henon_heiles, ((1, -1, -1, 1), (-1, -1, 1, 1))),
    (hill_regularized, ((1, -1, -1, 1), (-1, 1, 1, -1))),
    (lambda: quadratic(1, 2), _ANTI_SYMPLECTIC_SIGNS),
], ids=["henon-heiles", "hill", "quadratic12"])
def test_reversors_of_the_models_commute_with_their_transforms(build, want):
    m = build()
    assert m.reversors == diagonal_reversors(m.poly) == want
    assert "reversors" not in m.symmetry
    for r in want:
        assert map_commutes(m.normal_form().transform, r)


@st.composite
def reversible_hamiltonians(draw):
    """(H, alpha, N): H2 of a drawn frequency pair plus 1-6 terms of degree
    3..N, N in 4..6, each even under one drawn diagonal reversor."""
    a1, a2 = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 3), (1, 5)]))
    order = draw(st.integers(4, 6))
    keep = draw(st.sampled_from(_ANTI_SYMPLECTIC_SIGNS))
    pool = [e for s in range(3, order + 1) for e in all_exponents(s)
            if sum(k for k, s in zip(e, keep) if s < 0) % 2 == 0]
    exps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6,
                         unique=True))
    alpha = Frequencies(F(a1), F(a2))
    h = Polynomial.quadratic_h2(tuple(alpha), REAL, RATIONAL, order)
    h = h + Polynomial(REAL, RATIONAL, order, {
        e: CC(F(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3))))
        for e in exps})
    return h, alpha, order


@settings(max_examples=40, deadline=None)
@given(reversible_hamiltonians())
def test_the_transform_commutes_with_every_diagonal_reversor(case):
    # the axis seeds rely on it: D(f o R) = -(Df) o R makes every G_s odd
    # under R, so each step map, and the transform, commutes with R
    h, alpha, order = case
    reversors = diagonal_reversors(h)
    assert reversors
    transform = normalize(h, order, alpha).transform
    assert all(map_commutes(transform, r) for r in reversors)


def test_isosceles_gets_no_reversor():
    # its flow is a closed form, not the polynomial's
    m = isosceles(3, 1, 4)
    assert diagonal_reversors(m.poly) == ((-1, 1, 1, -1), (-1, -1, 1, 1))
    assert m.reversors == ()
    assert m.symmetric_seed(1) == (2, ())
    assert m.symmetric_seed(2) == (3, ())


def test_map_commutes_reads_the_component_parities():
    r = (1, -1, -1, 1)
    phi = TruncatedMap.identity(RATIONAL, 4)
    assert all(map_commutes(phi, s) for s in _ANTI_SYMPLECTIC_SIGNS)
    # y1 -> y1 + x1^2 keeps y1 even under r; y1 -> y1 + x1 does not
    even = Polynomial.monomial(REAL, (0, 0, 2, 0), 1, RATIONAL, 4)
    odd = Polynomial.monomial(REAL, (0, 0, 1, 0), 1, RATIONAL, 4)
    for extra, commutes in ((even, True), (odd, False)):
        comps = list(phi.components)
        comps[0] = comps[0] + extra
        assert map_commutes(TruncatedMap(comps, 4), r) is commutes


def test_psi_conjugate_h2_invariant():
    h2 = Polynomial.quadratic_h2((F(1), F(1)), REAL, RATIONAL, 4)
    assert psi_conjugate(h2) == h2


def test_psi_conjugate_henon_heiles_radial():
    nf = henon_heiles(order=4).normal_form(4)
    conj = psi_conjugate(to_real(nf.h_n))
    z = to_complex(conj)
    assert z.coefficient((2, 0, 2, 0)) == CC(F(1, 24))
    assert z.coefficient((1, 1, 1, 1)) == CC(F(-1, 2))
    assert z.coefficient((0, 2, 0, 2)) == CC(F(1, 24))
    assert z.coefficient((0, 2, 2, 0)).is_zero()


def test_psi_twice_is_linear_consistency(rng):
    # conjugating twice equals substituting the oracle's squared matrix
    p = random_real_hamiltonian(rng, (1, 1), order=4, terms_per_degree=2)
    twice = psi_conjugate(psi_conjugate(p))
    m, fld = oracle_psi_matrix(p.field)
    sq = [[sum(m[i][k] * m[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    assert twice == linear_substitute(p.promote(fld), sq, fld)
    assert twice.field == fld


@pytest.mark.parametrize("chart", [REAL, COMPLEX])
@pytest.mark.parametrize("degrees", [(2, 4, 6), (0, 1, 2, 3, 5)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_psi_matches_the_real_chart_oracle(chart, degrees, data):
    p = data.draw(real_chart_polynomials(degrees))
    if data.draw(st.booleans()):     # an isotropic H2 runs the H2 check
        p = p + Polynomial.quadratic_h2((3, 3), REAL, p.field, p.order)
    h = to_complex(p) if chart == COMPLEX else p
    got, want = psi_conjugate(h), oracle_psi(h)
    assert got == want
    assert (got.chart, got.field, got.order) == \
        (chart, want.field, want.order)


@pytest.mark.parametrize("build", [henon_heiles, hill_regularized])
def test_psi_of_the_normal_forms_matches_the_oracle(build):
    nf = build(order=10).normal_form(10)
    got, want = psi_conjugate(nf.h_n), oracle_psi(nf.h_n)
    assert got == want
    assert got.field == want.field == RATIONAL


def test_psi_analysis_form_makes_no_chart_change(monkeypatch):
    nf = henon_heiles(order=10).normal_form(10)
    calls = []
    for mod in (poly, normalform, models):
        for name in ("to_complex", "to_real"):
            if name in vars(mod):
                def counted(p, _f=getattr(mod, name), _name=name):
                    calls.append(_name)
                    return _f(p)
                monkeypatch.setattr(mod, name, counted)
    psi_nf = models._psi_conjugated_result(nf)
    assert calls == []
    assert psi_nf.h_n.chart == COMPLEX


def test_symplectic_defect_of_normalizer_output(rng):
    h = random_real_hamiltonian(rng, (1, 2), order=6, terms_per_degree=2)
    nf = normalize(h, 6, Frequencies(F(1), F(2)))
    assert symplectic_defect(nf.transform, 6) == 0.0


def test_verify_decides_symplecticity_exactly(freqs12):
    # y1 -> y1 + 10^-400 y1^2 is not symplectic; its defect underflows a
    # float but not the exact check
    tiny = F(1, 10 ** 400)
    h = Polynomial.quadratic_h2((F(1), F(2)), REAL, RATIONAL, 4)
    nf = normalize(h, 4, freqs12)
    ident = TruncatedMap.identity(RATIONAL, 4).components
    bent = TruncatedMap(
        [ident[0] + Polynomial.monomial(REAL, (2, 0, 0, 0), tiny, RATIONAL, 4),
         *ident[1:]], 4)
    assert symplectic_defect(bent, 4) == 2 * tiny
    bad = NormalFormResult(nf.h_n, nf.generators, nf.alpha, nf.res,
                           nf.order, steps=[bent])
    failures = verify(bad, h).failures
    assert any(f.startswith("symplectic defect 1/5") for f in failures)


def test_normalize_builds_no_cc_in_the_product_kernel(monkeypatch):
    # the integer numerators are the storage: no product or composition of
    # a dense N = 5 normalization builds a CC coefficient
    rng = random.Random(5)
    terms = {e: CC(F(rng.randint(-20, 20), rng.randint(1, 12)))
             for d in range(3, 6) for e in all_exponents(d)}
    h = Polynomial(REAL, RATIONAL, 5, terms) + Polynomial.quadratic_h2(
        (F(1), F(2)), REAL, RATIONAL, 5)
    depth, built = [0], [0]
    init = CC.__init__

    def counted(self, *args):
        built[0] += depth[0] > 0
        init(self, *args)

    def inside(fn):
        def call(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    monkeypatch.setattr(CC, "__init__", counted)
    for name in ("sum_of_products", "compose_many"):
        monkeypatch.setattr(poly, name, inside(getattr(poly, name)))
    nf = normalize(h, 5, Frequencies(F(1), F(2)))
    monkeypatch.undo()
    assert built[0] == 0
    assert len(nf.h_n.coeffs) > 2 and any(not g.is_zero() for g in nf.generators)


def test_verify_quadratic_field_end_to_end():
    # the full normalize/compose/defect chain over Q(sqrt 15)
    m = isosceles(1, 1, order=4)
    nf = m.normal_form(4)
    assert nf.field.kind == "quadratic" and nf.field.d == 15
    assert verify(nf, m.poly).ok


def test_isosceles_alpha3_gamma4_exact():
    nf = isosceles(3, 1, order=4).normal_form(4)
    assert nf.coefficient((2, 0, 2, 0)) == CC(F(-3, 4))
    assert nf.coefficient((1, 1, 1, 1)) == CC(F(-27, 10))
    # the general-alpha closed form gives -663/160 at alpha = 3 (the sign
    # consistent with the Omega closed forms)
    assert nf.coefficient((0, 2, 0, 2)) == CC(F(-663, 160))


def test_isosceles_general_alpha_gamma4_closed_forms():
    # a_{2,0,2,0} = -3/(4 varpi); the other two radial coefficients are
    # rational functions of alpha times sqrt((1+2a)/(4+a)) powers
    a = F(2)
    nf = isosceles(a, 1, order=4).normal_form(4)
    f = nf.field
    s = QuadExt(0, F(1, 1), f.d)  # sqrt(core)
    assert nf.coefficient((2, 0, 2, 0)) == CC(f.coerce(F(-3, 4)))
    # a_{1,1,1,1} = -(3(24+55a)/(2(12+31a))) sqrt((1+2a)/(4+a))
    want = f.coerce(F(-3 * (24 + 55 * 2), 2 * (12 + 31 * 2)))
    root = None
    from bgnf.scalars import sqrt_in_field
    root = sqrt_in_field(F(1 + 2 * 2, 4 + 2), f)
    assert nf.coefficient((1, 1, 1, 1)) == CC(want * root)
    assert nf.coefficient((0, 2, 0, 2)) == CC(
        f.coerce(F(-9 * (1 + 2 * 2) * (128 + 380 * 2 + 31 * 4),
                   32 * (4 + 2) * (12 + 31 * 2))))
