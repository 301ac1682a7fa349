"""Decision procedure: nu, Omega, beta, series, case analysis, verdicts."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bgnf.scalars import CC, RATIONAL, QuadExt, quad_field
from bgnf.poly import COMPLEX, Polynomial
from bgnf.resonance import Frequencies, NONRESONANT, ResonanceData
from bgnf.normalform import NormalFormResult, check_plane_invariance
from bgnf import hopf
from bgnf.hopf import (
    IndeterminateError,
    amplitude_series,
    beta_coeffs,
    case_quantities,
    frequency_series,
    nu_index,
    omega_coeffs,
    orbit_existence,
    rotation_series,
    theorem_check,
    twist_product,
)
from bgnf.models import henon_heiles, hill_regularized, isosceles, quadratic

from conftest import all_exponents, oracle_amplitude_series, oracle_an_decompose


def synthetic_nf(table, alpha=(1, 1), res=ResonanceData(-1, 1), order=6):
    """Build a normal-form result directly from a kernel coefficient table."""
    field = RATIONAL
    coeffs = dict(Polynomial.quadratic_h2(
        (F(alpha[0]), F(alpha[1])), COMPLEX, field, order).coeffs)
    for e, c in table.items():
        cc = c if isinstance(c, CC) else CC(F(c))
        coeffs[e] = cc
        mirror = (e[2], e[3], e[0], e[1])
        if mirror != e:
            coeffs[mirror] = cc.conj()
    h_n = Polynomial(COMPLEX, field, order, coeffs)
    return NormalFormResult(
        h_n=h_n, generators=[],
        alpha=Frequencies(F(alpha[0]), F(alpha[1])), res=res, order=order)


# ---------------------------------------------------------------------------
# kernel lines
# ---------------------------------------------------------------------------


def oracle_axis_line(radial: dict, axis: int, cap: int, slot=None) -> list:
    """Coefficients 0..cap of a radial {(k1, k2): CC} block, or of its
    partial in ``slot``, with the other radial variable set to 0."""
    if slot is not None:
        radial = {(k1 - (slot == 1), k2 - (slot == 2)): c * (k1, k2)[slot - 1]
                  for (k1, k2), c in radial.items() if (k1, k2)[slot - 1]}
    on_axis = {r[axis - 1]: c for r, c in radial.items() if r[2 - axis] == 0}
    return [on_axis.get(k, CC(0)) for k in range(cap + 1)]


def random_kernel_nf(rnd, alpha, res, order):
    """A normal-form result on H2 plus every kernel monomial of degree
    3..order, each with a random nonzero coefficient (a_lk = conj(a_kl)).

    The kernel is read off alpha . (k - l) = 0, not off the lattice."""
    a1, a2 = F(alpha[0]), F(alpha[1])
    coeffs = dict(Polynomial.quadratic_h2((a1, a2), COMPLEX, RATIONAL,
                                          order).coeffs)
    for deg in range(3, order + 1):
        for e in all_exponents(deg):
            k1, k2, l1, l2 = e
            mirror = (l1, l2, k1, k2)
            if a1 * (k1 - l1) + a2 * (k2 - l2) != 0 or mirror in coeffs:
                continue
            re = F(rnd.choice([-1, 1]) * rnd.randint(1, 9), rnd.randint(1, 5))
            im = F(0) if e == mirror else F(rnd.randint(-9, 9), 7)
            coeffs[e] = CC(re, im)
            coeffs[mirror] = CC(re, -im)
    h_n = Polynomial(COMPLEX, RATIONAL, order, coeffs)
    return NormalFormResult(h_n=h_n, generators=[],
                            alpha=Frequencies(a1, a2), res=res, order=order)


@settings(max_examples=30, deadline=None)
@given(rnd=st.randoms(use_true_random=False),
       case=st.sampled_from([((1, 1), ResonanceData(-1, 1), 8),
                             ((1, 2), ResonanceData(-2, 1), 8),
                             ((2, 3), ResonanceData(-3, 2), 10)]))
def test_kernel_lines_match_the_oracle_decomposition(rnd, case):
    alpha, res, order = case
    nf = random_kernel_nf(rnd, alpha, res, order)
    dec = oracle_an_decompose(nf.h_n, res)
    assert dec.blocks               # every case carries a sigma block
    for axis in (1, 2):
        cap = order // 2
        assert hopf._line(nf, axis, cap) == oracle_axis_line(
            dec.a0, axis, cap)
        for slot in (1, 2):
            assert hopf._line(nf, axis, cap - 1, slot=slot) == \
                oracle_axis_line(dec.a0, axis, cap - 1, slot)
        for n, block in dec.blocks.items():
            cap_n = (order - n * (-res.m1 + res.m2)) // 2
            assert hopf._line(nf, axis, cap_n, n=n) == oracle_axis_line(
                block, axis, cap_n)


def test_kernel_lines_henon_heiles_quartic():
    # the quartic kernel form of the Henon-Heiles system: A0 on the axes,
    # the cross coefficient in the partial along I2, and the coefficient of
    # (zbar1 z2)^2 in the sigma^2 block
    nf = synthetic_nf({(2, 0, 2, 0): F(-5, 48), (0, 2, 0, 2): F(-5, 48),
                       (1, 1, 1, 1): F(1, 12), (0, 2, 2, 0): F(-7, 48)},
                      order=4)
    assert hopf._line(nf, 1, 2) == [CC(0), CC(0), CC(F(-5, 48))]
    assert hopf._line(nf, 2, 2) == [CC(0), CC(0), CC(F(-5, 48))]
    assert hopf._line(nf, 1, 1, slot=2) == [CC(0), CC(F(1, 12))]
    assert hopf._line(nf, 2, 1, slot=1) == [CC(0), CC(F(1, 12))]
    assert hopf._line(nf, 1, 0, n=2) == [CC(F(-7, 48))]
    assert hopf._line(nf, 2, 0, n=2) == [CC(F(-7, 48))]


def test_kernel_lines_hill_averaged():
    # A2 block: the coefficient of (zbar1 z2)^2 is -(15/8)(|z1|^2 + |z2|^2)
    hill = hill_regularized().averaged_form
    for axis in (1, 2):
        assert hopf._line(hill, axis, 1, n=2) == [CC(0), CC(F(-15, 8))]


def test_kernel_lines_of_pure_h2_are_zero():
    # the quadratic part is H2, never part of A0 or a block
    nf = synthetic_nf({}, alpha=(1, 2), res=ResonanceData(-2, 1))
    for axis in (1, 2):
        assert all(c.is_zero() for c in hopf._line(nf, axis, 3))
        assert all(c.is_zero() for slot in (1, 2)
                   for c in hopf._line(nf, axis, 2, slot=slot))
        assert all(c.is_zero() for c in hopf._line(nf, axis, 2, n=1))


BAD_KERNEL_FORMS = [
    ({(1, 0, 0, 0): CC(1), (0, 0, 1, 0): CC(1)}, "not in ker D"),
    ({(2, 0, 2, 0): CC(0, 1)}, "real-valued"),
]


def bad_kernel_nf(terms):
    coeffs = dict(Polynomial.quadratic_h2((F(1), F(1)), COMPLEX, RATIONAL,
                                          6).coeffs)
    coeffs.update(terms)
    return NormalFormResult(h_n=Polynomial(COMPLEX, RATIONAL, 6, coeffs),
                            generators=[],
                            alpha=Frequencies(F(1), F(1)),
                            res=ResonanceData(-1, 1), order=6)


@pytest.mark.parametrize("terms,match", BAD_KERNEL_FORMS,
                         ids=["non-kernel", "non-real"])
def test_amplitude_series_rejects_a_non_kernel_or_non_real_form(terms, match):
    with pytest.raises(ValueError, match=match):
        amplitude_series(bad_kernel_nf(terms), 1)


@pytest.mark.parametrize("call", [frequency_series, case_quantities],
                         ids=["frequency", "cases"])
@pytest.mark.parametrize("terms,match", BAD_KERNEL_FORMS,
                         ids=["non-kernel", "non-real"])
def test_series_entry_points_check_the_kernel_form(terms, match, call):
    with pytest.raises(ValueError, match=match):
        call(bad_kernel_nf(terms))


# ---------------------------------------------------------------------------
# scalar functionals
# ---------------------------------------------------------------------------


def test_nu_absent_for_pure_h2():
    nf = synthetic_nf({})
    assert nu_index(nf) is None


def test_nu_hill_and_hh():
    assert nu_index(hill_regularized().averaged_form) == 2
    psi_nf, _ = henon_heiles(order=4).analysis_form(4)
    assert nu_index(psi_nf) == 2


def test_nu_skips_to_three():
    nf = synthetic_nf({(3, 0, 3, 0): F(1)})
    assert nu_index(nf) == 3


def test_omega_coeffs_worked_values():
    psi_nf, _ = henon_heiles(order=4).analysis_form(4)
    om1, om2, om = omega_coeffs(psi_nf, 2)
    assert (om1, om2, om) == (F(-7, 12), F(-7, 12), F(-7, 6))
    hill = hill_regularized().averaged_form
    om1, om2, om = omega_coeffs(hill, 2)
    assert (om1, om2, om) == (F(1), F(-1), F(0))


def test_beta_coeffs_hill_and_synthetic():
    hill = hill_regularized().averaged_form
    assert beta_coeffs(hill) == (F(13, 4), F(13, 4))
    nf = synthetic_nf({(2, 0, 2, 0): F(1), (1, 1, 1, 1): F(1)})
    b1, b2 = beta_coeffs(nf)
    assert b1 == 6 and b2 == 0
    with pytest.raises(ValueError, match="order >= 6"):
        beta_coeffs(synthetic_nf({}, order=4))
    with pytest.raises(ValueError, match="alpha1 = alpha2"):
        beta_coeffs(synthetic_nf({}, alpha=(1, 2), res=ResonanceData(-2, 1)))


def test_orbit_existence_rules():
    # non-resonant: both exist
    assert orbit_existence(synthetic_nf({}, alpha=(1, 2),
                                        res=NONRESONANT)) == (True, True)
    # Henon-Heiles after Psi: only |l1-k1| = |k2-l2| in {0,2} monomials
    psi_nf, _ = henon_heiles(order=4).analysis_form(4)
    assert orbit_existence(psi_nf) == (True, True)
    # a_{0,1,2,0} destroys gamma1 when m2 = 1 (here k1=0: a_{0,1,2,0})
    nf = synthetic_nf({(0, 1, 2, 0): F(1)}, alpha=(1, 2),
                      res=ResonanceData(-2, 1))
    g1, g2 = orbit_existence(nf)
    assert not g1 and g2
    # a_{0,2,1,1}: k-l = (-1,1), present only when |m1| = 1: kills gamma2
    nf = synthetic_nf({(0, 2, 1, 1): F(1)})
    g1, g2 = orbit_existence(nf)
    assert g1 and not g2


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_amplitude_pure_h2_exact():
    nf = synthetic_nf({}, alpha=(1, 2), res=ResonanceData(-2, 1))
    u1 = amplitude_series(nf, 1)
    assert u1.coefficient(1) == 2 and u1.coefficient(2) == 0
    u2 = amplitude_series(nf, 2)
    assert u2.coefficient(1) == 1


def test_amplitude_and_frequency_hill_series():
    nf = hill_regularized().averaged_form
    u1 = amplitude_series(nf, 1)
    assert [u1.coefficient(k) for k in (1, 2, 3)] == [F(2), F(4), F(22)]
    u2 = amplitude_series(nf, 2)
    assert [u2.coefficient(k) for k in (1, 2, 3)] == [F(2), F(-4), F(22)]
    w1, w2, hw1, hw2 = frequency_series(nf)
    assert [w1.coefficient(k) for k in (0, 1, 2)] == [F(1), F(-4), F(-17)]
    assert [w2.coefficient(k) for k in (0, 1, 2)] == [F(1), F(4), F(-17)]
    assert [hw2.coefficient(k) for k in (0, 1, 2)] == [F(1), F(0), F(-7)]
    assert [hw1.coefficient(k) for k in (0, 1, 2)] == [F(1), F(0), F(-7)]


@pytest.fixture(scope="module")
def built_in_forms():
    """Analysis forms of the built-in models, over Q and Q(sqrt 15)."""
    forms = [henon_heiles(order=n).analysis_form(n)[0] for n in (4, 6, 8)]
    forms += [hill_regularized().averaged_form,
              hill_regularized(order=8).analysis_form(8)[0],
              isosceles(1, 1, order=6).analysis_form(6)[0],
              isosceles(3, 1, order=6).analysis_form(6)[0],
              quadratic(1, 2).analysis_form(6)[0]]
    assert {nf.field.kind for nf in forms} == {"rational", "quadratic"}
    return forms


def test_amplitude_series_matches_the_full_order_oracle(built_in_forms):
    for nf in built_in_forms:
        for axis, exists in zip((1, 2), orbit_existence(nf)):
            for K in range(1, nf.order // 2 + 1):
                if exists:
                    assert amplitude_series(nf, axis, K) == \
                        oracle_amplitude_series(nf, axis, K)


def radial_nf(field, alpha, radial, order):
    """A non-resonant normal-form result on H2 plus radial monomials,
    {(k1, k2): coefficient} for |z1|^2k1 |z2|^2k2."""
    coeffs = dict(Polynomial.quadratic_h2(alpha, COMPLEX, field,
                                          order).coeffs)
    for (k1, k2), c in radial.items():
        coeffs[(k1, k2, k1, k2)] = CC(field.coerce(c), field.zero())
    return NormalFormResult(h_n=Polynomial(COMPLEX, field, order, coeffs),
                            generators=[],
                            alpha=Frequencies(*alpha), res=NONRESONANT,
                            order=order)


@st.composite
def random_radial_forms(draw):
    """Random A0 lines over Q, Q(sqrt 2) and Q(sqrt 5), zeros included."""
    field = draw(st.sampled_from([RATIONAL, quad_field(2), quad_field(5)]))
    q = st.builds(F, st.integers(-6, 6), st.integers(1, 5))
    elem = q if field is RATIONAL else st.builds(
        lambda a, b: QuadExt(a, b, field.d), q, q)
    order = draw(st.sampled_from([4, 6, 8, 10]))
    a1 = F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    a2 = a1 + (F(draw(st.integers(0, 3))) if field is RATIONAL
               else QuadExt(0, draw(st.integers(1, 2)), field.d))
    radial = {}
    for k in range(2, order // 2 + 1):
        for key in ((k, 0), (0, k), (k - 1, 1)):
            radial[key] = draw(st.one_of(st.just(0), elem))
    return radial_nf(field, (field.coerce(a1), field.coerce(a2)), radial,
                     order)


@settings(max_examples=40, deadline=None)
@given(nf=random_radial_forms(), data=st.data())
def test_amplitude_series_matches_the_oracle_on_random_lines(nf, data):
    K = data.draw(st.integers(1, nf.order // 2))
    for axis in (1, 2):
        assert amplitude_series(nf, axis, K) == \
            oracle_amplitude_series(nf, axis, K)


def test_analyze_checks_the_kernel_form_and_orbits_once(monkeypatch):
    nf, facts = henon_heiles(order=8).analysis_form(8)
    calls = {"case_quantities": 0, "orbit_existence": 0, "_check_kernel": 0}
    for name in calls:
        inner = getattr(hopf, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(hopf, name, counted)
    ana = hopf.analyze(nf, facts)
    assert ana.product is not None
    assert calls == {"case_quantities": 1, "orbit_existence": 1,
                     "_check_kernel": 1}


def test_amplitude_requires_existing_orbit():
    nf = synthetic_nf({(0, 1, 2, 0): F(1)}, alpha=(1, 2),
                      res=ResonanceData(-2, 1))
    with pytest.raises(ValueError, match="orbit does not exist"):
        amplitude_series(nf, 1)


def test_analyze_keeps_the_cases_of_a_one_orbit_form():
    # the 1:2 form above has gamma2 only: its branch is derived, gamma1's
    # is marked absent, and no rotation series follows
    nf = synthetic_nf({(0, 1, 2, 0): F(1)}, alpha=(1, 2),
                      res=ResonanceData(-2, 1))
    ana = hopf.analyze(nf)
    b1, b2 = ana.cases.branch1, ana.cases.branch2
    assert (b1.exists, b2.exists) == (False, True)
    assert (ana.exists_gamma1, ana.exists_gamma2) == (False, True)
    assert b1.u is None and b2.u == amplitude_series(nf, 2)
    assert ana.rho1 is None and ana.rho2 is None and ana.product is None


def test_hill_case_quantities():
    nf = hill_regularized().averaged_form
    cd = case_quantities(nf)
    assert cd.branch1.mode == "unlocked" and cd.branch2.mode == "unlocked"
    assert cd.branch1.C.leading() == (2, F(16))
    assert cd.branch1.sign_S > 0 and cd.branch2.sign_S < 0
    # Delta1 = O(E^3)
    assert cd.branch1.Delta.valuation() >= 3


def test_rotation_and_twist_series():
    hill = hill_regularized().averaged_form
    r1, r2 = rotation_series(hill)
    assert [r1.coefficient(k) for k in (0, 1, 2)] == [F(2), F(4), F(26)]
    assert [r2.coefficient(k) for k in (0, 1, 2)] == [F(2), F(-4), F(26)]
    prod = twist_product(hill)
    assert [prod.coefficient(k) for k in (0, 1, 2)] == [F(1), F(0), F(36)]
    psi_nf, _ = henon_heiles(order=4).analysis_form(4)
    r1, r2 = rotation_series(psi_nf)
    assert [r1.coefficient(k) for k in (0, 1)] == [F(2), F(-7, 3)]
    assert [r2.coefficient(k) for k in (0, 1)] == [F(2), F(-7, 3)]
    prod = twist_product(psi_nf)
    assert [prod.coefficient(k) for k in (0, 1)] == [F(1), F(-14, 3)]


def test_zero_energy_limits_every_branch():
    # rho1(0) = 1 + alpha2/alpha1 and rho2(0) = 1 + alpha1/alpha2
    cases = [
        synthetic_nf({(2, 0, 2, 0): F(1)}, alpha=(1, 2), res=ResonanceData(-2, 1)),
        synthetic_nf({(2, 0, 2, 0): F(1)}, alpha=(2, 3), res=ResonanceData(-3, 2)),
        synthetic_nf({(2, 0, 2, 0): F(1)}, alpha=(1, 1)),
        hill_regularized().averaged_form,
    ]
    for nf in cases:
        r1, r2 = rotation_series(nf)
        a1, a2 = F(nf.alpha.alpha1), F(nf.alpha.alpha2)
        assert r1.coefficient(0) == 1 + a2 / a1
        assert r2.coefficient(0) == 1 + a1 / a2


def test_locked_branch_synthetic():
    # m2 = 1, |m1| = 2 with a_{0,1,2,0} != 0: that same coefficient is an
    # A_1 obstruction, so gamma1 does not exist on the truncated flow.
    nf = synthetic_nf({(2, 0, 2, 0): F(1), (1, 1, 1, 1): F(1),
                       (0, 1, 2, 0): F(1, 4)},
                      alpha=(1, 2), res=ResonanceData(-2, 1), order=6)
    g1, g2 = orbit_existence(nf)
    assert not g1 and g2
    # genuine locked case: m2 = 2, |m1| = 3 < 2(nu-1) with nu = 3 and
    # a_{0,2,|m1|,0} != 0 gives C1 = -(const) E^3 + ... < 0
    nf = synthetic_nf({(3, 0, 3, 0): F(1), (0, 2, 3, 0): F(1, 4)},
                      alpha=(2, 3), res=ResonanceData(-3, 2), order=6)
    assert nu_index(nf) == 3
    cd = case_quantities(nf)
    assert cd.branch1.mode == "locked"
    assert cd.branch1.C.leading()[0] == 3 and cd.branch1.C.leading_sign() < 0
    assert cd.branch2.mode == "plain"
    r1, r2 = rotation_series(nf)
    assert r1.coefficient(0) == F(5, 2)
    assert all(r1.coefficient(k) == 0 for k in range(1, int(r1.err_order)))


def test_indeterminate_sqrt_branch():
    # m2 = 1, |m1| = 2 = nu - 1 with both the Omega and the forcing term
    # entering C1 at the same order: the leading coefficient of C1 is
    # 64 Omega^2 - 256 |a|^2 = 48, not a rational square, so the branch is
    # reported Indeterminate instead of guessed
    nf = synthetic_nf({(2, 1, 2, 1): F(1), (0, 2, 4, 0): F(1, 4)},
                      alpha=(1, 2), res=ResonanceData(-2, 1), order=6)
    assert nu_index(nf) == 3
    cd = case_quantities(nf)
    assert cd.branch1.mode == "indeterminate"
    assert "sqrt" in cd.branch1.reason
    with pytest.raises(IndeterminateError):
        rotation_series(nf)
    # boundary variant: 64 Omega^2 - 256 |a|^2 = 0 exactly -> locked
    nf = synthetic_nf({(2, 1, 2, 1): F(1), (0, 2, 4, 0): F(1, 2)},
                      alpha=(1, 2), res=ResonanceData(-2, 1), order=6)
    cd = case_quantities(nf)
    assert cd.branch1.mode == "locked" and cd.branch1.boundary


def test_analyze_keeps_cases_of_an_indeterminate_branch():
    nf = synthetic_nf({(2, 1, 2, 1): F(1), (0, 2, 4, 0): F(1, 4)},
                      alpha=(1, 2), res=ResonanceData(-2, 1), order=6)
    ana = hopf.analyze(nf)
    assert ana.cases.branch1.mode == "indeterminate"
    assert ana.rho1 is None and ana.rho2 is None and ana.product is None


def test_analyze_derives_each_amplitude_once(monkeypatch):
    calls = []
    inner = hopf.amplitude_series

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(hopf, "amplitude_series", counted)
    ana = hopf.analyze(hill_regularized().averaged_form)
    assert ana.product.coeffs == [F(1), F(0), F(36)]
    assert len(calls) <= 2


@pytest.mark.parametrize("K", [50, -1])
def test_analyze_rejects_a_series_order_out_of_range(K):
    nf = henon_heiles(order=4).normal_form(4)
    with pytest.raises(ValueError, match=r"0\.\.1 for N = 4"):
        hopf.analyze(nf, None, K)


def test_case_m2_ge_3_plain():
    nf = synthetic_nf({(2, 0, 2, 0): F(1)}, alpha=(2, 3),
                      res=ResonanceData(-3, 2), order=6)
    cd = case_quantities(nf)
    # m2 = 2 branch applies to gamma1 (case), |m1| = 3 >= 3 to gamma2 (plain)
    assert cd.branch2.mode == "plain"
    nf = synthetic_nf({(2, 0, 2, 0): F(1)}, alpha=(3, 4),
                      res=ResonanceData(-4, 3), order=6)
    cd = case_quantities(nf)
    assert cd.branch1.mode == "plain" and cd.branch2.mode == "plain"


def test_theorem_11_nonresonant_clause_i():
    nf = synthetic_nf({(2, 0, 2, 0): F(1)}, alpha=(1, 2), res=NONRESONANT,
                      order=6)
    v = theorem_check(nf)
    assert v.theorem == "1.1" and v.clause == "i" and v.satisfied


def test_theorem_11_m2_2_clauses():
    # (ii): |m1| = 3 > 2(nu-1) = 2 with nu = 2
    nf = synthetic_nf({(2, 0, 2, 0): F(1)}, alpha=(2, 3),
                      res=ResonanceData(-3, 2), order=6)
    v = theorem_check(nf)
    assert (v.theorem, v.clause) == ("1.1", "ii")
    # (iii): |m1| = 4 = 2(nu-1) with nu = 3 and a_{0,2,4,0} = 0
    nf = synthetic_nf({(3, 0, 3, 0): F(1)}, alpha=(2, 4),
                      res=ResonanceData(-2, 1), order=6)
    # wrong class on purpose: a (2,4) pair is m2=1; use (3,6)->(-2,1)? no:
    # build a genuine m2=2 case with alpha=(3,6)? 3*m1+6*m2=0 -> (-2,1).
    # Use alpha=(2,5): 2 m1 + 5 m2 = 0 -> (-5,2): |m1|=5 > 4, clause (ii).
    nf = synthetic_nf({(3, 0, 3, 0): F(1)}, alpha=(2, 5),
                      res=ResonanceData(-5, 2), order=6)
    v = theorem_check(nf)
    assert (v.theorem, v.clause) == ("1.1", "ii")


def test_theorem_12_requires_plane_symmetry():
    nf = synthetic_nf({(2, 0, 2, 0): F(1), (1, 1, 1, 1): F(1)},
                      alpha=(1, 2), res=ResonanceData(-2, 1), order=6)
    v = theorem_check(nf)
    assert v.theorem == "1.2" and not v.satisfied
    assert any("plane" in line for line in v.hypothesis_trace)
    v = theorem_check(nf, {"plane_z2": True})
    assert (v.theorem, v.clause, v.satisfied) == ("1.2", "v", True)


def test_theorem_12_clause_iv():
    # a_{0,1,2,0} != 0 with Omega_{2,1} != 0: clause (iv) fires first
    nf = synthetic_nf({(2, 0, 2, 0): F(1), (1, 1, 1, 1): F(1),
                       (0, 1, 2, 0): F(1, 4)},
                      alpha=(1, 2), res=ResonanceData(-2, 1), order=6)
    v = theorem_check(nf, {"plane_z2": True})
    assert (v.theorem, v.clause, v.satisfied) == ("1.2", "iv", True)
    k, c = v.predicted_leading
    om1 = omega_coeffs(nf, 2)[0]
    assert (k, c) == (1, 2 * om1)


@pytest.mark.parametrize("table,alpha,res,order,facts,clause,k", [
    # 3:2, nu = 3: |m1| = 3 < 2(nu - 1), and a_{0,2,3,0} != 0
    ({(3, 0, 3, 0): F(1), (0, 3, 0, 3): F(2), (0, 2, 3, 0): F(1, 3)},
     (2, 3), ResonanceData(-3, 2), 6, {}, ("1.1", "iv"), 2),
    # 1:3, nu = 4: |m1| = nu - 1, and a_{0,2,6,0} = 0
    ({(4, 0, 4, 0): F(1), (0, 4, 0, 4): F(1, 2), (3, 1, 3, 1): F(1)},
     (1, 3), ResonanceData(-3, 1), 8, {"plane_z2": True}, ("1.2", "ii"), 3),
    # 1:3, nu = 5: |m1| < nu - 1, and a_{0,2,6,0} != 0
    ({(5, 0, 5, 0): F(1), (0, 5, 0, 5): F(1, 2), (1, 4, 1, 4): F(1),
      (0, 2, 6, 0): F(1, 5)},
     (1, 3), ResonanceData(-3, 1), 10, {"plane_z2": True}, ("1.2", "iii"), 4),
], ids=["1.1-iv", "1.2-ii", "1.2-iii"])
def test_theorem_clause_matches_the_twist_product(table, alpha, res, order,
                                                  facts, clause, k):
    # analyze raises when the predicted E^k coefficient differs from the
    # series; below E^k the product must be 1 + 0 E + ...
    nf = synthetic_nf(table, alpha=alpha, res=res, order=order)
    if facts:
        assert check_plane_invariance(nf.h_n, "z2")
    ana = hopf.analyze(nf, facts)
    v = ana.verdict
    assert (v.theorem, v.clause, v.satisfied) == (*clause, True)
    assert v.predicted_leading[0] == k < ana.product.err_order
    assert [ana.product.coefficient(j) for j in range(k + 1)] == [
        1, *[0] * (k - 1), v.predicted_leading[1]]


def test_theorem_13_henon_heiles_and_hill():
    m = henon_heiles(order=4)
    ana = m.analysis(4)
    assert (ana.verdict.theorem, ana.verdict.clause) == ("1.3", "i")
    assert ana.verdict.predicted_leading == (1, F(-14, 3))
    hill = hill_regularized()
    ana = hill.analysis()
    assert (ana.verdict.theorem, ana.verdict.clause) == ("1.3", "ii")
    assert ana.verdict.predicted_leading == (2, F(36))


def test_degenerate_quadratic_inconclusive():
    ana = quadratic(1, 2).analysis()
    assert ana.nu is None
    assert not ana.verdict.satisfied
    assert ana.product.known_zero() or ana.product.coefficient(0) == 1
    # product = 1 + O(E^(floor(N/2))) when nu is absent
    assert all(ana.product.coefficient(k) == 0
               for k in range(1, int(ana.product.err_order)))


def test_omega_identity_invariant():
    # Omega_nu = Omega_nu1 / (a2 a1^(nu-1)) + Omega_nu2 / (a1 a2^(nu-1))
    for model in (henon_heiles(order=4), hill_regularized(), isosceles(3, 1, 4)):
        ana = model.analysis()
        assert ana.nu is not None
        field = ana.nf.field
        a1 = field.coerce(ana.nf.alpha.alpha1)
        a2 = field.coerce(ana.nf.alpha.alpha2)
        nu = ana.nu
        assert ana.omega_nu == (ana.omega_nu1 / (a2 * a1 ** (nu - 1))
                                + ana.omega_nu2 / (a1 * a2 ** (nu - 1)))


def test_product_consistency_with_rho_series():
    for nf in (hill_regularized().averaged_form,
               henon_heiles(order=6).analysis_form(6)[0]):
        r1, r2 = rotation_series(nf)
        prod = twist_product(nf)
        direct = (r1 - 1) * (r2 - 1)
        upto = min(int(prod.err_order), int(direct.err_order)) - 1
        assert all(prod.coefficient(k) == direct.coefficient(k)
                   for k in range(upto + 1))


def test_axis_swap_symmetry_equal_frequencies():
    # relabeling the axes maps rho1 <-> rho2 and fixes the twist product
    hill = hill_regularized().averaged_form
    swapped_table = {}
    for (k1, k2, l1, l2), c in hill.h_n.coeffs.items():
        if (k1, k2, l1, l2) == (1, 0, 1, 0) or (k1, k2, l1, l2) == (0, 1, 0, 1):
            continue
        swapped_table[(k2, k1, l2, l1)] = c
    swapped = synthetic_nf(swapped_table, alpha=(1, 1), order=6)
    r1, r2 = rotation_series(hill)
    s1, s2 = rotation_series(swapped)
    assert r1.coeffs == s2.coeffs and r2.coeffs == s1.coeffs
    assert twist_product(hill).coeffs == twist_product(swapped).coeffs


def test_isosceles_verdicts_and_closed_forms():
    data = {
        1: ("1.1", "i"),
        2: ("1.1", "i"),
        3: ("1.2", "v"),
    }
    for a, (thm, clause) in data.items():
        ana = isosceles(a, 1, order=4).analysis()
        assert (ana.verdict.theorem, ana.verdict.clause) == (thm, clause)
        field = ana.nf.field
        a1 = field.coerce(ana.nf.alpha.alpha1)
        a2 = field.coerce(ana.nf.alpha.alpha2)
        assert ana.omega_nu1 / (a1 * a2) == field.coerce(
            F(21 * a, 16 * (12 + 31 * a)))
        assert ana.omega_nu2 / (a1 * a2) == field.coerce(
            F(3 * a * (260 + 93 * a), 256 * (12 + 31 * a)))
        assert ana.omega_nu == field.coerce(
            F(279 * a * (4 + a), 256 * (12 + 31 * a)))
    zero = isosceles(0, 1, order=4).analysis()
    assert zero.omega_nu1 == 0 and zero.omega_nu2 == 0 and zero.omega_nu == 0


def test_isosceles_twist_leading_sample():
    # 1 + 279 a (4+a) / (64 (12+31a) varpi) E at (a, varpi) = (1, 1)
    ana = isosceles(1, 1, order=4).analysis()
    lead = ana.product.coefficient(1)
    field = ana.nf.field
    assert lead == field.coerce(F(279 * 5, 64 * 43))
