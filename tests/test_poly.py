"""Core polynomial algebra: brackets, D, splitting, charts, maps, format."""

import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bgnf import poly
from bgnf.scalars import CC, FieldError, RATIONAL, QuadExt, quad_field
from bgnf.poly import (
    COMPLEX,
    REAL,
    ChartError,
    KernelMonomialError,
    Polynomial,
    PolynomialFormatError,
    TruncatedMap,
    apply_D,
    compose_map,
    compose_maps,
    degree,
    invert_generating,
    linear_substitute,
    read_polynomial,
    solve_homological,
    split_ker_im,
    symplectic_defect,
    to_complex,
    to_real,
    write_polynomial,
)
from bgnf.models import henon_heiles
from bgnf.resonance import NONRESONANT, ResonanceData

from conftest import (
    all_exponents,
    canonical_den,
    from_terms,
    oracle_apply_D,
    oracle_add,
    oracle_compose,
    oracle_diff,
    oracle_homogeneous_part,
    oracle_mul,
    oracle_scale,
    oracle_truncate,
    oracle_invert_generating,
    oracle_linear_substitute,
    oracle_pullback_form,
    oracle_split_solve,
    oracle_times_eigenvalue,
    oracle_to_complex,
    oracle_to_real,
    poisson_bracket,
    random_real_hamiltonian,
    random_real_valued_complex,
    real_chart_polynomials,
    sympy_bracket,
    sympy_compose,
    poly_to_sympy,
    sympy_vars,
)


def mono(chart, e, c, order=8, field=RATIONAL):
    return Polynomial.monomial(chart, e, c, field, order)


def h2(alpha, chart=REAL, order=8):
    return Polynomial.quadratic_h2(alpha, chart, RATIONAL, order)


# ---------------------------------------------------------------------------
# products against the schoolbook oracle
# ---------------------------------------------------------------------------

QSQRT2 = quad_field(2)


@st.composite
def cc_values(draw, field, real=False):
    """A coefficient over ``field``; ``real`` makes its imaginary part 0."""
    def part():
        a = F(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
        if field == RATIONAL:
            return a
        return QuadExt(a, F(draw(st.integers(-9, 9)), draw(st.integers(1, 6))),
                       field.d)
    return CC(part(), field.zero() if real else part())


@st.composite
def exact_polynomials(draw, chart, field, degrees=None):
    """Up to six terms over Q or Q(sqrt 2), order 1..6, or terms of the
    given ``degrees`` at order 9; every imaginary part is 0 about half the
    time."""
    order = draw(st.integers(1, 6)) if degrees is None else 9
    if field != RATIONAL and draw(st.booleans()):
        field = RATIONAL            # mixed operands join into Q(sqrt 2)
    exps = draw(st.lists(
        st.sampled_from([e for d in (degrees or range(order + 1))
                         for e in all_exponents(d)]),
        max_size=6, unique=True))
    real = draw(st.booleans())
    coeffs = {e: draw(cc_values(field, real)) for e in exps}
    return Polynomial(chart, field, order, coeffs)


@st.composite
def product_cases(draw):
    chart = draw(st.sampled_from([REAL, COMPLEX]))
    field = draw(st.sampled_from([RATIONAL, QSQRT2]))
    a, b, c = (draw(exact_polynomials(chart, field)) for _ in range(3))
    scales = [draw(cc_values(field).filter(lambda x: not x.is_zero()))
              for _ in range(2)]
    return a, b, c, scales, field, draw(st.integers(0, 7))


def same(got, want):
    assert got == want
    assert (got.chart, got.field, got.order) == \
        (want.chart, want.field, want.order)


def canonical(p):
    # the stored form: no zero numerator, keys ascending in each part, and
    # the denominator is the lcm of the reduced coefficient denominators
    stored_canonically(p)
    assert p.den == canonical_den(p.coeffs)


def stored_canonically(p):
    for part in (p.re, p.im):
        assert all(x not in (0, (0, 0)) for x in part.values())
        assert list(part) == sorted(part)


@settings(max_examples=80, deadline=None)
@given(product_cases())
def test_products_match_the_schoolbook_oracle(case):
    a, b, c, (s1, s2), field, order = case
    ab = a * b
    same(ab, oracle_mul(a, b))
    canonical(ab)

    # factor pairs of polynomials and integer forms over ``field``, a
    # constant as one term at key 0 on either side, and A alone
    one = Polynomial.monomial(a.chart, (0, 0, 0, 0), 1, field, order)
    k1, k2 = (poly._int_form(Polynomial.monomial(a.chart, (0, 0, 0, 0), s,
                                                 field, 0), field)
              for s in (s1, s2))
    got = poly.sum_of_products(
        [(a, b), (k1, c), (poly._int_form(c, field), k2), (b, None)],
        order, field, a.chart)
    # a scale over Q(sqrt 2) needs a product promoted to that field
    want = (oracle_mul(a, b, order).promote(field)
            + oracle_mul(c, one, order).promote(field).scale(s1)
            + oracle_mul(c, one, order).promote(field).scale(s2)
            + oracle_mul(b, one, order).promote(field))
    same(got, want)
    canonical(got)
    field = a.field.join(b.field)

    # {a, b} = sum_j d_yj a d_xj b - d_xj a d_yj b, times 2i on the complex
    # chart
    want = Polynomial.zero(a.chart, field, min(a.order, b.order))
    for j in range(2):
        want = (want + oracle_mul(a.diff(j), b.diff(2 + j))
                - oracle_mul(a.diff(2 + j), b.diff(j)))
    if a.chart == COMPLEX:
        want = want.scale(CC(field.zero(), field.coerce(2)))
    same(poisson_bracket(a, b), want)


@st.composite
def kernel_operands(draw, chart, field, order):
    """A dense or a sparse operand at ``order`` or one above it, over Q or
    ``field``: a dense one holds each monomial with probability 1/2..1, a
    sparse one up to six; every imaginary part is 0 about half the time."""
    top = order + draw(st.integers(0, 1))
    if field != RATIONAL and draw(st.booleans()):
        field = RATIONAL            # mixed operands join into Q(sqrt 2)
    real = draw(st.booleans())
    support = [e for d in range(top + 1) for e in all_exponents(d)]
    if not draw(st.booleans()):
        exps = draw(st.lists(st.sampled_from(support), max_size=6,
                             unique=True))
        return Polynomial(chart, field, top,
                          {e: draw(cc_values(field, real)) for e in exps})
    rnd = draw(st.randoms(use_true_random=False))
    keep = rnd.uniform(0.5, 1)

    def part():
        a = F(rnd.randint(-9, 9), rnd.randint(1, 6))
        return a if field == RATIONAL else QuadExt(
            a, F(rnd.randint(-9, 9), rnd.randint(1, 6)), field.d)

    return Polynomial(chart, field, top, {
        e: CC(part(), field.zero() if real else part())
        for e in support if rnd.random() < keep})


@st.composite
def kernel_cases(draw):
    """(entries, order, field, chart): one to three factor pairs at an
    order 0..4, B None (A alone) about a third of the time."""
    chart = draw(st.sampled_from([REAL, COMPLEX]))
    field = draw(st.sampled_from([RATIONAL, QSQRT2]))
    order = draw(st.integers(0, 4))
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(kernel_operands(chart, field, order))
        b = (None if draw(st.integers(0, 2)) == 0
             else draw(kernel_operands(chart, field, order)))
        entries.append((a, b))
    return entries, order, field, chart


def test_rank_accumulator_matches_the_schoolbook_oracle(monkeypatch):
    # a call takes the dict or the rank accumulator by its pair work; both
    # give the schoolbook sum, stored canonically, and both are taken
    taken = set()
    for name in ("_acc_pairs", "_acc_ranked"):
        def counted(*args, inner=getattr(poly, name), name=name):
            taken.add(name)
            return inner(*args)

        monkeypatch.setattr(poly, name, counted)

    @settings(max_examples=80, deadline=None)
    @given(kernel_cases())
    def check(case):
        entries, order, field, chart = case
        one = Polynomial.monomial(chart, (0, 0, 0, 0), 1, field, order)
        want = {}
        for a, b in entries:
            prod = oracle_mul(a, one if b is None else b, order)
            for e, c in prod.promote(field).coeffs.items():
                want[e] = want[e] + c if e in want else c
        got = poly.sum_of_products(entries, order, field, chart)
        same(got, Polynomial(chart, field, order, want))
        canonical(got)

    check()
    assert taken == {"_acc_pairs", "_acc_ranked"}


def test_rank_table_rows_hold_the_ranks_of_the_products():
    # grown one order at a time from empty: the keys of degree <= N are the
    # first cnt[N] ranks in graded lexicographic order, and row r holds
    # rank(key r + key j) for every j with deg r + deg j <= N
    top = 8
    graded = sorted((e for d in range(top + 1) for e in all_exponents(d)),
                    key=lambda e: (degree(e), e))
    rank = {e: r for r, e in enumerate(graded)}
    table = poly._RankTable()
    for order in range(top + 1):
        size = table.size(order)
        assert size == sum(degree(e) <= order for e in graded)
        assert table.keys == [poly._key(e) for e in graded[:size]]
        assert table.cnt == [sum(degree(e) <= t for e in graded)
                             for t in range(order + 1)]
        for r, a in enumerate(graded[:size]):
            n = table.cnt[order - degree(a)]
            assert table.row(r, n)[:n] == [
                rank[tuple(i + j for i, j in zip(a, b))] for b in graded[:n]]


@st.composite
def linear_cases(draw):
    chart = draw(st.sampled_from([REAL, COMPLEX]))
    field = draw(st.sampled_from([RATIONAL, QSQRT2]))
    a, b = (draw(exact_polynomials(chart, field)) for _ in range(2))
    return (a, b, draw(cc_values(a.field)), draw(st.integers(0, 3)),
            draw(st.integers(0, 7)))


@settings(max_examples=80, deadline=None)
@given(linear_cases())
def test_linear_operations_match_the_fraction_oracle(case):
    # values, order and the canonical denominator of the stored form
    a, b, s, var, k = case
    both = a.field.join(b.field)
    for got, field, (coeffs, order) in [
            (a + b, both, oracle_add(a, b)),
            (a - b, both, oracle_add(a, b, -1)),
            (a.scale(s), a.field, oracle_scale(a, s)),
            (a.diff(var), a.field, oracle_diff(a, var)),
            (a.truncate(k), a.field, oracle_truncate(a, k)),
            (a.homogeneous_part(k), a.field, oracle_homogeneous_part(a, k))]:
        assert dict(got.coeffs) == coeffs
        assert (got.field, got.order) == (field, order)
        assert got.den == canonical_den(coeffs)
        stored_canonically(got)


@st.composite
def exponents_to_the_cap(draw):
    """Four exponents of total degree <= MAX_ORDER."""
    rest = draw(st.integers(0, poly.MAX_ORDER))
    exps = []
    for _ in range(3):
        exps.append(draw(st.integers(0, rest)))
        rest -= exps[-1]
    return tuple(exps) + (draw(st.integers(0, rest)),)


@settings(max_examples=100, deadline=None)
@given(st.lists(exponents_to_the_cap(), max_size=30), exponents_to_the_cap(),
       exponents_to_the_cap())
def test_packed_keys_are_graded_lexicographic(es, a, b):
    # ascending keys are the (degree, exponents) order of every report, a
    # key unpacks to its exponents, and the key of a product is the sum
    assert sorted(es, key=poly._key) == sorted(es, key=lambda e: (sum(e), e))
    assert poly._exps(poly._key(a)) == a
    product = tuple(i + j for i, j in zip(a, b))
    if sum(product) <= poly.MAX_ORDER:
        assert poly._key(a) + poly._key(b) == poly._key(product)
    else:
        assert poly._key(a) + poly._key(b) >= poly._limit(poly.MAX_ORDER)
    for e in es:
        assert poly._key(e) >> 32 == sum(e)


# ---------------------------------------------------------------------------
# Poisson bracket
# ---------------------------------------------------------------------------


def test_bracket_canonical_pair():
    y1 = mono(REAL, (1, 0, 0, 0), 1)
    x1 = mono(REAL, (0, 0, 1, 0), 1)
    assert poisson_bracket(y1, x1) == mono(REAL, (0, 0, 0, 0), 1)


def test_bracket_antisymmetry_h2():
    h = h2((1, 2))
    assert poisson_bracket(h, h).is_zero()


def test_bracket_h2_z1z1bar_equal_freqs():
    # {H2, z1 zbar1} = 0 for alpha = (1,1): verified by brute-force
    # differentiation in the real chart
    h = h2((1, 1))
    p = to_real(mono(COMPLEX, (1, 0, 1, 0), 1))
    br = poisson_bracket(h, p)
    assert br.is_zero()
    assert sympy_bracket(h, p) == 0


def test_bracket_matches_sympy(rng):
    for _ in range(5):
        p = random_real_hamiltonian(rng, (1, 2), order=4, terms_per_degree=2)
        q = random_real_hamiltonian(rng, (1, 3), order=4, terms_per_degree=2)
        ours = poisson_bracket(p, q)
        theirs = sympy_bracket(p, q, order=4)
        assert poly_to_sympy(ours, sympy_vars()) == theirs


def test_bracket_chart_mismatch():
    p = mono(REAL, (1, 0, 0, 0), 1)
    q = mono(COMPLEX, (1, 0, 0, 0), 1)
    with pytest.raises(ChartError):
        poisson_bracket(p, q)


def test_bracket_field_mismatch_rejected():
    p = mono(REAL, (1, 0, 0, 0), 1).promote(quad_field(2))
    q = mono(REAL, (0, 0, 1, 0), 1).promote(quad_field(3))
    with pytest.raises(FieldError):
        poisson_bracket(p, q)


@st.composite
def bracket_operands(draw):
    """Three polynomials of degree <= 3 on one chart at order 9, so no
    bracket or product of them is truncated."""
    chart = draw(st.sampled_from([REAL, COMPLEX]))
    field = draw(st.sampled_from([RATIONAL, QSQRT2]))
    return [draw(exact_polynomials(chart, field, range(4))) for _ in range(3)]


@settings(max_examples=60, deadline=None)
@given(bracket_operands())
def test_bracket_jacobi_identity(case):
    # {p,{q,r}} + {q,{r,p}} + {r,{p,q}} = 0
    p, q, r = case
    total = (poisson_bracket(p, poisson_bracket(q, r))
             + poisson_bracket(q, poisson_bracket(r, p))
             + poisson_bracket(r, poisson_bracket(p, q)))
    assert total.is_zero()


@settings(max_examples=60, deadline=None)
@given(bracket_operands())
def test_bracket_leibniz_identity(case):
    # {f, g h} = {f, g} h + g {f, h}
    f, g, h = case
    assert (poisson_bracket(f, g * h)
            == poisson_bracket(f, g) * h + g * poisson_bracket(f, h))


# ---------------------------------------------------------------------------
# the operator D
# ---------------------------------------------------------------------------


def test_apply_d_radial_vanishes():
    p = mono(COMPLEX, (1, 0, 1, 0), 1)
    assert apply_D(p, (F(7), F(3))).is_zero()


def test_apply_d_z1z2():
    p = mono(COMPLEX, (1, 1, 0, 0), 1)
    out = apply_D(p, (F(2), F(4)))
    assert out == mono(COMPLEX, (1, 1, 0, 0), CC(F(0), F(-6)))


def test_apply_d_resonant_zero():
    # z1^2 zbar2 with alpha = (2,4): eigenvalue 2*2 - 4*1 = 0
    p = mono(COMPLEX, (2, 0, 0, 1), 1)
    assert apply_D(p, (F(2), F(4))).is_zero()


def test_apply_d_requires_complex_chart():
    with pytest.raises(ChartError):
        apply_D(mono(REAL, (1, 0, 0, 0), 1), (1, 1))


def test_apply_d_eigenvalue_property_all_monomials():
    # For every monomial and alpha: D z^k zb^l = -i (alpha.(k-l)) z^k zb^l
    for deg in range(1, 6):
        for e in [(k1, k2, l1, deg - k1 - k2 - l1)
                  for k1 in range(deg + 1)
                  for k2 in range(deg + 1 - k1)
                  for l1 in range(deg + 1 - k1 - k2)]:
            p = mono(COMPLEX, e, 1)
            got = apply_D(p, (F(2), F(3)))
            lam = F(2) * (e[0] - e[2]) + F(3) * (e[1] - e[3])
            want = p.scale(CC(F(0), -lam))
            assert got == want


def test_apply_d_matches_differentiation_oracle(rng):
    for _ in range(5):
        p = random_real_valued_complex(rng, order=6, terms_per_degree=2)
        assert apply_D(p, (F(1), F(2))) == oracle_apply_D(p, (F(1), F(2)))


def test_d_is_bracket_with_h2(rng):
    # to_real(apply_D(to_complex(p))) == {H2, p} coefficient for coefficient
    for alpha in ((1, 1), (1, 2), (2, 3)):
        p = random_real_hamiltonian(rng, alpha, order=6, terms_per_degree=3)
        lhs = to_real(apply_D(to_complex(p), (F(alpha[0]), F(alpha[1]))))
        rhs = poisson_bracket(h2(alpha, order=p.order), p)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# kernel / image split and the homological solve
# ---------------------------------------------------------------------------


def test_split_radial_all_kernel():
    p = mono(COMPLEX, (2, 0, 2, 0), 1)
    ker, img = split_ker_im(p, NONRESONANT)
    assert ker == p and img.is_zero()


def test_split_henon_heiles_cubic_kernel_empty():
    # the cubic part of the Henon-Heiles Hamiltonian has no kernel part for
    # the (-1,1) resonance
    h3 = from_terms(REAL, [((0, 0, 2, 1), 1), ((0, 0, 0, 3), F(-1, 3))],
                    RATIONAL, 6)
    ker, img = split_ker_im(to_complex(h3), ResonanceData(-1, 1))
    assert ker.is_zero()
    assert img == to_complex(h3)


def test_split_sigma_terms_kernel():
    p = (mono(COMPLEX, (0, 1, 2, 0), 1)
         + mono(COMPLEX, (1, 1, 1, 1), 1))
    ker, img = split_ker_im(p, ResonanceData(-2, 1))
    assert ker == p and img.is_zero()


def test_split_parts_sum_and_annihilation(rng):
    res = ResonanceData(-2, 1)
    alpha = (F(1), F(2))
    for _ in range(5):
        p = random_real_valued_complex(rng, order=6, terms_per_degree=3)
        ker, img = split_ker_im(p, res)
        assert ker + img == p
        assert apply_D(ker, alpha).is_zero()
        assert all((e[0] - e[2], e[1] - e[3]) != (0, 0) for e in img.coeffs)


def test_solve_homological_examples():
    assert solve_homological(Polynomial.zero(COMPLEX), (1, 1)).is_zero()
    p = mono(COMPLEX, (3, 0, 0, 0), 1)
    g = solve_homological(p, (F(1), F(1)))
    assert g == mono(COMPLEX, (3, 0, 0, 0), CC(F(0), F(-1, 3)))
    # defining identity -D.G = L
    assert -apply_D(g, (F(1), F(1))) == p


def test_solve_homological_kernel_error_names_exponent():
    p = mono(COMPLEX, (1, 0, 1, 0), 1)
    with pytest.raises(KernelMonomialError) as err:
        solve_homological(p, (F(1), F(2)))
    assert err.value.exps == (1, 0, 1, 0)


def test_solve_matches_oracle_and_reality(rng):
    alpha = (F(1), F(2))
    for _ in range(5):
        p = random_real_valued_complex(rng, order=5, terms_per_degree=3)
        _, img = split_ker_im(p, ResonanceData(-2, 1))
        g = solve_homological(img, alpha)
        assert -apply_D(g, alpha) == img
        assert g.is_real_valued() == img.is_real_valued()
        _, _, g_oracle = oracle_split_solve(img, alpha)
        assert g == g_oracle


QSQRT15 = quad_field(15)
# the isosceles frequencies at mass ratio 1: (2, 2 sqrt(3/5)) = (2, 2 sqrt 15 / 5)
ISOSCELES_ALPHA = (F(2), QuadExt(0, F(2, 5), 15))


@st.composite
def eigenvalue_cases(draw):
    """(p, alpha, eigenvalue): a complex-chart p over Q, Q(sqrt 2) or
    Q(sqrt 15), sparse (up to six monomials) or dense (every monomial of
    two adjacent degrees) and real-valued about half the time, with alpha
    a rational pair, (1, sqrt 2) over Q(sqrt 2), whose eigenvalues such as
    1 - sqrt 2 have a negative norm, or the isosceles alpha over
    Q(sqrt 15); ``eigenvalue`` is alpha.(k - l) in field arithmetic."""
    field = draw(st.sampled_from([RATIONAL, QSQRT2, QSQRT15]))
    ratio = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
    alphas = [st.tuples(ratio, ratio)]
    if field == QSQRT2:
        alphas.append(st.just((F(1), QuadExt(0, 1, 2))))
    if field == QSQRT15:
        alphas.append(st.just(ISOSCELES_ALPHA))
    alpha = draw(st.one_of(alphas))
    a1, a2 = field.coerce(alpha[0]), field.coerce(alpha[1])

    def eigenvalue(e):
        return a1 * (e[0] - e[2]) + a2 * (e[1] - e[3])

    order = draw(st.integers(2, 6))
    if draw(st.booleans()):
        s = draw(st.integers(2, order))
        exps = all_exponents(s - 1) + all_exponents(s)
    else:
        exps = draw(st.lists(
            st.sampled_from([e for s in range(order + 1)
                             for e in all_exponents(s)]),
            max_size=6, unique=True))
    real = draw(st.booleans())
    coeffs = {}
    for e in exps:
        mirror = (e[2], e[3], e[0], e[1])
        if real and mirror in coeffs:
            continue
        coeffs[e] = draw(cc_values(field, real and mirror == e))
        if real:
            coeffs[mirror] = coeffs[e].conj()
    return Polynomial(COMPLEX, field, order, coeffs), alpha, eigenvalue


@settings(max_examples=120, deadline=None)
@given(eigenvalue_cases())
def test_d_and_the_solve_match_the_field_element_oracle(case):
    # D and the solve on alpha's integer numerators against the same steps
    # on Fraction and QuadExt eigenvalues, including a kernel monomial's
    # error and the sign of a negative-norm eigenvalue
    p, alpha, eigenvalue = case
    same(apply_D(p, alpha), oracle_times_eigenvalue(p, alpha))
    try:
        want = oracle_times_eigenvalue(p, alpha, solve=True)
    except KernelMonomialError as exc:
        with pytest.raises(KernelMonomialError) as err:
            solve_homological(p, alpha)
        assert err.value.exps == exc.exps
    else:
        same(solve_homological(p, alpha), want)
    img = Polynomial(COMPLEX, p.field, p.order,
                     {e: c for e, c in p.coeffs.items() if eigenvalue(e) != 0})
    g = solve_homological(img, alpha)
    same(g, oracle_times_eigenvalue(img, alpha, solve=True))
    canonical(g)
    same(-apply_D(g, alpha), img)
    assert g.is_real_valued() == img.is_real_valued()


# ---------------------------------------------------------------------------
# chart changes
# ---------------------------------------------------------------------------


def test_to_complex_h2():
    got = to_complex(h2((1, 1)))
    want = h2((1, 1), COMPLEX)
    assert got == want


def test_to_complex_henon_heiles_cubic():
    h3 = from_terms(REAL, [((0, 0, 2, 1), 1), ((0, 0, 0, 3), F(-1, 3))],
                    RATIONAL, 6)
    z = to_complex(h3)
    # x1^2 x2 expands with leading coefficient 1/8 on z1^2 z2
    assert z.coefficient((2, 1, 0, 0)) == CC(F(1, 8))
    assert z.coefficient((0, 3, 0, 0)) == CC(F(-1, 24))


def test_chart_round_trip(rng):
    for _ in range(5):
        p = random_real_hamiltonian(rng, (1, 2), order=6, terms_per_degree=4)
        assert to_real(to_complex(p)) == p
    q = random_real_valued_complex(rng, order=6, terms_per_degree=3)
    assert to_complex(to_real(q)) == q


@settings(max_examples=60, deadline=None)
@given(real_chart_polynomials())
def test_chart_round_trip_property(p):
    back = to_real(to_complex(p))
    same(back, p)


def test_to_real_rejects_non_real_valued():
    p = mono(COMPLEX, (1, 0, 0, 0), CC(F(1)))
    with pytest.raises(ValueError):
        to_real(p)


@st.composite
def chart_inputs(draw):
    """Up to eight terms on either chart over Q or Q(sqrt d), d = 2, 5, 15,
    order 1..8: real coefficients, complex ones, or a real-valued complex
    table (a_lk = conj(a_kl)); on the complex chart the last two are
    non-real-valued and real-valued inputs of ``to_real``."""
    chart = draw(st.sampled_from([REAL, COMPLEX]))
    field = draw(st.sampled_from([RATIONAL, QSQRT2, quad_field(5),
                                  quad_field(15)]))
    order = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["real", "complex", "real-valued"]))
    exps = draw(st.lists(
        st.sampled_from([e for d in range(order + 1)
                         for e in all_exponents(d)]),
        max_size=8, unique=True))
    coeffs = {}
    for e in exps:
        c = draw(cc_values(field, real=kind == "real"))
        if kind == "real-valued":
            mirror = (e[2], e[3], e[0], e[1])
            if mirror == e:
                c = CC(c.re, field.zero())
            coeffs[mirror] = c.conj()
        coeffs[e] = c
    return Polynomial(chart, field, order, coeffs)


def _stored_or_error(change, p):
    """The stored form of change(p) with its key order, or the error text."""
    try:
        q = change(p)
    except ValueError as exc:
        return str(exc)
    return (q.chart, q.field, q.order, q.den, list(q.re.items()),
            list(q.im.items()))


@settings(max_examples=150, deadline=None)
@given(chart_inputs())
def test_chart_changes_match_the_substitution_oracle(p):
    change, oracle = ((to_complex, oracle_to_complex) if p.chart == REAL
                      else (to_real, oracle_to_real))
    assert _stored_or_error(change, p) == _stored_or_error(oracle, p)


@pytest.mark.parametrize("field", [RATIONAL, quad_field(5)],
                         ids=["Q", "Q(sqrt5)"])
def test_every_low_monomial_matches_the_substitution_oracle(field):
    # each table row of degree <= 6 in either plane: a real-chart monomial,
    # a complex-chart monomial (non-real-valued off the diagonal) and the
    # same monomial with its conjugate term (real-valued)
    c = CC(field.coerce(F(3, 7)), field.coerce(F(-2, 5)))
    for e in (e for d in range(7) for e in all_exponents(d)):
        mirror = (e[2], e[3], e[0], e[1])
        for change, oracle, p in (
                (to_complex, oracle_to_complex,
                 Polynomial(REAL, field, 6, {e: c})),
                (to_real, oracle_to_real,
                 Polynomial(COMPLEX, field, 6, {e: c})),
                (to_real, oracle_to_real,
                 Polynomial(COMPLEX, field, 6, {e: c, mirror: c.conj()}
                            if mirror != e else {e: CC(c.re, field.zero())}))):
            assert _stored_or_error(change, p) == _stored_or_error(oracle, p)


def test_chart_round_trip_at_the_key_cap():
    # one monomial of degree MAX_ORDER each way: its images fill an 8-bit
    # exponent field.  A complex-chart monomial of odd degree is never
    # real-valued, so it is sent alone to be refused and with its conjugate
    # to make the round trip.  Budget: 2 s for all of it.
    n = poly.MAX_ORDER
    start = time.perf_counter()
    p = Polynomial.monomial(REAL, (n, 0, 0, 0), F(3), RATIONAL, n)
    z = to_complex(p)
    # y1^n = (-i/2)^n (z1 - zb1)^n and (-i)^n = i for n = 255
    assert z.coefficient((n, 0, 0, 0)) == CC(F(0), F(3, 2 ** n))
    assert z.coefficient((0, 0, n, 0)) == CC(F(0), F(-3, 2 ** n))
    assert len(z.coeffs) == n + 1
    same(to_real(z), p)
    w = Polynomial(COMPLEX, RATIONAL, n, {(0, n, 0, 0): CC(F(1), F(2)),
                                          (0, 0, 0, n): CC(F(1), F(-2))})
    x = to_real(w)
    assert len(x.coeffs) == n + 1
    same(to_complex(x), w)
    with pytest.raises(ValueError, match=r"residue at \(0, 1, 0, 254\)"):
        to_real(Polynomial.monomial(COMPLEX, (0, n, 0, 0), 1, RATIONAL, n))
    assert time.perf_counter() - start < 2.0


@settings(max_examples=100, deadline=None)
@given(chart_inputs())
def test_reality_check_reads_the_conjugate_numerators(p):
    # the stored-integer check against the CC reading of a_lk = conj(a_kl)
    c = p.coeffs
    want = (all(v.is_real() for v in c.values()) if p.chart == REAL else
            all(c.get((l1, l2, k1, k2)) == v.conj()
                for (k1, k2, l1, l2), v in c.items()))
    assert p.is_real_valued() == want


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


def test_compose_identity(rng):
    p = random_real_hamiltonian(rng, (1, 2), order=6)
    ident = TruncatedMap.identity(RATIONAL, 6)
    assert compose_map(p, ident, 6) == p


@pytest.mark.parametrize("slot, exps, coeff", [
    (0, (0, 0, 0, 0), F(1, 3)),     # a constant term
    (2, (0, 0, 1, 0), 1),           # x1 -> 2 x1
    (1, (0, 0, 0, 1), F(-1, 2)),    # y2 -> y2 - x2 / 2
    pytest.param(3, (0, 0, 0, 1), -1, id="no-v_i-term"),
    pytest.param(2, (0, 0, 1, 0), QuadExt(0, 1, 2), id="v_i-times-1+r2"),
    pytest.param(1, (2, 0, 0, 0), F(1, 3), id="v_i+v_j^2/3-accepted"),
])
def test_compose_rejects_a_map_off_the_identity_linear_part(rng, slot, exps,
                                                            coeff):
    # phi_i = v_i + c v^exps: a term of degree < 2 puts phi off the
    # identity linear part, one of degree >= 2 is part of N_i
    p = random_real_hamiltonian(rng, (1, 2), order=6)
    field = QSQRT2 if isinstance(coeff, QuadExt) else RATIONAL
    comps = list(TruncatedMap.identity(RATIONAL, 6).components)
    comps[slot] = comps[slot] + mono(REAL, exps, coeff, 6, field)
    phi = TruncatedMap(comps, 6)
    if degree(exps) < 2:
        with pytest.raises(ValueError, match="identity-linear-part"):
            compose_map(p, phi)
    else:
        # den is 3, so v_i's numerator is 3, not 1
        assert comps[slot].den == 3
        same(compose_map(p, phi), oracle_compose(p, phi, 6))


@pytest.mark.parametrize("p_order, map_order", [(4, 10), (10, 4)])
def test_compose_rejects_an_order_above_its_operands(p_order, map_order):
    # a jet at 10 would take the unknown terms of degree 5..10 as zero
    p = Polynomial(REAL, RATIONAL, p_order, {(1, 0, 2, 0): 1, (0, 0, 0, 3): 2})
    phi = TruncatedMap.identity(RATIONAL, map_order)
    with pytest.raises(ValueError, match="order 10 is above the order 4"):
        compose_map(p, phi, 10)
    got = compose_map(p, phi)
    assert got.order == 4 and got == p.truncate(4)


def test_compose_defaults_to_the_least_order_of_the_map_components():
    # a map at 10 whose components are jets at 4 knows nothing of degree
    # 5..10, so neither may its composition claim it
    p = Polynomial(REAL, RATIONAL, 10, {(1, 0, 2, 0): 1, (0, 0, 0, 3): 2,
                                        (0, 3, 2, 0): 5})
    phi = TruncatedMap([c.truncate(4) for c in
                        TruncatedMap.identity(RATIONAL, 10).components], 10)
    got = compose_map(p, phi)
    assert got.order == 4 and got == p.truncate(4)
    with pytest.raises(ValueError, match="order 10 is above the order 4"):
        compose_map(p, phi, 10)
    folded = compose_maps(phi, phi)
    assert folded.order == 4
    assert all(c.order == 4 for c in folded.components)


def test_compose_matches_sympy(rng):
    g = from_terms(
        REAL, [((2, 1, 0, 0), F(1, 2)), ((0, 1, 2, 0), F(-1, 3)),
               ((1, 0, 1, 1), F(1, 5))], RATIONAL, 5)
    phi = invert_generating(g, 5)
    p = random_real_hamiltonian(rng, (1, 2), order=5, terms_per_degree=2)
    ours = compose_map(p, phi, 5)
    theirs = sympy_compose(p, phi, 5)
    assert poly_to_sympy(ours, sympy_vars()) == theirs


def test_compose_associativity(rng):
    g3 = from_terms(REAL, [((2, 1, 0, 0), 1), ((0, 0, 1, 2), F(1, 2))],
                    RATIONAL, 6)
    g4 = from_terms(REAL, [((2, 0, 2, 0), F(1, 3)), ((0, 2, 1, 1), 1)],
                    RATIONAL, 6)
    phi = invert_generating(g3, 6)
    psi = invert_generating(g4, 6)
    p = random_real_hamiltonian(rng, (1, 1), order=6, terms_per_degree=3)
    lhs = compose_map(compose_map(p, phi, 6), psi, 6)
    rhs = compose_map(p, compose_maps(phi, psi, 6), 6)
    assert lhs == rhs


def test_compose_h2_picks_up_dg(rng):
    # H2 o Phi_s = H2 + D.G_s + higher order
    alpha = (F(1), F(2))
    g = from_terms(REAL, [((1, 1, 1, 0), F(1, 4)), ((0, 0, 1, 2), 1)],
                   RATIONAL, 4)
    phi = invert_generating(g, 4)
    h = h2(alpha, order=4)
    composed = compose_map(h, phi, 4)
    dg = to_real(apply_D(to_complex(g), alpha))
    diff = composed - h - dg
    assert diff.is_zero() or diff.min_degree() > 3


@st.composite
def generated_maps(draw, field, order, s):
    """invert_generating of an s-homogeneous G over Q or ``field``."""
    exps = draw(st.lists(st.sampled_from(all_exponents(s)), min_size=1,
                         max_size=4, unique=True))
    gfield = draw(st.sampled_from([RATIONAL, field]))
    real = cc_values(gfield, real=True).filter(lambda c: not c.is_zero())
    g = Polynomial(REAL, gfield, order, {e: draw(real) for e in exps})
    return invert_generating(g, order)


@st.composite
def composition_cases(draw):
    """(polys, phi, order) over Q or Q(sqrt 2), N = 4..7, with phi one of
    four kinds of near-identity map:

    * generated: ``invert_generating`` of an s-homogeneous G, s = 3..5,
      so every N_i starts at degree s - 1;
    * min-degrees: id + N with each N_i of its own min degree 2..4;
    * zero-slot: a generated map with one to three slots set back to the
      identity, as the eta slots of the maps ``invert_generating`` composes
      with;
    * folded: ``compose_maps`` of a generated map with s = 3 and another
      generated map, so N starts at degree 2.

    The first polynomial has degree <= 1, so no product drops a term; the
    second has 6 to 12 terms of degree <= order + 1.
    """
    field = draw(st.sampled_from([RATIONAL, QSQRT2]))
    big = draw(st.integers(4, 7))
    kind = draw(st.sampled_from(["generated", "min-degrees", "zero-slot",
                                 "folded"]))
    if kind == "min-degrees":
        comps = []
        for v in TruncatedMap.identity(field, big).components:
            m = draw(st.integers(2, 4))
            exps = [draw(st.sampled_from(all_exponents(m)))] + draw(st.lists(
                st.sampled_from([e for d in range(m, big + 1)
                                 for e in all_exponents(d)]), max_size=3))
            coeff = cc_values(field, real=True).filter(
                lambda c: not c.is_zero())
            comps.append(v + Polynomial(REAL, field, big,
                                        {e: draw(coeff) for e in exps}))
        phi = TruncatedMap(comps, big)
    else:
        s = 3 if kind == "folded" else draw(st.integers(3, min(5, big)))
        phi = draw(generated_maps(field, big, s))
    if kind == "zero-slot":
        slots = draw(st.sets(st.integers(0, 3), min_size=1, max_size=3))
        ident = TruncatedMap.identity(phi.field, big).components
        phi = TruncatedMap([ident[i] if i in slots else c
                            for i, c in enumerate(phi.components)], big)
    elif kind == "folded":
        inner = draw(generated_maps(field, big, draw(st.integers(3, 5))))
        phi = compose_maps(phi, inner, big)
    order = draw(st.integers(big - 2, big))
    polys = []
    for support, sizes in (
            (st.sampled_from(all_exponents(0) + all_exponents(1)), (1, 5)),
            (st.tuples(*[st.integers(0, 3)] * 4).filter(
                lambda e: sum(e) <= order + 1), (6, 12))):
        pfield = draw(st.sampled_from([RATIONAL, field]))
        coeff = cc_values(pfield).filter(lambda c: not c.is_zero())
        exps = draw(st.lists(support, min_size=sizes[0], max_size=sizes[1],
                             unique=True))
        polys.append(Polynomial(REAL, pfield, order + 1,
                                {e: draw(coeff) for e in exps}))
    return polys, phi, order


@settings(max_examples=60, deadline=None)
@given(composition_cases())
def test_compose_many_matches_the_taylor_oracle(case):
    polys, phi, order = case
    # one composition runs over the join of every operand's field
    field = phi.field.join(polys[0].field).join(polys[1].field)
    for got, p in zip(poly.compose_many(polys, phi, order), polys):
        same(got, oracle_compose(p, phi, order).promote(field))
        canonical(got)


@pytest.mark.parametrize("mindeg", [
    (2, 2, 2, 2), (2, 3, 4, 5), (3, 2, None, None), (None, 4, 2, None)])
def test_compose_many_sums_once_per_node(monkeypatch, mindeg):
    # p o (id + N) makes one sum_of_products per multi-index beta with
    # w(beta) = sum_j beta_j m_j <= N that has a child beta + e_i,
    # i >= last(beta), with w(beta + e_i) <= N, cut at N - w(beta), plus
    # one at the root; a leaf's Taylor term goes to its parent's sum, and
    # reading the N_i off the integer form of phi makes none.  p holds
    # every monomial, so no node's Taylor term is empty; None is a zero
    # slot.
    order = 7
    p = Polynomial(REAL, RATIONAL, order,
                   {e: 1 for d in range(order + 1) for e in all_exponents(d)})
    ident = TruncatedMap.identity(RATIONAL, order).components
    phi = TruncatedMap([
        v if m is None else v + mono(REAL, all_exponents(m)[i], F(1, 3), order)
        for i, (v, m) in enumerate(zip(ident, mindeg))], order)
    weight = [order + 1 if m is None else m for m in mindeg]

    def w(beta):
        return sum(b * m for b, m in zip(beta, weight))

    def has_child(beta):
        last = max((j for j in range(4) if beta[j]), default=0)
        return any(w(beta) + weight[i] <= order for i in range(last, 4))

    cuts = [order - w(beta) for d in range(order + 1)
            for beta in all_exponents(d)
            if w(beta) <= order and (not any(beta) or has_child(beta))]
    seen = []
    inner = poly.sum_of_products

    def counted(entries, order, *args):
        seen.append(order)
        return inner(entries, order, *args)

    monkeypatch.setattr(poly, "sum_of_products", counted)
    got = poly.compose_map(p, phi, order)
    monkeypatch.undo()
    assert sorted(seen) == sorted(cuts)
    same(got, oracle_compose(p, phi, order))


def test_compose_many_takes_no_derivatives(monkeypatch, rng):
    # each Taylor term comes from p's integer form, not from Polynomial.diff
    g = random_real_hamiltonian(rng, (1, 2), order=6).homogeneous_part(3)
    phi = invert_generating(g, 6)
    p = random_real_hamiltonian(rng, (1, 2), order=6, terms_per_degree=4)
    # and each operand is cut below the order on its integer form, not by
    # Polynomial.truncate
    calls = []
    for name in ("diff", "truncate"):
        def counted(self, arg, inner=getattr(Polynomial, name), name=name):
            calls.append(name)
            return inner(self, arg)

        monkeypatch.setattr(Polynomial, name, counted)
    got = poly.compose_many([p, g], phi, 5)
    monkeypatch.undo()
    assert calls == []
    for r, q in zip(got, (p, g)):
        same(r, oracle_compose(q, phi, 5))


def test_compose_many_joins_the_fields_of_the_map(rng):
    # slot 0 over Q, slot 2 over Q(sqrt 2): the map's field is their join,
    # and composing with it equals composing with the map promoted there
    order = 6
    ident = TruncatedMap.identity(RATIONAL, order).components
    root2 = CC(QuadExt(0, 1, 2), QSQRT2.zero())
    phi = TruncatedMap([
        ident[0] + mono(REAL, (0, 0, 2, 0), F(1, 3), order),
        ident[1],
        ident[2].promote(QSQRT2) + Polynomial(REAL, QSQRT2, order,
                                              {(1, 0, 0, 1): root2}),
        ident[3]], order)
    assert phi.components[0].field == RATIONAL
    assert phi.field == QSQRT2
    promoted = TruncatedMap([c.promote(QSQRT2) for c in phi.components],
                            order)
    p = random_real_hamiltonian(rng, (1, 2), order=order)
    got = poly.compose_many([p], phi, order)[0]
    same(got, poly.compose_many([p], promoted, order)[0])
    same(got, oracle_compose(p, promoted, order))


def test_invert_generating_zero_is_identity():
    phi = invert_generating(Polynomial.zero(REAL, RATIONAL, 6), 6)
    ident = TruncatedMap.identity(RATIONAL, 6)
    for a, b in zip(phi.components, ident.components):
        assert a == b


def test_invert_generating_rejects_low_degree():
    g = mono(REAL, (1, 1, 0, 0), 1)
    with pytest.raises(ValueError):
        invert_generating(g, 4)


@st.composite
def generating_polynomials(draw):
    """(G, N): a random s-homogeneous G over Q or Q(sqrt 2) with
    3 <= s <= N <= 8, of up to 5 terms, or up to all 20 at s = 3, where
    the passes are most and the shared powers of u most reused."""
    order = draw(st.integers(3, 8))
    s = draw(st.integers(3, order))
    field = draw(st.sampled_from([RATIONAL, QSQRT2]))
    monomials = all_exponents(s)
    exps = draw(st.lists(st.sampled_from(monomials), min_size=1,
                         max_size=len(monomials) if s == 3 else 5,
                         unique=True))
    coeff = cc_values(field, real=True).filter(lambda c: not c.is_zero())
    return Polynomial(REAL, field, order, {e: draw(coeff) for e in exps}), order


@settings(max_examples=40, deadline=None)
@given(generating_polynomials())
def test_invert_generating_matches_full_order_fixed_point(case):
    g, order = case
    phi = invert_generating(g, order)
    want = oracle_invert_generating(g, order)
    for got, comp in zip(phi.components, want.components):
        assert got == comp and got.order == order
    assert symplectic_defect(phi, order) == 0


@pytest.mark.parametrize("field", [RATIONAL, QSQRT2], ids=["Q", "Q(sqrt2)"])
def test_invert_generating_of_a_dense_cubic(field):
    # all 20 cubic monomials through N = 8: six passes, each sharing the
    # powers u^beta, |beta| <= 2, between its gradients
    root2 = field.coerce(1) if field == RATIONAL else QuadExt(1, F(1, 3), 2)
    g = Polynomial(REAL, field, 8, {
        e: CC(F((-1) ** j * (j + 1), 7 - j % 5) * (root2 if j % 3 else 1))
        for j, e in enumerate(all_exponents(3))})
    phi = invert_generating(g, 8)
    for got, want in zip(phi.components,
                         oracle_invert_generating(g, 8).components):
        assert got == want and got.order == 8
        canonical(got)


def test_invert_generating_of_the_builtin_step_maps():
    # every generator of the built-in models' normal forms, also inverted
    # above its own order
    from bgnf.models import hill_regularized, isosceles
    for model, n in ((henon_heiles(order=8), 8), (isosceles(1, 1, order=6), 6),
                     (isosceles(3, 1, order=6), 6), (hill_regularized(), 6)):
        for g in model.normal_form(n).generators:
            for order in (n, n + 1):
                want = oracle_invert_generating(g, order).components
                assert invert_generating(g, order).components == want


@settings(max_examples=40, deadline=None)
@given(generating_polynomials())
def test_invert_generating_back_substitution(case):
    # xi = x + dG/deta(eta, x) and y = eta + dG/dx(eta, x) through the order,
    # both with the returned x
    g, order = case
    phi = invert_generating(g, order)
    ident = TruncatedMap.identity(g.field, order).components
    y, x = phi.components[:2], phi.components[2:]
    cur = TruncatedMap(ident[:2] + x, order)
    for j in range(2):
        assert (ident[2 + j] - x[j]
                - compose_map(g.diff(j), cur, order)).is_zero()
        assert (y[j] - ident[j]
                - compose_map(g.diff(2 + j), cur, order)).is_zero()


@pytest.mark.parametrize("s,order,orders", [
    (3, 4, [2, 3, 4]), (3, 7, [2, 3, 4, 5, 6, 7]),
    (4, 10, [4, 6, 8, 10]), (5, 8, [6, 8]), (6, 6, [6]), (7, 7, [7])])
def test_invert_generating_composes_degree_by_degree(monkeypatch, s, order,
                                                     orders):
    # ceil(N/(s-2)) - 1 passes, each only through the degree it makes exact;
    # only the last, at N, evaluates all four partials
    seen = []
    inner = poly._inversion_pass

    def counted(grads, u, field, cut):
        seen.append((cut, len(grads)))
        return inner(grads, u, field, cut)

    monkeypatch.setattr(poly, "_inversion_pass", counted)
    g = mono(REAL, (s - 2, 0, 1, 1), F(1, 2), order)
    invert_generating(g, order)
    assert seen == [(n, 2) for n in orders[:-1]] + [(orders[-1], 4)]


def test_inversion_pass_forms_each_power_once(monkeypatch):
    # at s = 4, u from degree 2 and cut 7: one product per power u^beta,
    # cut at 7 - (3 - |beta|), shared by the four gradients (u^beta with
    # |beta| = 1 is u_i itself), then one sum per gradient over its
    # Taylor terms T_beta, all 10 of them nonzero for a dense G
    g = Polynomial(REAL, RATIONAL, 7, {e: F(j + 1, 3)
                                       for j, e in enumerate(all_exponents(4))})
    grads = [g.diff(i) for i in range(4)]
    u = [Polynomial(REAL, RATIONAL, 7, {
        e: F(j + 1, 5 + i) for d in range(2, 8)
        for j, e in enumerate(all_exponents(d))}) for i in range(2)]
    seen = []
    inner = poly.sum_of_products

    def counted(entries, order, *args):
        entries = list(entries)
        seen.append((order, len(entries)))
        return inner(entries, order, *args)

    monkeypatch.setattr(poly, "sum_of_products", counted)
    got = poly._inversion_pass(grads, u, RATIONAL, 7)
    monkeypatch.undo()
    assert seen == [(6, 1)] * 3 + [(7, 1)] * 4 + [(7, 10)] * 4
    ident = TruncatedMap.identity(RATIONAL, 7).components
    phi = TruncatedMap(ident[:2] + [v + w for v, w in zip(ident[2:], u)], 7)
    for r, p in zip(got, grads):
        same(r, oracle_compose(p, phi, 7))
        canonical(r)


def test_invert_generating_adds_the_identity_once(monkeypatch):
    # the passes iterate u = x - xi, and the returned map puts eta and xi
    # in front of the integer forms, so no pass and no component sums
    # (nine passes at s = 3, N = 10)
    calls = []
    for name in ("__add__", "__sub__"):
        inner = getattr(Polynomial, name)

        def counted(self, other, inner=inner, name=name):
            calls.append(name)
            return inner(self, other)

        monkeypatch.setattr(Polynomial, name, counted)
    g = Polynomial(REAL, RATIONAL, 10, {(2, 0, 1, 0): F(1, 2),
                                        (0, 1, 0, 2): F(-1, 3)})
    phi = invert_generating(g, 10)
    monkeypatch.undo()
    assert calls == []
    for got, want in zip(phi.components,
                         oracle_invert_generating(g, 10).components):
        assert got == want


def test_hill_generating_function_closed_form():
    # G(eta, x) = -(i eta.x)(eta.x): the inversion is exactly the inverse of
    # the known closed-form degree-5 solution of the lunar generating map
    G = from_terms(
        REAL, [((2, 0, 1, 1), -1), ((1, 1, 0, 2), -1), ((1, 1, 2, 0), 1),
               ((0, 2, 1, 1), 1)], RATIONAL, 5)
    phi = invert_generating(G, 5)

    def build_closed(order):
        def m(e, c):
            return from_terms(REAL, [(e, c)], RATIONAL, order)
        e1, e2 = m((1, 0, 0, 0), 1), m((0, 1, 0, 0), 1)
        x1, x2 = m((0, 0, 1, 0), 1), m((0, 0, 0, 1), 1)
        A = e1 * x1 + e2 * x2
        Fv = e1 * x2 - e2 * x1
        y1 = e1 - e2 * A + e1 * Fv + 2 * e1 * (Fv * Fv - A * A) - 4 * e2 * Fv * A
        y2 = e2 + e1 * A + e2 * Fv + 2 * e2 * (Fv * Fv - A * A) + 4 * e1 * Fv * A
        u1 = x1 - x2 * A - x1 * Fv - x1 * (Fv * Fv - A * A) - 2 * x2 * Fv * A
        u2 = x2 + x1 * A - x2 * Fv - x2 * (Fv * Fv - A * A) + 2 * x1 * Fv * A
        return TruncatedMap([y1, y2, u1, u2], order)

    closed = build_closed(5)
    ident = TruncatedMap.identity(RATIONAL, 5)
    comp = compose_maps(phi, closed, 5)
    for a, b in zip(comp.components, ident.components):
        assert a == b
    comp2 = compose_maps(closed, phi, 5)
    for a, b in zip(comp2.components, ident.components):
        assert a == b


def test_symplectic_defect_identity_zero():
    assert symplectic_defect(TruncatedMap.identity(RATIONAL, 5), 5) == 0.0


def test_symplectic_defect_generated_map_zero(rng):
    g = from_terms(
        REAL, [((3, 0, 0, 0), F(1, 3)), ((1, 1, 1, 0), F(-2, 7))], RATIONAL, 6)
    phi = invert_generating(g, 6)
    assert symplectic_defect(phi, 6) == 0.0


def test_symplectic_defect_rejects_an_order_above_the_map():
    # a jet at 6 knows nothing of degree 7 and 8: a defect through order 8
    # would be made up (4056591799/27993600 on this map, 0 through 6)
    T = henon_heiles(order=6).normal_form(6).transform
    assert symplectic_defect(T, 6) == 0
    with pytest.raises(ValueError, match="order 8 is above the order 6"):
        symplectic_defect(T, 8)
    # the default is the least order of the map and its components
    short = TruncatedMap([c.truncate(4) for c in T.components], 6)
    assert symplectic_defect(short) == symplectic_defect(short, 4) == 0
    with pytest.raises(ValueError, match="order 6 is above the order 4"):
        symplectic_defect(short, 6)


def test_symplectic_defect_detects_corruption():
    g = from_terms(REAL, [((2, 1, 0, 0), F(1, 2))], RATIONAL, 4)
    phi = invert_generating(g, 4)
    bad = phi.components[0] + mono(REAL, (0, 0, 2, 0), F(1, 1000), 4)
    corrupted = TruncatedMap([bad, *phi.components[1:]], 4)
    d = symplectic_defect(corrupted, 4)
    assert d > 0
    assert d == pytest.approx(1 / 500, rel=0.6)


@st.composite
def bent_generated_maps(draw):
    """(phi, N): the map of a drawn generating polynomial, in half the draws
    bent by one or two planted monomials of degree 0..N', checked at a
    drawn N <= N'."""
    g, top = draw(generating_polynomials())
    comps = list(invert_generating(g, top).components)
    if draw(st.booleans()):
        pool = [e for d in range(top + 1) for e in all_exponents(d)]
        coeff = cc_values(g.field, real=True).filter(lambda c: not c.is_zero())
        for _ in range(draw(st.integers(1, 2))):
            i = draw(st.integers(0, 3))
            comps[i] = comps[i] + mono(REAL, draw(st.sampled_from(pool)),
                                       draw(coeff), top, g.field)
    return TruncatedMap(comps, top), draw(st.integers(2, top))


@settings(max_examples=40, deadline=None)
@given(bent_generated_maps())
def test_pullback_form_matches_the_jacobian_oracle(case):
    # d_i alpha_j - d_j alpha_i of the Liouville form is, entry by entry,
    # the 24-product (DPhi)^T J (DPhi), and the defect is read off it
    phi, order = case
    got = poly._pullback_form(phi, order)
    want = oracle_pullback_form(phi, order)
    assert got.keys() == want.keys()
    for ij, k in want.items():
        assert got[ij] == k, ij
    j_sign = {(0, 2): -1, (1, 3): -1}
    worst = max((abs(c.re) + abs(c.im)
                 for ij, k in want.items()
                 for c in (k - mono(REAL, (0, 0, 0, 0), j_sign.get(ij, 0),
                                    order - 1)).coeffs.values()),
                default=0)
    assert symplectic_defect(phi, order) == worst


def test_linear_substitute_rotation():
    # substituting a quarter turn into H2 leaves it invariant
    h = h2((1, 1))
    m = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    assert oracle_linear_substitute(h, m) == h


_I_POWERS = (CC(1), CC(0, 1), CC(-1), CC(0, -1))


def pair_matrix(blocks, c):
    """The 4x4 matrix of the pair ``blocks`` (f, g, w) with scale c: row f
    is c (e_f + e_g) and row g is c i^w (e_f - e_g), row i the image of old
    variable i, as ``oracle_linear_substitute`` reads it."""
    m = [[0] * 4 for _ in range(4)]
    for f, g, w in blocks:
        r = _I_POWERS[w] * c
        m[f][f] = m[f][g] = c
        m[g][f], m[g][g] = r, -r
    return m


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linear_substitute_matches_the_general_oracle(data):
    # every power of i in each block, the slot pairs of Psi and of the chart
    # change, both charts, over Q and Q(sqrt 2), with a scale c that is 1,
    # rational or irrational; Q(sqrt 2) joins for c = 1/sqrt 2 exactly when
    # an odd degree is present
    chart = data.draw(st.sampled_from([REAL, COMPLEX]))
    p = data.draw(exact_polynomials(chart, data.draw(
        st.sampled_from([RATIONAL, QSQRT2]))))
    c = data.draw(st.sampled_from([1, F(-3, 2), QuadExt(0, F(1, 2), 2)]))
    pairs = data.draw(st.sampled_from([((0, 1), (2, 3)), ((2, 0), (3, 1))]))
    blocks = tuple((f, g, data.draw(st.integers(0, 3))) for f, g in pairs)
    got = linear_substitute(p, blocks, c)
    irrational = isinstance(c, QuadExt)
    odd = any(degree(e) % 2 for e in p.coeffs)
    field = p.field.join(QSQRT2) if irrational and odd else p.field
    assert got == oracle_linear_substitute(
        p, pair_matrix(blocks, c), p.field.join(QSQRT2) if irrational else None)
    assert (got.chart, got.field, got.order) == (chart, field, p.order)


# ---------------------------------------------------------------------------
# truncation bookkeeping and the text format
# ---------------------------------------------------------------------------


def test_truncation_drops_terms_above_the_order():
    p = mono(REAL, (3, 0, 0, 0), 1, order=6)
    q = p.truncate(2)
    assert q.is_zero() and q.order == 2
    r = (mono(REAL, (2, 0, 0, 0), 1, 3) * mono(REAL, (0, 0, 2, 0), 1, 3))
    assert r.is_zero() and r.order == 3


def test_text_format_round_trip_rational(rng):
    p = random_real_valued_complex(rng, order=6, terms_per_degree=3)
    text = write_polynomial(p)
    q = read_polynomial(text)
    assert q == p and q.field == p.field and q.order == p.order
    assert write_polynomial(q) == text   # bit-exact round trip


@st.composite
def quadratic_field_polynomials(draw):
    """a * b - c for operands over Q(sqrt d), with complex coefficients or,
    about half the time, real ones: a kernel result, with its reduced
    denominator and cancellations."""
    field = quad_field(draw(st.sampled_from([2, 3, 5, 15])))
    chart = draw(st.sampled_from([REAL, COMPLEX]))
    order = draw(st.integers(0, 6))
    support = st.sampled_from([e for d in range(order + 1)
                               for e in all_exponents(d)])
    real = draw(st.booleans())
    a, b, c = (Polynomial(chart, field, order,
                          {e: draw(cc_values(field, real))
                           for e in draw(st.lists(support, max_size=4,
                                                  unique=True))})
               for _ in range(3))
    return a * b - c


@settings(max_examples=60, deadline=None)
@given(quadratic_field_polynomials())
def test_text_format_round_trip_property(p):
    text = write_polynomial(p)
    q = read_polynomial(text)
    same(q, p)
    assert write_polynomial(q) == text


def test_text_format_round_trip_quadratic():
    f = quad_field(15)
    p = from_terms(
        REAL,
        [((2, 0, 0, 0), CC(f.coerce(F(1, 2)))),
         ((0, 0, 1, 2), CC(f.parse_elem("(1/3-2/5*sqrt(15))")))],
        f, 4)
    text = write_polynomial(p)
    q = read_polynomial(text)
    assert q == p
    assert write_polynomial(q) == text


def test_orders_above_the_key_cap_are_rejected():
    assert poly.MAX_ORDER == 255
    mono(REAL, (255, 0, 0, 0), 1, order=255)
    with pytest.raises(ValueError, match="cap 255"):
        Polynomial(REAL, RATIONAL, 256)
    with pytest.raises(ValueError, match="cap 255"):
        mono(REAL, (1, 0, 0, 0), 1).truncate(256)
    with pytest.raises(ValueError, match="negative exponent"):
        mono(REAL, (1, -1, 0, 0), 1)    # its key would alias another one
    with pytest.raises(PolynomialFormatError, match="cap 255") as err:
        read_polynomial("chart: real\nfield: rational\norder: 300\n")
    assert err.value.line == 3


REPEATED_HEADER = ("chart: real\nfield: rational\norder: 6\n"
                   "1/2 : 2 0 0 0\n1/2 : 0 0 2 0\n1/2 : 0 2 0 0\n"
                   "1/2 : 0 0 0 2\n1 : 0 0 2 1\n1 : 0 0 3 3\n{}\n")


@pytest.mark.parametrize("again", [
    "order: 4", "field: quadratic(d=2)", "chart: complex", "chart: real"])
def test_text_format_rejects_a_repeated_header(again):
    # the last header does not win: a second order line would drop the
    # degree-6 term, a second field or chart line would reread the terms
    head = again.split(":")[0]
    with pytest.raises(PolynomialFormatError,
                       match=f"repeated {head} header") as err:
        read_polynomial(REPEATED_HEADER.format(again))
    assert err.value.line == 10
    with pytest.raises(PolynomialFormatError, match="line 2: repeated"):
        read_polynomial(f"{again}\n{again}\n")


def test_text_format_errors_carry_line_numbers():
    bad = "chart: real\nfield: rational\norder: 4\n1/2 : 1 2 3\n"
    with pytest.raises(PolynomialFormatError) as err:
        read_polynomial(bad)
    assert err.value.line == 4
    with pytest.raises(PolynomialFormatError):
        read_polynomial("1/2 : 1 0 0 0\n")
    header = "chart: real\nfield: rational\norder: 4\n"
    with pytest.raises(PolynomialFormatError, match="repeated") as err:
        read_polynomial(header + "1/2 : 2 0 0 0\n1/3 : 2 0 0 0\n")
    assert err.value.line == 5
    with pytest.raises(PolynomialFormatError, match="order 4") as err:
        read_polynomial(header + "1/2 : 2 0 0 0\n1 : 0 0 5 0\n")
    assert err.value.line == 5
