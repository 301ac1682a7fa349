from fractions import Fraction as F

import math

import pytest
from hypothesis import given, settings, strategies as st

from bgnf.scalars import RATIONAL, QuadExt, quad_field
from bgnf.series import SeriesE, SeriesError

from conftest import (oracle_series_add, oracle_series_divide,
                      oracle_series_inverse, oracle_series_mul,
                      oracle_series_pow, oracle_series_scale,
                      oracle_series_sqrt, oracle_series_substitute,
                      oracle_series_truncate, oracle_substitute)


def S(coeffs, err=math.inf):
    return SeriesE(RATIONAL, [F(c) for c in coeffs], err)


def test_basic_arithmetic_and_error_orders():
    a = S([1, 2], err=3)          # 1 + 2E + O(E^3)
    b = S([0, 1, 5], err=4)       # E + 5E^2 + O(E^4)
    assert (a + b).err_order == 3
    assert (a + b).coeffs == [F(1), F(3), F(5)]
    p = a * b
    # tail: min(3 + val(b)=4, 4 + val(a)=4, 7) = 4
    assert p.err_order == 4
    assert p.coeffs == [F(0), F(1), F(7), F(10)]


def test_mul_error_with_known_zero():
    z = SeriesE.zero(RATIONAL, 2)      # O(E^2)
    a = S([0, 0, 1], err=5)            # E^2 + O(E^5)
    p = z * a
    assert p.known_zero()
    assert p.err_order == 4            # O(E^2) * E^2


@st.composite
def series_values(draw):
    """A series with up to four small coefficients, exact or with a tail."""
    cs = draw(st.lists(st.integers(-2, 2), max_size=4))
    err = draw(st.one_of(st.just(math.inf), st.integers(0, 6)))
    return S(cs, err)


@settings(max_examples=200, deadline=None)
@given(a=series_values(), b=series_values())
def test_mul_error_order_is_the_first_unknown_product_term(a, b):
    # the tail of a*b starts at the first term one of the tails reaches
    p = a * b
    assert p.err_order == min(a.err_order + b.valuation(),
                              b.err_order + a.valuation(),
                              a.err_order + b.err_order)


def test_inverse_and_division():
    a = S([1, -1], err=5)
    inv = a.inverse()
    assert inv.coeffs == [F(1), F(1), F(1), F(1), F(1)]
    one = a * inv
    assert one.coefficient(0) == 1
    assert all(one.coefficient(k) == 0 for k in range(1, 5))
    with pytest.raises(SeriesError):
        S([0, 1]).inverse()


def test_divide_with_common_valuation():
    num = S([0, 0, 4, 8], err=5)
    den = S([0, 2, 2], err=5)
    q = num.divide(den)
    assert q.coefficient(0) == 0
    assert q.coefficient(1) == 2
    # (4E^2+8E^3)/(2E+2E^2) = 2E(1+2E)/(1+E) = 2E + 2E^2 - 2E^3...
    assert q.coefficient(2) == 2
    with pytest.raises(SeriesError):
        den.divide(num)


def test_substitution():
    outer = S([1, 1, 1], err=4)        # 1 + u + u^2 + O(u^4)
    inner = S([0, 2, 1], err=4)        # 2E + E^2
    got = outer.substitute(inner)
    assert got.coefficient(0) == 1
    assert got.coefficient(1) == 2
    assert got.coefficient(2) == 5
    with pytest.raises(SeriesError):
        outer.substitute(S([1, 1]))
    # a constant outer series keeps its own tail: inner's does not enter
    assert S([1], err=3).substitute(S([0, 2], err=2)) == S([1], err=3)


def test_sqrt_exact_leading_square():
    s = S([0, 0, 16, 208], err=5)
    r = s.sqrt()
    assert r.coefficient(1) == 4
    assert r.coefficient(2) == F(208) / 8
    sq = r * r
    assert sq.coefficient(2) == 16
    assert sq.coefficient(3) == 208


def test_sqrt_quadratic_field():
    from bgnf.scalars import QuadExt
    f = quad_field(2)
    s = SeriesE(f, [f.coerce(0), f.coerce(0), f.coerce(2)], 4)  # 2E^2 + O(E^4)
    r = s.sqrt()
    assert r.coefficient(1) == QuadExt(0, 1, 2)     # sqrt(2) E
    assert (r * r).coefficient(2) == 2


def test_sqrt_failures():
    with pytest.raises(SeriesError):
        S([0, 1]).sqrt()             # odd leading exponent
    with pytest.raises(SeriesError):
        S([2]).sqrt()                # 2 is not a rational square


def test_leading_sign_and_truncate():
    s = S([0, 0, -3, 5], err=6)
    assert s.leading() == (2, F(-3))
    assert s.leading_sign() == -1
    t = s.truncate(2)
    assert t.known_zero() and t.err_order == 2
    assert SeriesE.zero(RATIONAL).leading_sign() == 0


def test_truncate_to_a_negative_order_raises():
    # it used to slice off the last coefficient and print 1 + O(E^-1)
    with pytest.raises(SeriesError, match="error order"):
        S([1, 2, 3], err=5).truncate(-1)


def test_a_non_integral_error_order_raises():
    # it used to be floored in silence: O(E^2.5) became O(E^2)
    with pytest.raises(SeriesError, match="error order"):
        SeriesE(RATIONAL, [1, 2], 2.5)
    assert SeriesE(RATIONAL, [1, 2], 2.0).err_order == 2


def test_sqrt_of_an_exact_zero_is_an_exact_zero():
    # inf // 2 is nan: the root of an exact zero used to raise ValueError
    assert S([]).sqrt() == S([])
    assert SeriesE.zero(RATIONAL, 5).sqrt() == SeriesE.zero(RATIONAL, 2)


def test_eval_float():
    s = S([2, 4, 22])
    assert s.eval_float(1e-3) == pytest.approx(2 + 4e-3 + 22e-6)


# ---------------------------------------------------------------------------
# exact series: finite results stay exact, the others raise
# ---------------------------------------------------------------------------


def test_exact_series_raise_where_the_result_is_not_finite():
    # each of these used to come back truncated and still marked exact
    with pytest.raises(SeriesError, match="finite"):
        S([1, -1]).inverse()
    with pytest.raises(SeriesError, match="finite"):
        S([1, 1]).sqrt()
    with pytest.raises(SeriesError, match="finite"):
        S([2, 1]).divide(S([1, 1]))


def test_exact_results_that_are_finite_stay_exact():
    assert S([4]).inverse() == S([F(1, 4)])
    assert S([0, 0, 9]).sqrt() == S([0, 3])
    assert S([1, 2, 1]).sqrt() == S([1, 1])
    assert S([1, 0, -1]).divide(S([1, 1])) == S([1, -1])
    assert S([0, 0, 2, 2]).divide(S([0, 1, 1])) == S([0, 2])
    assert S([]).divide(S([1, 1])) == S([])


def test_a_tail_over_an_exact_divisor_keeps_every_known_term():
    # 1/(1 + E) to the numerator's order, not to the divisor's length
    assert S([1], err=5).divide(S([1, 1])) == S([1, -1, 1, -1, 1], err=5)
    assert S([1, 1], err=4).divide(S([1, 1])) == S([1], err=4)


# ---------------------------------------------------------------------------
# properties of the graded algebra
# ---------------------------------------------------------------------------

Q2, Q15 = quad_field(2), quad_field(15)       # Q(sqrt 15): the isosceles field


def _elements(field):
    """Small values, and numerators up to 2^70 over denominators above 1."""
    q = st.one_of(
        st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])),
        st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(2, 2 ** 70)))
    if field is RATIONAL:
        return q
    return st.builds(lambda a, b: QuadExt(a, b, field.d), q, q)


@st.composite
def field_series(draw, fields=(RATIONAL, Q2, Q15), zero_constant=False):
    """A series over one of ``fields``: up to six coefficients, exact or
    with a tail, empty included."""
    field = draw(st.sampled_from(fields))
    cs = draw(st.lists(_elements(field), max_size=6))
    if zero_constant and cs:
        cs[0] = F(0)
    err = draw(st.one_of(st.just(math.inf), st.integers(0, 8)))
    return SeriesE(field, cs, err)


def joinable(data):
    """Q and one quadratic field, so that any two drawn series join."""
    return (RATIONAL, data.draw(st.sampled_from([Q2, Q15])))


def shifted(s: SeriesE, v: int) -> SeriesE:
    """E^v s, built from its coefficients."""
    return SeriesE(s.field, [0] * v + s.coeffs, s.err_order + v)


def assert_matches(got, want) -> None:
    """``got()`` equals ``want()`` in field, coefficients and tail, and is
    stored canonically; or both raise SeriesError."""
    try:
        w = want()
    except SeriesError:
        with pytest.raises(SeriesError):
            got()
        return
    g = got()
    assert (g.field, g.coeffs, g.err_order) == (w.field, w.coeffs, w.err_order)
    flat = [y for x in g.nums for y in (x if g.field.d else (x,))]
    assert g.den > 0 and math.gcd(g.den, *flat) == 1
    assert len(g.nums) <= g.err_order
    assert not g.nums or g.nums[-1] != (0 if g.field.d is None else (0, 0))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_series_arithmetic_matches_the_fraction_oracle(data):
    fields = joinable(data)
    a, b = (data.draw(field_series(fields)) for _ in range(2))
    inner = data.draw(field_series(fields, zero_constant=True))
    c = data.draw(st.one_of(st.integers(-3, 3), _elements(a.field)))
    v = data.draw(st.integers(0, 2))
    k = data.draw(st.one_of(st.integers(-2, 9), st.just(math.inf),
                            st.just(2.5)))
    n = data.draw(st.integers(-2, 3))
    square = oracle_series_mul(b, b)
    assert_matches(lambda: a + b, lambda: oracle_series_add(a, b))
    assert_matches(lambda: a - b, lambda: oracle_series_add(
        a, oracle_series_scale(b, -1)))
    assert_matches(lambda: a * c, lambda: oracle_series_scale(a, c))
    assert_matches(lambda: c * a, lambda: oracle_series_scale(a, c))
    assert_matches(lambda: a * b, lambda: oracle_series_mul(a, b))
    assert_matches(lambda: a.divide(b), lambda: oracle_series_divide(a, b))
    assert_matches(lambda: shifted(a, v).divide(shifted(b, v)),
                   lambda: oracle_series_divide(shifted(a, v), shifted(b, v)))
    assert_matches(lambda: b.inverse(), lambda: oracle_series_inverse(b))
    assert_matches(lambda: a.sqrt(), lambda: oracle_series_sqrt(a))
    assert_matches(lambda: shifted(square, 2 * v).sqrt(),
                   lambda: oracle_series_sqrt(shifted(square, 2 * v)))
    assert_matches(lambda: a.substitute(inner),
                   lambda: oracle_series_substitute(a, inner))
    assert_matches(lambda: a.substitute(b),
                   lambda: oracle_series_substitute(a, b))
    assert_matches(lambda: a.truncate(k), lambda: oracle_series_truncate(a, k))
    assert_matches(lambda: b ** n, lambda: oracle_series_pow(b, n))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_series_arithmetic_builds_no_field_element(data):
    # products, substitutions, quotients and roots run on the integer
    # numerators: no Fraction and no QuadExt is constructed.  A root whose
    # leading coefficient is not a square names it in the error, and only
    # that message builds one.
    fields = joinable(data)
    a, b = (data.draw(field_series(fields)) for _ in range(2))
    inner = data.draw(field_series(fields, zero_constant=True))
    c = data.draw(st.one_of(st.integers(-3, 3), _elements(a.field)))
    square = b * b
    built = [0]
    new, init = F.__new__, QuadExt.__init__

    def counted_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    calls = [lambda: a * b, lambda: a * c, lambda: a.substitute(inner),
             lambda: a.divide(b), lambda: b.divide(square),
             lambda: square.sqrt(), lambda: a.sqrt()]
    for call in calls:
        built[0] = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(F, "__new__", counted_new)
            mp.setattr(QuadExt, "__init__", counted_init)
            try:
                call()
            except SeriesError as exc:
                if "not a square" in str(exc):
                    continue
        assert built[0] == 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_substitute_matches_the_power_sum(data):
    fields = joinable(data)
    outer = data.draw(field_series(fields))
    inner = data.draw(field_series(fields, zero_constant=True))
    want = oracle_substitute(outer, inner)
    got = outer.substitute(inner)
    assert got.coeffs == want.coeffs
    assert got.err_order == want.err_order


@settings(max_examples=60, deadline=None)
@given(s=field_series(), data=st.data())
def test_scalar_scaling_equals_the_product_by_a_constant(s, data):
    c = data.draw(st.one_of(st.integers(-3, 3), _elements(s.field)))
    by_constant = s * SeriesE.constant(c, s.field)
    assert s * c == by_constant
    assert c * s == by_constant


@settings(max_examples=40, deadline=None)
@given(data=st.data(), err=st.integers(1, 8))
def test_quotient_and_root_invert_their_products(data, err):
    # a unit divisor with a tail: (a / b) b = a and sqrt(b^2) = +-b to order
    fields = joinable(data)
    a, b = (data.draw(field_series(fields)) for _ in range(2))
    b = SeriesE(b.field, [1] + b.coeffs[1:], err)
    back = a.divide(b) * b
    assert back == a.truncate(back.err_order)
    root = (b * b).sqrt()
    assert root == b.truncate(root.err_order)
