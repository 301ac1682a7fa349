import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bgnf.scalars import (
    CC,
    FieldError,
    QuadExt,
    RATIONAL,
    Field,
    quad_field,
    sign,
    sqrt_in_field,
    square_free_core,
)

from conftest import oracle_sqrt_in_field


def test_square_free_core():
    assert square_free_core(1) == 1
    assert square_free_core(60) == 15
    assert square_free_core(196) == 1
    assert square_free_core(120) == 30


def test_square_free_core_matches_factorint():
    from sympy import factorint
    for n in range(1, 20001):
        want = 1
        for p, e in factorint(n).items():
            if e % 2:
                want *= p
        assert square_free_core(n) == want, n


def test_square_free_core_of_two_large_primes_is_fast():
    n = 1000000007 * 1000000009
    t0 = time.perf_counter()
    assert square_free_core(n) == n
    assert time.perf_counter() - t0 < 1.0
    assert square_free_core(1000000007 ** 2 * 6) == 6


def test_square_free_core_is_bounded_below_2_64():
    # 2^64 - 1 = 3 5 17 257 641 65537 6700417; from 2^64 on, trial division
    # to n^(1/3) is refused rather than run without bound
    assert square_free_core(2 ** 64 - 1) == 2 ** 64 - 1
    for n in (2 ** 64, 10 ** 60 + 39):
        with pytest.raises(ValueError, match="2\\^64"):
            square_free_core(n)


def test_quadext_arithmetic_exact():
    a = QuadExt(Fraction(1, 2), Fraction(3), 5)
    b = QuadExt(2, Fraction(-1, 3), 5)
    assert a + b == QuadExt(Fraction(5, 2), Fraction(8, 3), 5)
    assert a * b == QuadExt(Fraction(1, 2) * 2 + Fraction(3) * Fraction(-1, 3) * 5,
                            Fraction(1, 2) * Fraction(-1, 3) + Fraction(3) * 2, 5)
    # division rationalizes eagerly: the result is again an (a, b) pair
    q = a / b
    assert isinstance(q, QuadExt)
    assert q * b == a


def test_quadext_sign_and_order():
    assert QuadExt(0, 1, 2).sign() == 1
    assert QuadExt(-3, 2, 2).sign() < 0      # 2 sqrt2 = 2.83 < 3
    assert QuadExt(-2, Fraction(3, 2), 2).sign() > 0  # 1.5 sqrt2 = 2.12 > 2
    assert QuadExt(1, 1, 3) > 0
    assert abs(QuadExt(-1, 0, 7)) == QuadExt(1, 0, 7)


def test_mixed_quadratic_fields_rejected():
    with pytest.raises(FieldError):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    with pytest.raises(FieldError):
        quad_field(2).join(quad_field(3))


def test_rational_embeds_into_quadratic():
    f = quad_field(5)
    x = f.coerce(Fraction(2, 3))
    assert x == QuadExt(Fraction(2, 3), 0, 5)
    assert RATIONAL.join(f) == f


def test_only_exact_field_kinds():
    with pytest.raises(ValueError):
        Field("float")
    with pytest.raises(FieldError):
        RATIONAL.coerce(0.5)


def test_sqrt_in_field():
    assert sqrt_in_field(Fraction(9, 4), RATIONAL) == Fraction(3, 2)
    assert sqrt_in_field(Fraction(2), RATIONAL) is None
    f = quad_field(15)
    assert sqrt_in_field(Fraction(15), f) == QuadExt(0, 1, 15)
    assert sqrt_in_field(Fraction(60), f) == QuadExt(0, 2, 15)
    # (1 + sqrt15)^2 = 16 + 2 sqrt15
    root = sqrt_in_field(QuadExt(16, 2, 15), f)
    assert root == QuadExt(1, 1, 15)
    # (sqrt2 - 1)^2 = 3 - 2 sqrt2: the root p + q sqrt d with p > 0 is
    # 1 - sqrt2 < 0, so its negation is the answer
    assert sqrt_in_field(QuadExt(3, -2, 2), quad_field(2)) == QuadExt(-1, 1, 2)


_Q = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([None, 2, 3, 15]), x=st.tuples(_Q, _Q),
       square=st.booleans())
def test_sqrt_in_field_matches_the_fraction_oracle(d, x, square):
    # on the integer square roots of the numerators: the same root, or None
    field = RATIONAL if d is None else quad_field(d)
    y = x[0] if d is None else QuadExt(x[0], x[1], d)
    if square:
        y = y * y
    assert sqrt_in_field(y, field) == oracle_sqrt_in_field(y, field)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([None, 2, 15]), x=st.tuples(_Q, _Q))
def test_sqrt_in_field_finds_the_root_of_every_square(d, x):
    # b b has the roots +-b in the field; the one returned is not negative
    b = x[0] if d is None else QuadExt(x[0], x[1], d)
    r = sqrt_in_field(b * b, RATIONAL if d is None else quad_field(d))
    assert r is not None and r * r == b * b and sign(r) >= 0


def test_cc_complex_arithmetic():
    a = CC(Fraction(1), Fraction(2))
    b = CC(Fraction(3), Fraction(-1))
    assert a * b == CC(Fraction(5), Fraction(5))
    assert a.conj() == CC(Fraction(1), Fraction(-2))
    assert a * a.conj() == CC(Fraction(5))
    assert (a / b) * b == a


def test_field_elem_round_trip_text():
    f = quad_field(15)
    x = QuadExt(Fraction(-1, 2), Fraction(7, 3), 15)
    assert f.parse_elem(f.format_elem(x)) == x
    assert RATIONAL.parse_elem(RATIONAL.format_elem(Fraction(-22, 7))) == Fraction(-22, 7)
