from fractions import Fraction as F

import pytest

from bgnf.scalars import CC, QuadExt, RATIONAL
from bgnf.poly import COMPLEX, Polynomial, apply_D
from bgnf.resonance import (
    NONRESONANT,
    Frequencies,
    ResonanceClass,
    ResonanceData,
    an_decompose,
    classify,
    resonance_pair,
    sigma_monomial,
)

from conftest import oracle_reassemble, random_real_valued_complex


def test_generator_normalization_enforced():
    with pytest.raises(ValueError):
        ResonanceData(2, 1)        # m1 must be negative
    with pytest.raises(ValueError):
        ResonanceData(-2, 4)       # gcd
    with pytest.raises(ValueError):
        ResonanceData(-1, 2)       # |m1| >= m2
    assert ResonanceData(-3, 2).abs_m1 == 3
    assert NONRESONANT.abs_m1 == float("inf")


def test_resonance_pair_exact_rational():
    assert resonance_pair((F(1), F(1))) == ResonanceData(-1, 1)
    assert resonance_pair((F(2), F(4))) == ResonanceData(-2, 1)
    assert resonance_pair((F(2), F(3))) == ResonanceData(-3, 2)
    assert resonance_pair((F(2, 3), F(5, 7))) == ResonanceData(-15, 14)


def test_resonance_pair_idempotent_normalization():
    r = resonance_pair((F(2), F(3)))
    assert resonance_pair((F(2), F(3)), declared=r) == r


def test_resonance_pair_rejects_bad_declaration():
    with pytest.raises(ValueError):
        resonance_pair((F(1), F(2)), declared=ResonanceData(-1, 1))


def test_resonance_pair_quadratic_frequencies():
    rt2 = QuadExt(0, 1, 2)
    # irrational ratio: decided exactly, a declaration must agree
    assert resonance_pair((F(1), rt2)) == NONRESONANT
    assert resonance_pair((F(1), rt2), declared=NONRESONANT) == NONRESONANT
    with pytest.raises(ValueError):
        resonance_pair((F(1), rt2), declared=ResonanceData(-1, 1))
    # sqrt(2) : 2 sqrt(2) = 1 : 2 is resonant even with quadratic entries
    pair = ResonanceData(-2, 1)
    assert resonance_pair((rt2, 2 * rt2)) == pair
    assert resonance_pair((rt2, 2 * rt2), declared=pair) == pair
    with pytest.raises(ValueError):
        resonance_pair((rt2, 2 * rt2), declared=NONRESONANT)


def test_resonance_pair_floats_never_inferred():
    with pytest.raises(ValueError, match="not exact"):
        resonance_pair((1.0, 2.0))
    with pytest.raises(ValueError, match="not exact"):
        resonance_pair((1.0, 2.0), declared=ResonanceData(-2, 1))
    with pytest.raises(ValueError, match="not exact"):
        resonance_pair((F(1), 2.0))


def test_classify():
    assert classify(NONRESONANT) == ResonanceClass.NONRESONANT
    assert classify(ResonanceData(-3, 2)) == ResonanceClass.WEAKLY_NONRESONANT
    assert classify(ResonanceData(-2, 1)) == ResonanceClass.NONTRIVIAL_MULTIPLE
    assert classify(ResonanceData(-1, 1)) == ResonanceClass.EQUAL


def test_frequencies_invariants():
    with pytest.raises(ValueError):
        Frequencies(F(2), F(1))
    with pytest.raises(ValueError):
        Frequencies(F(0), F(1))
    Frequencies(F(1), QuadExt(0, 1, 2))


def test_sigma_monomial():
    s = sigma_monomial(ResonanceData(-2, 1))
    assert list(s.coeffs) == [(0, 1, 2, 0)]
    s = sigma_monomial(ResonanceData(-1, 1))
    assert list(s.coeffs) == [(0, 1, 1, 0)]
    s = sigma_monomial(ResonanceData(-3, 2), order=8)
    assert list(s.coeffs) == [(0, 2, 3, 0)]
    assert apply_D(s, (F(2), F(3))).is_zero()
    with pytest.raises(ValueError):
        sigma_monomial(NONRESONANT)


def test_an_decompose_quadratic_only():
    h2 = Polynomial.quadratic_h2((F(1), F(2)), COMPLEX, RATIONAL, 6)
    dec = an_decompose(h2, ResonanceData(-2, 1))
    assert dec.a0.is_zero()
    assert not dec.blocks


def test_an_decompose_rejects_image_monomials():
    p = Polynomial.from_terms(COMPLEX, [((1, 0, 0, 0), 1), ((0, 0, 1, 0), 1)],
                              RATIONAL, 6)
    with pytest.raises(ValueError, match="not in ker D"):
        an_decompose(p, NONRESONANT)


def test_an_decompose_henon_heiles_cross_block():
    # the quartic kernel form of the Henon-Heiles system: the coefficient of
    # (zbar1 z2)^2 sits in block n = 2 and equals -7/48
    f = F
    terms = {
        (1, 0, 1, 0): CC(f(1, 2)), (0, 1, 0, 1): CC(f(1, 2)),
        (2, 0, 2, 0): CC(f(-5, 48)), (0, 2, 0, 2): CC(f(-5, 48)),
        (1, 1, 1, 1): CC(f(1, 12)),
        (0, 2, 2, 0): CC(f(-7, 48)), (2, 0, 0, 2): CC(f(-7, 48)),
    }
    h4 = Polynomial(COMPLEX, RATIONAL, 4, terms)
    dec = an_decompose(h4, ResonanceData(-1, 1))
    assert dec.a0.coefficient(2, 0) == CC(f(-5, 48))
    assert dec.a0.coefficient(1, 1) == CC(f(1, 12))
    assert 2 in dec.blocks
    assert dec.blocks[2].coefficient(0, 0) == CC(f(-7, 48))
    assert oracle_reassemble(dec) == h4


def test_an_decompose_hill_block():
    from bgnf.models import hill_regularized
    m = hill_regularized()
    dec = an_decompose(m.averaged_form.h_n, ResonanceData(-1, 1))
    # A2 block: coefficient of (zbar1 z2)^2 is -(15/8)(|z1|^2 + |z2|^2)
    assert dec.blocks[2].coefficient(1, 0) == CC(F(-15, 8))
    assert dec.blocks[2].coefficient(0, 1) == CC(F(-15, 8))
    assert dec.blocks[2].coefficient(0, 0).is_zero()
    assert oracle_reassemble(dec) == m.averaged_form.h_n


def test_an_reassembly_random_kernel(rng):
    # project random real-valued polynomials onto the kernel, decompose,
    # reassemble: exact identity
    from bgnf.poly import split_ker_im
    res = ResonanceData(-2, 1)
    for _ in range(5):
        p = random_real_valued_complex(rng, order=6, terms_per_degree=4)
        ker, _ = split_ker_im(p, res)
        dec = an_decompose(ker, res)
        assert oracle_reassemble(dec) == ker
