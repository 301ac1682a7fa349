from fractions import Fraction as F

import pytest

from bgnf.scalars import QuadExt
from bgnf.resonance import (
    NONRESONANT,
    Frequencies,
    ResonanceClass,
    ResonanceData,
    classify,
    resonance_pair,
)

from conftest import (oracle_an_decompose, oracle_reassemble,
                      random_real_valued_complex)


def test_generator_normalization_enforced():
    with pytest.raises(ValueError):
        ResonanceData(2, 1)        # m1 must be negative
    with pytest.raises(ValueError):
        ResonanceData(-2, 4)       # gcd
    with pytest.raises(ValueError):
        ResonanceData(-1, 2)       # |m1| >= m2


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


def test_an_reassembly_random_kernel(rng):
    # project random real-valued polynomials onto the kernel, decompose,
    # reassemble: exact identity
    from bgnf.poly import split_ker_im
    res = ResonanceData(-2, 1)
    for _ in range(5):
        p = random_real_valued_complex(rng, order=6, terms_per_degree=4)
        ker, _ = split_ker_im(p, res)
        dec = oracle_an_decompose(ker, res)
        assert oracle_reassemble(dec) == ker
