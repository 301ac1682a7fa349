"""Resonance lattice bookkeeping for a frequency pair (alpha1, alpha2).

The integer solutions of m1*alpha1 + m2*alpha2 = 0 form a rank-<=1 module;
its normalized generator (gcd 1, m1 < 0, |m1| >= m2 >= 1) classifies the
equilibrium and determines which monomials z^k zbar^l commute with the
quadratic flow.  The non-resonant case carries no generator
(m1 = m2 = None).

Resonance is arithmetic, so it is decided exactly: over Q and over
Q(sqrt(d)) alpha2/alpha1 is rational iff its sqrt(d) part vanishes.  Float
frequencies are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import QuadExt, sign

__all__ = [
    "ResonanceData",
    "NONRESONANT",
    "ResonanceClass",
    "Frequencies",
    "resonance_pair",
    "classify",
]


@dataclass(frozen=True)
class ResonanceData:
    """Generator (m1, m2) of the resonance module, or the non-resonant marker."""

    m1: int | None
    m2: int | None

    @property
    def nonresonant(self) -> bool:
        return self.m1 is None

    def __post_init__(self):
        if self.m1 is None or self.m2 is None:
            object.__setattr__(self, "m1", None)
            object.__setattr__(self, "m2", None)
            return
        if not (self.m1 < 0 and self.m2 >= 1 and -self.m1 >= self.m2
                and math.gcd(-self.m1, self.m2) == 1):
            raise ValueError(
                f"({self.m1}, {self.m2}) violates the generator normalization "
                "(gcd 1, m1 < 0, |m1| >= m2 >= 1)"
            )

    def label(self) -> str:
        if self.nonresonant:
            return "nonresonant"
        return f"({self.m1},{self.m2})"


NONRESONANT = ResonanceData(None, None)


class ResonanceClass:
    NONRESONANT = "NonResonant"
    WEAKLY_NONRESONANT = "WeaklyNonResonant"
    NONTRIVIAL_MULTIPLE = "NontrivialMultiple"
    EQUAL = "Equal"


@dataclass(frozen=True)
class Frequencies:
    """Ordered positive frequency pair 0 < alpha1 <= alpha2."""

    alpha1: object
    alpha2: object

    def __post_init__(self):
        for a in (self.alpha1, self.alpha2):
            if sign(a) <= 0:
                raise ValueError("frequencies must be positive")
        if sign(self.alpha2 - self.alpha1) < 0:
            raise ValueError("frequencies must satisfy alpha1 <= alpha2")

    def __iter__(self):
        return iter((self.alpha1, self.alpha2))


def _normalize_pair(m1: int, m2: int) -> ResonanceData:
    g = math.gcd(abs(m1), abs(m2))
    m1, m2 = m1 // g, m2 // g
    if m2 < 0 or (m2 == 0 and m1 < 0):
        m1, m2 = -m1, -m2
    return ResonanceData(m1, m2)


def resonance_pair(alpha, declared: ResonanceData | None = None) -> ResonanceData:
    """Normalized generator of the resonance module of ``alpha``.

    The frequencies must be exact, in Q or in one Q(sqrt(d)).  The ratio
    alpha2/alpha1 is rational iff its sqrt(d) part vanishes; then the
    generator comes from that rational, otherwise the pair is non-resonant.
    A ``declared`` generator must agree with the exact one.
    """
    a1, a2 = alpha
    for a in (a1, a2):
        if not isinstance(a, (int, Fraction, QuadExt)):
            raise ValueError(
                f"frequency {a!r} is not exact; resonance is decided over Q "
                "or Q(sqrt(d)) only")
    # alpha2/alpha1 = |m1|/m2 when it is rational
    if isinstance(a1, QuadExt) or isinstance(a2, QuadExt):
        q = a2 / a1
        ratio = q.a if q.is_rational() else None
    else:
        ratio = Fraction(a2) / Fraction(a1)
    inferred = (NONRESONANT if ratio is None
                else _normalize_pair(-ratio.numerator, ratio.denominator))
    if declared is not None and declared != inferred:
        raise ValueError(
            f"declared resonance {declared.label()} contradicts the exact "
            f"generator {inferred.label()}"
        )
    return inferred


def classify(res: ResonanceData) -> str:
    """Four-way classification driving the theorem selection."""
    if res.nonresonant:
        return ResonanceClass.NONRESONANT
    if res.m2 >= 2:
        return ResonanceClass.WEAKLY_NONRESONANT
    if -res.m1 >= 2:
        return ResonanceClass.NONTRIVIAL_MULTIPLE
    return ResonanceClass.EQUAL

