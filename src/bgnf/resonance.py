"""Resonance lattice bookkeeping for a frequency pair (alpha1, alpha2).

The integer solutions of m1*alpha1 + m2*alpha2 = 0 form a rank-<=1 module;
its normalized generator (gcd 1, m1 < 0, |m1| >= m2 >= 1) classifies the
equilibrium and determines which monomials z^k zbar^l commute with the
quadratic flow.  The non-resonant case is treated as |m1| = m2 = infinity:
every degree comparison against |m1| or m2 then sees a value larger than
any integer.

Resonance is arithmetic, so it is decided exactly: over Q and over
Q(sqrt(d)) alpha2/alpha1 is rational iff its sqrt(d) part vanishes.  Float
frequencies are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import CC, Field, QuadExt, sign
from .poly import COMPLEX, Polynomial, degree, in_resonance_module

__all__ = [
    "ResonanceData",
    "NONRESONANT",
    "ResonanceClass",
    "Frequencies",
    "resonance_pair",
    "classify",
    "sigma_monomial",
    "AnDecomposition",
    "RadialPoly",
    "an_decompose",
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

    @property
    def abs_m1(self):
        """|m1|, with infinity in the non-resonant case."""
        return math.inf if self.nonresonant else -self.m1

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


def sigma_monomial(res: ResonanceData, field: Field | None = None,
                   order: int = 10) -> Polynomial:
    """The special kernel monomial sigma = z2^{m2} zbar1^{|m1|}."""
    if res.nonresonant:
        raise ValueError("sigma is defined only in the resonant case")
    from .scalars import RATIONAL
    field = field or RATIONAL
    return Polynomial.monomial(COMPLEX, (0, res.m2, -res.m1, 0), 1, field, order)


class RadialPoly:
    """Polynomial in the radial variables (|z1|^2, |z2|^2) with CC coefficients."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs: dict, field: Field):
        self.coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}
        self.field = field

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k1: int, k2: int) -> CC:
        z = self.field.zero()
        return self.coeffs.get((k1, k2), CC(z, z))

    def axis_coefficients(self, axis: int) -> dict[int, CC]:
        """Coefficients of the restriction to one radial axis (other set to 0)."""
        out = {}
        for (k1, k2), c in self.coeffs.items():
            if axis == 1 and k2 == 0:
                out[k1] = c
            elif axis == 2 and k1 == 0:
                out[k2] = c
        return out

    def diff(self, slot: int) -> "RadialPoly":
        out = {}
        for (k1, k2), c in self.coeffs.items():
            if slot == 1 and k1 > 0:
                out[(k1 - 1, k2)] = c * k1
            elif slot == 2 and k2 > 0:
                out[(k1, k2 - 1)] = c * k2
        return RadialPoly(out, self.field)

    def conj(self) -> "RadialPoly":
        return RadialPoly({e: c.conj() for e, c in self.coeffs.items()}, self.field)


@dataclass
class AnDecomposition:
    """Kernel polynomial arranged as H2 + A0 + sum_n sigma^n An + conj."""

    res: ResonanceData
    quadratic: Polynomial
    a0: RadialPoly
    blocks: dict[int, RadialPoly]  # n >= 1 -> An
    order: int
    field: Field


def an_decompose(h_n: Polynomial, res: ResonanceData) -> AnDecomposition:
    """Peel sigma powers off a kernel polynomial.

    A0 collects the k = l terms (degree >= 3), block n collects the terms
    with k - l = n*(m1, m2), with the sigma^n factor removed; the conjugate
    blocks are implied by reality and reconstructed on demand.  Input must be
    annihilated by D; the first offending monomial is reported otherwise.
    """
    if h_n.chart != COMPLEX:
        raise ValueError("an_decompose expects the complex chart")
    if not h_n.is_real_valued():
        raise ValueError("an_decompose expects a real-valued polynomial")
    field = h_n.field
    quad = {}
    a0 = {}
    blocks: dict[int, dict] = {}
    for e, c in h_n.terms_sorted():
        if not in_resonance_module(e, res):
            raise ValueError(f"monomial {e} is not in ker D for m = {res.label()}")
        k1, k2, l1, l2 = e
        if degree(e) == 2:
            quad[e] = c
            continue
        if (k1, k2) == (l1, l2):
            a0[(k1, k2)] = c
            continue
        n = _block_index(e, res)
        if n > 0:
            # e = (k1', k2' + n m2, k1' + n|m1|, k2')
            blocks.setdefault(n, {})[(k1, l2)] = c
        # negative blocks are the conjugates; reality ties them to n > 0
    return AnDecomposition(
        res=res,
        quadratic=Polynomial(COMPLEX, field, h_n.order, quad),
        a0=RadialPoly(a0, field),
        blocks={n: RadialPoly(d, field) for n, d in sorted(blocks.items())},
        order=h_n.order,
        field=field,
    )


def _block_index(e, res: ResonanceData) -> int:
    """n such that k - l = n (m1, m2); positive n means a sigma^n block."""
    return (e[0] - e[2]) // res.m1
