"""Exact multivariate polynomial arithmetic in the four phase variables.

A polynomial stores one positive common denominator ``den`` and a sparse
dictionary ``nums`` from exponent quadruples to tuples of integer
numerators: (re, im) over Q, and (re_a, re_b, im_a, im_b) for the
coefficient re_a + re_b sqrt d + i (im_a + im_b sqrt d) over Q(sqrt d).
The storage is canonical: no numerator tuple is zero, and ``den`` and all
numerators have gcd 1, so ``den`` is the lcm of the reduced denominators.
Equal polynomials over one field therefore store equal integers, and no
operation lets the integers grow past the heights of the values.  A
polynomial also carries a chart tag, its coefficient field and a truncation
order N.  Every operation drops the monomials of total degree > N, so a
result is exact through degree N: a jet at N.

Complex coefficients (:class:`bgnf.scalars.CC`) exist only at the boundary.
The constructor takes a dictionary of them, or of field elements, and
converts it once; ``coeffs`` and ``coefficient`` build them on first read.

Charts and exponent conventions
-------------------------------
  real chart:     (k1, k2, l1, l2)  <->  y1^k1 y2^k2 x1^l1 x2^l2
  complex chart:  (k1, k2, l1, l2)  <->  z1^k1 z2^k2 zb1^l1 zb2^l2

with z_j = x_j + i y_j.  On the complex chart the vector field of the
quadratic Hamiltonian acts diagonally: the monomial z^k zbar^l is an
eigenfunction of D with eigenvalue -i * (alpha . (k - l)), which is what
makes the kernel/image splitting and the homological solve coefficientwise.

All values are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .scalars import CC, Field, FieldError, QuadExt, RATIONAL, quad_field

__all__ = [
    "Polynomial",
    "TruncatedMap",
    "ChartError",
    "KernelMonomialError",
    "degree",
    "poisson_bracket",
    "apply_D",
    "split_ker_im",
    "in_resonance_module",
    "solve_homological",
    "to_complex",
    "to_real",
    "compose_map",
    "compose_many",
    "compose_maps",
    "invert_generating",
    "symplectic_defect",
    "linear_substitute",
    "sum_of_products",
    "write_polynomial",
    "read_polynomial",
    "PolynomialFormatError",
]

REAL = "real"
COMPLEX = "complex"

_REAL_NAMES = ("y1", "y2", "x1", "x2")
_COMPLEX_NAMES = ("z1", "z2", "zb1", "zb2")
_ONE = (0, 0, 0, 0)
_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class ChartError(ValueError):
    """Raised when an operation receives the wrong chart."""


def degree(exps: tuple) -> int:
    return exps[0] + exps[1] + exps[2] + exps[3]


def _grlex_key(exps: tuple):
    return (degree(exps), exps)


# ---------------------------------------------------------------------------
# the integer form of coefficients
# ---------------------------------------------------------------------------


def _zero(field: Field) -> tuple:
    return (0, 0, 0, 0) if field.kind == "quadratic" else (0, 0)


def _parts(c, field: Field) -> tuple:
    """Rational parts of a CC or a field element, coerced into ``field``."""
    re, im = (c.re, c.im) if isinstance(c, CC) else (c, 0)
    re, im = field.coerce(re), field.coerce(im)
    if field.kind == "quadratic":
        return (re.a, re.b, im.a, im.b)
    return (re, im)


def _over_one_den(parts: dict):
    """(den, {key: int tuple}) of {key: Fraction tuple}, zeros dropped.

    ``den`` is the lcm of the reduced denominators, so the result is
    canonical.
    """
    den = 1
    for fs in parts.values():
        den = math.lcm(den, *(f.denominator for f in fs))
    return den, {k: tuple(f.numerator * (den // f.denominator) for f in fs)
                 for k, fs in parts.items() if any(fs)}


def _scalar(c, field: Field):
    """(den, int tuple) of one coefficient, a CC or a field element."""
    den, nums = _over_one_den({0: _parts(c, field)})
    return den, nums.get(0, _zero(field))


def _to_cc(t: tuple, den: int, field: Field) -> CC:
    if field.kind == "quadratic":
        d = field.d
        return CC(QuadExt(Fraction(t[0], den), Fraction(t[1], den), d),
                  QuadExt(Fraction(t[2], den), Fraction(t[3], den), d))
    return CC(Fraction(t[0], den), Fraction(t[1], den))


def _lift(nums: dict, src: Field, dst: Field) -> dict:
    """Numerators over ``src`` as numerators over its extension ``dst``."""
    if src == dst:
        return nums
    if src.kind != "rational":
        raise FieldError(f"cannot move Q(sqrt({src.d})) coefficients into "
                         f"{dst.format_tag()}")
    return {e: (t[0], 0, t[1], 0) for e, t in nums.items()}


class _CoeffView(Mapping):
    """Read-only {exps: CC} view of a polynomial's numerators; the CC values
    are built together on the first value read."""

    __slots__ = ("_den", "_nums", "_field", "_built")

    def __init__(self, den: int, nums: dict, field: Field):
        self._den, self._nums, self._field, self._built = den, nums, field, None

    def __getitem__(self, exps):
        if self._built is None:
            self._built = {e: _to_cc(t, self._den, self._field)
                           for e, t in self._nums.items()}
        return self._built[exps]

    def __len__(self):
        return len(self._nums)

    def __iter__(self):
        return iter(self._nums)


class Polynomial:
    """Truncated polynomial in four phase variables over an exact field."""

    __slots__ = ("chart", "field", "order", "den", "nums", "_view")

    def __init__(self, chart: str, field: Field, order: int, coeffs=None):
        """From {exps: CC or field element}; terms above ``order`` are cut."""
        if chart not in (REAL, COMPLEX):
            raise ChartError(f"unknown chart {chart!r}")
        parts = {}
        for e, c in (coeffs or {}).items():
            fs = _parts(c, field)
            if degree(e) <= order:
                parts[e] = fs       # zero coefficients go in _over_one_den
        self.chart = chart
        self.field = field
        self.order = order
        self.den, self.nums = _over_one_den(parts)
        self._view = None

    @classmethod
    def _from_ints(cls, chart: str, field: Field, order: int, den: int,
                   nums: dict) -> "Polynomial":
        """From nonzero numerator tuples of degree <= ``order`` over ``den``,
        reduced to the canonical form."""
        g = den
        for t in nums.values():
            if g == 1:
                break
            g = math.gcd(g, *t)
        if g != 1:
            den //= g
            nums = {e: tuple(x // g for x in t) for e, t in nums.items()}
        p = cls.__new__(cls)
        p.chart, p.field, p.order = chart, field, order
        p.den, p.nums, p._view = den, nums, None
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, chart: str, field: Field = RATIONAL, order: int = 10):
        return cls(chart, field, order)

    @classmethod
    def monomial(cls, chart, exps, coeff, field: Field = RATIONAL, order: int = 10):
        return cls(chart, field, order, {tuple(exps): coeff})

    @classmethod
    def from_terms(cls, chart, terms, field: Field = RATIONAL, order: int = 10):
        """Build from an iterable of (exps, coeff) pairs; coeffs may repeat."""
        acc = {}
        for exps, coeff in terms:
            acc[tuple(exps)] = acc.get(tuple(exps), 0) + coeff
        return cls(chart, field, order, acc)

    @classmethod
    def quadratic_h2(cls, alpha, chart: str = REAL, field: Field = RATIONAL,
                     order: int = 10):
        """H2 = alpha1/2 (y1^2+x1^2) + alpha2/2 (y2^2+x2^2) in either chart."""
        half = Fraction(1, 2)
        a1 = field.coerce(alpha[0]) * half
        a2 = field.coerce(alpha[1]) * half
        if chart == REAL:
            terms = {(2, 0, 0, 0): a1, (0, 0, 2, 0): a1,
                     (0, 2, 0, 0): a2, (0, 0, 0, 2): a2}
        else:
            terms = {(1, 0, 1, 0): a1, (0, 1, 0, 1): a2}
        return cls(chart, field, order, terms)

    # -- bookkeeping ---------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> Field:
        if self.chart != other.chart:
            raise ChartError(
                f"chart mismatch: {self.chart} vs {other.chart}"
            )
        return self.field.join(other.field)

    @property
    def coeffs(self) -> Mapping:
        """Read-only {exps: CC} view of the coefficients."""
        if self._view is None:
            self._view = _CoeffView(self.den, self.nums, self.field)
        return self._view

    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        return max(map(degree, self.nums), default=0)

    def min_degree(self) -> int:
        return min(map(degree, self.nums), default=0)

    def coefficient(self, exps) -> CC:
        t = self.nums.get(tuple(exps), _zero(self.field))
        return _to_cc(t, self.den, self.field)

    def terms_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: _grlex_key(kv[0]))

    def _part(self, keep, order: int) -> "Polynomial":
        """The terms whose exponents pass ``keep``."""
        part = {e: t for e, t in self.nums.items() if keep(e)}
        return Polynomial._from_ints(self.chart, self.field, order, self.den,
                                     part)

    def homogeneous_part(self, s: int) -> "Polynomial":
        return self._part(lambda e: degree(e) == s, self.order)

    def up_to_degree(self, s: int) -> "Polynomial":
        return self._part(lambda e: degree(e) <= s, min(self.order, s))

    def truncate(self, order: int) -> "Polynomial":
        return self._part(lambda e: degree(e) <= order, order)

    def is_real_valued(self) -> bool:
        """Reality check: real coefficients (real chart) or a_lk = conj(a_kl)."""
        h = len(_zero(self.field)) // 2       # the imaginary parts
        if self.chart == REAL:
            return not any(any(t[h:]) for t in self.nums.values())
        return all(self.nums.get((l1, l2, k1, k2))
                   == t[:h] + tuple(-x for x in t[h:])
                   for (k1, k2, l1, l2), t in self.nums.items())

    # -- ring operations -----------------------------------------------------

    def _binary(self, other: "Polynomial", entries) -> "Polynomial":
        field = self._check_compatible(other)
        return sum_of_products(entries, min(self.order, other.order), field,
                               self.chart)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._binary(other, [(None, self, None), (None, other, None)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._binary(other, [(None, self, None), (-1, other, None)])

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def scale(self, coeff) -> "Polynomial":
        return sum_of_products([(_scalar(coeff, self.field), self, None)],
                               self.order, self.field, self.chart)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        return self._binary(other, [(None, self, other)])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.chart != other.chart:
            return False
        try:
            field = self.field.join(other.field)
        except FieldError:
            return not (self.nums or other.nums)
        return (self.den == other.den
                and _lift(self.nums, self.field, field)
                == _lift(other.nums, other.field, field))

    def __hash__(self):
        return hash((self.chart, self.den, frozenset(self.nums)))

    # -- calculus ------------------------------------------------------------

    def diff(self, var: int) -> "Polynomial":
        """Partial derivative with respect to slot ``var`` (0..3)."""
        return Polynomial._from_ints(self.chart, self.field, self.order,
                                     self.den,
                                     _taylor_term(self.nums, _BASIS[var]))

    def evaluate(self, values) -> complex:
        """Numerical evaluation at a 4-tuple of floats/complex."""
        total = 0j
        for e, c in self.coeffs.items():
            m = complex(c)
            for v, k in zip(values, e):
                if k:
                    m *= v ** k
            total += m
        return total

    # -- field moves ---------------------------------------------------------

    def promote(self, field: Field) -> "Polynomial":
        """The same values over ``field`` (must be an extension)."""
        if field == self.field:
            return self
        return Polynomial._from_ints(self.chart, field, self.order, self.den,
                                     _lift(self.nums, self.field, field))

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        n = len(self.nums)
        return (f"<Polynomial {self.chart} {self.field.format_tag()} "
                f"order={self.order} terms={n}>")

    def pretty(self) -> str:
        names = _REAL_NAMES if self.chart == REAL else _COMPLEX_NAMES
        if not self.nums:
            return "0"
        parts = []
        for e, c in self.terms_sorted():
            mono = "*".join(
                f"{names[i]}^{e[i]}" if e[i] > 1 else names[i]
                for i in range(4) if e[i] > 0
            )
            if c.is_real():
                cs = self.field.format_elem(c.re)
            else:
                cs = (f"({self.field.format_elem(c.re)}"
                      f"+{self.field.format_elem(c.im)}i)")
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# integer multiplication kernel
# ---------------------------------------------------------------------------
#
# Every polynomial sum and product (``+``, ``-``, ``*``, ``scale``, the
# Poisson bracket, D and the homological solve, chart changes, map
# composition, the symplecticity check) runs through ``sum_of_products`` on
# the stored integer form.  Each product is accumulated over the product of
# its factors' denominators, every entry is lifted to the lcm of those, and
# the sum is reduced to the canonical form once at the end; no Fraction is
# built on the way.  A factor may also be passed as a bare integer form
# (den, {exps: int tuple}), as the Taylor terms of map composition are, and
# a scale as (den, int tuple).


def _acc_pairs(acc: dict, va: dict, bterms, order, d: int, mult: int) -> None:
    """acc += mult * (va x bterms), truncated at ``order``.

    ``bterms`` is a degree-sorted list of (degree, exps, numerators); ``d``
    is the radicand over Q(sqrt d) and 0 over Q.
    """
    get = acc.get
    for (a0, a1, a2, a3), ta in va.items():
        da = a0 + a1 + a2 + a3
        if mult != 1:
            ta = tuple(x * mult for x in ta)
        if d:
            ra, rb, ia, ib = ta
            for db, (b0, b1, b2, b3), (sa, sb, ja, jb) in bterms:
                if da + db > order:
                    break
                e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                # (ra + rb r + i(ia + ib r)) (sa + sb r + i(ja + jb r)),
                # r = sqrt(d)
                p0 = ra * sa + d * rb * sb - ia * ja - d * ib * jb
                p1 = ra * sb + rb * sa - ia * jb - ib * ja
                p2 = ra * ja + d * rb * jb + ia * sa + d * ib * sb
                p3 = ra * jb + rb * ja + ia * sb + ib * sa
                cur = get(e)
                acc[e] = ((p0, p1, p2, p3) if cur is None else
                          (cur[0] + p0, cur[1] + p1, cur[2] + p2, cur[3] + p3))
        else:
            ra, ia = ta
            for db, (b0, b1, b2, b3), (sa, ja) in bterms:
                if da + db > order:
                    break
                e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                p0 = ra * sa - ia * ja
                p1 = ra * ja + ia * sa
                cur = get(e)
                acc[e] = (p0, p1) if cur is None else (cur[0] + p0, cur[1] + p1)


def sum_of_products(entries, order: int, field: Field,
                    chart: str = REAL) -> Polynomial:
    """sum_k scale_k * A_k * B_k with one integer accumulation pass.

    ``entries`` is an iterable of (scale, A, B).  ``scale`` is None for 1,
    a CC or field element, or an integer form (den, int tuple) over
    ``field``.  ``A`` and ``B`` are Polynomials or integer forms (den,
    {exps: int tuple}), and ``B`` may be None for a scaled copy of ``A``,
    which keeps A's term order.  The smaller factor of each product runs in
    the outer loop.
    """
    d = field.d if field.kind == "quadratic" else 0
    unit = (1, {_ONE: (1,) + _zero(field)[1:]})
    prepared = []
    global_den = 1
    for scale, a, b in entries:
        den_a, va = _int_form(a, field)
        if b is None:
            den_b, vb = unit
        else:
            den_b, vb = _int_form(b, field)
            if len(va) > len(vb):
                va, vb = vb, va
        if scale is None:
            den_s, ts = 1, None
        elif isinstance(scale, tuple):
            den_s, ts = scale
        else:
            den_s, ts = _scalar(scale, field)
        den_e = den_a * den_b * den_s
        global_den = math.lcm(global_den, den_e)
        prepared.append((den_e, ts, va, vb))
    acc: dict = {}
    for den_e, ts, va, vb in prepared:
        if ts is not None:
            scaled: dict = {}
            _acc_pairs(scaled, va, [(0, _ONE, ts)], math.inf, d, 1)
            va = scaled
        bterms = sorted((e[0] + e[1] + e[2] + e[3], e, t)
                        for e, t in vb.items())
        _acc_pairs(acc, va, bterms, order, d, global_den // den_e)
    nums = {e: t for e, t in acc.items() if any(t)}
    return Polynomial._from_ints(chart, field, order, global_den, nums)


def _int_form(x, field: Field):
    """(den, {exps: int tuple}) of a Polynomial over ``field``; an integer
    form passes through."""
    if isinstance(x, tuple):
        return x
    return x.den, _lift(x.nums, x.field, field)


# ---------------------------------------------------------------------------
# chart changes
# ---------------------------------------------------------------------------


def _substitute_linear4(p: Polynomial, matrix, chart: str) -> Polynomial:
    """p(M . v) for a 4x4 ``matrix`` of field elements or :class:`CC`
    pairs of them; row i is the image of p's variable i on ``chart``."""
    field, order = p.field, p.order
    images = [Polynomial(chart, field, order,
                         dict(zip(_BASIS, row)))
              for row in matrix]
    one = Polynomial.monomial(chart, _ONE, 1, field, order)
    # memoized powers of the four images
    pows: list[list[Polynomial]] = [[one] for _ in range(4)]
    maxdeg = [max((e[i] for e in p.nums), default=0) for i in range(4)]
    for i in range(4):
        for k in range(1, maxdeg[i] + 1):
            pows[i].append(pows[i][k - 1] * images[i])
    # pair slot 0 with the slot whose image has the same variables, so the
    # two factors of each fused product below have disjoint supports
    supp = [set(im.nums) for im in images]
    b = next((j for j in (1, 2, 3) if supp[j] == supp[0]), 1)
    c, d = (j for j in (1, 2, 3) if j != b)
    # pair products memoized; each term is then a single fused product
    front: dict = {}
    back: dict = {}
    entries = []
    for e, t in sorted(p.nums.items(), key=lambda kv: _grlex_key(kv[0])):
        key_f = (e[0], e[b])
        if key_f not in front:
            front[key_f] = pows[0][e[0]] * pows[b][e[b]]
        key_b = (e[c], e[d])
        if key_b not in back:
            back[key_b] = pows[c][e[c]] * pows[d][e[d]]
        entries.append(((p.den, t), front[key_f], back[key_b]))
    return sum_of_products(entries, order, field, chart)


_HALF = Fraction(1, 2)
_I, _I_HALF = CC(0, 1), CC(0, _HALF)
# y_j = (z_j - zb_j)/(2i) = -i/2 z_j + i/2 zb_j, x_j = (z_j + zb_j)/2
_TO_COMPLEX = ((-_I_HALF, 0, _I_HALF, 0), (0, -_I_HALF, 0, _I_HALF),
               (_HALF, 0, _HALF, 0), (0, _HALF, 0, _HALF))
# z_j = x_j + i y_j, zb_j = x_j - i y_j
_TO_REAL = ((_I, 0, 1, 0), (0, _I, 0, 1), (-_I, 0, 1, 0), (0, -_I, 0, 1))


def to_complex(p: Polynomial) -> Polynomial:
    """Exact chart change y_j = (z_j - zb_j)/(2i), x_j = (z_j + zb_j)/2."""
    if p.chart != REAL:
        raise ChartError("to_complex expects a real-chart polynomial")
    return _substitute_linear4(p, _TO_COMPLEX, COMPLEX)


def to_real(p: Polynomial) -> Polynomial:
    """Exact chart change z_j = x_j + i y_j; input must be real-valued."""
    if p.chart != COMPLEX:
        raise ChartError("to_real expects a complex-chart polynomial")
    q = _substitute_linear4(p, _TO_REAL, REAL)
    h = len(_zero(q.field)) // 2
    for e, t in q.nums.items():
        if any(t[h:]):
            raise ValueError(
                "to_real of a non-real-valued polynomial "
                f"(imaginary residue at {e})"
            )
    return q


def linear_substitute(p: Polynomial, matrix, field: Field | None = None) -> Polynomial:
    """Compose with the linear map v -> M v on the polynomial's own chart.

    ``matrix`` is a 4x4 nested sequence of field elements or of
    :class:`CC` pairs of them (complex entries, as on the complex chart);
    row i gives the expression of old variable i in the new ones, i.e. the
    result is p(M . v).
    """
    return _substitute_linear4(p.promote(field or p.field), matrix, p.chart)


# ---------------------------------------------------------------------------
# Poisson bracket and the operator D
# ---------------------------------------------------------------------------


def poisson_bracket(p: Polynomial, q: Polynomial) -> Polynomial:
    """{p, q} for the symplectic form dy1^dx1 + dy2^dx2.

    Convention: {f, g} = sum_j d_{y_j} f d_{x_j} g - d_{x_j} f d_{y_j} g,
    so {H, f} is the derivative of f along the flow of H and {y1, x1} = 1.
    The result is truncated at min(order_p, order_q) - this is exact for the
    bracket since deg {p,q} = deg p + deg q - 2.
    """
    field = p._check_compatible(q)
    if p.chart == REAL:
        plus, minus = None, -1
    else:
        # {f,g} = 2i sum_j (d_{z_j} f d_{zb_j} g - d_{zb_j} f d_{z_j} g)
        plus, minus = CC(0, 2), CC(0, -2)
    entries = []
    for j in range(2):
        entries.append((plus, p.diff(j), q.diff(2 + j)))
        entries.append((minus, p.diff(2 + j), q.diff(j)))
    return sum_of_products(entries, min(p.order, q.order), field, p.chart)


def _alpha_dot(alpha, e, field: Field):
    """alpha . (k - l) for the exponent quadruple e, in the given field."""
    a1 = field.coerce(alpha[0])
    a2 = field.coerce(alpha[1])
    return a1 * (e[0] - e[2]) + a2 * (e[1] - e[3])


def _times_eigenvalue(p: Polynomial, alpha, factor) -> Polynomial:
    """sum_e factor(alpha.(k-l), e) * (term e of p); None drops the term.

    The eigenvalue depends on k - l alone, so the terms are scaled in one
    product per class of k - l.
    """
    field = p.field
    classes: dict = {}
    for e, t in p.nums.items():
        classes.setdefault((e[0] - e[2], e[1] - e[3]), {})[e] = t
    entries = []
    for (dk1, dk2), part in classes.items():
        s = factor(_alpha_dot(alpha, (dk1, dk2, 0, 0), field), next(iter(part)))
        if s is not None:
            entries.append((s, (p.den, part), None))
    return sum_of_products(entries, p.order, field, COMPLEX)


def apply_D(p: Polynomial, alpha) -> Polynomial:
    """Differentiation along the H2 flow: z^k zb^l -> -i (alpha.(k-l)) z^k zb^l."""
    if p.chart != COMPLEX:
        raise ChartError("apply_D expects the complex chart; convert first")
    return _times_eigenvalue(
        p, alpha, lambda ev, e: None if ev == 0 else CC(0, -ev))


def in_resonance_module(e, res) -> bool:
    """Is k - l in the resonance module Z.(m1, m2), i.e. z^k zbar^l in ker D?"""
    dk1 = e[0] - e[2]
    dk2 = e[1] - e[3]
    if res.nonresonant:
        return dk1 == 0 and dk2 == 0
    # m1 < 0 by the generator normalization, so dk1 fixes the multiple n
    n, rem = divmod(dk1, res.m1)
    return rem == 0 and dk2 == n * res.m2


def split_ker_im(p: Polynomial, res) -> tuple[Polynomial, Polynomial]:
    """Split into ker D + im D parts using the resonance lattice.

    ``res`` is a :class:`bgnf.resonance.ResonanceData`.  On the kernel part
    apply_D vanishes identically; on the image part every monomial has a
    nonzero eigenvalue.
    """
    if p.chart != COMPLEX:
        raise ChartError("split_ker_im expects the complex chart")
    return (p._part(lambda e: in_resonance_module(e, res), p.order),
            p._part(lambda e: not in_resonance_module(e, res), p.order))


class KernelMonomialError(ValueError):
    """A kernel monomial appeared where an image-of-D polynomial was required."""

    def __init__(self, exps):
        self.exps = exps
        super().__init__(
            f"monomial {exps} lies in ker D (eigenvalue 0); "
            "not solvable by the homological equation"
        )


def solve_homological(image_part: Polynomial, alpha, res=None) -> Polynomial:
    """Solve -D.G = L monomialwise: G-coefficient = -i c / (alpha.(k-l)).

    Every monomial of ``image_part`` must have a nonzero D-eigenvalue;
    offenders raise :class:`KernelMonomialError` naming the exponent.  The
    output is real-valued whenever the input is.
    """
    if image_part.chart != COMPLEX:
        raise ChartError("solve_homological expects the complex chart")

    def factor(ev, e):
        if ev == 0:
            raise KernelMonomialError(e)
        return CC(0, -1 / ev)

    return _times_eigenvalue(image_part, alpha, factor)


# ---------------------------------------------------------------------------
# truncated maps
# ---------------------------------------------------------------------------


class TruncatedMap:
    """Polynomial map of phase space, one component per output coordinate.

    Components are real-chart polynomials in the input coordinates
    (eta1, eta2, xi1, xi2); output order is (y1, y2, x1, x2).
    """

    __slots__ = ("components", "order")

    def __init__(self, components: list[Polynomial], order: int):
        if len(components) != 4:
            raise ValueError("a phase-space map needs four components")
        self.components = components
        self.order = order

    @classmethod
    def identity(cls, field: Field = RATIONAL, order: int = 10):
        comps = [Polynomial.monomial(REAL, b, 1, field, order) for b in _BASIS]
        return cls(comps, order)

    @property
    def field(self) -> Field:
        return self.components[0].field

    def evaluate(self, values):
        return [comp.evaluate(values) for comp in self.components]

    def jacobian(self) -> list[list[Polynomial]]:
        return [[comp.diff(j) for j in range(4)] for comp in self.components]

    def __repr__(self):
        return f"<TruncatedMap order={self.order}>"


def _taylor_term(vec: dict, beta) -> dict:
    """d^beta q / beta! on q's numerators, over q's denominator.

    Exponent e moves to e - beta with the integer weight prod_j C(e_j, b_j).
    """
    b0, b1, b2, b3 = beta
    out = {}
    for (e0, e1, e2, e3), t in vec.items():
        if e0 >= b0 and e1 >= b1 and e2 >= b2 and e3 >= b3:
            w = (math.comb(e0, b0) * math.comb(e1, b1)
                 * math.comb(e2, b2) * math.comb(e3, b3))
            out[(e0 - b0, e1 - b1, e2 - b2, e3 - b3)] = tuple(x * w for x in t)
    return out


def _power(powers: dict, nlin: list, beta) -> Polynomial:
    """N^beta, memoized in ``powers``.  Not a closure: a recursive closure
    is a reference cycle that keeps every power alive until a full gc."""
    got = powers.get(beta)
    if got is None:
        i = next(j for j in range(4) if beta[j] > 0)
        parent = list(beta)
        parent[i] -= 1
        got = powers[beta] = _power(powers, nlin, tuple(parent)) * nlin[i]
    return got


def compose_many(polys: list[Polynomial], phi: TruncatedMap,
                 order: int | None = None) -> list[Polynomial]:
    """Compose several polynomials with one near-identity map.

    Each p o (id + N) is evaluated through the finite Taylor expansion
    sum_beta d^beta p N^beta / beta!, which terminates because every
    nonlinear part N_i starts at degree >= 2; a map with a constant term or
    a linear part other than the identity raises ``ValueError``.  The powers
    N^beta are shared across all the input polynomials.  Each term
    d^beta p / beta! is built on p's integer form by integer binomial
    weights, with no derivative.  The result is a jet at ``order``.
    """
    if order is None:
        order = min(min(p.order for p in polys), phi.order)
    field = phi.field
    for p in polys:
        if p.chart != REAL:
            raise ChartError("map composition operates on the real chart")
        field = field.join(p.field)
    nlin = []
    mindeg = []
    for i in range(4):
        comp = phi.components[i].truncate(order).promote(field)
        n_i = comp - Polynomial.monomial(REAL, _BASIS[i], 1, field, order)
        if not n_i.is_zero() and n_i.min_degree() < 2:
            raise ValueError("compose requires an identity-linear-part map; "
                             "use linear_substitute for linear changes")
        nlin.append(n_i)
        mindeg.append(n_i.min_degree() if not n_i.is_zero() else order + 1)

    powers = {_ONE: Polynomial.monomial(REAL, _ONE, 1, field, order)}
    results = []
    for p in polys:
        q = p.truncate(order).promote(field)
        pdeg = [max((e[i] for e in q.nums), default=0) for i in range(4)]
        entries = [(None, q, None)]
        frontier = [(0, 0, 0, 0)]
        seen = {(0, 0, 0, 0)}
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(4):
                    nb = list(beta)
                    nb[i] += 1
                    nb = tuple(nb)
                    if nb in seen or nb[i] > pdeg[i]:
                        continue
                    extra = sum(nb[j] * (mindeg[j] - 1) for j in range(4))
                    if extra + 1 > order or nlin[i].is_zero():
                        continue
                    seen.add(nb)
                    nxt.append(nb)
                    term = _taylor_term(q.nums, nb)
                    if term:
                        entries.append((None, (q.den, term),
                                        _power(powers, nlin, nb)))
            frontier = nxt
        results.append(sum_of_products(entries, order, field, REAL))
    return results


def compose_map(p: Polynomial, phi: TruncatedMap, order: int | None = None) -> Polynomial:
    """p o phi for a near-identity map, truncated at ``order``; exact."""
    return compose_many([p], phi, order)[0]


def compose_maps(outer: TruncatedMap, inner: TruncatedMap,
                 order: int | None = None) -> TruncatedMap:
    """Function composition (outer o inner)(v) = outer(inner(v))."""
    if order is None:
        order = min(outer.order, inner.order)
    return TruncatedMap(compose_many(outer.components, inner, order), order)


def invert_generating(G: Polynomial, order: int) -> TruncatedMap:
    """Canonical map generated by W(eta, x) = eta.x + G(eta, x).

    Solves xi = x + dG/deta, y = eta + dG/dx for (y, x) as truncated series
    in (eta, xi) by fixed-point iteration graded by degree: x = xi is exact
    through degree s - 2, and each pass x <- xi - dG/deta(eta, x) gains s - 2
    degrees, so pass r composes only through degree min(order, (r+1)(s-2)).
    That is ceil(order/(s-2)) - 1 passes, then one composition of all four
    partials at ``order`` for y and the residual check.  ``G`` must be an
    s-homogeneous real-chart polynomial in the mixed variables
    (eta1, eta2, x1, x2) with s >= 3, stored with the usual slot convention
    (eta in the y-slots, x in the x-slots).  The returned map has identity
    linear part.
    """
    if G.chart != REAL:
        raise ChartError("generating polynomials live on the real chart")
    if G.is_zero():
        return TruncatedMap.identity(G.field, order)
    s = G.total_degree()
    if s < 3 or G.min_degree() != s:
        raise ValueError("generating polynomial must be s-homogeneous, s >= 3")
    field = G.field
    dG_eta = [G.diff(0).truncate(order), G.diff(1).truncate(order)]
    dG_x = [G.diff(2).truncate(order), G.diff(3).truncate(order)]

    eta = [Polynomial.monomial(REAL, _BASIS[i], 1, field, order) for i in (0, 1)]
    xi = [Polynomial.monomial(REAL, _BASIS[i], 1, field, order) for i in (2, 3)]

    # x^(r+1) = xi - dG/deta(eta, x^(r)) is exact through s - 2 more degrees
    # than x^(r), so nothing above that degree is worth composing yet
    x = [xi[0], xi[1]]
    exact = s - 2
    while exact < order:
        exact = min(order, exact + s - 2)
        cur = TruncatedMap([eta[0], eta[1], x[0], x[1]], order)
        sub = compose_many(dG_eta, cur, exact)
        x = [xi[0] - sub[0], xi[1] - sub[1]]
    cur = TruncatedMap([eta[0], eta[1], x[0], x[1]], order)
    sub = compose_many(dG_eta + dG_x, cur, order)
    sub_eta, sub_x = sub[:2], sub[2:]
    y = [eta[j] + sub_x[j] for j in range(2)]

    # residual of the defining relations must vanish through degree ``order``
    for j in range(2):
        res = xi[j] - x[j] - sub_eta[j]
        if not res.is_zero():
            raise AssertionError(
                "generating-function inversion did not converge "
                f"(residual of degree {res.min_degree()})"
            )
    return TruncatedMap([y[0], y[1], x[0], x[1]], order)


_J_SIGN = ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))


def symplectic_defect(phi: TruncatedMap, order: int | None = None):
    """Max of |re| + |im| over the coefficients of (DPhi)^T J (DPhi) - J
    through degree order-1, as an exact field element.

    It is zero exactly when the map is symplectic to that order, as the
    maps produced by :func:`invert_generating` are up to the guaranteed
    order.
    """
    if order is None:
        order = phi.order
    cut = order - 1
    field = phi.field
    M = [[entry.truncate(cut) for entry in row] for row in phi.jacobian()]
    worst = field.zero()
    # K = (DPhi)^T J (DPhi) is antisymmetric:
    # K_ij = (M_2i M_0j - M_0i M_2j) + (M_3i M_1j - M_1i M_3j)
    for i in range(4):
        for j in range(i + 1, 4):
            acc = sum_of_products(
                [(None, M[2][i], M[0][j]), (-1, M[0][i], M[2][j]),
                 (None, M[3][i], M[1][j]), (-1, M[1][i], M[3][j])],
                cut, field, REAL)
            target = _J_SIGN[i][j]
            if target:
                acc = acc - Polynomial.monomial(REAL, _ONE, target, field, cut)
            if not acc.is_zero():
                worst = max(worst, *(abs(c.re) + abs(c.im)
                                     for c in acc.coeffs.values()))
    return worst


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


class PolynomialFormatError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def write_polynomial(p: Polynomial) -> str:
    """Canonical text form; the round trip is bit-exact."""
    lines = [
        f"chart: {p.chart}",
        f"field: {p.field.format_tag()}",
        f"order: {p.order}",
    ]
    fmt = p.field.format_elem
    for e, c in p.terms_sorted():
        if c.is_real():
            cs = fmt(c.re)
        else:
            im = fmt(c.im)
            sep = "+" if not im.startswith("-") else ""
            cs = f"{fmt(c.re)}{sep}{im}i"
        lines.append(f"{cs} : {e[0]} {e[1]} {e[2]} {e[3]}")
    return "\n".join(lines) + "\n"


def _parse_field_tag(tag: str) -> Field:
    tag = tag.strip()
    if tag == "rational":
        return RATIONAL
    if tag.startswith("quadratic(d=") and tag.endswith(")"):
        return quad_field(int(tag[len("quadratic(d="):-1]))
    if tag == "float":
        raise ValueError("field float is not supported; the normal form needs "
                         "exact coefficients (field rational or quadratic(d=...))")
    raise ValueError(f"unknown field tag {tag!r}")


def read_polynomial(text: str) -> Polynomial:
    """Parse the text format produced by :func:`write_polynomial`."""
    chart = field = order = None
    coeffs = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("chart:"):
            chart = line.split(":", 1)[1].strip()
            if chart not in (REAL, COMPLEX):
                raise PolynomialFormatError(f"unknown chart {chart!r}", ln)
            continue
        if line.startswith("field:"):
            try:
                field = _parse_field_tag(line.split(":", 1)[1])
            except ValueError as exc:
                raise PolynomialFormatError(str(exc), ln) from None
            continue
        if line.startswith("order:"):
            try:
                order = int(line.split(":", 1)[1])
            except ValueError:
                raise PolynomialFormatError("bad order", ln) from None
            continue
        if chart is None or field is None or order is None:
            raise PolynomialFormatError(
                "monomial before chart/field/order header", ln)
        if ":" not in line:
            raise PolynomialFormatError("expected '<coeff> : k1 k2 l1 l2'", ln)
        cs, es = line.rsplit(":", 1)
        try:
            exps = tuple(int(t) for t in es.split())
            if len(exps) != 4 or min(exps) < 0:
                raise ValueError
        except ValueError:
            raise PolynomialFormatError(f"bad exponents {es.strip()!r}", ln) from None
        if exps in coeffs:
            raise PolynomialFormatError(f"repeated monomial {exps}", ln)
        if degree(exps) > order:
            raise PolynomialFormatError(
                f"monomial {exps} has degree {degree(exps)} > order {order}", ln)
        try:
            coeffs[exps] = _parse_cc(cs.strip(), field)
        except ValueError as exc:
            raise PolynomialFormatError(f"bad coefficient: {exc}", ln) from None
    if chart is None or field is None or order is None:
        raise PolynomialFormatError("missing chart/field/order header")
    return Polynomial(chart, field, order, coeffs)


def _parse_cc(s: str, field: Field) -> CC:
    if s.endswith("i"):
        body = s[:-1]
        # split the imaginary part off at the last top-level sign
        depth = 0
        cut = -1
        for idx, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch in "+-" and depth == 0 and idx > 0 and body[idx - 1] not in "eE(+-*/":
                cut = idx
        if cut <= 0:
            raise ValueError(f"malformed complex coefficient {s!r}")
        re_s, im_s = body[:cut], body[cut:]
        if im_s.startswith("+"):
            im_s = im_s[1:]
        if im_s.startswith("-("):
            im = -field.parse_elem(im_s[1:])
        else:
            im = field.parse_elem(im_s)
        return CC(field.parse_elem(re_s), im)
    return CC(field.parse_elem(s), field.zero())
