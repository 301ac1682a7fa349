"""Exact multivariate polynomial arithmetic in the four phase variables.

A polynomial stores one positive common denominator ``den`` and the
integer numerators of the real and imaginary parts of its coefficients in
two sparse dictionaries, ``re`` and ``im``: an int over Q, a pair (a, b)
for a + b sqrt d over Q(sqrt d).  A real-valued coefficient table, as on
every real-chart Hamiltonian and map, has an empty ``im``.  The storage is
canonical: no numerator is zero, and ``den`` and all numerators have gcd 1,
so equal polynomials over one field store equal integers.  A polynomial
also carries a chart tag, its coefficient field and a truncation order N;
every operation drops the monomials of total degree > N: a jet at N.

A monomial of degree s is keyed by one int k = (((s B + e0) B + e1) B + e2)
B + e3, B = 2^8, and each dictionary is kept in ascending key order.  The
key of a product is the sum of the keys, ascending keys are graded
lexicographic in (s, e), the degree is k >> 32, and degree <= N means
k < (N + 1) << 32.  An exponent must fit its 8-bit field, so an order
above MAX_ORDER = B - 1 is rejected where it enters.  Exponent quadruples
and complex coefficients (:class:`bgnf.scalars.CC`) exist only at the
boundary: the constructor converts them once, and ``coeffs`` and
``coefficient`` build them on first read.

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

import functools
import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain

from .scalars import CC, Field, FieldError, QuadExt, RATIONAL, quad_field

__all__ = [
    "Polynomial",
    "TruncatedMap",
    "ChartError",
    "KernelMonomialError",
    "MAX_ORDER",
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

MAX_ORDER = 255             # the largest exponent an 8-bit key field holds


class ChartError(ValueError):
    """Raised when an operation receives the wrong chart."""


def degree(exps: tuple) -> int:
    return exps[0] + exps[1] + exps[2] + exps[3]


# ---------------------------------------------------------------------------
# packed monomial keys and integer numerators
# ---------------------------------------------------------------------------


def _key(exps) -> int:
    e0, e1, e2, e3 = exps
    return ((((e0 + e1 + e2 + e3) << 8 | e0) << 8 | e1) << 8 | e2) << 8 | e3


def _exps(k: int) -> tuple:
    return (k >> 24 & 255, k >> 16 & 255, k >> 8 & 255, k & 255)


def _conj_key(k: int) -> int:
    """The key of the conjugate monomial: (e0, e1) and (e2, e3) swapped."""
    return k >> 32 << 32 | (k & 0xFFFF) << 16 | k >> 16 & 0xFFFF


def _limit(order) -> int:
    """The smallest key of degree ``order`` + 1."""
    return (order + 1) << 32


def _check_order(order) -> None:
    if order > MAX_ORDER:
        raise ValueError(f"order {order} is above the cap {MAX_ORDER}")


def _keys(re: dict, im: dict):
    """The keys of either part, ascending."""
    return sorted(re.keys() | im.keys()) if re and im else (re or im).keys()


def _split(coeffs, field: Field):
    """The canonical (den, re, im) of {key: CC or field element}: zeros
    dropped, keys ascending, ``den`` the lcm of the reduced denominators."""
    quad = field.kind == "quadratic"
    parts = ({}, {})
    for k, c in coeffs.items():
        re, im = (c.re, c.im) if isinstance(c, CC) else (c, 0)
        for part, x in zip(parts, (field.coerce(re), field.coerce(im))):
            if any(fs := (x.a, x.b) if quad else (x,)):
                part[k] = fs
    den = math.lcm(*(f.denominator for part in parts
                     for fs in part.values() for f in fs))
    out = ({}, {})
    for part, nums in zip(parts, out):
        for k in sorted(part):
            t = tuple(f.numerator * (den // f.denominator) for f in part[k])
            nums[k] = t if quad else t[0]
    return (den, *out)


def _elem(x, den: int, field: Field):
    """The field element of numerator ``x`` (None for 0) over ``den``."""
    if field.kind == "quadratic":
        a, b = x or (0, 0)
        return QuadExt(Fraction(a, den), Fraction(b, den), field.d)
    return Fraction(x or 0, den)


def _lift(part: dict, src: Field, dst: Field) -> dict:
    """Numerators over ``src`` as numerators over its extension ``dst``."""
    if src is dst or src == dst:
        return part
    if src.kind != "rational":
        raise FieldError(f"cannot move Q(sqrt({src.d})) coefficients into "
                         f"{dst.format_tag()}")
    return {k: (x, 0) for k, x in part.items()}


class _CoeffView(Mapping):
    """Read-only {exps: CC} view of a polynomial's numerators in ascending
    key order; the CC values are built together on the first value read.
    It holds the parts, not the polynomial: a reference cycle would keep
    every polynomial read through a view alive until a full gc."""

    __slots__ = ("_den", "_re", "_im", "_field", "_built")

    def __init__(self, den: int, re: dict, im: dict, field: Field):
        self._den, self._re, self._im, self._field = den, re, im, field
        self._built = None

    def __getitem__(self, exps):
        if self._built is None:
            re, im, den, field = self._re, self._im, self._den, self._field
            zero = _elem(None, den, field)
            self._built = {
                _exps(k): CC(_elem(re[k], den, field) if k in re else zero,
                             _elem(im[k], den, field) if k in im else zero)
                for k in _keys(re, im)}
        return self._built[exps]

    def __len__(self):
        return len(self._re.keys() | self._im.keys() if self._im else self._re)

    def __iter__(self):
        return map(_exps, _keys(self._re, self._im))


class Polynomial:
    """Truncated polynomial in four phase variables over an exact field."""

    __slots__ = ("chart", "field", "order", "den", "re", "im", "_view")

    def __init__(self, chart: str, field: Field, order: int, coeffs=None):
        """From {exps: CC or field element}; terms above ``order`` are cut."""
        if chart not in (REAL, COMPLEX):
            raise ChartError(f"unknown chart {chart!r}")
        _check_order(order)
        kept = {}
        for e, c in (coeffs or {}).items():
            if min(e) < 0:
                raise ValueError(f"negative exponent in {tuple(e)}")
            if degree(e) <= order:
                kept[_key(e)] = c   # zero coefficients go in _split
        self.chart, self.field, self.order = chart, field, order
        self.den, self.re, self.im = _split(kept, field)
        self._view = None

    @classmethod
    def _from_ints(cls, chart: str, field: Field, order: int, den: int,
                   re: dict, im: dict) -> "Polynomial":
        """From nonzero numerators of degree <= ``order`` over ``den``, keys
        ascending, reduced to the canonical form."""
        _check_order(order)
        quad = field.kind == "quadratic"
        nums = chain(re.values(), im.values())
        g = math.gcd(den, *(chain.from_iterable(nums) if quad else nums))
        if g != 1:
            den //= g
            re, im = ({k: (x[0] // g, x[1] // g) if quad else x // g
                       for k, x in part.items()} for part in (re, im))
        p = cls.__new__(cls)
        p.chart, p.field, p.order = chart, field, order
        p.den, p.re, p.im, p._view = den, re, im, None
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, chart: str, field: Field = RATIONAL, order: int = 10):
        return cls(chart, field, order)

    @classmethod
    def monomial(cls, chart, exps, coeff, field: Field = RATIONAL, order: int = 10):
        return cls(chart, field, order, {tuple(exps): coeff})

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
            raise ChartError(f"chart mismatch: {self.chart} vs {other.chart}")
        return self.field.join(other.field)

    @property
    def coeffs(self) -> Mapping:
        """Read-only {exps: CC} view, in graded lexicographic order."""
        if self._view is None:
            self._view = _CoeffView(self.den, self.re, self.im, self.field)
        return self._view

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def total_degree(self) -> int:
        return max(chain(self.re, self.im), default=0) >> 32

    def min_degree(self) -> int:
        return min(chain(self.re, self.im), default=0) >> 32

    def coefficient(self, exps) -> CC:
        z = self.field.zero()
        return self.coeffs.get(tuple(exps), CC(z, z))

    def _part(self, keep, order: int) -> "Polynomial":
        """The terms whose keys pass ``keep``."""
        return Polynomial._from_ints(
            self.chart, self.field, order, self.den,
            {k: x for k, x in self.re.items() if keep(k)},
            {k: x for k, x in self.im.items() if keep(k)})

    def homogeneous_part(self, s: int) -> "Polynomial":
        return self._part(lambda k: k >> 32 == s, self.order)

    def up_to_degree(self, s: int) -> "Polynomial":
        return self.truncate(min(self.order, s))

    def truncate(self, order: int) -> "Polynomial":
        limit = _limit(order)
        return self._part(lambda k: k < limit, order)

    def is_real_valued(self) -> bool:
        """Reality check: real coefficients (real chart) or a_lk = conj(a_kl),
        read on the numerators: at the conjugate key ``re`` is equal and
        ``im`` negated."""
        if self.chart == REAL:
            return not self.im
        quad = self.field.kind == "quadratic"
        re, im = self.re, self.im
        return (all(re.get(_conj_key(k)) == x for k, x in re.items())
                and all(im.get(_conj_key(k)) == _times(x, -1, quad)
                        for k, x in im.items()))

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
        return sum_of_products([(_split({0: coeff}, self.field), self, None)],
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
            return self.is_zero() and other.is_zero()
        return _int_form(self, field) == _int_form(other, field)

    def __hash__(self):
        return hash((self.chart, self.den, frozenset(self.re),
                     frozenset(self.im)))

    # -- calculus ------------------------------------------------------------

    def diff(self, var: int) -> "Polynomial":
        """Partial derivative with respect to slot ``var`` (0..3)."""
        quad = self.field.kind == "quadratic"
        return Polynomial._from_ints(
            self.chart, self.field, self.order, self.den,
            _taylor_step(self.re, var, 1, math.inf, quad),
            _taylor_step(self.im, var, 1, math.inf, quad))

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
        return Polynomial._from_ints(self.chart, field, self.order,
                                     *_int_form(self, field))

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        return (f"<Polynomial {self.chart} {self.field.format_tag()} "
                f"order={self.order} terms={len(self.coeffs)}>")

    def pretty(self) -> str:
        names = _REAL_NAMES if self.chart == REAL else _COMPLEX_NAMES
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.coeffs.items():
            mono = "*".join(f"{names[i]}^{e[i]}" if e[i] > 1 else names[i]
                            for i in range(4) if e[i] > 0)
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
# Poisson bracket, D and the homological solve, linear substitution, map
# composition, the symplecticity check) runs through ``sum_of_products`` on
# the stored integer form; the chart changes run on per-plane integer tables
# of their own (below).  Each product is accumulated over the product of
# its factors' denominators, every entry is lifted to the lcm of those, and
# the sum is reduced to the canonical form once at the end.  A complex
# product is up to four products of parts (re re - im im, re im + im re);
# an empty part costs nothing, so a product of real-valued operands runs
# one loop.  The loop adds packed keys and reads the second factor in
# ascending key order, so the first key past the order ends the row.


def _acc_pairs(acc: dict, va: dict, vb: dict, limit, mult: int,
               d: int) -> None:
    """acc += mult * va * vb for keys below ``limit``; ``d`` is the radicand
    over Q(sqrt d) and 0 over Q."""
    get = acc.get
    bterms = vb.items()
    for ka, x in va.items():
        lim = limit - ka
        if d:
            xa, xb = x if mult == 1 else (x[0] * mult, x[1] * mult)
            dxb = d * xb
            for kb, (ya, yb) in bterms:
                if kb >= lim:
                    break
                k = ka + kb
                # (xa + xb r)(ya + yb r), r = sqrt(d)
                p0 = xa * ya + dxb * yb
                p1 = xa * yb + xb * ya
                cur = get(k)
                acc[k] = (p0, p1) if cur is None else (cur[0] + p0, cur[1] + p1)
        else:
            x *= mult
            for kb, y in bterms:
                if kb >= lim:
                    break
                k = ka + kb
                cur = get(k)
                acc[k] = x * y if cur is None else cur + x * y


def _acc_product(re: dict, im: dict, a: tuple, b: tuple, limit, mult: int,
                 d: int) -> None:
    """re + i im += mult * a * b for the parts a = (re, im) and b."""
    (ar, ai), (br, bi) = a, b
    if ar and br:
        _acc_pairs(re, ar, br, limit, mult, d)
    if ai and bi:
        _acc_pairs(re, ai, bi, limit, -mult, d)
    if ar and bi:
        _acc_pairs(im, ar, bi, limit, mult, d)
    if ai and br:
        _acc_pairs(im, ai, br, limit, mult, d)


def sum_of_products(entries, order: int, field: Field,
                    chart: str = REAL) -> Polynomial:
    """sum_k scale_k * A_k * B_k with one integer accumulation pass.

    ``entries`` is an iterable of (scale, A, B).  ``scale`` is None for 1,
    a CC or field element, or an integer form (den, re, im) of a constant
    over ``field``.  ``A`` and ``B`` are Polynomials or integer forms (den,
    re, im) over ``field`` with ascending keys, and ``B`` may be None for a
    scaled copy of ``A``.  The smaller factor of each product runs in the
    outer loop.
    """
    d = field.d if field.kind == "quadratic" else 0
    unit = (1, {0: (1, 0) if d else 1}, {})
    prepared = []
    global_den = 1
    for scale, a, b in entries:
        den_a, *pa = _int_form(a, field)
        if b is None:
            den_b, *pb = unit
        else:
            den_b, *pb = _int_form(b, field)
            if len(pa[0]) + len(pa[1]) > len(pb[0]) + len(pb[1]):
                pa, pb = pb, pa
        if scale is None:
            den_s, ps = 1, None
        else:
            den_s, *ps = (scale if isinstance(scale, tuple)
                          else _split({0: scale}, field))
        den_e = den_a * den_b * den_s
        global_den = math.lcm(global_den, den_e)
        prepared.append((den_e, ps, pa, pb))
    re, im = {}, {}
    limit = _limit(order)
    for den_e, ps, pa, pb in prepared:
        if ps is not None:
            scaled = ({}, {})
            _acc_product(*scaled, pa, ps, math.inf, 1, d)
            pa = scaled
        _acc_product(re, im, pa, pb, limit, global_den // den_e, d)
    return Polynomial._from_ints(chart, field, order, global_den,
                                 _nonzero(re, d), _nonzero(im, d))


def _nonzero(acc: dict, quad) -> dict:
    """The nonzero numerators of ``acc`` in ascending key order; ``quad``
    is true over Q(sqrt d)."""
    zero = (0, 0) if quad else 0
    return {k: acc[k] for k in sorted(acc) if acc[k] != zero}


def _int_form(x, field: Field):
    """(den, re, im) of a Polynomial over ``field``; an integer form passes
    through."""
    if isinstance(x, tuple):
        return x
    return x.den, _lift(x.re, x.field, field), _lift(x.im, x.field, field)


# ---------------------------------------------------------------------------
# linear substitution
# ---------------------------------------------------------------------------


def _substitute_linear4(p: Polynomial, matrix) -> Polynomial:
    """p(M . v) for a 4x4 ``matrix`` of field elements or :class:`CC`
    pairs of them; row i is the image of p's variable i on p's chart.  It
    mixes the planes, as Psi does, so it multiplies powers of the images."""
    field, order, chart = p.field, p.order, p.chart
    images = [Polynomial(chart, field, order,
                         dict(zip(_BASIS, row)))
              for row in matrix]
    one = Polynomial.monomial(chart, _ONE, 1, field, order)
    terms = [(_exps(k), k) for k in _keys(p.re, p.im)]
    # memoized powers of the four images
    pows: list[list[Polynomial]] = [[one] for _ in range(4)]
    maxdeg = [max((e[i] for e, _ in terms), default=0) for i in range(4)]
    for i in range(4):
        for k in range(1, maxdeg[i] + 1):
            pows[i].append(pows[i][k - 1] * images[i])
    # pair slot 0 with the slot whose image has the same variables, so the
    # two factors of each fused product below have disjoint supports
    supp = [im.re.keys() | im.im.keys() for im in images]
    b = next((j for j in (1, 2, 3) if supp[j] == supp[0]), 1)
    c, d = (j for j in (1, 2, 3) if j != b)
    # pair products memoized; each term is then a single fused product
    front, back, entries = {}, {}, []
    for e, k in terms:
        key_f = (e[0], e[b])
        if key_f not in front:
            front[key_f] = pows[0][e[0]] * pows[b][e[b]]
        key_b = (e[c], e[d])
        if key_b not in back:
            back[key_b] = pows[c][e[c]] * pows[d][e[d]]
        scale = (p.den, {0: p.re[k]} if k in p.re else {},
                 {0: p.im[k]} if k in p.im else {})
        entries.append((scale, front[key_f], back[key_b]))
    return sum_of_products(entries, order, field, chart)


def linear_substitute(p: Polynomial, matrix, field: Field | None = None) -> Polynomial:
    """Compose with the linear map v -> M v on the polynomial's own chart.

    ``matrix`` is a 4x4 nested sequence of field elements or of
    :class:`CC` pairs of them (complex entries, as on the complex chart);
    row i gives the expression of old variable i in the new ones, i.e. the
    result is p(M . v).
    """
    return _substitute_linear4(p.promote(field or p.field), matrix)


# ---------------------------------------------------------------------------
# chart changes
# ---------------------------------------------------------------------------
#
# Both chart changes act plane by plane: y_j = (z_j - zb_j)/(2i) and
# x_j = (z_j + zb_j)/2 read plane j alone, and so do z_j = x_j + i y_j and
# zb_j = x_j - i y_j.  The image of a one-plane monomial is a cached row of
# packed keys and integer coefficients, keyed by (plane, a, b), and the
# image of a monomial in all four variables is the outer product of its two
# plane rows: packed keys add, so each product's key is k1 + k2.
#
# To the complex chart, y_j^a x_j^b = (-i)^a 2^-(a+b) (z_j - zb_j)^a
# (z_j + zb_j)^b.  The row holds the integer expansion of the product of
# binomials; the power (-i)^(a1+a2) places the whole outer product in re or
# im with a sign, and degree s is scaled by 2^(top - s) over den 2^top, top
# the highest degree present.
#
# To the real chart, z_j^p zb_j^q = sum_a i^a T_a y_j^a x_j^(p+q-a), T_a the
# integer coefficient of t^a in (x + t)^p (x - t)^q.  The row is kept as
# E + i O, its terms of even and of odd a with the power of i folded into
# the sign, so the outer product is (E1 E2 - O1 O2) + i (E1 O2 + O1 E2).  A
# real-valued input (checked on the numerators first) computes only the
# real part, and only once per conjugate pair of monomials, whose images
# are conjugate; any other input computes only the imaginary part, to name
# its lowest key in the error.
#
# The image is accumulated on the integers and reduced to the canonical
# form once.  No power of a linear image is formed, and ``sum_of_products``
# is not called.

# (y or z slot, x or zb slot) of plane j as bit shifts of the packed key
_PLANE_SHIFTS = ((24, 8), (16, 0))


def _binomial_product(a: int, b: int) -> list:
    """c_j, the coefficient of u^j v^(a+b-j) in (u - v)^a (u + v)^b.

    With f = (u - 1)^a (u + 1)^b, (u^2 - 1) f' = ((a + b) u + a - b) f
    gives (j + 1) c_(j+1) = (j - 1 - a - b) c_(j-1) - (a - b) c_j, an
    exact division, from c_0 = (-1)^a.
    """
    n = a + b
    c = [-1 if a & 1 else 1]
    prev = 0
    for j in range(n):
        c.append(((j - 1 - n) * prev - (a - b) * c[j]) // (j + 1))
        prev = c[j]
    return c


def _plane_key(plane: int, u: int, v: int) -> int:
    su, sv = _PLANE_SHIFTS[plane]
    return (u + v) << 32 | u << su | v << sv


@functools.lru_cache(maxsize=4096)
def _complex_row(plane: int, a: int, b: int) -> tuple:
    """(z - zb)^a (z + zb)^b in ``plane``: ((key, int coefficient), ...)."""
    n = a + b
    return tuple((_plane_key(plane, p, n - p), c)
                 for p, c in enumerate(_binomial_product(a, b)) if c)


@functools.lru_cache(maxsize=4096)
def _real_rows(plane: int, p: int, q: int) -> tuple:
    """(E, O), integer rows with (x + i y)^p (x - i y)^q = E + i O in
    ``plane``."""
    # (x + t)^p (x - t)^q = (-1)^q (t - x)^q (t + x)^p; t^a = i^a y^a, and
    # i^a is (-1)^(a // 2) for even a and i (-1)^(a // 2) for odd a
    n = p + q
    rows = ([], [])
    for a, c in enumerate(_binomial_product(q, p)):
        if c:
            sign = -1 if (a // 2 + q) & 1 else 1
            rows[a & 1].append((_plane_key(plane, a, n - a), sign * c))
    return tuple(rows[0]), tuple(rows[1])


def _outer(acc: dict, row1, row2, m, quad: bool) -> None:
    """acc += m * row1 row2: keys add, coefficients multiply; ``m`` is a
    numerator over Q or Q(sqrt d)."""
    get = acc.get
    if quad:
        m0, m1 = m
        for k1, c1 in row1:
            x0, x1 = m0 * c1, m1 * c1
            for k2, c2 in row2:
                k = k1 + k2
                cur = get(k)
                acc[k] = ((x0 * c2, x1 * c2) if cur is None
                          else (cur[0] + x0 * c2, cur[1] + x1 * c2))
    else:
        for k1, c1 in row1:
            x = m * c1
            for k2, c2 in row2:
                k = k1 + k2
                acc[k] = get(k, 0) + x * c2


def _times(x, m: int, quad: bool):
    return (x[0] * m, x[1] * m) if quad else x * m


def to_complex(p: Polynomial) -> Polynomial:
    """Exact chart change y_j = (z_j - zb_j)/(2i), x_j = (z_j + zb_j)/2."""
    if p.chart != REAL:
        raise ChartError("to_complex expects a real-chart polynomial")
    quad = p.field.kind == "quadratic"
    top = p.total_degree()
    parts = ({}, {})
    for turn, src in enumerate((p.re, p.im)):
        for k, x in src.items():
            a1, a2 = k >> 24 & 255, k >> 16 & 255
            # x i^turn (-i)^(a1 + a2) = x i^t: re for even t, im for odd t
            t = (turn - a1 - a2) & 3
            m = (-1 if t & 2 else 1) << top - (k >> 32)
            _outer(parts[t & 1], _complex_row(0, a1, k >> 8 & 255),
                   _complex_row(1, a2, k & 255), _times(x, m, quad), quad)
    return Polynomial._from_ints(COMPLEX, p.field, p.order, p.den << top,
                                 _nonzero(parts[0], quad),
                                 _nonzero(parts[1], quad))


def _real_image_part(terms, want: int, quad: bool) -> dict:
    """The real (``want`` 0) or imaginary (1) part of the real-chart image
    of the complex-chart ``terms``, (have, key, numerator) with ``have`` 0
    for a real and 1 for an imaginary part."""
    acc = {}
    for have, k, x in terms:
        e1, o1 = _real_rows(0, k >> 24 & 255, k >> 8 & 255)
        e2, o2 = _real_rows(1, k >> 16 & 255, k & 255)
        # x i^have ((E1 E2 - O1 O2) + i (E1 O2 + O1 E2))
        if have == want:
            _outer(acc, e1, e2, x, quad)
            _outer(acc, o1, o2, _times(x, -1, quad), quad)
        else:
            x = _times(x, -1, quad) if have else x
            _outer(acc, e1, o2, x, quad)
            _outer(acc, o1, e2, x, quad)
    return _nonzero(acc, quad)


def to_real(p: Polynomial) -> Polynomial:
    """Exact chart change z_j = x_j + i y_j; input must be real-valued."""
    if p.chart != COMPLEX:
        raise ChartError("to_real expects a complex-chart polynomial")
    quad = p.field.kind == "quadratic"
    terms = [(have, k, x) for have, part in enumerate((p.re, p.im))
             for k, x in part.items()]
    if not p.is_real_valued():
        residue = _real_image_part(terms, 1, quad)
        raise ValueError("to_real of a non-real-valued polynomial "
                         f"(imaginary residue at {_exps(next(iter(residue)))})")
    # the images of a conjugate pair are conjugate: its real part is twice
    # that of the term at the lower key
    pairs = ((have, k, x if k == kc else _times(x, 2, quad))
             for have, k, x in terms if k <= (kc := _conj_key(k)))
    return Polynomial._from_ints(REAL, p.field, p.order, p.den,
                                 _real_image_part(pairs, 0, quad), {})


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


def _times_eigenvalue(p: Polynomial, alpha, factor) -> Polynomial:
    """sum_e factor(alpha.(k-l), e) * (term e of p); None drops the term.

    The eigenvalue depends on k - l alone, so the terms are scaled in one
    product per class of k - l.
    """
    field = p.field
    a1, a2 = field.coerce(alpha[0]), field.coerce(alpha[1])
    classes: dict = {}
    for i, part in enumerate((p.re, p.im)):
        for k, x in part.items():
            e = _exps(k)
            classes.setdefault((e[0] - e[2], e[1] - e[3]), ({}, {}))[i][k] = x
    entries = []
    for (dk1, dk2), (re, im) in classes.items():
        s = factor(a1 * dk1 + a2 * dk2, _exps(min(chain(re, im))))
        if s is not None:
            entries.append((s, (p.den, re, im), None))
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
    return (p._part(lambda k: in_resonance_module(_exps(k), res), p.order),
            p._part(lambda k: not in_resonance_module(_exps(k), res),
                    p.order))


class KernelMonomialError(ValueError):
    """A kernel monomial appeared where an image-of-D polynomial was required."""

    def __init__(self, exps):
        self.exps = exps
        super().__init__(f"monomial {exps} lies in ker D (eigenvalue 0); "
                         "not solvable by the homological equation")


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
        """The join of the components' fields."""
        field = self.components[0].field
        for comp in self.components[1:]:
            field = field.join(comp.field)
        return field

    def evaluate(self, values):
        return [comp.evaluate(values) for comp in self.components]

    def __repr__(self):
        return f"<TruncatedMap order={self.order}>"


def _taylor_step(part: dict, i: int, b: int, limit, quad: bool) -> dict:
    """d_i q / b on one part of q's numerators, below ``limit``: x v^e goes
    to x e_i / b v^(e - e_i) and the keys stay ascending.  With q = T_beta
    = d^beta p / beta! and b = beta_i + 1 this is T_(beta + e_i), and the
    division is exact."""
    shift = 24 - 8 * i
    ki = (1 << 32) + (1 << shift)
    out = {}
    for k, x in part.items():
        if k >= limit + ki:
            break
        if e := k >> shift & 255:
            out[k - ki] = (x[0] * e // b, x[1] * e // b) if quad else x * e // b
    return out


def _horner(t: tuple, beta: tuple, cut: int, nlin: list, mindeg: list,
            field: Field) -> Polynomial:
    """R(beta) = T_beta + sum_{i >= last(beta)} N_i R(beta + e_i) through
    degree ``cut``; ``t`` is T_beta's integer form (den, re, im)."""
    den, re, im = t
    quad = field.kind == "quadratic"
    entries = [(None, t, None)]
    last = max((j for j in range(4) if beta[j]), default=0)
    for i in range(last, 4):
        sub = cut - mindeg[i]
        if sub < 0:
            continue
        limit = _limit(sub)
        child = tuple(_taylor_step(part, i, beta[i] + 1, limit, quad)
                      for part in (re, im))
        if child[0] or child[1]:
            nb = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
            entries.append((None, nlin[i], _horner((den, *child), nb, sub,
                                                   nlin, mindeg, field)))
    return sum_of_products(entries, cut, field, REAL)


def compose_many(polys: list[Polynomial], phi: TruncatedMap,
                 order: int | None = None) -> list[Polynomial]:
    """Compose several polynomials with one near-identity map.

    Each p o (id + N) = sum_beta T_beta N^beta, T_beta = d^beta p / beta!,
    is evaluated as a Horner sum over the tree of multi-indices that raises
    the slots in ascending order: R(beta) = T_beta + sum_{i >= last(beta)}
    N_i R(beta + e_i), and p o phi = R(0).  Node beta is cut at
    order - sum_j beta_j m_j, m_j the min degree of N_j, so nothing above
    the order is ever formed; every N_j starts at degree >= 2, and a map
    with a constant term or a linear part other than the identity raises
    ``ValueError``.  A child's T comes from its parent's integer numerators
    by one exact integer step, with no derivative, and a node whose T is
    empty has no subtree.  The result is a jet at ``order``.
    """
    if order is None:
        order = min(min(p.order for p in polys), phi.order)
    field = phi.field
    for p in polys:
        if p.chart != REAL:
            raise ChartError("map composition operates on the real chart")
        field = field.join(p.field)
    nlin, mindeg = [], []
    for i in range(4):
        comp = phi.components[i].truncate(order).promote(field)
        n_i = comp - Polynomial.monomial(REAL, _BASIS[i], 1, field, order)
        if not n_i.is_zero() and n_i.min_degree() < 2:
            raise ValueError("compose requires an identity-linear-part map; "
                             "use linear_substitute for linear changes")
        nlin.append(n_i)
        mindeg.append(n_i.min_degree() if not n_i.is_zero() else order + 1)
    return [_horner(_int_form(p.truncate(order), field), _ONE, order, nlin,
                    mindeg, field) for p in polys]


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
    That is ceil(order/(s-2)) - 1 passes; the last one also composes
    dG/dx for y.  ``G`` must be an s-homogeneous real-chart polynomial in
    the mixed variables (eta1, eta2, x1, x2) with s >= 3, stored with the
    usual slot convention (eta in the y-slots, x in the x-slots).  The
    returned map has identity linear part.
    """
    if G.chart != REAL:
        raise ChartError("generating polynomials live on the real chart")
    if G.is_zero():
        return TruncatedMap.identity(G.field, order)
    s = G.total_degree()
    if s < 3 or G.min_degree() != s:
        raise ValueError("generating polynomial must be s-homogeneous, s >= 3")
    dG = [G.diff(i).truncate(order) for i in range(4)]
    ident = TruncatedMap.identity(G.field, order).components
    eta, xi = ident[:2], ident[2:]

    # x^(r+1) = xi - dG/deta(eta, x^(r)) is exact through s - 2 more degrees
    # than x^(r), so nothing above that degree is worth composing yet
    x = xi
    exact = s - 2
    while exact + s - 2 < order:
        exact += s - 2
        sub = compose_many(dG[:2], TruncatedMap(eta + x, order), exact)
        x = [xi[0] - sub[0], xi[1] - sub[1]]
    # the last pass, at the order, also gives y = eta + dG/dx(eta, x); y
    # reads x only through degree order - (s - 2), where x is exact already
    sub = compose_many(dG, TruncatedMap(eta + x, order), order)
    last = [xi[0] - sub[0], xi[1] - sub[1]]
    keep = order - (s - 2)
    if any(a.up_to_degree(keep) != b.up_to_degree(keep)
           for a, b in zip(last, x)):
        raise AssertionError("generating-function inversion did not converge "
                             f"through degree {keep}")
    return TruncatedMap([eta[0] + sub[2], eta[1] + sub[3]] + last, order)


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
    M = [[comp.diff(j).truncate(cut) for j in range(4)]
         for comp in phi.components]
    worst = field.zero()
    # K = (DPhi)^T J (DPhi) is antisymmetric:
    # K_ij = (M_2i M_0j - M_0i M_2j) + (M_3i M_1j - M_1i M_3j)
    for i in range(4):
        for j in range(i + 1, 4):
            acc = ((M[2][i] * M[0][j] - M[0][i] * M[2][j])
                   + (M[3][i] * M[1][j] - M[1][i] * M[3][j]))
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
    for e, c in p.coeffs.items():
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
            if order > MAX_ORDER:
                raise PolynomialFormatError(
                    f"order {order} is above the cap {MAX_ORDER}", ln)
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
