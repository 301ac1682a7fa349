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
import operator
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, compress

from .scalars import (CC, Field, FieldError, QuadExt, RATIONAL, num_add,
                      num_elem, num_mul, num_norm, num_times, num_zero,
                      quad_field)

__all__ = [
    "Polynomial",
    "TruncatedMap",
    "ChartError",
    "KernelMonomialError",
    "MAX_ORDER",
    "degree",
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
    d = field.d
    parts = ({}, {})
    for k, c in coeffs.items():
        re, im = (c.re, c.im) if isinstance(c, CC) else (c, 0)
        for part, (x, q) in zip(parts, (field.ints(re), field.ints(im))):
            if x != num_zero(d):
                part[k] = x, q
    den = math.lcm(*(q for part in parts for _, q in part.values()))
    out = ({}, {})
    for part, nums in zip(parts, out):
        for k in sorted(part):
            x, q = part[k]
            nums[k] = num_times(x, den // q, d)
    return (den, *out)


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
            zero = num_elem(None, den, field)
            self._built = {
                _exps(k): CC(num_elem(re[k], den, field) if k in re else zero,
                             num_elem(im[k], den, field) if k in im else zero)
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
        d = field.d
        nums = chain(re.values(), im.values())
        g = math.gcd(den, *(chain.from_iterable(nums) if d else nums))
        if g != 1:
            den //= g
            re, im = ({k: (x[0] // g, x[1] // g) if d else x // g
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
        """coeff v^exps; an int ``coeff`` is stored as its numerator."""
        if not isinstance(coeff, int) or chart not in (REAL, COMPLEX) \
                or min(exps) < 0 or degree(exps) > order or not coeff:
            return cls(chart, field, order, {tuple(exps): coeff})
        num = (coeff, 0) if field.d else coeff
        return cls._from_ints(chart, field, order, 1, {_key(exps): num}, {})

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

    def numerators(self, exps, scale: int) -> tuple:
        """The (re, im) numerators over ``den`` at ``exps`` times the int
        ``scale``, zero if absent."""
        d = self.field.d
        k, z = _key(exps), num_zero(d)
        return (num_times(self.re.get(k, z), scale, d),
                num_times(self.im.get(k, z), scale, d))

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
        re, im, d = self.re, self.im, self.field.d
        return (all(re.get(_conj_key(k)) == x for k, x in re.items())
                and all(im.get(_conj_key(k)) == num_times(x, -1, d)
                        for k, x in im.items()))

    # -- ring operations -----------------------------------------------------

    def _binary(self, other: "Polynomial", entries) -> "Polynomial":
        field = self._check_compatible(other)
        return sum_of_products(entries, min(self.order, other.order), field,
                               self.chart)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._binary(other, [(self, None), (other, None)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        field = self._check_compatible(other)
        minus = (1, {0: (-1, 0) if field.d else -1}, {})
        return sum_of_products([(self, None), (other, minus)],
                               min(self.order, other.order), field, self.chart)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def scale(self, coeff) -> "Polynomial":
        """The product with ``coeff``, a CC or field element."""
        return sum_of_products([(self, _split({0: coeff}, self.field))],
                               self.order, self.field, self.chart)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        return self._binary(other, [(self, other)])

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
        return Polynomial._from_ints(
            self.chart, self.field, self.order, self.den,
            _taylor_step(self.re, var, 1, math.inf, self.field.d),
            _taylor_step(self.im, var, 1, math.inf, self.field.d))

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


# ---------------------------------------------------------------------------
# integer multiplication kernel
# ---------------------------------------------------------------------------
#
# Every polynomial sum and product (``+``, ``-``, ``*``, ``scale``, D and
# the homological solve, map composition, the symplecticity check) runs
# through ``sum_of_products`` on the stored integer form, as a sum of
# products of factor pairs; a constant factor (the -1 of ``-``, the scale,
# the -i n / D of D and the -i D nbar / N(n) of the solve, n read from
# alpha's numerators) is a one-term integer form, so a scaled copy is one
# pass over its terms.  The linear changes (the chart changes and the pair
# substitutions of Psi and the Z_p map) run on cached integer rows of their
# own (below).  Each product is accumulated over the product of its
# factors' denominators, every entry is lifted to the lcm of those, and the
# sum is reduced to the canonical form once at the end.  A complex product
# is up to four products of parts (re re - im im, re im + im re); an empty
# part costs nothing, so a product of real-valued operands runs one loop.
# Both loops add keys and read the second factor in ascending key order,
# so the first key past the order ends the row.
#
# A call sums into one of two accumulators.  The dict one is keyed by the
# packed key of the product and sorted once at the end.  The rank one is a
# list, two over Q(sqrt d) (one per half of the numerator, so no pair is
# built per product), indexed by the rank of the product's key among all
# keys in ascending order.  Ranks do not depend on the order: the keys of
# degree <= t are the first cnt[t] = C(t + 4, 4), and row r of ``_RANKS``
# holds rank(key r + key j) for j < cnt[N - deg r], a prefix of which
# serves every cut c <= N.  The nonzero entries are read out in rank
# order, which is key order, with no sort.
#
# The list costs O(cnt[order]) to fill and read, and a pair on it costs
# about a third less than on the dict, so a call takes the rank accumulator
# when the sum of |A| |B| over its products is at least _RANK_WORK
# cnt[order] (timed on both, the calls of the dense inputs and of the
# built-in models break even between 2 and 16 cnt[order]).  The table grows
# by degree and its rows by prefix, on first use.  Through order N it holds
# C(N + 8, 8) row entries: 3003 at N = 6, 43 758 at N = 10, 3.1 M at N = 20.
# So the rank accumulator serves the orders through _RANK_ORDER = 13 only,
# whose table stays under 2 MB (C(21, 8) = 203 490 entries), and the dict
# all higher ones.


class _RankTable:
    """The keys of degree <= the largest order grown to, ascending, their
    ranks and the counts cnt[t] of keys of degree <= t; row r, extended on
    demand, holds rank(keys[r] + keys[j]) for j < len(row)."""

    __slots__ = ("keys", "rank", "cnt", "rows")

    def __init__(self):
        self.keys, self.rank, self.cnt, self.rows = [], {}, [], []

    def size(self, order: int) -> int:
        """cnt[order], after growing the keys through degree ``order``."""
        keys, cnt = self.keys, self.cnt
        for s in range(len(cnt), order + 1):
            new = [_key((a, b, c, s - a - b - c)) for a in range(s + 1)
                   for b in range(s + 1 - a) for c in range(s + 1 - a - b)]
            self.rank.update(zip(new, range(len(keys), len(keys) + len(new))))
            keys += new
            self.rows += [[] for _ in new]
            cnt.append(len(keys))
        return cnt[order]

    def row(self, r: int, n: int) -> list:
        """Row r through its first ``n`` entries."""
        row, rank, k = self.rows[r], self.rank, self.keys[r]
        row += [rank[k + kb] for kb in self.keys[len(row):n]]
        return row


_RANKS = _RankTable()
_RANK_WORK = 4
_RANK_ORDER = 13


def _acc_pairs(acc: dict, va: dict, vb: dict, limit, mult: int,
               d: int) -> None:
    """acc += mult * va * vb for keys below ``limit``; ``d`` is the field's
    radicand, None over Q."""
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


def _acc_ranked(acc: list, va: dict, vb: dict, limit, mult: int,
                d: int) -> None:
    """``_acc_pairs`` into the rank accumulator ``acc``, a list over Q and
    a pair of lists over Q(sqrt d); the table holds the keys below
    ``limit``."""
    table = _RANKS
    rank, rows, cnt = table.rank, table.rows, table.cnt
    order = (limit >> 32) - 1
    if d:
        acc0, acc1 = acc
        bterms = [(rank[k], ya, yb) for k, (ya, yb) in vb.items() if k < limit]
    else:
        bterms = [(rank[k], y) for k, y in vb.items() if k < limit]
    for ka, x in va.items():
        if ka >= limit:
            break
        r, n = rank[ka], cnt[order - (ka >> 32)]
        row = rows[r]
        if len(row) < n:
            row = table.row(r, n)
        if d:
            xa, xb = x if mult == 1 else (x[0] * mult, x[1] * mult)
            dxb = d * xb
            for rb, ya, yb in bterms:
                if rb >= n:
                    break
                i = row[rb]
                acc0[i] += xa * ya + dxb * yb
                acc1[i] += xa * yb + xb * ya
        else:
            x *= mult
            for rb, y in bterms:
                if rb >= n:
                    break
                acc[row[rb]] += x * y


def _acc_product(re, im, a: tuple, b: tuple, limit, mult: int, d: int,
                 pairs) -> None:
    """re + i im += mult * a * b for the parts a = (re, im) and b, each
    product of parts by ``pairs``."""
    (ar, ai), (br, bi) = a, b
    if ar and br:
        pairs(re, ar, br, limit, mult, d)
    if ai and bi:
        pairs(re, ai, bi, limit, -mult, d)
    if ar and bi:
        pairs(im, ar, bi, limit, mult, d)
    if ai and br:
        pairs(im, ai, br, limit, mult, d)


def sum_of_products(entries, order: int, field: Field,
                    chart: str) -> Polynomial:
    """sum_k A_k * B_k with one integer accumulation pass.

    ``entries`` is an iterable of factor pairs (A, B).  A factor is a
    Polynomial or an integer form (den, re, im) over ``field`` with
    ascending keys, a constant as one term at key 0; ``B`` is None for A
    alone.  The smaller factor of each product runs in the outer loop.
    """
    d = field.d
    unit = ({0: (1, 0) if d else 1}, {})
    prepared = []
    global_den = 1
    work = 0
    for a, b in entries:
        den, *pa = _int_form(a, field)
        if b is None:
            pb = unit
        else:
            den_b, *pb = _int_form(b, field)
            den *= den_b
        na, nb = len(pa[0]) + len(pa[1]), len(pb[0]) + len(pb[1])
        if na > nb:
            pa, pb = pb, pa
        work += na * nb
        global_den = math.lcm(global_den, den)
        prepared.append((den, pa, pb))
    if not 0 <= order <= _RANK_ORDER \
            or work < _RANK_WORK * math.comb(order + 4, 4):
        re, im, pairs, read = {}, {}, _acc_pairs, _nonzero
    else:
        size = _RANKS.size(order)
        re, im = ([[0] * size, [0] * size] if d else [0] * size
                  for _ in range(2))
        pairs, read = _acc_ranked, _read_ranked
    limit = _limit(order)
    for den, pa, pb in prepared:
        _acc_product(re, im, pa, pb, limit, global_den // den, d, pairs)
    return Polynomial._from_ints(chart, field, order, global_den,
                                 read(re, d), read(im, d))


def _nonzero(acc: dict, d) -> dict:
    """The nonzero numerators of ``acc`` in ascending key order."""
    zero = num_zero(d)
    return {k: acc[k] for k in sorted(acc) if acc[k] != zero}


def _read_ranked(acc: list, d) -> dict:
    """The nonzero numerators of the rank accumulator ``acc`` by key, in
    rank order, which is ascending key order."""
    if d:
        acc0, acc1 = acc
        return dict(compress(zip(_RANKS.keys, zip(acc0, acc1)),
                             map(operator.or_, acc0, acc1)))
    return dict(compress(zip(_RANKS.keys, acc), acc))


def _int_form(x, field: Field):
    """(den, re, im) of a Polynomial over ``field``; an integer form passes
    through."""
    if isinstance(x, tuple):
        return x
    return x.den, _lift(x.re, x.field, field), _lift(x.im, x.field, field)


# ---------------------------------------------------------------------------
# linear changes on pair tables
# ---------------------------------------------------------------------------
#
# Every linear change here is block-diagonal, 2x2 on two pairs of slots:
# the slots (j, j + 2) for the chart changes, (0, 1) and (2, 3) for Psi and
# the Z_p map.  The image of a one-pair monomial is a cached row of packed
# keys and integer coefficients, keyed by (slot of u, slot of v, a, b), and
# the image of a monomial in all four variables is the outer product of its
# two pair rows: packed keys add, so each product's key is k1 + k2.
#
# ``_pair_image`` sends a pair's variables f and g to c (u + v) and
# c w (u - v), w a power of i, so f^b g^a goes to c^(a+b) w^a times the row
# of (u - v)^a (u + v)^b.  The powers of i place the outer product in re or
# im with a sign, and c^s is one integer multiplier per degree s over a
# common denominator; the result's field is p's joined with that of every
# such c^s, so c = 1/sqrt 2 adds Q(sqrt 2) only for an odd degree.  To the
# complex chart, y_j = (z_j - zb_j)/(2i) and
# x_j = (z_j + zb_j)/2: f = x_j, g = y_j, u = zb_j, v = z_j, c = 1/2, w = i.
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


@functools.lru_cache(maxsize=4096)
def _pair_row(su: int, sv: int, a: int, b: int) -> tuple:
    """(u - v)^a (u + v)^b with u in slot ``su`` and v in slot ``sv``:
    ((key, int coefficient), ...), the zero coefficients left out.

    With f = (u - 1)^a (u + 1)^b, (u^2 - 1) f' = ((a + b) u + a - b) f
    gives the coefficient c_j of u^j v^(a+b-j) as (j + 1) c_(j+1) =
    (j - 1 - a - b) c_(j-1) - (a - b) c_j, an exact division, from
    c_0 = (-1)^a.
    """
    n, hu, hv = a + b, 24 - 8 * su, 24 - 8 * sv
    c = [-1 if a & 1 else 1]
    prev = 0
    for j in range(n):
        c.append(((j - 1 - n) * prev - (a - b) * c[j]) // (j + 1))
        prev = c[j]
    return tuple((n << 32 | j << hu | n - j << hv, cj)
                 for j, cj in enumerate(c) if cj)


@functools.lru_cache(maxsize=4096)
def _real_rows(plane: int, p: int, q: int) -> tuple:
    """(E, O), integer rows with (x + i y)^p (x - i y)^q = E + i O in
    ``plane``."""
    # (x + t)^p (x - t)^q = (-1)^q (t - x)^q (t + x)^p; t^a = i^a y^a, and
    # i^a is (-1)^(a // 2) for even a and i (-1)^(a // 2) for odd a
    rows = ([], [])
    for key, c in _pair_row(plane, plane + 2, q, p):
        a = key >> 24 - 8 * plane & 255
        rows[a & 1].append((key, -c if (a // 2 + q) & 1 else c))
    return tuple(rows[0]), tuple(rows[1])


def _outer(acc: dict, row1, row2, m, d) -> None:
    """acc += m * row1 row2: keys add, coefficients multiply; ``m`` is a
    numerator over Q or Q(sqrt d)."""
    get = acc.get
    if d:
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


@functools.lru_cache(maxsize=256)
def _degree_scales(c, field: Field, degrees: frozenset) -> tuple:
    """(field', den, {s: (m_s, -m_s)}): ``field`` joined with the field of
    c^s for each s in ``degrees``, and c^s = m_s / den over it, m_s an
    integer numerator.  Two quadratic fields raise FieldError."""
    exact = {s: c ** s for s in degrees}
    for x in exact.values():
        if isinstance(x, QuadExt) and not x.is_rational():
            field = field.join(quad_field(x.d))
    powers = {s: _split({0: field.coerce(x)}, field) for s, x in exact.items()}
    den = math.lcm(*(den_s for den_s, _, _ in powers.values()))
    return field, den, {s: (num_times(re[0], den // den_s, field.d),
                            num_times(re[0], -den // den_s, field.d))
                        for s, (den_s, re, _) in powers.items()}


def _pair_image(p: Polynomial, blocks, c, chart: str) -> Polynomial:
    """p with, for each (f, g, w) of the two ``blocks``, the variable in
    slot f sent to c (u + v) and the one in slot g to c i^w (u - v), u and
    v the new variables in slots f and g; tagged ``chart``.  The result is
    over p's field joined with that of c^s for every degree s of p."""
    field, den, mult = _degree_scales(
        c, p.field, frozenset(k >> 32 for k in chain(p.re, p.im)))
    p = p.promote(field)
    d = field.d
    (f1, g1, w1), (f2, g2, w2) = blocks
    sf1, sg1, sf2, sg2 = (24 - 8 * slot for slot in (f1, g1, f2, g2))
    parts = ({}, {})
    for turn, src in enumerate((p.re, p.im)):
        for k, x in src.items():
            a1, a2 = k >> sg1 & 255, k >> sg2 & 255
            # x i^turn (i^w1)^a1 (i^w2)^a2 = x i^t: re for even t, im for odd
            t = (turn + w1 * a1 + w2 * a2) & 3
            m = mult[k >> 32][t >> 1]
            _outer(parts[t & 1], _pair_row(f1, g1, a1, k >> sf1 & 255),
                   _pair_row(f2, g2, a2, k >> sf2 & 255), num_mul(x, m, d), d)
    return Polynomial._from_ints(chart, field, p.order, p.den * den,
                                 _nonzero(parts[0], d), _nonzero(parts[1], d))


def to_complex(p: Polynomial) -> Polynomial:
    """Exact chart change y_j = (z_j - zb_j)/(2i), x_j = (z_j + zb_j)/2."""
    if p.chart != REAL:
        raise ChartError("to_complex expects a real-chart polynomial")
    return _pair_image(p, ((2, 0, 1), (3, 1, 1)), Fraction(1, 2), COMPLEX)


def _real_image_part(terms, want: int, d) -> dict:
    """The real (``want`` 0) or imaginary (1) part of the real-chart image
    of the complex-chart ``terms``, (have, key, numerator) with ``have`` 0
    for a real and 1 for an imaginary part."""
    acc = {}
    for have, k, x in terms:
        e1, o1 = _real_rows(0, k >> 24 & 255, k >> 8 & 255)
        e2, o2 = _real_rows(1, k >> 16 & 255, k & 255)
        # x i^have ((E1 E2 - O1 O2) + i (E1 O2 + O1 E2))
        if have == want:
            _outer(acc, e1, e2, x, d)
            _outer(acc, o1, o2, num_times(x, -1, d), d)
        else:
            x = num_times(x, -1, d) if have else x
            _outer(acc, e1, o2, x, d)
            _outer(acc, o1, e2, x, d)
    return _nonzero(acc, d)


def to_real(p: Polynomial) -> Polynomial:
    """Exact chart change z_j = x_j + i y_j; input must be real-valued."""
    if p.chart != COMPLEX:
        raise ChartError("to_real expects a complex-chart polynomial")
    d = p.field.d
    terms = [(have, k, x) for have, part in enumerate((p.re, p.im))
             for k, x in part.items()]
    if not p.is_real_valued():
        residue = _real_image_part(terms, 1, d)
        raise ValueError("to_real of a non-real-valued polynomial "
                         f"(imaginary residue at {_exps(next(iter(residue)))})")
    # the images of a conjugate pair are conjugate: its real part is twice
    # that of the term at the lower key
    pairs = ((have, k, x if k == kc else num_times(x, 2, d))
             for have, k, x in terms if k <= (kc := _conj_key(k)))
    return Polynomial._from_ints(REAL, p.field, p.order, p.den,
                                 _real_image_part(pairs, 0, d), {})


def linear_substitute(p: Polynomial, blocks, c) -> Polynomial:
    """p on its own chart with, for each (f, g, w) of the two ``blocks``,
    the variable in slot f sent to c (u + v) and the one in slot g to
    c i^w (u - v): the pair-row kernel of ``to_complex``, for Psi and the
    Z_p map.  The result joins the field of c^s for each degree s of p."""
    return _pair_image(p, blocks, c, p.chart)


# ---------------------------------------------------------------------------
# the operator D
# ---------------------------------------------------------------------------


def _times_eigenvalue(p: Polynomial, alpha, solve: bool) -> Polynomial:
    """p with each class of k - l times -i ev, or times -i / ev with
    ``solve``, ev = alpha.(k - l) = n / D: D is the common denominator of
    alpha's numerators and n = n1 dk1 + n2 dk2 an integer numerator, and
    1 / n = nbar / N(n), its sign moved so that den > 0.  A zero n drops
    the class from D and raises KernelMonomialError in the solve."""
    d = p.field.d
    den, nums, _ = _split({1: alpha[0], 2: alpha[1]}, p.field)
    n1, n2 = nums.get(1, num_zero(d)), nums.get(2, num_zero(d))
    classes: dict = {}
    for i, part in enumerate((p.re, p.im)):
        for k, x in part.items():
            dk = (k >> 24 & 255) - (k >> 8 & 255), (k >> 16 & 255) - (k & 255)
            classes.setdefault(dk, ({}, {}))[i][k] = x
    entries = []
    for (dk1, dk2), (re, im) in classes.items():
        n = num_add(num_times(n1, dk1, d), num_times(n2, dk2, d), d)
        if n == num_zero(d):
            if solve:
                raise KernelMonomialError(_exps(min(chain(re, im))))
            continue
        if solve:
            norm, nbar = num_norm(n, d)
            t = abs(norm), num_times(nbar, -den if norm > 0 else den, d)
        else:
            t = den, num_times(n, -1, d)
        entries.append(((p.den, re, im), (t[0], {}, {0: t[1]})))
    return sum_of_products(entries, p.order, p.field, COMPLEX)


def apply_D(p: Polynomial, alpha) -> Polynomial:
    """Differentiation along the H2 flow: z^k zb^l -> -i (alpha.(k-l)) z^k zb^l."""
    if p.chart != COMPLEX:
        raise ChartError("apply_D expects the complex chart; convert first")
    return _times_eigenvalue(p, alpha, solve=False)


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
    """Solve -D.G = L monomialwise: G-coefficient = -i c / (alpha.(k-l)),
    that is -i c D nbar / N(n) for alpha.(k-l) = n / D read from alpha's
    numerators.

    Every monomial of ``image_part`` must have a nonzero D-eigenvalue;
    offenders raise :class:`KernelMonomialError` naming the exponent.  The
    output is real-valued whenever the input is.
    """
    if image_part.chart != COMPLEX:
        raise ChartError("solve_homological expects the complex chart")
    return _times_eigenvalue(image_part, alpha, solve=True)


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


def _taylor_step(part: dict, i: int, b: int, limit, d) -> dict:
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
            out[k - ki] = (x[0] * e // b, x[1] * e // b) if d else x * e // b
    return out


def _horner(t: tuple, beta: tuple, cut: int, nlin: list, mindeg: list,
            field: Field) -> Polynomial | tuple:
    """R(beta) = T_beta + sum_{i >= last(beta)} N_i R(beta + e_i) through
    degree ``cut``; ``t`` is T_beta's integer form (den, re, im), below the
    cut.  A leaf other than the root returns ``t`` itself, unreduced."""
    den, re, im = t
    entries = [(t, None)]
    last = max((j for j in range(4) if beta[j]), default=0)
    for i in range(last, 4):
        sub = cut - mindeg[i]
        if sub < 0:
            continue
        limit = _limit(sub)
        child = tuple(_taylor_step(part, i, beta[i] + 1, limit, field.d)
                      for part in (re, im))
        if child[0] or child[1]:
            nb = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
            entries.append((nlin[i], _horner((den, *child), nb, sub, nlin,
                                             mindeg, field)))
    if len(entries) == 1 and beta != _ONE:
        return t            # a leaf: R(beta) = T_beta, summed by its parent
    return sum_of_products(entries, cut, field, REAL)


def _below(t: tuple, limit) -> tuple:
    """The integer form ``t`` = (den, re, im) without its keys >= ``limit``,
    not reduced."""
    den, re, im = t
    return den, *({k: x for k, x in part.items() if k < limit}
                  for part in (re, im))


def _least_order(polys, phi: TruncatedMap) -> int:
    """The least order among ``polys``, ``phi`` and ``phi``'s components."""
    return min(p.order for p in chain(polys, phi.components, [phi]))


def compose_many(polys: list[Polynomial], phi: TruncatedMap,
                 order: int | None = None) -> list[Polynomial]:
    """Compose several polynomials with one near-identity map.

    Each p o (id + N) = sum_beta T_beta N^beta, T_beta = d^beta p / beta!,
    is evaluated as a Horner sum over the tree of multi-indices that raises
    the slots in ascending order: R(beta) = T_beta + sum_{i >= last(beta)}
    N_i R(beta + e_i), and p o phi = R(0).  Node beta is cut at
    order - sum_j beta_j m_j, m_j the min degree of N_j, so nothing above
    the order is ever formed.  N_i is read off phi_i's integer form: its
    terms below the order, less ``den`` at v_i.  It must start at degree 2;
    a constant term or a linear part other than the identity raises
    ``ValueError``.  A child's T comes from its parent's numerators by one
    exact integer step, a node whose T is empty has no subtree, and a
    leaf hands its T to its parent's sum unreduced.  The result is a jet
    at ``order``, at most (and by default) the least order among the
    polynomials, ``phi`` and ``phi``'s components.
    """
    have = _least_order(polys, phi)
    if order is None:
        order = have
    elif order > have:
        raise ValueError(f"compose order {order} is above the order {have} "
                         "of an operand")
    field = phi.field
    for p in polys:
        if p.chart != REAL:
            raise ChartError("map composition operates on the real chart")
        field = field.join(p.field)
    limit, nlin = _limit(order), []
    for b, comp in zip(_BASIS, phi.components):
        den, re, im = _below(_int_form(comp, field), limit)
        if (re.pop(_key(b), None) != ((den, 0) if field.d else den)
                or min(chain(re, im), default=limit) < 2 << 32):
            raise ValueError("compose requires an identity-linear-part map, "
                             "with no constant term")
        nlin.append((den, re, im))
    mindeg = [min(chain(re, im), default=limit) >> 32 for _, re, im in nlin]
    return [_horner(_below(_int_form(p, field), limit), _ONE, order, nlin,
                    mindeg, field) for p in polys]


def compose_map(p: Polynomial, phi: TruncatedMap, order: int | None = None) -> Polynomial:
    """p o phi for a near-identity map, truncated at ``order``; exact."""
    return compose_many([p], phi, order)[0]


def compose_maps(outer: TruncatedMap, inner: TruncatedMap,
                 order: int | None = None) -> TruncatedMap:
    """Function composition (outer o inner)(v) = outer(inner(v)), by
    default at the least order of the two maps and their components."""
    if order is None:
        order = _least_order(outer.components + [outer], inner)
    return TruncatedMap(compose_many(outer.components, inner, order), order)


def _inversion_pass(grads: list, u: list, field: Field, cut: int) -> list:
    """p(eta, xi + u) through degree ``cut`` for each p of ``grads``, all
    homogeneous of one degree m = s - 1; ``u`` = (u1, u2) starts at degree
    2 or is zero.

    p(eta, xi + u) = sum_beta T_beta u^beta over beta = (b2, b3),
    |beta| <= m, T_beta = d^beta p / beta! homogeneous of degree
    m - |beta|, so u^beta is needed through cut - (m - |beta|) only.  The
    powers are formed once for all of ``grads``, each from its parent
    beta - e_i (i the last raised slot) by one product, and a beta whose
    least degree is above its cut is skipped with all that descend from it.
    Each T_beta comes from its parent's numerators by one exact integer
    step, and each p sums its terms T_beta u^beta in one accumulation.
    """
    limit = _limit(cut)
    nlin = [_int_form(v, field) for v in u]
    mindeg = [min(chain(*v[1:]), default=limit) >> 32 for v in nlin]
    m = max(p.total_degree() for p in grads)
    steps, powers = [], {}
    for n in range(1, m + 1):
        sub = cut - (m - n)
        for b3 in range(n + 1):
            beta = (n - b3, b3)
            i = 1 if b3 else 0
            if beta[0] * mindeg[0] + b3 * mindeg[1] > sub:
                continue
            parent = (beta[0], b3 - 1) if b3 else (n - 1, 0)
            if parent == (0, 0):
                powers[beta] = _below(nlin[i], _limit(sub))
            else:
                powers[beta] = sum_of_products([(powers[parent], nlin[i])],
                                               sub, field, REAL)
            steps.append((beta, parent, i))
    out = []
    for p in grads:
        taylor = {(0, 0): _int_form(p, field)}
        entries = [(taylor[0, 0], None)]
        for beta, parent, i in steps:
            if parent not in taylor:
                continue
            den, re, im = taylor[parent]
            child = tuple(_taylor_step(part, 2 + i, beta[i], limit, field.d)
                          for part in (re, im))
            if child[0] or child[1]:
                taylor[beta] = (den, *child)
                entries.append((taylor[beta], powers[beta]))
        out.append(sum_of_products(entries, cut, field, REAL))
    return out


def invert_generating(G: Polynomial, order: int) -> TruncatedMap:
    """Canonical map generated by W(eta, x) = eta.x + G(eta, x).

    Solves xi = x + dG/deta, y = eta + dG/dx for (y, x) as truncated series
    in (eta, xi) by fixed-point iteration on u = x - xi, graded by degree:
    u = 0 is exact through degree s - 2, and each pass
    u <- -dG/deta(eta, xi + u) gains s - 2 degrees, so pass r evaluates
    only through degree min(order, (r+1)(s-2)).  A pass evaluates the
    gradients at (eta, xi + u) by their Taylor terms in u: it forms each
    power u^beta, |beta| <= s - 1, once for all the gradients it evaluates
    and sums each gradient in one accumulation, so none builds, adds or
    subtracts the identity.  That is ceil(order/(s-2)) - 1 passes; the last
    one also evaluates dG/dx for y - eta, and eta and xi go back in as one
    numerator each, in front of the integer forms, with no sum.  ``G`` must
    be an s-homogeneous real-chart polynomial in the mixed variables
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
    grads = [*map((-G).diff, (0, 1)), *map(G.diff, (2, 3))]

    # u^(r+1) = -dG/deta(eta, xi + u^(r)) is exact through s - 2 more
    # degrees than u^(r), so nothing above that degree is worth composing yet
    u = [Polynomial.zero(REAL, G.field, order)] * 2
    exact = s - 2
    while exact + s - 2 < order:
        exact += s - 2
        u = _inversion_pass(grads[:2], u, G.field, exact)
    # the last pass, at the order, also gives y - eta = dG/dx(eta, x); y
    # reads u only through degree order - (s - 2), where u is exact already
    sub = _inversion_pass(grads, u, G.field, order)
    keep = order - (s - 2)
    if any(a.up_to_degree(keep) != b.up_to_degree(keep)
           for a, b in zip(sub, u)):
        raise AssertionError("generating-function inversion did not converge "
                             f"through degree {keep}")
    # each w starts at degree s - 1 >= 2, so v_i's numerator den goes first
    d = G.field.d
    return TruncatedMap([
        Polynomial._from_ints(REAL, G.field, order, w.den,
                              {_key(b): (w.den, 0) if d else w.den, **w.re},
                              w.im)
        for b, w in zip(_BASIS, sub[2:] + sub[:2])], order)


_J_SIGN = ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))


def _pullback_form(phi: TruncatedMap, order: int) -> dict:
    """{(i, j): K_ij} for i < j, K = (DPhi)^T J (DPhi) through degree
    ``order`` - 1, from the Liouville form: Phi = (Y, X) pulls x dy back to
    sum_j alpha_j dv_j, alpha_j = sum_k X_k d_j Y_k, and
    K_ij = d_i alpha_j - d_j alpha_i term by term, 8 products where the
    Jacobian takes 24.  The jet lacks only the degree-``order`` part of
    d_j Y_k; it meets only the constant of X_k, a closed form that drops
    out."""
    comps = [comp.truncate(order) for comp in phi.components]
    alpha = [comps[2] * comps[0].diff(j) + comps[3] * comps[1].diff(j)
             for j in range(4)]
    return {(i, j): alpha[j].diff(i) - alpha[i].diff(j)
            for i in range(4) for j in range(i + 1, 4)}


def symplectic_defect(phi: TruncatedMap, order: int | None = None):
    """Max of |re| + |im| over the coefficients of (DPhi)^T J (DPhi) - J
    through degree order-1, as an exact field element.

    It is zero exactly when the map is symplectic to that order, as the
    maps produced by :func:`invert_generating` are up to the guaranteed
    order.  ``order`` defaults to the least order of the map and its
    components; above it, ``ValueError``.
    """
    have = _least_order([], phi)
    if order is None:
        order = have
    elif order > have:
        raise ValueError(f"symplectic defect order {order} is above the "
                         f"order {have} of the map")
    cut = order - 1
    field = phi.field
    worst = field.zero()
    for (i, j), acc in _pullback_form(phi, order).items():
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
    coeffs, seen = {}, set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.partition(":")
        if head in ("chart", "field", "order"):
            if head in seen:
                raise PolynomialFormatError(f"repeated {head} header", ln)
            seen.add(head)
        if head == "chart":
            chart = value.strip()
            if chart not in (REAL, COMPLEX):
                raise PolynomialFormatError(f"unknown chart {chart!r}", ln)
            continue
        if head == "field":
            try:
                field = _parse_field_tag(value)
            except ValueError as exc:
                raise PolynomialFormatError(str(exc), ln) from None
            continue
        if head == "order":
            try:
                order = int(value)
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
