"""Exact multivariate polynomial arithmetic in the four phase variables.

A polynomial is a sparse dictionary mapping exponent quadruples to complex
coefficients (:class:`bgnf.scalars.CC`), together with a chart tag, a
coefficient field and a truncation order N.  Monomials of total degree > N
are dropped by every operation; when a drop discards a nonzero term the
result is marked ``lossy`` so jets and exact polynomials stay
distinguishable.  Map composition is the exception: its result is a jet at
``order``, and what the powers N^beta and the map components cut at
``order`` drop is not flagged.

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
from fractions import Fraction

from .scalars import CC, Field, QuadExt, RATIONAL, cc_magnitude, quad_field

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


class ChartError(ValueError):
    """Raised when an operation receives the wrong chart."""


def degree(exps: tuple) -> int:
    return exps[0] + exps[1] + exps[2] + exps[3]


def _grlex_key(exps: tuple):
    return (degree(exps), exps)


class Polynomial:
    """Truncated polynomial in four phase variables over an exact field."""

    __slots__ = ("chart", "field", "order", "coeffs", "lossy", "_intrep")

    def __init__(self, chart: str, field: Field, order: int, coeffs=None,
                 lossy: bool = False, _clean: bool = False):
        if chart not in (REAL, COMPLEX):
            raise ChartError(f"unknown chart {chart!r}")
        self.chart = chart
        self.field = field
        self.order = order
        self.lossy = lossy
        if coeffs is None:
            self.coeffs = {}
        elif _clean:
            self.coeffs = coeffs
        else:
            cleaned = {}
            dropped = False
            for e, c in coeffs.items():
                if degree(e) > order:
                    if not c.is_zero():
                        dropped = True
                    continue
                if not c.is_zero():
                    cleaned[e] = c
            self.coeffs = cleaned
            self.lossy = lossy or dropped

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, chart: str, field: Field = RATIONAL, order: int = 10):
        return cls(chart, field, order, {}, _clean=True)

    @classmethod
    def monomial(cls, chart, exps, coeff, field: Field = RATIONAL, order: int = 10):
        if not isinstance(coeff, CC):
            coeff = CC(field.coerce(coeff))
        else:
            coeff = CC(field.coerce(coeff.re), field.coerce(coeff.im))
        return cls(chart, field, order, {tuple(exps): coeff})

    @classmethod
    def from_terms(cls, chart, terms, field: Field = RATIONAL, order: int = 10):
        """Build from an iterable of (exps, coeff) pairs; coeffs may repeat."""
        acc = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            if not isinstance(coeff, CC):
                coeff = CC(field.coerce(coeff))
            else:
                coeff = CC(field.coerce(coeff.re), field.coerce(coeff.im))
            if exps in acc:
                acc[exps] = acc[exps] + coeff
            else:
                acc[exps] = coeff
        return cls(chart, field, order, acc)

    @classmethod
    def quadratic_h2(cls, alpha, chart: str = REAL, field: Field = RATIONAL,
                     order: int = 10):
        """H2 = alpha1/2 (y1^2+x1^2) + alpha2/2 (y2^2+x2^2) in either chart."""
        a1 = field.coerce(alpha[0])
        a2 = field.coerce(alpha[1])
        half = field.coerce(Fraction(1, 2))
        if chart == REAL:
            terms = {
                (2, 0, 0, 0): CC(a1 * half),
                (0, 0, 2, 0): CC(a1 * half),
                (0, 2, 0, 0): CC(a2 * half),
                (0, 0, 0, 2): CC(a2 * half),
            }
        else:
            terms = {
                (1, 0, 1, 0): CC(a1 * half),
                (0, 1, 0, 1): CC(a2 * half),
            }
        return cls(chart, field, order, terms, _clean=True)

    # -- bookkeeping ---------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> Field:
        if self.chart != other.chart:
            raise ChartError(
                f"chart mismatch: {self.chart} vs {other.chart}"
            )
        return self.field.join(other.field)

    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> int:
        return max((degree(e) for e in self.coeffs), default=0)

    def min_degree(self) -> int:
        return min((degree(e) for e in self.coeffs), default=0)

    def coefficient(self, exps) -> CC:
        z = self.field.zero()
        return self.coeffs.get(tuple(exps), CC(z, z))

    def terms_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: _grlex_key(kv[0]))

    def homogeneous_part(self, s: int) -> "Polynomial":
        part = {e: c for e, c in self.coeffs.items() if degree(e) == s}
        return Polynomial(self.chart, self.field, self.order, part, self.lossy,
                          _clean=True)

    def up_to_degree(self, s: int) -> "Polynomial":
        part = {e: c for e, c in self.coeffs.items() if degree(e) <= s}
        return Polynomial(self.chart, self.field, min(self.order, s), part,
                          self.lossy, _clean=True)

    def truncate(self, order: int) -> "Polynomial":
        if order >= self.order:
            return Polynomial(self.chart, self.field, order, self.coeffs,
                              self.lossy, _clean=True)
        return Polynomial(self.chart, self.field, order, dict(self.coeffs),
                          self.lossy)

    def is_real_valued(self) -> bool:
        """Reality check: real coefficients (real chart) or a_lk = conj(a_kl)."""
        if self.chart == REAL:
            return all(c.is_real() for c in self.coeffs.values())
        for (k1, k2, l1, l2), c in self.coeffs.items():
            mirror = self.coeffs.get((l1, l2, k1, k2))
            if mirror is None or mirror != c.conj():
                return False
        return True

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        field = self._check_compatible(other)
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            cur = out.get(e)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        dropped = False
        if order < max(self.order, other.order):
            kept = {}
            for e, c in out.items():
                if degree(e) > order:
                    dropped = True
                else:
                    kept[e] = c
            out = kept
        return Polynomial(self.chart, field, order, out,
                          self.lossy or other.lossy or dropped, _clean=True)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.chart, self.field, self.order,
                          {e: -c for e, c in self.coeffs.items()},
                          self.lossy, _clean=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, coeff) -> "Polynomial":
        if not isinstance(coeff, CC):
            coeff = CC(self.field.coerce(coeff))
        if coeff.is_zero():
            return Polynomial.zero(self.chart, self.field, self.order)
        return Polynomial(self.chart, self.field, self.order,
                          {e: c * coeff for e, c in self.coeffs.items()},
                          self.lossy, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        field = self._check_compatible(other)
        out = sum_of_products([(None, self, other)],
                              min(self.order, other.order), field, self.chart)
        out.lossy = out.lossy or self.lossy or other.lossy
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.monomial(self.chart, (0, 0, 0, 0), 1,
                                  self.field, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.chart == other.chart and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.chart, frozenset(self.coeffs.items())))

    # -- calculus ------------------------------------------------------------

    def diff(self, var: int) -> "Polynomial":
        """Partial derivative with respect to slot ``var`` (0..3)."""
        out = {}
        for e, c in self.coeffs.items():
            k = e[var]
            if k == 0:
                continue
            ne = list(e)
            ne[var] = k - 1
            out[tuple(ne)] = c * k
        return Polynomial(self.chart, self.field, self.order, out, self.lossy,
                          _clean=True)

    def conjugate(self) -> "Polynomial":
        """Complex conjugate; on the complex chart swaps z and zbar slots."""
        if self.chart == REAL:
            return Polynomial(self.chart, self.field, self.order,
                              {e: c.conj() for e, c in self.coeffs.items()},
                              self.lossy, _clean=True)
        out = {}
        for (k1, k2, l1, l2), c in self.coeffs.items():
            out[(l1, l2, k1, k2)] = c.conj()
        return Polynomial(self.chart, self.field, self.order, out, self.lossy,
                          _clean=True)

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
        """Re-coerce coefficients into ``field`` (must be an extension)."""
        out = {}
        for e, c in self.coeffs.items():
            out[e] = CC(field.coerce(c.re), field.coerce(c.im))
        return Polynomial(self.chart, field, self.order, out, self.lossy)

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        n = len(self.coeffs)
        return (f"<Polynomial {self.chart} {self.field.format_tag()} "
                f"order={self.order} terms={n}>")

    def pretty(self) -> str:
        names = _REAL_NAMES if self.chart == REAL else _COMPLEX_NAMES
        if not self.coeffs:
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
# Every polynomial product (``*``, the Poisson bracket, chart changes, map
# composition, the symplecticity check) runs through ``sum_of_products``.
# Fraction arithmetic normalizes (gcd) after every operation, which is
# wasteful inside a big accumulation; instead each factor is put over one
# common denominator, the accumulation runs on plain integer tuples, and one
# Fraction is built per output coefficient at the end.  A complex rational
# coefficient is the pair (re, im); over Q(sqrt d) it is the quadruple
# (re_a, re_b, im_a, im_b).  A factor may be passed in that integer form
# (den, {exps: int tuple}), as the Taylor terms of map composition are.


def _int_vectors(p, field: Field):
    """(den, {exps: int tuple}) with all coefficients over one denominator.

    Cached on the polynomial (immutability makes this safe); recomputed when
    a different target field is requested.  An operand already in integer
    form is returned unchanged.
    """
    if isinstance(p, tuple):
        return p
    cached = getattr(p, "_intrep", None)
    if cached is not None and cached[0] == field:
        return cached[1], cached[2]
    quad = field.kind == "quadratic"
    comps = {}
    den = 1
    for e, c in p.coeffs.items():
        re = field.coerce(c.re)
        im = field.coerce(c.im)
        if quad:
            parts = (Fraction(re.a), Fraction(re.b),
                     Fraction(im.a), Fraction(im.b))
        else:
            parts = (Fraction(re), Fraction(im))
        for f in parts:
            den = math.lcm(den, f.denominator)
        comps[e] = parts
    out = {}
    for e, parts in comps.items():
        out[e] = tuple(f.numerator * (den // f.denominator) for f in parts)
    p._intrep = (field, den, out)
    return den, out


def _tuple_mul(ta, tb, quad: bool, d: int):
    if quad:
        ra, rb, ia, ib = ta
        sa, sb, ja, jb = tb
        # (ra + rb r + i(ia + ib r)) (sa + sb r + i(ja + jb r)), r = sqrt(d)
        return (ra * sa + d * rb * sb - (ia * ja + d * ib * jb),
                ra * sb + rb * sa - (ia * jb + ib * ja),
                ra * ja + d * rb * jb + ia * sa + d * ib * sb,
                ra * jb + rb * ja + ia * sb + ib * sa)
    ra, ia = ta
    sa, ja = tb
    return (ra * sa - ia * ja, ra * ja + ia * sa)


def _acc_pairs(acc: dict, va: dict, bterms, order: int, quad: bool, d: int,
               mult: int) -> bool:
    """acc += mult * (va x bterms), truncated; returns the drop flag."""
    dropped = False
    for ea, ta in va.items():
        da = degree(ea)
        if mult != 1:
            ta = tuple(x * mult for x in ta)
        for db, eb, tb in bterms:
            if da + db > order:
                dropped = True
                break
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            prod = _tuple_mul(ta, tb, quad, d)
            cur = acc.get(e)
            if cur is None:
                acc[e] = prod
            elif quad:
                acc[e] = (cur[0] + prod[0], cur[1] + prod[1],
                          cur[2] + prod[2], cur[3] + prod[3])
            else:
                acc[e] = (cur[0] + prod[0], cur[1] + prod[1])
    return dropped


def _materialize(acc: dict, den: int, field: Field, quad: bool):
    """(coefficients, nonzero integer tuples) of the accumulator over ``den``."""
    out = {}
    ints = {}
    for e, t in acc.items():
        if quad:
            if not (t[0] or t[1] or t[2] or t[3]):
                continue
            re = QuadExt(Fraction(t[0], den), Fraction(t[1], den), field.d)
            im = QuadExt(Fraction(t[2], den), Fraction(t[3], den), field.d)
        else:
            if not (t[0] or t[1]):
                continue
            re = Fraction(t[0], den)
            im = Fraction(t[1], den)
        out[e] = CC(re, im)
        ints[e] = t
    return out, ints


def sum_of_products(entries, order: int, field: Field,
                    chart: str = REAL) -> Polynomial:
    """sum_k scale_k * A_k * B_k with one integer accumulation pass.

    ``entries`` is an iterable of (scale, A, B) where ``scale`` is a CC (or
    None for 1), ``A`` and ``B`` are Polynomials or integer forms (den,
    {exps: int tuple}), and ``B`` may be None for a scaled copy.  The
    smaller factor of each product runs in the outer loop.  All the Fraction
    materialization cost is paid once, on the final coefficients, and the
    integer form is kept on the result for the next product.  The result is
    lossy only when the truncation at ``order`` drops a term; the operands'
    own flags are the caller's to add.
    """
    quad = field.kind == "quadratic"
    d = field.d if quad else 0
    one = (0, 0, 0, 0)
    unit = (1, {one: (1, 0, 0, 0) if quad else (1, 0)})
    prepared = []
    global_den = 1
    for scale, a, b in entries:
        den_a, va = _int_vectors(a, field)
        den_b, vb = _int_vectors(unit if b is None else b, field)
        if len(va) > len(vb):
            va, vb = vb, va
        if scale is None:
            den_s, ts = 1, None
        else:
            den_s, ts = _int_vectors(
                Polynomial(chart, field, 0, {one: scale}, _clean=True), field)
            ts = ts[one]
        den_e = den_a * den_b * den_s
        global_den = math.lcm(global_den, den_e)
        prepared.append((den_e, ts, va, vb))
    acc: dict = {}
    dropped = False
    for den_e, ts, va, vb in prepared:
        mult = global_den // den_e
        if ts is not None:
            va = {e: _tuple_mul(t, ts, quad, d) for e, t in va.items()}
        bterms = sorted((degree(e), e, t) for e, t in vb.items())
        if _acc_pairs(acc, va, bterms, order, quad, d, mult):
            dropped = True
    coeffs, ints = _materialize(acc, global_den, field, quad)
    res = Polynomial(chart, field, order, coeffs, dropped, _clean=True)
    res._intrep = (field, global_den, ints)
    return res


# ---------------------------------------------------------------------------
# chart changes
# ---------------------------------------------------------------------------


def _substitute_linear4(p: Polynomial, matrix, chart: str,
                        field: Field) -> Polynomial:
    """p(M . v) for a 4x4 ``matrix`` of field elements or :class:`CC`
    pairs of them; row i is the image of p's variable i on ``chart``."""
    order = p.order
    images = []
    for row in matrix:
        terms = {}
        for j, m in enumerate(row):
            v = (CC(field.coerce(m.re), field.coerce(m.im))
                 if isinstance(m, CC) else CC(field.coerce(m)))
            if not v.is_zero():
                terms[tuple(int(i == j) for i in range(4))] = v
        images.append(Polynomial(chart, field, order, terms, _clean=True))
    one = Polynomial.monomial(chart, (0, 0, 0, 0), 1, field, order)
    # memoized powers of the four images
    pows: list[list[Polynomial]] = [[one] for _ in range(4)]
    maxdeg = [0, 0, 0, 0]
    for e in p.coeffs:
        for i in range(4):
            maxdeg[i] = max(maxdeg[i], e[i])
    for i in range(4):
        for k in range(1, maxdeg[i] + 1):
            pows[i].append(pows[i][k - 1] * images[i])
    # pair slot 0 with the slot whose image has the same variables, so the
    # two factors of each fused product below have disjoint supports
    supp = [set(im.coeffs) for im in images]
    b = next((j for j in (1, 2, 3) if supp[j] == supp[0]), 1)
    c, d = (j for j in (1, 2, 3) if j != b)
    # pair products memoized; each term is then a single fused product
    front: dict = {}
    back: dict = {}
    entries = []
    for e, coef in sorted(p.coeffs.items(), key=lambda kv: _grlex_key(kv[0])):
        key_f = (e[0], e[b])
        if key_f not in front:
            front[key_f] = pows[0][e[0]] * pows[b][e[b]]
        key_b = (e[c], e[d])
        if key_b not in back:
            back[key_b] = pows[c][e[c]] * pows[d][e[d]]
        entries.append((CC(field.coerce(coef.re), field.coerce(coef.im)),
                        front[key_f], back[key_b]))
    out = sum_of_products(entries, order, field, chart)
    out.lossy = out.lossy or p.lossy
    return out


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
    return _substitute_linear4(p, _TO_COMPLEX, COMPLEX, p.field)


def to_real(p: Polynomial) -> Polynomial:
    """Exact chart change z_j = x_j + i y_j; input must be real-valued."""
    if p.chart != COMPLEX:
        raise ChartError("to_real expects a complex-chart polynomial")
    q = _substitute_linear4(p, _TO_REAL, REAL, p.field)
    for e, c in q.coeffs.items():
        if not c.is_real():
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
    field = field or p.field
    pp = p if field == p.field else p.promote(field)
    return _substitute_linear4(pp, matrix, p.chart, field)


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
        plus, minus = None, CC(field.coerce(-1))
    else:
        # {f,g} = 2i sum_j (d_{z_j} f d_{zb_j} g - d_{zb_j} f d_{z_j} g)
        plus = CC(field.zero(), field.coerce(2))
        minus = CC(field.zero(), field.coerce(-2))
    entries = []
    for j in range(2):
        entries.append((plus, p.diff(j), q.diff(2 + j)))
        entries.append((minus, p.diff(2 + j), q.diff(j)))
    out = sum_of_products(entries, min(p.order, q.order), field, p.chart)
    out.lossy = out.lossy or p.lossy or q.lossy
    return out


def _alpha_dot(alpha, e, field: Field):
    """alpha . (k - l) for the exponent quadruple e, in the given field."""
    a1 = field.coerce(alpha[0])
    a2 = field.coerce(alpha[1])
    return a1 * (e[0] - e[2]) + a2 * (e[1] - e[3])


def apply_D(p: Polynomial, alpha) -> Polynomial:
    """Differentiation along the H2 flow: z^k zb^l -> -i (alpha.(k-l)) z^k zb^l."""
    if p.chart != COMPLEX:
        raise ChartError("apply_D expects the complex chart; convert first")
    field = p.field
    out = {}
    for e, c in p.coeffs.items():
        ev = _alpha_dot(alpha, e, field)
        if ev == 0:
            continue
        out[e] = c * CC(field.zero(), -ev)
    return Polynomial(COMPLEX, field, p.order, out, p.lossy, _clean=True)


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
    ker, im = {}, {}
    for e, c in p.coeffs.items():
        (ker if in_resonance_module(e, res) else im)[e] = c
    k = Polynomial(COMPLEX, p.field, p.order, ker, p.lossy, _clean=True)
    i = Polynomial(COMPLEX, p.field, p.order, im, p.lossy, _clean=True)
    return k, i


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
    field = image_part.field
    out = {}
    for e, c in image_part.coeffs.items():
        ev = _alpha_dot(alpha, e, field)
        if ev == 0:
            raise KernelMonomialError(e)
        out[e] = c * CC(field.zero(), -field.one() / ev)
    return Polynomial(COMPLEX, field, image_part.order, out, image_part.lossy,
                      _clean=True)


# ---------------------------------------------------------------------------
# truncated maps
# ---------------------------------------------------------------------------


class TruncatedMap:
    """Polynomial map of phase space, one component per output coordinate.

    Components are real-chart polynomials in the input coordinates
    (eta1, eta2, xi1, xi2); output order is (y1, y2, x1, x2).
    """

    __slots__ = ("components", "order", "identity_linear")

    def __init__(self, components: list[Polynomial], order: int,
                 identity_linear: bool = False):
        if len(components) != 4:
            raise ValueError("a phase-space map needs four components")
        self.components = components
        self.order = order
        if identity_linear and not self._has_identity_linear_part():
            raise ValueError("identity-linear-part flag does not match the map")
        self.identity_linear = identity_linear

    def _has_identity_linear_part(self) -> bool:
        basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        for i, comp in enumerate(self.components):
            for e, c in comp.coeffs.items():
                d = degree(e)
                if d == 0:
                    return False
                if d == 1 and (e != basis[i] or c != 1):
                    return False
        return True

    @classmethod
    def identity(cls, field: Field = RATIONAL, order: int = 10):
        basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        comps = [Polynomial.monomial(REAL, b, 1, field, order) for b in basis]
        return cls(comps, order, identity_linear=True)

    @property
    def field(self) -> Field:
        return self.components[0].field

    def evaluate(self, values):
        return [comp.evaluate(values) for comp in self.components]

    def jacobian(self) -> list[list[Polynomial]]:
        return [[comp.diff(j) for j in range(4)] for comp in self.components]

    def __repr__(self):
        return (f"<TruncatedMap order={self.order} "
                f"identity_linear={self.identity_linear}>")


def _taylor_term(vec: dict, beta) -> dict:
    """d^beta q / beta! on q's integer numerators, over q's denominator.

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


def compose_many(polys: list[Polynomial], phi: TruncatedMap,
                 order: int | None = None) -> list[Polynomial]:
    """Compose several polynomials with one near-identity map.

    Each p o (id + N) is evaluated through the finite Taylor expansion
    sum_beta d^beta p N^beta / beta!, which terminates because every
    nonlinear part N_i starts at degree >= 2.  The powers N^beta are shared
    across all the input polynomials.  Each term d^beta p / beta! is built
    on p's integer form by integer binomial weights, with no derivative.

    The result is a jet at ``order``.  It is flagged ``lossy`` when p or a
    map component is, when p's truncation at ``order`` drops a term, or when
    a product d^beta p N^beta drops one; what the powers N^beta and the
    components cut at ``order`` drop is not flagged.
    """
    if not phi.identity_linear:
        raise ValueError("compose requires an identity-linear-part map; "
                         "use linear_substitute for linear changes")
    if order is None:
        order = min(min(p.order for p in polys), phi.order)
    field = phi.field
    for p in polys:
        if p.chart != REAL:
            raise ChartError("map composition operates on the real chart")
        field = field.join(p.field)
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    nlin = []
    mindeg = []
    for i in range(4):
        comp = phi.components[i].truncate(order)
        if comp.field != field:
            comp = comp.promote(field)
        n_i = comp - Polynomial.monomial(REAL, basis[i], 1, field, order)
        nlin.append(n_i)
        mindeg.append(n_i.min_degree() if not n_i.is_zero() else order + 1)

    one = Polynomial.monomial(REAL, (0, 0, 0, 0), 1, field, order)
    powers = {(0, 0, 0, 0): one}

    def get_power(beta):
        got = powers.get(beta)
        if got is not None:
            return got
        i = next(j for j in range(4) if beta[j] > 0)
        parent = list(beta)
        parent[i] -= 1
        val = get_power(tuple(parent)) * nlin[i]
        powers[beta] = val
        return val

    lossy_map = any(c.lossy for c in phi.components)
    results = []
    for p in polys:
        q = p.truncate(order) if p.order != order else p
        if q.field != field:
            q = q.promote(field)
        den, vq = _int_vectors(q, field)
        pdeg = [max((e[i] for e in q.coeffs), default=0) for i in range(4)]
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
                    term = _taylor_term(vq, nb)
                    if term:
                        entries.append((None, (den, term), get_power(nb)))
            frontier = nxt
        out = sum_of_products(entries, order, field, REAL)
        out.lossy = out.lossy or q.lossy or lossy_map
        results.append(out)
    return results


def compose_map(p: Polynomial, phi: TruncatedMap, order: int | None = None) -> Polynomial:
    """p o phi for a near-identity map, truncated at ``order``; exact."""
    return compose_many([p], phi, order)[0]


def compose_maps(outer: TruncatedMap, inner: TruncatedMap,
                 order: int | None = None) -> TruncatedMap:
    """Function composition (outer o inner)(v) = outer(inner(v))."""
    if order is None:
        order = min(outer.order, inner.order)
    comps = compose_many(outer.components, inner, order)
    return TruncatedMap(comps, order,
                        identity_linear=outer.identity_linear and inner.identity_linear)


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

    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    eta = [Polynomial.monomial(REAL, basis[i], 1, field, order) for i in (0, 1)]
    xi = [Polynomial.monomial(REAL, basis[i], 1, field, order) for i in (2, 3)]

    # x^(r+1) = xi - dG/deta(eta, x^(r)) is exact through s - 2 more degrees
    # than x^(r), so nothing above that degree is worth composing yet
    x = [xi[0], xi[1]]
    exact = s - 2
    while exact < order:
        exact = min(order, exact + s - 2)
        cur = TruncatedMap([eta[0], eta[1], x[0], x[1]], order,
                           identity_linear=True)
        sub = compose_many(dG_eta, cur, exact)
        # what a pass drops above ``exact`` a later pass computes: not lossy
        x = [Polynomial(REAL, field, exact, (xi[j] - sub[j]).coeffs,
                        G.lossy, _clean=True) for j in range(2)]
    cur = TruncatedMap([eta[0], eta[1], x[0], x[1]], order,
                       identity_linear=True)
    sub = compose_many(dG_eta + dG_x, cur, order)
    sub_eta, sub_x = sub[:2], sub[2:]
    # x is cut short where the full-order relation runs past ``order``
    x = [Polynomial(REAL, field, order, x[j].coeffs, sub_eta[j].lossy,
                    _clean=True) for j in range(2)]
    y = [eta[j] + sub_x[j] for j in range(2)]

    # residual of the defining relations must vanish through degree ``order``
    for j in range(2):
        res = xi[j] - x[j] - sub_eta[j]
        if not res.is_zero():
            raise AssertionError(
                "generating-function inversion did not converge "
                f"(residual of degree {res.min_degree()})"
            )
    return TruncatedMap([y[0], y[1], x[0], x[1]], order, identity_linear=True)


_J_SIGN = ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))


def symplectic_defect(phi: TruncatedMap, order: int | None = None) -> float:
    """Max coefficient magnitude of (DPhi)^T J (DPhi) - J through degree order-1.

    Exactly zero (0.0) for maps produced by :func:`invert_generating` up to
    the guaranteed order.
    """
    if order is None:
        order = phi.order
    cut = order - 1
    field = phi.field
    M = [[entry.truncate(cut) for entry in row] for row in phi.jacobian()]
    worst = 0.0
    minus = CC(field.coerce(-1))
    # K = (DPhi)^T J (DPhi) is antisymmetric:
    # K_ij = (M_2i M_0j - M_0i M_2j) + (M_3i M_1j - M_1i M_3j)
    for i in range(4):
        for j in range(i + 1, 4):
            acc = sum_of_products(
                [(None, M[2][i], M[0][j]), (minus, M[0][i], M[2][j]),
                 (None, M[3][i], M[1][j]), (minus, M[1][i], M[3][j])],
                cut, field, REAL)
            target = _J_SIGN[i][j]
            if target:
                acc = acc - Polynomial.monomial(REAL, (0, 0, 0, 0), target,
                                                field, cut)
            for c in acc.coeffs.values():
                worst = max(worst, cc_magnitude(c))
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
        elif im_s.startswith("-") and im_s[1:2] == "(":
            im_s = im_s  # parse_elem of quadratic handles only bare; negate below
        if im_s.startswith("-(") :
            im = -field.parse_elem(im_s[1:])
        else:
            im = field.parse_elem(im_s)
        return CC(field.parse_elem(re_s), im)
    return CC(field.parse_elem(s), field.zero())
