"""Exact coefficient arithmetic for the polynomial engine.

Two coefficient fields are supported:

  * the rationals, represented by ``fractions.Fraction``;
  * a real quadratic extension Q(sqrt(d)) for a fixed square-free d > 1,
    represented by :class:`QuadExt` as the pair a + b*sqrt(d).

Arithmetic inside one field is exact.  Rationals embed silently into any
Q(sqrt(d)); two different quadratic fields never mix, so no tolerance can
sneak into a computation.  There is no float field: the normal form needs
exact coefficients.

Complex coefficients are pairs of field elements wrapped in :class:`CC`.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Field",
    "RATIONAL",
    "QuadExt",
    "CC",
    "FieldError",
    "quad_field",
    "square_free_core",
    "sqrt_in_field",
    "sqrt_ints",
    "scalar_str",
    "sign",
]


class FieldError(TypeError):
    """Raised on mixed-field arithmetic or on an unrepresentable element."""


def square_free_core(n: int) -> int:
    """Square-free part of ``n`` (0 < n < 2^64): n divided by its largest
    square.

    Trial division stops once p^3 > n; the cofactor then has at most two
    prime factors, so it is a square or square-free (O(n^{1/3}) steps, a
    fraction of a second below 2^64).  Any other n raises ValueError.
    """
    if n <= 0:
        raise ValueError("square_free_core needs a positive integer")
    if n >= 2 ** 64:
        raise ValueError(f"square_free_core needs n < 2^64, got {n}")
    core = 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                core *= p
        p += 1 if p == 2 else 2
    return core if math.isqrt(n) ** 2 == n else core * n


class QuadExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d square-free, d > 1.

    Division rationalizes the denominator eagerly so that the (a, b)
    representation is unique.  Rationals and integers mix freely (they embed
    as b = 0); elements of different quadratic fields do not.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=None):
        if d is None or d <= 1:
            raise ValueError("QuadExt needs a square-free d > 1")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise FieldError(
                    f"cannot mix Q(sqrt({self.d})) with Q(sqrt({other.d}))"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadExt(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        sa = 1 if a > 0 else -1
        sb = 1 if b > 0 else -1
        if sa == sb:
            return sa
        # opposite signs: compare a^2 against b^2 d (equality impossible,
        # d square-free)
        return sa if a * a > b * b * self.d else sb

    def is_rational(self) -> bool:
        return self.b == 0

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"


@dataclass(frozen=True)
class Field:
    """Coefficient-field descriptor attached to every polynomial."""

    kind: str  # "rational" | "quadratic"
    d: int | None = None

    def __post_init__(self):
        if self.kind not in ("rational", "quadratic"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "quadratic" and (self.d is None or self.d <= 1):
            raise ValueError("quadratic field needs square-free d > 1")

    # -- element construction ---------------------------------------------

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, x):
        """Coerce ``x`` into this field; raise FieldError when impossible."""
        if self.kind == "rational":
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            if isinstance(x, QuadExt) and x.is_rational():
                return x.a
            raise FieldError(f"cannot coerce {x!r} into the rationals")
        if isinstance(x, (int, Fraction)):
            return QuadExt(x, 0, self.d)
        if isinstance(x, QuadExt):
            if x.d == self.d:
                return x
            if x.is_rational():
                return QuadExt(x.a, 0, self.d)
            raise FieldError(f"element of Q(sqrt({x.d})) not in Q(sqrt({self.d}))")
        raise FieldError(f"cannot coerce {x!r} into Q(sqrt({self.d}))")

    def ints(self, x) -> tuple:
        """(numerator, den) of an int, a Fraction or an element of this
        field: an int over Q, a pair (a, b) over Q(sqrt d); den > 0."""
        if not isinstance(x, (int, Fraction)):
            x = self.coerce(x)
            if isinstance(x, QuadExt):
                a, b = x.a, x.b
                q = math.lcm(a.denominator, b.denominator)
                return (a.numerator * (q // a.denominator),
                        b.numerator * (q // b.denominator)), q
        return (x.numerator if self.d is None else (x.numerator, 0)), x.denominator

    # -- promotion lattice --------------------------------------------------

    def join(self, other: "Field") -> "Field":
        """Common field of two operands; two quadratic fields never mix."""
        if self == other or other.kind == "rational":
            return self
        if self.kind == "rational":
            return other
        raise FieldError(f"cannot mix Q(sqrt({self.d})) with Q(sqrt({other.d}))")

    # -- text format --------------------------------------------------------

    def format_tag(self) -> str:
        if self.kind == "rational":
            return "rational"
        return f"quadratic(d={self.d})"

    def format_elem(self, x) -> str:
        if self.kind == "rational":
            return str(Fraction(x))
        q = self.coerce(x)
        if q.b == 0:
            return str(q.a)
        return f"({q.a}{'+' if q.b >= 0 else ''}{q.b}*sqrt({q.d}))"

    def parse_elem(self, s: str):
        s = s.strip()
        if self.kind == "rational":
            return Fraction(s)
        if s.startswith("(") and s.endswith(")"):
            body = s[1:-1]
            m = _re.fullmatch(
                r"(?P<a>[+-]?\d+(?:/\d+)?)"
                r"(?P<b>[+-]\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\)",
                body,
            )
            if not m:
                raise ValueError(f"bad quadratic scalar {s!r}")
            if int(m.group("d")) != self.d:
                raise ValueError(f"scalar {s!r} not in Q(sqrt({self.d}))")
            return QuadExt(Fraction(m.group("a")), Fraction(m.group("b")), self.d)
        return QuadExt(Fraction(s), 0, self.d)


RATIONAL = Field("rational")


def quad_field(d: int) -> Field:
    """Q(sqrt(d)); ``d`` is reduced to its square-free core first."""
    core = square_free_core(d)
    if core <= 1:
        return RATIONAL
    return Field("quadratic", d=core)


# -- numerators ---------------------------------------------------------------
# Polynomials and series keep a field element as an integer numerator over a
# shared positive denominator, in the format of Field.ints: an int over Q, a
# pair (a, b) for a + b sqrt d over Q(sqrt d).  ``d`` is the field's radicand
# (``field.d``), None over Q.


def num_zero(d):
    return (0, 0) if d else 0


def num_add(x, y, d):
    return (x[0] + y[0], x[1] + y[1]) if d else x + y


def num_times(x, m: int, d):
    """The numerator ``x`` times the int ``m``."""
    return (x[0] * m, x[1] * m) if d else x * m


def num_mul(x, y, d):
    if d:
        return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])
    return x * y


def num_norm(x, d) -> tuple:
    """(m, xbar) with 1/x = xbar/m: (x, 1) over Q, (N(x), conj x) off it."""
    return (x[0] * x[0] - d * x[1] * x[1], (x[0], -x[1])) if d else (x, 1)


def num_elem(x, den: int, field: Field):
    """The field element x / den; None reads as 0."""
    if field.d:
        a, b = x or (0, 0)
        return QuadExt(Fraction(a, den), Fraction(b, den), field.d)
    return Fraction(x or 0, den)


def _isqrt(t: int):
    """The integer square root of ``t``, or None when ``t`` is no square."""
    s = math.isqrt(t) if t >= 0 else -1
    return s if s * s == t else None


def sqrt_ints(x, den: int, d):
    """(rho, q) with rho / q a square root of x / den, or None.

    ``x`` is a numerator as :meth:`Field.ints` gives it and ``d`` the
    field's (None over Q).  Off Q a rational root is tried first, then a
    multiple of sqrt d; a + b sqrt d with b != 0 has the root p + q sqrt d
    with p > 0, p^2 = (a +- s) / 2 and s^2 = a^2 - b^2 d, negated when it
    is negative, so the root returned is never negative.
    """
    if d is None:
        s = _isqrt(x * den)
        return None if s is None else (s, den)
    a, b = x
    if b == 0:
        if (s := _isqrt(a * den)) is not None:
            return (s, 0), den
        s = _isqrt(a * den * d)
        return None if s is None else ((0, s), den * d)
    # p = r / (2 den) with r^2 = 2 den (a +- s), so the root is
    # (r^2 + 2 den b sqrt d) / (2 den r)
    s = _isqrt(a * a - d * b * b)
    for t in () if s is None else (a + s, a - s):
        r = _isqrt(2 * den * t)
        if r:
            g = 1 if b > 0 or r ** 4 > 4 * den * den * b * b * d else -1
            return (g * r * r, g * 2 * den * b), 2 * den * r
    return None


def sqrt_in_field(x, field: Field):
    """Exact square root of a field element, or None when it has none."""
    root = sqrt_ints(*field.ints(x), field.d)
    if root is None:
        return None
    (rho, q), d = root, field.d
    if d is None:
        return Fraction(rho, q)
    return QuadExt(Fraction(rho[0], q), Fraction(rho[1], q), d)


def scalar_str(x) -> str:
    """Report form of a field element: ``a/b``, or ``a+b*sqrt(d)`` off Q."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        return f"{x.a}{'+' if x.b >= 0 else ''}{x.b}*sqrt({x.d})"
    return str(x)


def sign(x) -> int:
    """Exact sign (-1, 0 or 1) of a field element."""
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


class CC:
    """Complex coefficient: a pair (re, im) of elements of one base field."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re
        self.im = im

    def __add__(self, other):
        if not isinstance(other, CC):
            return CC(self.re + other, self.im)
        return CC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return CC(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, CC):
            return CC(self.re - other, self.im)
        return CC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CC):
            return CC(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if b == 0:
            if d == 0:
                return CC(a * c, b)
            return CC(a * c, a * d)
        if d == 0:
            return CC(a * c, b * c)
        return CC(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, CC):
            return CC(self.re / other, self.im / other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("complex division by zero")
        return self * CC(other.re / n, -other.im / n)

    def conj(self):
        return CC(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        if isinstance(other, CC):
            return self.re == other.re and self.im == other.im
        return self.im == 0 and self.re == other

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"CC({self.re})"
        return f"CC({self.re}, {self.im})"

