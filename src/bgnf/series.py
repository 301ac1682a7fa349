"""Truncated power series in the energy E with exact coefficients.

A :class:`SeriesE` stores coefficients cated[0..] together with ``err_order``,
the exponent of its O(E^err_order) tail.  Arithmetic propagates the error
order: a product knows its tail from the valuations of both factors, a
quotient by a unit keeps the worse of the two tails, and substitution
composes tails.  Coefficients are elements of one exact coefficient field
(or floats on the numeric path); complex data enters only through squared
moduli, so series stay real.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import Field, RATIONAL, scalar_str, sign, sqrt_in_field

__all__ = ["SeriesE", "SeriesError"]

_INF = math.inf


class SeriesError(ValueError):
    pass


class SeriesE:
    """sum_k c_k E^k + O(E^err_order), coefficients in one exact field."""

    __slots__ = ("field", "coeffs", "err_order")

    def __init__(self, field: Field, coeffs, err_order):
        self.field = field
        if err_order != _INF:
            err_order = int(err_order)
            if err_order < 0:
                raise SeriesError("error order must be >= 0")
        cs = [field.coerce(c) for c in coeffs]
        if err_order != _INF:
            cs = cs[:err_order]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs
        self.err_order = err_order

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value, field: Field = RATIONAL, err_order=_INF):
        return cls(field, [value], err_order)

    @classmethod
    def zero(cls, field: Field = RATIONAL, err_order=_INF):
        return cls(field, [], err_order)

    @classmethod
    def identity(cls, field: Field = RATIONAL, err_order=_INF):
        """The series E itself."""
        return cls(field, [0, 1], err_order)

    # -- inspection ----------------------------------------------------------

    def coefficient(self, k: int):
        if k >= self.err_order:
            raise SeriesError(f"coefficient of E^{k} is below the O-tail")
        if k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def valuation(self):
        """Exponent of the first nonzero known coefficient (inf if none)."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return _INF

    def known_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        """(exponent, coefficient) of the leading term, or None."""
        v = self.valuation()
        if v == _INF:
            return None
        return (v, self.coeffs[v])

    def leading_sign(self) -> int:
        """Sign of the series for small E > 0; 0 when zero to known order."""
        lead = self.leading()
        return 0 if lead is None else sign(lead[1])

    def truncate(self, err_order) -> "SeriesE":
        return SeriesE(self.field, self.coeffs,
                       min(self.err_order, err_order))

    # -- arithmetic ----------------------------------------------------------

    def _join(self, other) -> tuple["SeriesE", "SeriesE", Field]:
        if not isinstance(other, SeriesE):
            other = SeriesE.constant(other, self.field)
        field = self.field.join(other.field)
        return self, other, field

    def __add__(self, other):
        a, b, field = self._join(other)
        err = min(a.err_order, b.err_order)
        n = max(len(a.coeffs), len(b.coeffs))
        cs = [
            (a.coeffs[k] if k < len(a.coeffs) else 0)
            + (b.coeffs[k] if k < len(b.coeffs) else 0)
            for k in range(n)
        ]
        return SeriesE(field, cs, err)

    __radd__ = __add__

    def __neg__(self):
        return SeriesE(self.field, [-c for c in self.coeffs], self.err_order)

    def __sub__(self, other):
        a, b, _ = self._join(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b, field = self._join(other)
        # tail: a.err + val(b), b.err + val(a), a.err + b.err
        err = min(a.err_order + b.valuation(),
                  b.err_order + a.valuation(),
                  a.err_order + b.err_order)
        cap = len(a.coeffs) + len(b.coeffs) - 1 if a.coeffs and b.coeffs else 0
        n = cap if err == _INF else min(cap, err)
        cs = [field.zero() for _ in range(max(n, 0))]
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(b.coeffs):
                if i + j >= n:
                    break
                cs[i + j] = cs[i + j] + ca * cb
        return SeriesE(field, cs, err)

    __rmul__ = __mul__

    def inverse(self) -> "SeriesE":
        """1/self; requires a nonzero constant term."""
        if not self.coeffs or self.coeffs[0] == 0:
            raise SeriesError("series inverse needs a unit (nonzero constant term)")
        c0 = self.coeffs[0]
        field = self.field
        n = len(self.coeffs) if self.err_order == _INF else int(self.err_order)
        inv0 = field.one() / c0
        out = [inv0]
        for k in range(1, n):
            s = field.zero()
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                cj = self.coeffs[j] if j < len(self.coeffs) else field.zero()
                s = s + cj * out[k - j]
            out.append(-inv0 * s)
        return SeriesE(field, out, self.err_order)

    def __truediv__(self, other):
        a, b, _ = self._join(other)
        return a * b.inverse()

    def divide(self, other: "SeriesE") -> "SeriesE":
        """Division allowing a common factor E^v, v = valuation of ``other``."""
        a, b, field = self._join(other)
        v = b.valuation()
        if v == _INF:
            raise SeriesError("division by a series with no known nonzero term")
        if v == 0:
            return a * b.inverse()
        if a.valuation() < v:
            raise SeriesError("quotient is not a power series (pole at E=0)")
        na = SeriesE(field, a.coeffs[v:], a.err_order - v)
        nb = SeriesE(field, b.coeffs[v:], b.err_order - v)
        return na * nb.inverse()

    def __rtruediv__(self, other):
        return SeriesE.constant(other, self.field) / self

    def __pow__(self, n: int) -> "SeriesE":
        if n < 0:
            return self.inverse() ** (-n)
        out = SeriesE.constant(1, self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def substitute(self, inner: "SeriesE") -> "SeriesE":
        """self(inner(E)); ``inner`` must have zero constant term."""
        if inner.coeffs and inner.coeffs[0] != 0:
            raise SeriesError("substitution needs a series with zero constant term")
        field = self.field.join(inner.field)
        v = inner.valuation()
        if v == _INF:
            v = inner.err_order  # zero to known order
        # tail: self's truncation enters at v * err_self; inner's tail enters
        # through the first active derivative
        err = self.err_order if self.err_order == _INF else self.err_order * max(v, 1)
        dmin = _INF
        for k, c in enumerate(self.coeffs):
            if k >= 1 and c != 0:
                dmin = min(dmin, (k - 1) * v)
        if inner.err_order != _INF:
            err = min(err, inner.err_order + dmin if dmin != _INF else inner.err_order)
        out = SeriesE.zero(field, err)
        power = SeriesE.constant(1, field)
        for k, c in enumerate(self.coeffs):
            if k > 0:
                power = power * inner
            if c != 0:
                out = out + power * SeriesE.constant(c, field)
        return SeriesE(field, out.coeffs, err)

    def sqrt(self) -> "SeriesE":
        """Square root; the leading coefficient must be an exact square.

        The leading exponent must be even.  Raises SeriesError when the root
        does not exist in the coefficient field (callers report Indeterminate
        in that case rather than falling back to floats).
        """
        lead = self.leading()
        if lead is None:
            if self.err_order == _INF:
                return SeriesE.zero(self.field)
            # sqrt(O(E^t)) = O(E^{t/2})
            return SeriesE.zero(self.field, int(self.err_order // 2))
        v, c = lead
        if v % 2:
            raise SeriesError("sqrt of a series with odd leading exponent")
        root = sqrt_in_field(c, self.field)
        if root is None:
            raise SeriesError(
                f"leading coefficient {c} is not a square in the field")
        field = self.field
        # self = c E^v (1 + u), u = (self / (c E^v)) - 1
        shifted = SeriesE(field, self.coeffs[v:], self.err_order - v)
        u = shifted * SeriesE.constant(field.one() / c, field) - 1
        # binomial series sqrt(1+u)
        n_terms = 1 if u.err_order == _INF else int(u.err_order)
        acc = SeriesE.constant(1, field, u.err_order if u.err_order != _INF else _INF)
        term = SeriesE.constant(1, field)
        coef = Fraction(1)
        for k in range(1, max(n_terms, len(u.coeffs) + 1)):
            coef = coef * (Fraction(1, 2) - (k - 1)) / k
            term = term * u
            acc = acc + term * SeriesE.constant(field.coerce(coef), field)
            if term.known_zero():
                break
        half_v = v // 2
        cs = [field.zero()] * half_v + [root * c2 for c2 in acc.coeffs]
        err = acc.err_order if acc.err_order == _INF else acc.err_order + half_v
        return SeriesE(field, cs, err)

    # -- numeric -------------------------------------------------------------

    def eval_float(self, e_value: float) -> float:
        total = 0.0
        for k, c in enumerate(self.coeffs):
            total += float(c) * e_value ** k
        return total

    def coeffs_float(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SeriesE):
            return NotImplemented
        return (self.coeffs == other.coeffs
                and self.err_order == other.err_order)

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = scalar_str(c)
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*E")
            else:
                parts.append(f"{cs}*E^{k}")
        if self.err_order != _INF:
            parts.append(f"O(E^{self.err_order})")
        return " + ".join(parts) if parts else "0"
