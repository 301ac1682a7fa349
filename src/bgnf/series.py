"""Truncated power series in the energy E with exact coefficients.

A :class:`SeriesE` stores coefficients c[0..] together with ``err_order``,
the exponent of its O(E^err_order) tail.  Arithmetic propagates the error
order: a product knows its tail from the valuations of both factors, a
quotient by a unit keeps the worse of the two tails, and substitution
composes tails.  No operation computes a coefficient at or past its
result's tail: products stop there, a scalar factor scales coefficients,
substitution runs Horner's rule, and quotients and square roots run their
triangular recurrences (Brent and Kung 1978; Knuth, TAOCP vol. 2, 4.7).
Coefficients lie in one exact field, the rationals or Q(sqrt(d)), and are
coerced once, on entry through the constructor; complex data enters only
through squared moduli, so series stay real.  An exact series (no tail)
stays exact only where the result is a finite series: an inverse, square
root or quotient that is not raises :class:`SeriesError`.
"""

from __future__ import annotations

import math

from .scalars import Field, RATIONAL, scalar_str, sign, sqrt_in_field

__all__ = ["SeriesE", "SeriesError"]

_INF = math.inf


class SeriesError(ValueError):
    pass


def _product(a: list, b: list, n, zero) -> list:
    """Coefficients of a*b below E^n (n an int or inf)."""
    out = [zero] * (min(len(a) + len(b) - 1, n) if a and b else 0)
    for i, x in enumerate(a[:len(out)]):
        if x != 0:
            for j, y in enumerate(b[:len(out) - i]):
                if y != 0:
                    out[i + j] += x * y
    return out


def _quotient(a: list, b: list, n: int, zero) -> list:
    """Coefficients of a/b below E^n; b[0] != 0."""
    out = []
    for k in range(n):
        s = a[k] if k < len(a) else zero
        for j in range(1, min(k, len(b) - 1) + 1):
            if b[j] != 0:
                s -= b[j] * out[k - j]
        out.append(s / b[0])
    return out


class SeriesE:
    """sum_k c_k E^k + O(E^err_order), coefficients in one exact field."""

    __slots__ = ("field", "coeffs", "err_order")

    def __init__(self, field: Field, coeffs, err_order):
        if err_order != _INF:
            err_order = int(err_order)
            if err_order < 0:
                raise SeriesError("error order must be >= 0")
        self._set(field, [field.coerce(c) for c in coeffs], err_order)

    def _set(self, field: Field, cs: list, err_order) -> None:
        if err_order != _INF:
            del cs[err_order:]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field, self.coeffs, self.err_order = field, cs, err_order

    @classmethod
    def _of(cls, field: Field, cs: list, err_order) -> "SeriesE":
        """A series that takes ownership of ``cs``, already field elements."""
        s = object.__new__(cls)
        s._set(field, cs, err_order)
        return s

    def _in(self, field: Field) -> "SeriesE":
        if self.field is field or self.field == field:
            return self
        return SeriesE(field, self.coeffs, self.err_order)

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
        err = min(self.err_order, err_order)
        return SeriesE._of(self.field, self.coeffs[:err] if err != _INF
                           else list(self.coeffs), err)

    # -- arithmetic ----------------------------------------------------------

    def _join(self, other) -> tuple["SeriesE", "SeriesE", Field]:
        if not isinstance(other, SeriesE):
            other = SeriesE.constant(other, self.field)
        field = self.field.join(other.field)
        return self._in(field), other._in(field), field

    def __add__(self, other):
        a, b, field = self._join(other)
        ca, cb = a.coeffs, b.coeffs
        if len(ca) < len(cb):
            ca, cb = cb, ca
        cs = [x + y for x, y in zip(ca, cb)] + ca[len(cb):]
        return SeriesE._of(field, cs, min(a.err_order, b.err_order))

    __radd__ = __add__

    def __neg__(self):
        return SeriesE._of(self.field, [-c for c in self.coeffs],
                           self.err_order)

    def __sub__(self, other):
        a, b, _ = self._join(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SeriesE):
            # a scalar scales the coefficients; a zero factor is exact
            c = self.field.coerce(other)
            if c == 0:
                return SeriesE._of(self.field, [], _INF)
            return SeriesE._of(self.field, [c * x for x in self.coeffs],
                               self.err_order)
        a, b, field = self._join(other)
        # tail: a.err + val(b), b.err + val(a), a.err + b.err
        err = min(a.err_order + b.valuation(),
                  b.err_order + a.valuation(),
                  a.err_order + b.err_order)
        return SeriesE._of(field, _product(a.coeffs, b.coeffs, err,
                                           field.zero()), err)

    __rmul__ = __mul__

    def inverse(self) -> "SeriesE":
        """1/self; requires a nonzero constant term."""
        if not self.coeffs or self.coeffs[0] == 0:
            raise SeriesError("series inverse needs a unit (nonzero constant term)")
        return SeriesE.constant(1, self.field).divide(self)

    def divide(self, other: "SeriesE") -> "SeriesE":
        """Division allowing a common factor E^v, v = valuation of ``other``."""
        a, b, field = self._join(other)
        v, va = b.valuation(), a.valuation()
        if v == _INF:
            raise SeriesError("division by a series with no known nonzero term")
        if va < v or a.err_order < v:
            raise SeriesError("quotient is not a power series (pole at E=0)")
        ca, cb, zero = a.coeffs[v:], b.coeffs[v:], field.zero()
        # the tail of a * (1/b): a's, or b's shifted by val(a)
        err = min(a.err_order, b.err_order + va - v) - v
        if err != _INF:
            return SeriesE._of(field, _quotient(ca, cb, err, zero), err)
        q = _quotient(ca, cb, max(len(ca) - len(cb) + 1, 0), zero)
        if SeriesE._of(field, _product(q, cb, _INF, zero), _INF).coeffs != ca:
            raise SeriesError("the quotient of exact series is not a finite series")
        return SeriesE._of(field, q, _INF)

    def __pow__(self, n: int) -> "SeriesE":
        if n < 0:
            return self.inverse() ** (-n)
        out = SeriesE.constant(1, self.field)
        for _ in range(n):
            out = out * self
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
        # through the first active derivative, and not at all without one
        err = (self.err_order if self.err_order in (0, _INF)
               else self.err_order * v)
        ks = [k for k, c in enumerate(self.coeffs) if k and c != 0]
        if inner.err_order != _INF and ks:
            err = min(err, inner.err_order + (ks[0] - 1) * v)
        # Horner: c_n, then acc * inner + c_k down to k = 0, each cut at err
        cs, inn, zero = self._in(field).coeffs, inner._in(field).coeffs, field.zero()
        acc = []
        for c in reversed(cs):
            acc = _product(acc, inn, err, zero)
            if acc:
                acc[0] = c
            else:
                acc = [c]
        return SeriesE._of(field, acc, err)

    def sqrt(self) -> "SeriesE":
        """Square root; the leading coefficient must be an exact square.

        The leading exponent must be even.  Raises SeriesError when the root
        does not exist in the coefficient field (callers report Indeterminate
        in that case rather than falling back to floats).
        """
        lead = self.leading()
        if lead is None:        # sqrt(O(E^t)) = O(E^{t/2}); sqrt(0) = 0
            return SeriesE.zero(self.field, self.err_order // 2)
        v, c = lead
        if v % 2:
            raise SeriesError("sqrt of a series with odd leading exponent")
        root = sqrt_in_field(c, self.field)
        if root is None:
            raise SeriesError(
                f"leading coefficient {c} is not a square in the field")
        # self = E^v s, r = sqrt(s): r_k = (s_k - sum_{0<j<k} r_j r_{k-j}) / 2 r_0
        field, s, exact = self.field, self.coeffs[v:], self.err_order == _INF
        r = [root]
        for k in range(1, (len(s) + 1) // 2 if exact else self.err_order - v):
            t = s[k] if k < len(s) else field.zero()
            for j in range(1, k):
                t -= r[j] * r[k - j]
            r.append(t / (2 * root))
        if exact and _product(r, r, _INF, field.zero()) != s:
            raise SeriesError("the square root of an exact series is not a finite series")
        return SeriesE._of(field, [field.zero()] * (v // 2) + r,
                           self.err_order - v // 2)

    # -- numeric -------------------------------------------------------------

    def eval_float(self, e_value: float) -> float:
        return sum(float(c) * e_value ** k for k, c in enumerate(self.coeffs))

    def coeffs_float(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SeriesE):
            return NotImplemented
        return (self.coeffs == other.coeffs
                and self.err_order == other.err_order)

    def __repr__(self):
        parts = [scalar_str(c) + ("" if k == 0 else "*E" if k == 1 else f"*E^{k}")
                 for k, c in enumerate(self.coeffs) if c != 0]
        if self.err_order != _INF:
            parts.append(f"O(E^{self.err_order})")
        return " + ".join(parts) if parts else "0"
