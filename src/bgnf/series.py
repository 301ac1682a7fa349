"""Truncated power series in the energy E with exact coefficients.

A :class:`SeriesE` stores its coefficients in a polynomial's integer form:
one positive denominator ``den`` and a list ``nums`` of numerators (an int
over Q, a pair (a, b) for a + b sqrt d over Q(sqrt d)) with gcd 1 and no
trailing zero, and ``err_order``, the exponent of its O(E^err_order) tail.
Field elements exist only at the boundary: the constructor converts them
once and ``coeffs`` builds them on read.  Arithmetic runs on the numerators,
reduces each result once and propagates the error order: a product knows
its tail from the valuations of both factors, a quotient by a unit keeps
the worse of the two tails, and substitution composes tails.  No operation
computes a coefficient at or past its result's tail: products stop there,
substitution runs Horner's rule, and quotients and square roots run their
triangular recurrences over the norm of the leading divisor (Brent and
Kung 1978; Knuth, TAOCP vol. 2, 4.7).  Complex data enters only through
squared moduli, so series stay real.  An exact series (no tail) stays exact
only where the result is a finite series: an inverse, square root or
quotient that is not raises :class:`SeriesError`.
"""

from __future__ import annotations

import math
import numbers
from itertools import chain

from .scalars import (Field, RATIONAL, num_add, num_elem, num_mul, num_norm,
                      num_times, num_zero, scalar_str, sign, sqrt_ints)

__all__ = ["SeriesE", "SeriesError"]

_INF = math.inf


class SeriesError(ValueError):
    pass


def _order(err):
    """``err`` as an error order: an integer >= 0, or inf."""
    if err == _INF:
        return err
    if not (isinstance(err, numbers.Real) and err >= 0 and err == int(err)):
        raise SeriesError(f"error order must be an integer >= 0 or inf, got {err!r}")
    return int(err)


def _product(a: list, b: list, n, d) -> list:
    """Numerators of a*b below E^n (n an int or inf)."""
    size = min(len(a) + len(b) - 1, n) if a and b else 0
    if d is None:
        out = [0] * size
        for i, x in enumerate(a[:size]):
            if x:
                for j, y in enumerate(b[:size - i]):
                    out[i + j] += x * y
        return out
    re, ir = [0] * size, [0] * size
    for i, (x0, x1) in enumerate(a[:size]):
        if x0 or x1:
            for j, (y0, y1) in enumerate(b[:size - i]):
                re[i + j] += x0 * y0 + d * x1 * y1
                ir[i + j] += x0 * y1 + x1 * y0
    return list(zip(re, ir))


def _quotient(a: list, b: list, n: int, d) -> tuple:
    """(numerators, den) of a/b below E^n; b[0] != 0.  With 1/b_0 = bar/m,
    m the norm of b_0, coefficient k is r_k / m^(k+1), where
    r_k = (a_k m^k - sum_{0<j<=k} b_j r_{k-j} m^(j-1)) bar."""
    m, bar = num_norm(b[0], d)
    pw = [m ** k for k in range(n + 1)]
    r = []
    for k in range(n):
        s = num_times(a[k], pw[k], d) if k < len(a) else num_zero(d)
        for j in range(1, min(k, len(b) - 1) + 1):
            s = num_add(s, num_times(num_mul(b[j], r[k - j], d),
                                     -pw[j - 1], d), d)
        r.append(num_mul(s, bar, d))
    return [num_times(x, pw[n - 1 - k], d) for k, x in enumerate(r)], pw[n]


class SeriesE:
    """sum_k c_k E^k + O(E^err_order), c_k = nums[k] / den in one field."""

    __slots__ = ("field", "den", "nums", "err_order")

    def __init__(self, field: Field, coeffs, err_order):
        """From ints, Fractions or field elements, converted once."""
        parts = [field.ints(c) for c in coeffs]
        den = math.lcm(*(q for _, q in parts))
        nums = [num_times(x, den // q, field.d) for x, q in parts]
        self._set(field, den, nums, _order(err_order))

    def _set(self, field: Field, den: int, nums: list, err_order) -> None:
        d = field.d
        if err_order != _INF:
            del nums[err_order:]
        while nums and nums[-1] == num_zero(d):
            nums.pop()
        g = math.gcd(den, *(chain.from_iterable(nums) if d else nums))
        g = -g if den < 0 else g
        if g != 1:
            den //= g
            nums = [(x[0] // g, x[1] // g) if d else x // g for x in nums]
        self.field, self.den, self.nums, self.err_order = field, den, nums, err_order

    @classmethod
    def _from_ints(cls, field: Field, den: int, nums: list, err_order) -> "SeriesE":
        """A series that owns ``nums``, numerators over an int ``den`` != 0."""
        s = object.__new__(cls)
        s._set(field, den, nums, err_order)
        return s

    def _in(self, field: Field) -> "SeriesE":
        if self.field is field or self.field == field:
            return self
        return SeriesE._from_ints(field, self.den, [(x, 0) for x in self.nums],
                                  self.err_order)

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

    @property
    def coeffs(self) -> list:
        """The coefficients c_0.. as field elements, built on read."""
        return [num_elem(x, self.den, self.field) for x in self.nums]

    def coefficient(self, k: int):
        if k >= self.err_order:
            raise SeriesError(f"coefficient of E^{k} is below the O-tail")
        if k < len(self.nums):
            return num_elem(self.nums[k], self.den, self.field)
        return self.field.zero()

    def valuation(self):
        """Exponent of the first nonzero known coefficient (inf if none)."""
        zero = num_zero(self.field.d)
        return next((k for k, x in enumerate(self.nums) if x != zero), _INF)

    def known_zero(self) -> bool:
        return not self.nums

    def leading(self):
        """(exponent, coefficient) of the leading term, or None."""
        v = self.valuation()
        if v == _INF:
            return None
        return (v, num_elem(self.nums[v], self.den, self.field))

    def leading_sign(self) -> int:
        """Sign of the series for small E > 0; 0 when zero to known order."""
        lead = self.leading()
        return 0 if lead is None else sign(lead[1])

    def truncate(self, err_order) -> "SeriesE":
        return SeriesE._from_ints(self.field, self.den, list(self.nums),
                                  min(self.err_order, _order(err_order)))

    # -- arithmetic ----------------------------------------------------------

    def _join(self, other) -> tuple["SeriesE", "SeriesE", Field]:
        if not isinstance(other, SeriesE):
            other = SeriesE.constant(other, self.field)
        field = self.field.join(other.field)
        return self._in(field), other._in(field), field

    def __add__(self, other):
        a, b, field = self._join(other)
        d, den = field.d, math.lcm(a.den, b.den)
        ca, cb = ([num_times(x, den // s.den, d) for x in s.nums] for s in (a, b))
        if len(ca) < len(cb):
            ca, cb = cb, ca
        cs = [num_add(x, y, d) for x, y in zip(ca, cb)] + ca[len(cb):]
        return SeriesE._from_ints(field, den, cs, min(a.err_order, b.err_order))

    __radd__ = __add__

    def __neg__(self):
        return SeriesE._from_ints(self.field, self.den, [
            num_times(x, -1, self.field.d) for x in self.nums], self.err_order)

    def __sub__(self, other):
        a, b, _ = self._join(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SeriesE):
            # a scalar scales the numerators; a zero factor is exact
            d = self.field.d
            c, q = self.field.ints(other)
            if c == num_zero(d):
                return SeriesE._from_ints(self.field, 1, [], _INF)
            return SeriesE._from_ints(self.field, self.den * q,
                                      [num_mul(x, c, d) for x in self.nums],
                                      self.err_order)
        a, b, field = self._join(other)
        # tail: a.err + val(b), b.err + val(a), a.err + b.err
        err = min(a.err_order + b.valuation(),
                  b.err_order + a.valuation(),
                  a.err_order + b.err_order)
        return SeriesE._from_ints(field, a.den * b.den,
                                  _product(a.nums, b.nums, err, field.d), err)

    __rmul__ = __mul__

    def inverse(self) -> "SeriesE":
        """1/self; requires a nonzero constant term."""
        if not self.nums or self.nums[0] == num_zero(self.field.d):
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
        d, ca, cb = field.d, a.nums[v:], b.nums[v:]
        # the tail of a * (1/b): a's, or b's shifted by val(a)
        err = min(a.err_order, b.err_order + va - v) - v
        n = err if err != _INF else max(len(ca) - len(cb) + 1, 0)
        q, m = _quotient(ca, cb, n, d)
        out = SeriesE._from_ints(field, m * a.den,
                                 [num_times(x, b.den, d) for x in q], err)
        if err == _INF:
            back = SeriesE._from_ints(field, out.den * b.den,
                                      _product(out.nums, cb, _INF, d), _INF)
            if (back.den, back.nums) != (a.den, ca):
                raise SeriesError("the quotient of exact series is not a finite series")
        return out

    def __pow__(self, n: int) -> "SeriesE":
        if n < 0:
            return self.inverse() ** (-n)
        out = SeriesE.constant(1, self.field)
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, inner: "SeriesE") -> "SeriesE":
        """self(inner(E)); ``inner`` must have zero constant term."""
        if inner.nums and inner.nums[0] != num_zero(inner.field.d):
            raise SeriesError("substitution needs a series with zero constant term")
        field = self.field.join(inner.field)
        v = inner.valuation()
        if v == _INF:
            v = inner.err_order  # zero to known order
        # tail: self's truncation enters at v * err_self; inner's tail enters
        # through the first active derivative, and not at all without one
        err = (self.err_order if self.err_order in (0, _INF)
               else self.err_order * v)
        zero = num_zero(self.field.d)
        k1 = next((k for k, x in enumerate(self.nums) if k and x != zero), None)
        if inner.err_order != _INF and k1 is not None:
            err = min(err, inner.err_order + (k1 - 1) * v)
        # Horner on numerators, sum_k c_k q^(n-k) U^k over den q^n with
        # inner = U / q: c_n, then acc * U + c_k q^(n-k), each cut at err
        d, cs, inn = field.d, self._in(field).nums, inner._in(field).nums
        acc, q, p = [], inner.den, 1
        for c in reversed(cs):
            acc = _product(acc, inn, err, d)
            if acc:
                acc[0] = num_times(c, p, d)
            else:
                acc = [num_times(c, p, d)]
            p *= q
        return SeriesE._from_ints(field, self.den * (p // q if cs else 1), acc, err)

    def sqrt(self) -> "SeriesE":
        """Square root; the leading coefficient must be an exact square.

        The leading exponent must be even.  Raises SeriesError when the root
        does not exist in the coefficient field (callers report Indeterminate
        in that case rather than falling back to floats).
        """
        v, field, err = self.valuation(), self.field, self.err_order
        if v == _INF:           # sqrt(O(E^t)) = O(E^{t/2}); sqrt(0) = 0
            return SeriesE.zero(field, err if err == _INF else err // 2)
        if v % 2:
            raise SeriesError("sqrt of a series with odd leading exponent")
        d, den, s = field.d, self.den, self.nums[v:]
        root = sqrt_ints(s[0], den, d)
        if root is None:
            raise SeriesError(f"leading coefficient {num_elem(s[0], den, field)}"
                              " is not a square in the field")
        # self = E^v s/den and s_0/den = (rho/q)^2: z = den q r solves
        # z^2 = U = den q^2 s, z_0 = den rho, and with (m, bar) the norm of
        # 2 z_0, z_k = w_k / m^(2k-1), w_k = (U_k m^(2k-2) - sum_{0<j<k}
        # w_j w_{k-j}) bar
        rho, q = root
        m, bar = num_norm(num_times(rho, 2 * den, d), d)
        n = (len(s) + 1) // 2 if err == _INF else err - v
        top = max(2 * n - 3, 0)
        w = [num_times(rho, den * m ** top, d)]
        for k in range(1, n):
            t = (num_times(s[k], den * q * q * m ** (2 * k - 2), d)
                 if k < len(s) else num_zero(d))
            for j in range(1, k):
                t = num_add(t, num_times(num_mul(w[j], w[k - j], d), -1, d), d)
            w.append(num_mul(t, bar, d))
        z = [w[0]] + [num_times(x, m ** (top - 2 * k + 1), d)
                      for k, x in enumerate(w[1:], 1)]
        if err == _INF:
            back = SeriesE._from_ints(field, (den * q * m ** top) ** 2,
                                      _product(z, z, _INF, d), _INF)
            if (back.den, back.nums) != (den, s):
                raise SeriesError("the square root of an exact series is not a finite series")
        return SeriesE._from_ints(field, den * q * m ** top,
                                  [num_zero(d)] * (v // 2) + z, err - v // 2)

    # -- numeric -------------------------------------------------------------

    def eval_float(self, e_value: float) -> float:
        return sum(float(c) * e_value ** k for k, c in enumerate(self.coeffs))

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SeriesE):
            return NotImplemented
        return self.coeffs == other.coeffs and self.err_order == other.err_order

    def __repr__(self):
        parts = [scalar_str(c) + ("" if k == 0 else "*E" if k == 1 else f"*E^{k}")
                 for k, c in enumerate(self.coeffs) if c != 0]
        if self.err_order != _INF:
            parts.append(f"O(E^{self.err_order})")
        return " + ".join(parts) if parts else "0"
