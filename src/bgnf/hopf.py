"""From a normal form to a verdict on the Hopf link of axial periodic orbits.

The kernel form restricted to a symplectic coordinate plane is integrable,
so the circular solutions, their amplitudes as functions of the energy, the
orbit frequencies and the frequencies of the linearized flow are all exact
truncated power series in E.  They depend on a few lines of the kernel
form only: A0 and its two partials on each axis and one sigma^n block on
each axis, which ``_line`` reads as integer numerators of the kernel form
and hands to a series unchanged.  The rotation numbers
follow from the scalar winding equation theta' = a + b cos theta: when
the off-diagonal forcing amplitude is dominated (C >= 0) the rotation
number picks up the square root of C; otherwise the linearized flow locks
to the rational winding |m1|/m2.  The product (rho1 - 1)(rho2 - 1) measured
against 1 is the non-resonance criterion.  :func:`analyze` derives nu, the
Omega's and beta once and walks the clause lists of the three main theorems
on them with exact coefficient tests; :func:`theorem_check` returns its
verdict, and says why no consistent input reaches 1.1(iii), 1.2(iv) or (vi).

All series arithmetic is exact and carries an O(E^k) tail; sign decisions
are made on exact leading coefficients, never on floats.  Comparisons of
complex coefficient moduli are done on squared moduli to stay inside the
field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import CC, Field, num_zero, scalar_str, sign
from .poly import COMPLEX, degree, in_resonance_module
from .normalform import NormalFormResult
from .resonance import ResonanceClass, classify
from .series import SeriesE, SeriesError

__all__ = [
    "HopfAnalysis",
    "CaseVerdict",
    "CaseData",
    "BranchData",
    "IndeterminateError",
    "nu_index",
    "omega_coeffs",
    "beta_coeffs",
    "orbit_existence",
    "amplitude_series",
    "frequency_series",
    "case_quantities",
    "rotation_series",
    "twist_product",
    "theorem_check",
    "analyze",
]


class IndeterminateError(ValueError):
    """A sign or branch could not be decided at the configured order."""


# ---------------------------------------------------------------------------
# coefficient functionals
# ---------------------------------------------------------------------------


def _real(c: CC, what: str):
    if not c.is_real():
        raise ValueError(f"{what} is not real: {c!r}")
    return c.re


def _line(nf: NormalFormResult, axis: int, cap: int, n: int = 0,
          slot: int | None = None) -> tuple[SeriesE, SeriesE]:
    """The real and imaginary parts of one radial block restricted to one
    axis, as series through I^cap read from the numerators of ``nf.h_n``.

    The kernel form is H2 + A0 + sum_{n>=1} (sigma^n An + conj), and the
    radial monomial I1^r1 I2^r2 (I_j = |z_j|^2) of An carries the
    coefficient a_e at e = (r1, r2 + n m2, r1 + n|m1|, r2).  Coefficient k
    of the line sits at r = (k, 0) on axis 1 and r = (0, k) on axis 2;
    with ``slot`` it is that of the partial dAn/dI_slot, read one step
    further along I_slot and weighted by the exponent there.  H2 is part
    of no block, and A0 is real on a form that passed :func:`_check_kernel`.
    """
    am1, m2 = (-nf.res.m1, nf.res.m2) if n else (0, 0)
    zero = num_zero(nf.field.d)
    re, im = [], []
    for k in range(cap + 1):
        r = [k, 0] if axis == 1 else [0, k]
        w = 1
        if slot is not None:
            r[slot - 1] += 1
            w = r[slot - 1]
        e = (r[0], r[1] + n * m2, r[0] + n * am1, r[1])
        x, y = nf.h_n.numerators(e, w) if degree(e) >= 3 else (zero, zero)
        re.append(x)
        im.append(y)
    return tuple(SeriesE._from_ints(nf.field, nf.h_n.den, part, cap + 1)
                 for part in (re, im))


def nu_index(nf: NormalFormResult):
    """Smallest 2 <= nu <= floor(N/2) with a nonzero radial/cross coefficient.

    Tested coefficients: a_{nu,0,nu,0}, a_{0,nu,0,nu}, a_{nu-1,1,nu-1,1},
    a_{1,nu-1,1,nu-1}.  Returns None when all vanish through the order.
    """
    if nf.order < 4:
        raise ValueError("nu is defined for normal forms of order >= 4")
    for nu in range(2, nf.order // 2 + 1):
        probes = (
            (nu, 0, nu, 0),
            (0, nu, 0, nu),
            (nu - 1, 1, nu - 1, 1),
            (1, nu - 1, 1, nu - 1),
        )
        if any(not nf.coefficient(e).is_zero() for e in probes):
            return nu
    return None


def omega_coeffs(nf: NormalFormResult, nu: int):
    """(Omega_{nu,1}, Omega_{nu,2}, Omega_nu) as exact field elements."""
    if nu is None:
        raise ValueError("nu is absent; the Omega coefficients are undefined")
    field = nf.field
    a1 = field.coerce(nf.alpha.alpha1)
    a2 = field.coerce(nf.alpha.alpha2)
    a_r1 = _real(nf.coefficient((nu, 0, nu, 0)), "a_{nu,0,nu,0}")
    a_r2 = _real(nf.coefficient((0, nu, 0, nu)), "a_{0,nu,0,nu}")
    a_c1 = _real(nf.coefficient((nu - 1, 1, nu - 1, 1)), "a_{nu-1,1,nu-1,1}")
    a_c2 = _real(nf.coefficient((1, nu - 1, 1, nu - 1)), "a_{1,nu-1,1,nu-1}")
    om1 = a_c1 - nu * a_r1 * (a2 / a1)
    om2 = a_c2 - nu * a_r2 * (a1 / a2)
    om = om1 / (a2 * a1 ** (nu - 1)) + om2 / (a1 * a2 ** (nu - 1))
    return om1, om2, om


def beta_coeffs(nf: NormalFormResult):
    """Second-order twist coefficients (beta1, beta2) for equal frequencies.

    beta1 = 6 (2 a_{2,0,2,0} - a_{1,1,1,1}) a_{2,0,2,0}
            + alpha1 (a_{2,1,2,1} - 3 a_{3,0,3,0}),
    and beta2 with the two axes swapped.  Requires alpha1 = alpha2 and a
    normal form of order >= 6 (it reads degree-6 coefficients).
    """
    if nf.alpha.alpha1 != nf.alpha.alpha2:
        raise ValueError("beta coefficients assume alpha1 = alpha2")
    if nf.order < 6:
        raise ValueError("beta coefficients need a normal form of order >= 6")
    field = nf.field
    a1 = field.coerce(nf.alpha.alpha1)
    a2020 = _real(nf.coefficient((2, 0, 2, 0)), "a_{2,0,2,0}")
    a0202 = _real(nf.coefficient((0, 2, 0, 2)), "a_{0,2,0,2}")
    a1111 = _real(nf.coefficient((1, 1, 1, 1)), "a_{1,1,1,1}")
    a2121 = _real(nf.coefficient((2, 1, 2, 1)), "a_{2,1,2,1}")
    a3030 = _real(nf.coefficient((3, 0, 3, 0)), "a_{3,0,3,0}")
    a1212 = _real(nf.coefficient((1, 2, 1, 2)), "a_{1,2,1,2}")
    a0303 = _real(nf.coefficient((0, 3, 0, 3)), "a_{0,3,0,3}")
    beta1 = 6 * (2 * a2020 - a1111) * a2020 + a1 * (a2121 - 3 * a3030)
    beta2 = 6 * (2 * a0202 - a1111) * a0202 + a1 * (a1212 - 3 * a0303)
    return beta1, beta2


def orbit_existence(nf: NormalFormResult) -> tuple[bool, bool]:
    """(gamma1 exists, gamma2 exists) from the kernel coefficients.

    gamma1 (the axis-1 plane orbit) exists automatically when m2 > 1; for
    m2 = 1 it requires the sigma^1 block to vanish on axis 1, i.e. every
    a_{k1,1,k1+|m1|,0}.  gamma2 exists automatically when |m1| > 1; for
    |m1| = 1 it requires the block to vanish on axis 2, every a_{0,k2+1,1,k2}.
    """
    res = nf.res
    if res.nonresonant:
        return True, True
    am1 = -res.m1
    cap = (nf.order - am1 - res.m2) // 2

    def clear(axis):
        return all(s.known_zero() for s in _line(nf, axis, cap, n=1))

    return res.m2 > 1 or clear(1), am1 > 1 or clear(2)


# ---------------------------------------------------------------------------
# energy series
# ---------------------------------------------------------------------------


def _check_kernel(nf: NormalFormResult) -> None:
    """ValueError unless the form is a real-valued kernel form on the complex chart."""
    if nf.h_n.chart != COMPLEX:
        raise ValueError("the kernel form must be on the complex chart")
    if not nf.h_n.is_real_valued():
        raise ValueError("the kernel form must be real-valued")
    for e in nf.h_n.coeffs:
        if not in_resonance_module(e, nf.res):
            raise ValueError(
                f"monomial {e} is not in ker D for m = {nf.res.label()}")


def amplitude_series(nf: NormalFormResult, axis: int, K: int | None = None) -> SeriesE:
    """Squared amplitude u_j = c_j(E)^2 of the axis-j circular solution.

    Inverts E = (alpha_j/2) u + A0|axis(u) as an exact series; coefficients
    are justified through E^{floor(N/2)}, the default and the cap for K.
    A form off the complex chart, not real-valued or with a monomial
    outside ker D raises ValueError, here and in every public function
    that derives amplitudes.
    """
    cap = nf.order // 2
    K = cap if K is None else K
    if not 1 <= K <= cap:
        raise ValueError(f"amplitude series order K must be in 1..{cap}")
    _check_kernel(nf)
    g1, g2 = orbit_existence(nf)
    if not (g1 if axis == 1 else g2):
        raise ValueError(f"axis-{axis} orbit does not exist for this normal form")
    return _amplitude(nf, axis, K)


def _amplitude(nf: NormalFormResult, axis: int, K: int) -> SeriesE:
    """:func:`amplitude_series` on a checked form, degree by degree.

    u = (2/alpha_j)(E - A0(u)) and A0|axis starts at u^2, so u known to
    O(E^n) gives A0(u), and with it u, to O(E^{n+1}): pass n substitutes
    u truncated at O(E^n) into A0 truncated at u^n.  The error order is
    set explicitly: substitution bounds a zero A0 by the tail of u, one
    order short.
    """
    field, e_series = nf.field, SeriesE.identity(nf.field)
    scale = 2 / field.coerce(nf.alpha.alpha1 if axis == 1 else nf.alpha.alpha2)
    tail, _ = _line(nf, axis, K)
    u = (e_series * scale).truncate(2)
    for n in range(2, K + 1):
        u = (e_series - tail.truncate(n + 1).substitute(u)) * scale
        u = SeriesE._from_ints(field, u.den, u.nums[:n + 1], n + 1)
    return u


def _amplitudes(nf: NormalFormResult):
    """(u1, u2), None where the axis orbit does not exist."""
    exists = orbit_existence(nf)
    if any(exists):
        _check_kernel(nf)
    return tuple(_amplitude(nf, axis, nf.order // 2) if e else None
                 for axis, e in zip((1, 2), exists))


def frequency_series(nf: NormalFormResult, K: int | None = None):
    """(omega1, omega2, hat_omega1, hat_omega2) as series in E.

    omega_j is the frequency of the axis-j orbit; hat_omega_i is the
    frequency of the linearized flow in the transverse complex direction
    along the other axis orbit.  Justified through E^{floor(N/2)-1}.
    """
    return _frequencies(nf, *_amplitudes(nf), K)


def _frequencies(nf: NormalFormResult, u1, u2, K: int | None):
    """:func:`frequency_series` from amplitudes already derived."""
    cap = nf.order // 2 - 1
    K = cap if K is None else K
    if not 0 <= K <= cap:
        raise ValueError(f"frequency series order K must be in 0..{cap}")

    def freq(slot, axis, u):
        # alpha_slot + 2 dA0/dI_slot along the axis orbit, to O(E^{K+1})
        if u is None:
            return None
        alpha = nf.alpha.alpha1 if slot == 1 else nf.alpha.alpha2
        d, _ = _line(nf, axis, K, slot=slot)
        return (SeriesE.constant(alpha, nf.field, K + 1)
                + 2 * d.substitute(u.truncate(K + 1)))

    return freq(1, 1, u1), freq(2, 2, u2), freq(1, 2, u2), freq(2, 1, u1)


# ---------------------------------------------------------------------------
# the C / Delta case analysis
# ---------------------------------------------------------------------------


@dataclass
class BranchData:
    """Winding analysis of one axis orbit."""

    exists: bool
    mode: str                    # "plain" | "unlocked" | "locked" | "indeterminate"
    u: SeriesE | None = None         # squared amplitude of the axis orbit
    omega: SeriesE | None = None     # its frequency
    winding: SeriesE | None = None   # hat_omega/omega
    ratio: object = None         # the resonant winding ratio (field element)
    S: SeriesE | None = None     # hat_omega/omega - ratio
    C: SeriesE | None = None
    Delta: SeriesE | None = None
    sign_S: int = 0
    boundary: bool = False
    reason: str = ""


@dataclass
class CaseData:
    branch1: BranchData
    branch2: BranchData


def _forcing_squared(nf: NormalFormResult, which: int, u: SeriesE,
                     omega: SeriesE) -> SeriesE:
    """(2 c~ / omega)^2 for the selected axis orbit, as an exact series.

    c~_1 = 2 c1^{2|m1|/m2} |A_{2/m2}(c1^2, 0)| along gamma1 (m2 in {1,2});
    c~_2 = 2 c2^{2/|m1|}   |A_{2/|m1|}(0, c2^2)| along gamma2 (|m1| in {1,2}).
    Squared moduli keep everything inside the coefficient field.
    """
    res, am1 = nf.res, -nf.res.m1
    n, power = ((2 // res.m2, 2 * am1 // res.m2) if which == 1
                else (2 // am1, 2 // am1))
    cap = max((nf.order - n * (am1 + res.m2)) // 2, 0)
    re, im = (part.substitute(u) for part in _line(nf, which, cap, n=n))
    # (2 c~ / omega)^2 = 16 u^power |A_n|^2 / omega^2
    return (16 * u ** power * (re * re + im * im)).divide(omega * omega)


def case_quantities(nf: NormalFormResult, K: int | None = None) -> CaseData:
    """Leading data of C1, C2, Delta1, Delta2 and the branch decisions; a
    branch whose axis orbit does not exist has ``exists`` False."""
    field, res = nf.field, nf.res
    u1, u2 = _amplitudes(nf)
    w1, w2, hw1, hw2 = _frequencies(nf, u1, u2, K)

    def make_branch(which: int) -> BranchData:
        u, omega, hat = (u1, w1, hw2) if which == 1 else (u2, w2, hw1)
        if u is None:
            return BranchData(exists=False, mode="plain",
                              reason="orbit does not exist")
        winding = hat.divide(omega)
        if res.nonresonant or (res.m2 if which == 1 else -res.m1) >= 3:
            return BranchData(exists=True, mode="plain", u=u, omega=omega,
                              winding=winding)
        am1 = -res.m1
        if which == 1:
            ratio = field.coerce(Fraction(am1, res.m2))
        else:
            ratio = field.coerce(Fraction(res.m2, am1))
        S = winding - SeriesE.constant(ratio, field)
        Tsq = _forcing_squared(nf, which, u, omega)
        C = S * S - Tsq
        sgn_c = C.leading_sign()
        sgn_s = S.leading_sign()
        data = dict(exists=True, u=u, omega=omega, winding=winding,
                    ratio=ratio, S=S, C=C, sign_S=sgn_s)
        if sgn_c < 0:
            return BranchData(mode="locked", **data)
        if sgn_c == 0:
            if Tsq.known_zero():
                return BranchData(mode="unlocked", **data,
                                  Delta=SeriesE.zero(field, Tsq.err_order))
            return BranchData(mode="locked", **data, boundary=True,
                              reason="|S| = T at this order; treated as locked")
        # C > 0: unlocked, Delta = T^2 / (|S| + sqrt(C))
        if sgn_s == 0:
            return BranchData(mode="indeterminate", **data,
                              reason="C > 0 with undecided sign of "
                                     "hat_omega/omega - |m1|/m2")
        try:
            root = C.sqrt()
        except SeriesError as exc:
            return BranchData(mode="indeterminate", **data,
                              reason=f"sqrt(C) not exact: {exc}")
        abs_S = S if sgn_s > 0 else -S
        if Tsq.known_zero():
            Delta = SeriesE.zero(field, max(Tsq.err_order - 1, 0))
        else:
            Delta = Tsq.divide(abs_S + root)
        return BranchData(mode="unlocked", **data, Delta=Delta)

    return CaseData(branch1=make_branch(1), branch2=make_branch(2))


def _rotation(cases: CaseData, field: Field, K: int | None) -> tuple[SeriesE, SeriesE]:
    """(rho1, rho2) assembled from case data already derived."""

    def assemble(which: int, b: BranchData) -> SeriesE:
        if not b.exists:
            raise ValueError(f"axis-{which} orbit does not exist")
        if b.mode == "indeterminate":
            raise IndeterminateError(
                f"rotation number of gamma{which} undecided: {b.reason}")
        if b.mode == "locked":
            rho = SeriesE(field, [field.one() + b.ratio], b.C.err_order)
        else:
            rho = SeriesE.constant(1, field) + b.winding
        if b.mode == "unlocked":
            rho = rho - b.Delta if b.sign_S > 0 else rho + b.Delta
        return rho if K is None else rho.truncate(K + 1)

    return assemble(1, cases.branch1), assemble(2, cases.branch2)


def _product(r1: SeriesE, r2: SeriesE, field: Field, K: int | None) -> SeriesE:
    one = SeriesE.constant(1, field)
    prod = (r1 - one) * (r2 - one)
    return prod if K is None else prod.truncate(K + 1)


def rotation_series(nf: NormalFormResult, K: int | None = None) -> tuple[SeriesE, SeriesE]:
    """(rho1, rho2) as exact series in E, branch-selected by the case data."""
    return _rotation(case_quantities(nf, K), nf.field, K)


def twist_product(nf: NormalFormResult, K: int | None = None) -> SeriesE:
    """(rho1 - 1)(rho2 - 1) as an exact series in E."""
    return _product(*rotation_series(nf, K), nf.field, K)


# ---------------------------------------------------------------------------
# theorem walk
# ---------------------------------------------------------------------------


@dataclass
class CaseVerdict:
    theorem: str | None          # "1.1" | "1.2" | "1.3" | "C" | None
    clause: str | None           # "i".."vi"
    satisfied: bool
    hypothesis_trace: list[str]
    predicted_leading: tuple | None = None   # (exponent, coefficient)

    def describe(self) -> str:
        if self.satisfied:
            lead = ""
            if self.predicted_leading is not None:
                k, c = self.predicted_leading
                lead = (f"; twist product = 1 + ({scalar_str(c)}) E^{k} "
                        f"+ O(E^{k + 1})")
            return f"Theorem {self.theorem}({self.clause}) applies{lead}"
        return "Inconclusive: " + (self.hypothesis_trace[-1]
                                   if self.hypothesis_trace else "no data")


def theorem_check(nf: NormalFormResult, symmetry: dict | None = None) -> CaseVerdict:
    """The clause lists of the three main theorems walked in order: the
    verdict of :func:`analyze`, after its kernel-form check and checked
    against the computed twist product.

    ``symmetry`` carries externally established facts: ``plane_z2`` /
    ``plane_z1`` (the corresponding coordinate plane is invariant for the
    full Hamiltonian) and ``zp`` (the diagonal Z_p rotation symmetry, with
    the analysis run on the Psi-conjugated normal form).  Exact coefficient
    conditions are tested clause by clause; the first satisfied clause wins
    and carries the predicted leading twist term.  1.1(iii) has no path, as
    m2 = 2 makes |m1| odd; 1.2(iv) and (vi) need a_{0,1,2,0} != 0, of degree
    1 in (z2, zbar2), so only a hand-supplied plane_z2 fact reaches them,
    never one derived by ``check_plane_invariance``.
    """
    return analyze(nf, symmetry).verdict


def _walk(nf: NormalFormResult, symmetry: dict | None, nu: int | None,
          omegas: tuple, betas: tuple) -> CaseVerdict:
    """:func:`theorem_check` on nu, the Omega's and beta already derived."""
    symmetry = {**(symmetry or {}), **nf.symmetry}
    trace: list[str] = []
    field = nf.field
    cls = classify(nf.res)
    if nu is None:
        trace.append("nu index absent: all radial/cross coefficients vanish "
                     f"through order {nf.order} (resonant Hopf link)")
        return CaseVerdict(None, None, False, trace)
    om1, om2, om = omegas
    a1 = field.coerce(nf.alpha.alpha1)
    a2 = field.coerce(nf.alpha.alpha2)
    am1 = None if nf.res.nonresonant else -nf.res.m1
    m2 = None if nf.res.nonresonant else nf.res.m2
    lead_omega = (nu - 1, field.coerce(2 ** nu) * om)

    if cls in (ResonanceClass.NONRESONANT, ResonanceClass.WEAKLY_NONRESONANT):
        trace.append(f"weakly non-resonant (m = {nf.res.label()}): Theorem 1.1")
        if nf.res.nonresonant or m2 > 2:
            trace.append(f"(i) m2 > 2; Omega_nu {'!=' if sign(om) else '=='} 0")
            if sign(om):
                return CaseVerdict("1.1", "i", True, trace, lead_omega)
            return CaseVerdict("1.1", None, False, trace)
        # m2 == 2 makes |m1| odd (gcd 1), so (iii), |m1| = 2(nu-1), cannot occur
        if am1 > 2 * (nu - 1):
            trace.append("(ii) m2 = 2, |m1| > 2(nu-1)")
            if sign(om1) and sign(om):
                return CaseVerdict("1.1", "ii", True, trace, lead_omega)
            trace.append("Omega_{nu,1} or Omega_nu vanishes")
            return CaseVerdict("1.1", None, False, trace)
        trace.append("(iv) m2 = 2, |m1| < 2(nu-1)")
        if sign(om2) and not nf.coefficient((0, 2, am1, 0)).is_zero():
            coeff = (field.coerce(Fraction(am1, 2))
                     * (field.coerce(2) / a2) ** nu * om2)
            return CaseVerdict("1.1", "iv", True, trace, (nu - 1, coeff))
        trace.append("needs Omega_{nu,2} != 0 and a_{0,2,|m1|,0} != 0")
        return CaseVerdict("1.1", None, False, trace)

    if cls == ResonanceClass.NONTRIVIAL_MULTIPLE:
        trace.append(f"alpha2 a nontrivial multiple of alpha1 "
                     f"(m = {nf.res.label()}): Theorem 1.2")
        if not symmetry.get("plane_z2"):
            trace.append("hypothesis failed: invariance of the (y1,x1) plane "
                         "(partial derivatives in the second pair vanishing "
                         "on it) was not established")
            return CaseVerdict("1.2", None, False, trace)
        a0220 = nf.coefficient((0, 2, 2 * am1, 0))
        a0120 = nf.coefficient((0, 1, 2, 0))
        if am1 > 2:
            if am1 > nu - 1:
                trace.append("(i) |m1| > 2, |m1| > nu - 1")
                if sign(om1) and sign(om):
                    return CaseVerdict("1.2", "i", True, trace, lead_omega)
                trace.append("Omega_{nu,1} or Omega_nu vanishes")
                return CaseVerdict("1.2", None, False, trace)
            if am1 == nu - 1:
                trace.append("(ii) |m1| > 2, |m1| = nu - 1")
                if sign(om1) and sign(om) and a0220.is_zero():
                    return CaseVerdict("1.2", "ii", True, trace, lead_omega)
                trace.append("needs Omega_{nu,1}, Omega_nu != 0 and "
                             "a_{0,2,2|m1|,0} = 0")
                return CaseVerdict("1.2", None, False, trace)
            trace.append("(iii) |m1| > 2, |m1| < nu - 1")
            if sign(om2) and not a0220.is_zero():
                coeff = (field.coerce(am1) * (field.coerce(2) / a2) ** nu * om2)
                return CaseVerdict("1.2", "iii", True, trace, (nu - 1, coeff))
            trace.append("needs Omega_{nu,2} != 0 and a_{0,2,2|m1|,0} != 0")
            return CaseVerdict("1.2", None, False, trace)
        # |m1| == 2
        if nu == 2:
            if sign(om1) and not a0120.is_zero():
                trace.append("(iv) |m1| = 2, nu = 2, Omega_{2,1} != 0, "
                             "a_{0,1,2,0} != 0")
                coeff = field.coerce(2) / (a1 * a1) * om1
                return CaseVerdict("1.2", "iv", True, trace, (1, coeff))
            if sign(om1) and sign(om):
                # a_{0,1,2,0} = 0 here: clause (iv) returned on it above
                trace.append("(v) |m1| = 2, nu = 2, Omega_{2,1}, Omega_2 != 0")
                return CaseVerdict("1.2", "v", True, trace,
                                   (1, field.coerce(4) * om))
            trace.append("clauses (iv)/(v) need Omega_{2,1} != 0 and "
                         "a_{0,1,2,0} != 0 or Omega_2 != 0")
            return CaseVerdict("1.2", None, False, trace)
        if nu == 3:
            a0240 = nf.coefficient((0, 2, 4, 0))
            trace.append("(vi) |m1| = 2, nu = 3")
            if sign(om1) and not a0120.is_zero() and a0240.is_zero():
                coeff = field.coerce(4) / (a1 ** 3) * om1
                return CaseVerdict("1.2", "vi", True, trace, (2, coeff))
            trace.append("needs Omega_{3,1}, a_{0,1,2,0} != 0 and "
                         "a_{0,2,4,0} = 0")
            return CaseVerdict("1.2", None, False, trace)
        trace.append(f"|m1| = 2 with nu = {nu} matches no clause")
        return CaseVerdict("1.2", None, False, trace)

    # equal frequencies
    zp = symmetry.get("zp")
    label = "1.3" if zp else "C"
    if zp:
        trace.append(f"equal frequencies with Z_{zp} symmetry: Theorem 1.3 "
                     "(analysis on the Psi-conjugated normal form)")
    elif symmetry.get("plane_z1") and symmetry.get("plane_z2"):
        trace.append("equal frequencies with both coordinate planes "
                     "invariant: plane-symmetric analogue of Theorem 1.3")
    else:
        trace.append("hypothesis failed: equal frequencies need either a "
                     "Z_p symmetry (p >= 3) or invariance of both "
                     "coordinate planes")
        return CaseVerdict(None, None, False, trace)
    if nu != 2:
        trace.append(f"nu = {nu} != 2 matches no clause of Theorem 1.3")
        return CaseVerdict(label, None, False, trace)
    if not nf.coefficient((0, 2, 2, 0)).is_zero():
        trace.append("a_{0,2,2,0} != 0: neither clause applies")
        return CaseVerdict(label, None, False, trace)
    if sign(om):
        trace.append("(i) nu = 2, Omega_2 != 0, a_{0,2,2,0} = 0")
        return CaseVerdict(label, "i", True, trace, (1, field.coerce(4) * om))
    trace.append("Omega_2 = 0; testing clause (ii)")
    if nf.order < 6:
        trace.append("clause (ii) needs a normal form of order >= 6")
        return CaseVerdict(label, None, False, trace)
    # Omega_2 = (Omega_{2,1} + Omega_{2,2}) / alpha^2 = 0: om1 = -om2 already
    if sign(om1):
        combo = sum(betas) + 2 * om1 * om2
        if sign(combo):
            trace.append("(ii) Omega_{2,1} = -Omega_{2,2} != 0, "
                         "beta1 + beta2 + 2 Omega_{2,1} Omega_{2,2} != 0")
            coeff = field.coerce(8) / (a1 ** 4) * combo
            return CaseVerdict(label, "ii", True, trace, (2, coeff))
        trace.append("beta1 + beta2 + 2 Omega_{2,1} Omega_{2,2} = 0")
        return CaseVerdict(label, None, False, trace)
    trace.append("clause (ii) needs Omega_{2,1} = -Omega_{2,2} != 0")
    return CaseVerdict(label, None, False, trace)


# ---------------------------------------------------------------------------
# assembled analysis
# ---------------------------------------------------------------------------


@dataclass
class HopfAnalysis:
    """Everything the decision procedure produced for one normal form."""

    nf: NormalFormResult
    nu: int | None
    omega_nu1: object | None
    omega_nu2: object | None
    omega_nu: object | None
    beta1: object | None
    beta2: object | None
    exists_gamma1: bool
    exists_gamma2: bool
    cases: CaseData              # both branches, an absent orbit's too
    rho1: SeriesE | None
    rho2: SeriesE | None
    product: SeriesE | None
    verdict: CaseVerdict
    series_order: int


def analyze(nf: NormalFormResult, symmetry: dict | None = None,
            K: int | None = None) -> HopfAnalysis:
    """Run the full decision pipeline on a normal form of order N >= 4; K
    defaults to its cap.  nu, the Omega's, beta and :func:`case_quantities`
    are derived once; the branches say which axis orbits exist: rho1, rho2
    and the product need both, neither indeterminate.  N < 4 raises
    ValueError before any series work.
    """
    nu = nu_index(nf)
    cap = nf.order // 2 - 1
    if K is None:
        K = cap
    elif not 0 <= K <= cap:
        raise ValueError(f"series order K must be in 0..{cap} for "
                         f"N = {nf.order}, got {K}")
    om1 = om2 = om = None
    if nu is not None:
        om1, om2, om = omega_coeffs(nf, nu)
    b1 = b2 = None
    if nf.order >= 6 and nf.alpha.alpha1 == nf.alpha.alpha2:
        b1, b2 = beta_coeffs(nf)
    cases = case_quantities(nf, K)
    g1, g2 = cases.branch1.exists, cases.branch2.exists
    rho1 = rho2 = product = None
    if g1 and g2:
        try:
            rho1, rho2 = _rotation(cases, nf.field, K)
            product = _product(rho1, rho2, nf.field, K)
        except IndeterminateError:
            pass
    verdict = _walk(nf, symmetry, nu, (om1, om2, om), (b1, b2))
    if verdict.satisfied and product is not None and verdict.predicted_leading:
        k, c = verdict.predicted_leading
        got = product.coefficient(k) if k < product.err_order else None
        if got is not None and got != c:
            raise AssertionError(
                f"clause prediction E^{k} coefficient {c} disagrees with the "
                f"computed twist product coefficient {got}"
            )
    return HopfAnalysis(
        nf=nf, nu=nu, omega_nu1=om1, omega_nu2=om2, omega_nu=om,
        beta1=b1, beta2=b2, exists_gamma1=g1, exists_gamma2=g2,
        cases=cases, rho1=rho1, rho2=rho2, product=product,
        verdict=verdict, series_order=K,
    )
