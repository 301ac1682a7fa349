"""The worked model systems: exact truncations, fast numerics, metadata.

Each bundle carries an exact polynomial truncation of the Hamiltonian (the
symbolic pipeline's input), a fast evaluable closed form, its value and
jet (the numeric pipeline's input), its symmetry metadata, the
physical-parameter-to-energy maps, and the route through the analysis
(Z_p-symmetric equal-frequency models are normalized first and then
conjugated by the axis-mixing map Psi, which separates the two axial orbits
into coordinate planes).

Every bundle, a built-in model or an input file, comes from
:func:`from_polynomial`: the frequencies, the resonance, the invariances,
the reversors, the route and the compiled flow are derived from its
polynomial by exact checkers on their first read, never declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .scalars import CC, RATIONAL, quad_field, square_free_core, sqrt_in_field
from .poly import COMPLEX, REAL, Polynomial, to_real
from .resonance import Frequencies, ResonanceData, resonance_pair
from .normalform import (
    NormalFormResult,
    check_plane_invariance,
    diagonal_reversors,
    normalize,
    psi_conjugate,
    zp_phase_gcd,
)
from . import hopf
from .numeric import EvaluableHamiltonian, PolynomialHamiltonian

__all__ = ["ModelBundle", "from_polynomial", "henon_heiles",
           "hill_regularized", "isosceles", "quadratic", "MODEL_BUILDERS"]

_SQRT2 = math.sqrt(2.0)
# Psi(y1,y2,x1,x2) = 2^{-1/2}(y1+y2, x1-x2, x1+x2, y2-y1) as integer rows
# times sqrt 2: the seed's map, and Psi e_k is supported on the rows whose
# entry k is nonzero
_PSI_ROWS = ((1, 1, 0, 0), (0, 0, 1, -1), (0, 0, 1, 1), (-1, 1, 0, 0))


@dataclass
class ModelBundle:
    """One Hamiltonian system wired for both pipelines.  ``poly`` is the one
    source of alpha, the resonance, the symmetry facts, the reversors and the
    compiled flow: each is derived on its first read, so a verb derives only
    what it reads."""

    name: str
    poly: Polynomial               # exact real-chart truncation, real-valued
    closed_form: EvaluableHamiltonian | None = None  # a flow other than poly's
    energy_maps: dict = dc_field(default_factory=dict)
    averaged_form: NormalFormResult | None = None
    _nf_cache: dict = dc_field(default_factory=dict)
    _an_cache: dict = dc_field(default_factory=dict)
    _seed_cache: dict = dc_field(default_factory=dict)

    @cached_property
    def alpha(self) -> Frequencies:
        """The frequencies, twice the diagonal quadratic coefficients; a
        polynomial without that diagonal part raises ValueError."""
        a1 = self.poly.coefficient((2, 0, 0, 0))
        a2 = self.poly.coefficient((0, 2, 0, 0))
        if a1.is_zero() or a2.is_zero():
            raise ValueError(
                "polynomial has no diagonal quadratic part; supply a "
                "Hamiltonian of the form alpha1/2 (y1^2+x1^2) + ...")
        return Frequencies(a1.re + a1.re, a2.re + a2.re)

    @cached_property
    def res(self) -> ResonanceData:
        return resonance_pair(tuple(self.alpha))

    @cached_property
    def symmetry(self) -> dict:
        """The analysis facts: the invariant planes plane_z1 and plane_z2,
        and zp = p for the rotation-phase gcd g = p >= 3, or 4 for g = 0
        (every rotation); Z_p forces alpha1 = alpha2 and the Psi route."""
        symmetry = {"plane_z1": check_plane_invariance(self.poly, "z1"),
                    "plane_z2": check_plane_invariance(self.poly, "z2")}
        g = zp_phase_gcd(self.poly)
        if g == 0 or g >= 3:
            symmetry["zp"] = g or 4
        return symmetry

    @cached_property
    def reversors(self) -> tuple:
        """The diagonal reversors of ``poly``, sign 4-tuples; none with a
        closed-form flow, which is not ``poly``'s (its orbits are shot over
        a full period).  They stay out of ``symmetry``, the analysis facts."""
        return () if self.closed_form else diagonal_reversors(self.poly)

    @cached_property
    def hamiltonian(self) -> EvaluableHamiltonian:
        """The flow: the closed form, or else ``poly`` compiled."""
        return self.closed_form or PolynomialHamiltonian(self.poly, self.name)

    @property
    def route(self) -> str:
        """The analysis route: "psi" when Z_p-symmetric, else "direct"."""
        return "psi" if "zp" in self.symmetry else "direct"

    # -- symbolic pipeline ---------------------------------------------------

    def polynomial(self, order: int | None = None) -> Polynomial:
        if order is None or order == self.poly.order:
            return self.poly
        if order > self.poly.order:
            raise ValueError(
                f"model {self.name} carries Taylor data to order "
                f"{self.poly.order} only"
            )
        return self.poly.truncate(order)

    def normal_form(self, order: int | None = None) -> NormalFormResult:
        order = order or self.poly.order
        if order not in self._nf_cache:
            self._nf_cache[order] = normalize(self.polynomial(order), order,
                                              self.alpha, self.res)
        return self._nf_cache[order]

    def analysis_form(self, order: int | None = None) -> tuple[NormalFormResult, dict]:
        """The normal form the decision procedure runs on, plus symmetry facts."""
        order = order or self.poly.order
        nf = self.normal_form(order)
        if self.route == "psi":
            return _psi_conjugated_result(nf), {"zp": self.symmetry["zp"]}
        return nf, dict(self.symmetry)

    def analysis(self, order: int | None = None,
                 series_order: int | None = None) -> hopf.HopfAnalysis:
        order = order or self.poly.order
        key = (order, series_order)
        if key not in self._an_cache:
            nf, facts = self.analysis_form(order)
            self._an_cache[key] = hopf.analyze(nf, facts, series_order)
        return self._an_cache[key]

    # -- numeric pipeline ------------------------------------------------------

    def symmetric_seed(self, axis: int) -> tuple[int, tuple]:
        """(k, reversors): the axis seed is the normal-form circle point
        c e_k, and its orbit is shot along the reversor chain ``reversors``
        (:func:`~bgnf.numeric.find_periodic_orbit`).

        The chain starts with a diagonal reversor R that fixes the seed's
        image.  The transform commutes with every diagonal reversor of
        ``poly`` by construction (each G_s is odd under R), so the image
        lies in Fix(R) when the point does: when R is +1 on its support
        (read through Psi on the psi route), an exact check.  k is x_axis,
        or y_axis a quarter turn on, whichever such an R serves first.  A
        reversor R2 other than R that fixes the image of the quarter-turn
        point c e_(k+-2) comes second: R R2 is then -I on the axis plane,
        and the orbit is shot over a quarter period, from Fix(R) to
        Fix(R2).  With R alone it is shot over half a period; with no R the
        seed is x_axis, the chain is () and the orbit is shot over a full
        period.
        """
        if axis not in self._seed_cache:
            fixing = {k: [r for r in self.reversors
                          if all(r[i] == 1 for i in self._support(k))]
                      for k in (axis + 1, axis - 1)}
            k, chain = next(((k, rs[:1]) for k, rs in fixing.items() if rs),
                            (axis + 1, []))
            # k +- 2 is the other of the two candidates for k
            chain += [r for r in fixing[2 * axis - k] if r not in chain][:1]
            self._seed_cache[axis] = (k, tuple(chain))
        return self._seed_cache[axis]

    def _support(self, k: int) -> list[int]:
        """The coordinates the seed c e_k occupies before the transform."""
        if self.route == "psi":
            return [i for i in range(4) if _PSI_ROWS[i][k]]
        return [k]

    def seed_orbit(self, energy: float, axis: int):
        """(initial point, period guess) for the axis orbit at ``energy``.

        The circle point c e_k of :meth:`symmetric_seed` is mapped through
        the coordinate change (and through Psi first, on the psi route).
        The amplitude and frequency series are those of the axis branch in
        ``analysis().cases``.  A missing axis orbit, an amplitude that is
        not finite and positive at ``energy``, or a frequency that is not
        finite and nonzero raises ValueError, and so do a coordinate
        transform that overflows a float at the seed and a seed w off the
        energy surface: |H(w) - E| not finite or above E.
        """
        cases = self.analysis().cases
        branch = cases.branch1 if axis == 1 else cases.branch2
        if not branch.exists:
            raise ValueError(f"axis-{axis} orbit does not exist for this "
                             "normal form")
        u, omega = branch.u, branch.omega
        try:
            u, omega = u.eval_float(energy), omega.eval_float(energy)
        except OverflowError:
            raise ValueError("amplitude or frequency series overflows a "
                             "float") from None
        if not 0 < u < math.inf:
            raise ValueError(f"amplitude series is {u!r}, not finite and "
                             "positive")
        if not 0 < abs(omega) < math.inf:
            raise ValueError(f"frequency series is {omega!r}, not finite "
                             "and nonzero")
        pt = [0.0] * 4
        pt[self.symmetric_seed(axis)[0]] = math.sqrt(u)
        if self.route == "psi":
            pt = [sum(a * x for a, x in zip(row, pt)) / _SQRT2
                  for row in _PSI_ROWS]
        try:
            w = [z.real for z in self.normal_form().transform.evaluate(pt)]
        except OverflowError:
            raise ValueError("the coordinate transform overflows a float at "
                             "the seed") from None
        drift = abs(self.hamiltonian.value(w) - energy)
        if not drift <= energy:
            raise ValueError(f"the seed is off the energy surface: "
                             f"|H(seed) - E| = {drift:.3g} is not within "
                             f"E = {energy!r}")
        period = 2.0 * math.pi / abs(omega)
        return np.array(w), period


def _psi_conjugated_result(nf: NormalFormResult) -> NormalFormResult:
    """Conjugate a normal form by Psi for the decision procedure.

    The result carries no transform: the decision procedure never reads one,
    and ``seed_orbit`` applies Psi and then the unconjugated ``nf.transform``.
    """
    hc = psi_conjugate(nf.h_n)
    return NormalFormResult(
        h_n=hc,
        generators=nf.generators,
        alpha=nf.alpha,
        res=nf.res,
        order=nf.order,
        gauge=nf.gauge + "+psi",
    )


def from_polynomial(poly: Polynomial, name: str = "polynomial",
                    closed_form: EvaluableHamiltonian | None = None,
                    energy_maps: dict | None = None,
                    averaged_form: NormalFormResult | None = None
                    ) -> ModelBundle:
    """The bundle of ``poly``, moved to the real chart.  A coefficient that
    is not real, decided exactly, raises ValueError, and so does a
    polynomial without the diagonal quadratic part (alpha is read here)."""
    if poly.chart == COMPLEX:
        poly = to_real(poly)
    if poly.im:
        raise ValueError("numeric path needs real coefficients")
    bundle = ModelBundle(name=name, poly=poly, closed_form=closed_form,
                         energy_maps=energy_maps or {},
                         averaged_form=averaged_form)
    bundle.alpha
    return bundle


# ---------------------------------------------------------------------------
# Henon-Heiles
# ---------------------------------------------------------------------------


def henon_heiles(order: int = 6) -> ModelBundle:
    """H = (y1^2+x1^2)/2 + (y2^2+x2^2)/2 + x1^2 x2 - x2^3/3."""
    terms = {
        (2, 0, 0, 0): CC(Fraction(1, 2)), (0, 2, 0, 0): CC(Fraction(1, 2)),
        (0, 0, 2, 0): CC(Fraction(1, 2)), (0, 0, 0, 2): CC(Fraction(1, 2)),
        (0, 0, 2, 1): CC(Fraction(1)), (0, 0, 0, 3): CC(Fraction(-1, 3)),
    }
    return from_polynomial(Polynomial(REAL, RATIONAL, order, terms),
                           "henon-heiles")


# ---------------------------------------------------------------------------
# Hill's lunar problem, regularized
# ---------------------------------------------------------------------------


def _hill_averaged_form() -> NormalFormResult:
    """The order-6 normal form of the regularized lunar problem in the
    rotated coordinates separating the direct and retrograde orbits
    (the generating-function-plus-averaging gauge)."""
    f = Fraction
    terms = {
        (1, 0, 1, 0): CC(f(1, 2)), (0, 1, 0, 1): CC(f(1, 2)),
        (2, 0, 2, 0): CC(f(-1, 2)), (0, 2, 0, 2): CC(f(1, 2)),
        (3, 0, 3, 0): CC(f(-3, 8)), (0, 3, 0, 3): CC(f(-3, 8)),
        (2, 1, 2, 1): CC(f(-7, 8)), (1, 2, 1, 2): CC(f(-7, 8)),
        (1, 2, 3, 0): CC(f(-15, 8)), (3, 0, 1, 2): CC(f(-15, 8)),
        (0, 3, 2, 1): CC(f(-15, 8)), (2, 1, 0, 3): CC(f(-15, 8)),
    }
    h6 = Polynomial(COMPLEX, RATIONAL, 6, terms)
    return NormalFormResult(
        h_n=h6,
        generators=[],
        alpha=Frequencies(Fraction(1), Fraction(1)),
        res=ResonanceData(-1, 1),
        order=6,
        gauge="averaged",
        symmetry={"zp": 4},
    )


def hill_regularized(order: int = 6) -> ModelBundle:
    """Levi-Civita-regularized lunar problem, exact degree-6 polynomial.

    H = |y|^2/2 + |x|^2/2 + 2|x|^2 (y1 x2 - y2 x1) - 4|x|^6 + 24|x|^2 x1^2 x2^2.
    The physical chart (rotating Kepler + tide, with the 3/|q| singularity)
    enters only through the energy map: the dynamics at energy E here
    corresponds to Jacobi constant c_H with E = (3/2) |c_H|^{-3/2}.
    """
    if order < 6:
        raise ValueError("the regularized Hamiltonian is a degree-6 polynomial")
    f = Fraction
    terms = {
        (2, 0, 0, 0): CC(f(1, 2)), (0, 2, 0, 0): CC(f(1, 2)),
        (0, 0, 2, 0): CC(f(1, 2)), (0, 0, 0, 2): CC(f(1, 2)),
        (1, 0, 2, 1): CC(f(2)), (1, 0, 0, 3): CC(f(2)),
        (0, 1, 3, 0): CC(f(-2)), (0, 1, 1, 2): CC(f(-2)),
        (0, 0, 6, 0): CC(f(-4)), (0, 0, 4, 2): CC(f(12)),
        (0, 0, 2, 4): CC(f(12)), (0, 0, 0, 6): CC(f(-4)),
    }
    poly = Polynomial(REAL, RATIONAL, order, terms)

    def jacobi_from_energy(e):
        c = (3.0 / (2.0 ** 2.5 * e)) ** (2.0 / 3.0)
        return -2.0 * c

    def energy_from_jacobi(c_h):
        return 1.5 * abs(c_h) ** -1.5

    return from_polynomial(
        poly, "hill",
        energy_maps={"jacobi_from_energy": jacobi_from_energy,
                     "energy_from_jacobi": energy_from_jacobi},
        averaged_form=_hill_averaged_form())


# ---------------------------------------------------------------------------
# spatial isosceles three-body problem
# ---------------------------------------------------------------------------


def _binom_neg(k: int, i: int) -> Fraction:
    """Binomial coefficient C(-k, i) for integer k >= 1."""
    return Fraction((-1) ** i) * math.comb(k + i - 1, i)


def _binom_half(j: int) -> Fraction:
    """Binomial coefficient C(-1/2, j)."""
    return Fraction((-1) ** j) * Fraction(math.comb(2 * j, j), 4 ** j)


def isosceles(alpha, varpi=1, order: int = 4) -> ModelBundle:
    """Reduced spatial isosceles three-body Hamiltonian near its minimum.

    ``alpha`` is the mass ratio (>= 0) and ``varpi`` the angular momentum
    (> 0), both rational.  The exact coefficient field is Q(sqrt(d)) with
    d = (4+8 alpha)(4+alpha); sqrt(varpi) must lie in that field (varpi a
    rational square, or a rational square times the square-free core of d),
    otherwise the odd-degree Taylor coefficients leave the quadratic
    extension.  Frequencies are alpha1 = 2, alpha2 = 2 sqrt((4+8a)/(4+a));
    the energy parameter corresponds to varpi * eccentricity^2.
    """
    a = Fraction(alpha)
    w = Fraction(varpi)
    if a < 0 or w <= 0:
        raise ValueError("need alpha >= 0 and varpi > 0")
    if order < 4:
        raise ValueError("carry the expansion at least to order 4")
    d_num = (4 + 8 * a) * (4 + a)
    # numerator and denominator are coprime, so their cores multiply
    core = (square_free_core(d_num.numerator)
            * square_free_core(d_num.denominator))
    field = RATIONAL if core == 1 else quad_field(core)
    rt_w = sqrt_in_field(w, field)
    if rt_w is None:
        named = "Q" if core == 1 else f"Q(sqrt({core}))"
        raise ValueError(
            f"sqrt(varpi) does not lie in the coefficient field {named};"
            " choose varpi = r^2 or r^2 * the square-free core"
        )
    lam = 2 * sqrt_in_field((1 + 2 * a) / (4 + a), field)   # alpha2 = 2 lam
    g = sqrt_in_field((4 + a) * (1 + 2 * a), field) / 2

    inv_w = {1: 1 / rt_w}       # rt_w^-m as running products
    for m in range(2, 2 * order + 6):
        inv_w[m] = inv_w[m - 1] * inv_w[1]

    def add(terms, e, val):
        if val == 0:
            return
        cur = terms.get(e)
        terms[e] = val if cur is None else cur + val

    terms: dict = {}
    add(terms, (2, 0, 0, 0), field.one())
    add(terms, (0, 2, 0, 0), lam)
    # V = w + w^2 (x1+rw)^-2 - A (x1+rw)^-1 - B [(x1+rw)^2 + g x2^2]^(-1/2)
    A = 2 * a * (rt_w ** 3) / (4 + a)
    B = 8 * (rt_w ** 3) / (4 + a)
    add(terms, (0, 0, 0, 0), field.coerce(w))
    for i in range(0, order + 1):
        # w^2 * C(-2,i) w^{(-2-i)/2} x1^i  and  -A * C(-1,i) w^{(-1-i)/2} x1^i
        c2 = field.coerce(w * w) * field.coerce(_binom_neg(2, i)) * inv_w[i + 2]
        c1 = -A * field.coerce(_binom_neg(1, i)) * inv_w[i + 1]
        add(terms, (0, 0, i, 0), c2 + c1)
    for j in range(0, order // 2 + 1):
        pref = -B * field.coerce(_binom_half(j)) * (g ** j)
        k = 2 * j + 1
        for i in range(0, order - 2 * j + 1):
            coeff = pref * field.coerce(_binom_neg(k, i)) * inv_w[i + k]
            add(terms, (0, 0, i, 2 * j), coeff)
    for e in ((0, 0, 0, 0), (0, 0, 1, 0)):
        if e in terms and terms[e] != 0:
            raise AssertionError("expansion should have no constant/linear part")
        terms.pop(e, None)
    poly = Polynomial(REAL, field, order, {e: CC(c) for e, c in terms.items()})

    af = float(a)
    wf = float(w)
    lam_f = float(lam)
    g_f = float(g)
    A_f = float(A)
    B_f = float(B)
    rw_f = math.sqrt(wf)

    def value(wvec):
        y1, y2, x1, x2 = (float(wvec[0]), float(wvec[1]),
                          float(wvec[2]), float(wvec[3]))
        u = x1 + rw_f
        S = u * u + g_f * x2 * x2
        return (y1 * y1 + lam_f * y2 * y2 + wf + wf * wf / (u * u)
                - A_f / u - B_f / math.sqrt(S))

    def jet(wvec):
        y1, y2, x1, x2 = (float(wvec[0]), float(wvec[1]),
                          float(wvec[2]), float(wvec[3]))
        u = x1 + rw_f
        S = u * u + g_f * x2 * x2
        S32 = S ** 1.5
        S52 = S ** 2.5
        return (2.0 * y1, 2.0 * lam_f * y2,
                -2.0 * wf * wf / u ** 3 + A_f / (u * u) + B_f * u / S32,
                B_f * g_f * x2 / S32,
                2.0, 0.0, 0.0, 0.0, 2.0 * lam_f, 0.0, 0.0,
                6.0 * wf * wf / u ** 4 - 2.0 * A_f / u ** 3
                + B_f * (1.0 / S32 - 3.0 * u * u / S52),
                -3.0 * B_f * u * g_f * x2 / S52,
                B_f * (g_f / S32 - 3.0 * g_f * g_f * x2 * x2 / S52))

    def eccentricity(alpha_val=af, varpi_val=wf):
        if alpha_val <= 0:
            raise ValueError("eccentricity map needs alpha > 0")
        val = 1.0 - 2.0 * varpi_val ** 2 / (1.0 + 4.0 / alpha_val) ** 2
        return math.sqrt(val)

    return from_polynomial(
        poly, "isosceles",
        closed_form=EvaluableHamiltonian(value, jet, "isosceles"),
        energy_maps={"energy_from_eccentricity": lambda e: wf * e * e,
                     "eccentricity": eccentricity})


# ---------------------------------------------------------------------------
# quadratic control
# ---------------------------------------------------------------------------


def quadratic(alpha1=1, alpha2=1, order: int = 6) -> ModelBundle:
    """Pure H2 control model: everything downstream degenerates predictably."""
    freqs = Frequencies(Fraction(alpha1), Fraction(alpha2))
    return from_polynomial(
        Polynomial.quadratic_h2(tuple(freqs), REAL, RATIONAL, order),
        "quadratic")


MODEL_BUILDERS = {
    "henon-heiles": henon_heiles,
    "hill": hill_regularized,
    "isosceles": isosceles,
    "quadratic": quadratic,
}
