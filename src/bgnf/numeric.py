"""Numerical cross-validation: flows, periodic orbits, rotation numbers.

The symbolic side of the package predicts rotation numbers as series in the
energy; this module measures them on the actual flow.  The frame is the
fixed quaternion trivialization built from the gradient (V_k = A_k V0), the
winding angle solves the projected-Hessian equation

    theta' = (V3, L V3) + (cos, sin) [[ (V1,L V1), (V1,L V2) ],
                                      [ (V2,L V1), (V2,L V2) ]] (cos, sin)^T

along the orbit, and the rotation number is T * theta(t) / (2 pi t).  That
equation is the angle equation of the linearized flow on (V1, V2), so one
period of it is the circle map of the reduced monodromy P.  Iterating the
lift F of that map in numpy bounds the rotation number from both sides: it
lies between the least and the greatest (F^n(theta) - theta)/(2 pi n) over
the starting angles (Poincare; Katok-Hasselblatt, ch. 11).  One run over
one period from an anchor angle fixes the branch of F.  When P is cleanly
elliptic the exact value is an integer winding plus or minus the elliptic
phase, and when it is cleanly hyperbolic a half-integer; the first bracket
over n = 1, 2, 4, ... periods that holds one candidate picks it, so the
error is the tolerance of P, not a 1/t tail.  Near-parabolic P, or a
bracket still ambiguous after 2^horizon periods, reports its midpoint.

Integration is adaptive high-order, Hairer's DOP853 (Hairer, Norsett and
Wanner, Solving ODEs I, II.10).  The variational runs, the flow with its
state-transition matrix behind every Newton step and every monodromy, step
on scipy's Fortran DOP853 through one shared stepper per tolerance.  Their
right-hand side reads the gradient and the Hessian in one
``EvaluableHamiltonian.jet`` call and writes dM = J L M out as 16 sums of
Python floats, free of numpy's per-call overhead and of the BLAS kernel's
rounding.  ``jet`` is a Hamiltonian's one derivative callable: the winding
equation, the orbit-coincidence check, Newton's energy row and the reduced
monodromy read the same jet.  The other runs keep ``solve_ivp``'s DOP853:
the orbit-coincidence check needs its events, the scalar winding rates are
acceptance criterion 7's oracle at its pinned tolerance, and the benchmark
counts the winding anchor run's right-hand-side evaluations through
``solve_ivp``.  Orbits are located by Newton shooting, over T / 2^n for an
orbit whose symmetry is a chain of n diagonal reversors (anti-symplectic
sign flips with H o R = H).  With no reversor it is shot over T on a
section transverse to the seed velocity, solving for three section
coordinates and T against the periodicity defect plus the energy pin, in
least-squares form.  With (R,) it is symmetric: shot over T/2, from Fix(R)
back to Fix(R), solving for the two coordinates R keeps and T/2 against the
two R flips plus the energy pin (Devaney 1976; Lamb and Roberts 1998).
With (R, R2) it is doubly symmetric: shot over T/4, from Fix(R) to Fix(R2)
(Henon 1969).  The one-period monodromy is rebuilt from the STM of the shot
arc by walking the chain, last reversor first, each doubling the arc.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import astuple, dataclass, field as dc_field

import numpy as np

__all__ = [
    "EvaluableHamiltonian",
    "PolynomialHamiltonian",
    "OrbitRecord",
    "FrameBasis",
    "RotationEstimate",
    "flow_with_stm",
    "find_periodic_orbit",
    "quaternion_frame",
    "rotation_number_numeric",
    "winding_rate",
    "winding_rate_grid",
    "series_vs_numeric_report",
    "ReportRow",
    "ReportTable",
]

# J for the symplectic form dy1^dx1 + dy2^dx2 with ordering (y1,y2,x1,x2)
_J = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
])


class EvaluableHamiltonian:
    """A Hamiltonian over w = (y1, y2, x1, x2): ``value(w)``, a float, and
    ``jet(w)``, the flat 14-tuple (g0, g1, g2, g3, h00, h01, h02, h03, h11,
    h12, h13, h22, h23, h33) of Python floats, the gradient at w and then
    the Hessian's upper triangle row by row.  Every numeric stage reads its
    derivatives from ``jet``."""

    def __init__(self, value, jet, name="hamiltonian"):
        self.value = value
        self.jet = jet
        self.name = name

    def vector_field(self, w):
        g0, g1, g2, g3 = self.jet(w)[:4]
        return np.array([-g2, -g3, g0, g1])


def _monomial_expr(e, c) -> str:
    factors = [repr(c)]
    for i, k in enumerate(e):
        factors.extend([f"w{i}"] * k)
    return "*".join(factors)


def _poly_expr(poly, by: tuple = ()) -> str:
    """The float expression of ``poly``, the derivative of H by the
    variables ``by``; a coefficient past the float range raises ValueError
    naming the monomial of H it comes from."""
    parts = []
    for e, c in sorted(poly.coeffs.items()):
        try:
            parts.append(_monomial_expr(e, float(c.re)))
        except OverflowError:
            mono = " ".join(str(k + by.count(i)) for i, k in enumerate(e))
            where = " in a derivative" if by else ""
            raise ValueError(f"the coefficient of monomial {mono}{where} "
                             "overflows a float") from None
    return " + ".join(parts) if parts else "0.0"


def _codegen(name: str, body_exprs: str, lets: str = "") -> object:
    src = (f"def {name}(w):\n"
           f"    w0 = float(w[0]); w1 = float(w[1]); "
           f"w2 = float(w[2]); w3 = float(w[3])\n"
           f"{lets}    return {body_exprs}\n")
    ns: dict = {}
    exec(src, ns)  # generated from exact polynomial data only
    return ns[name]


class PolynomialHamiltonian(EvaluableHamiltonian):
    """Compile a real-chart polynomial into two fast float functions.

    The derivatives are produced by exact symbolic differentiation of the
    polynomial before code generation, so they are correct by
    construction.  ``jet`` is one generated function, the gradient's
    expressions followed by each distinct Hessian entry d_i d_j H (i <= j)
    once, as a local.  A coefficient that is not real raises ValueError,
    decided exactly, and so does a coefficient of H or of a derivative
    past the float range, naming its monomial.
    """

    def __init__(self, poly, name="polynomial"):
        if poly.chart != "real":
            from .poly import to_real
            poly = to_real(poly)
        if poly.im:
            raise ValueError("numeric path needs real coefficients")
        grads = [poly.diff(i) for i in range(4)]
        value = _codegen("h_value", _poly_expr(poly))
        # each distinct entry d_i d_j H (i <= j) once, as a local
        upper = [(i, j) for i in range(4) for j in range(i, 4)]
        lets = "".join(f"    h{i}{j} = {_poly_expr(grads[i].diff(j), (i, j))}\n"
                       for i, j in upper)
        body = ", ".join([*(_poly_expr(g, (i,)) for i, g in enumerate(grads)),
                          *(f"h{i}{j}" for i, j in upper)])
        super().__init__(value, _codegen("h_jet", f"({body})", lets), name)


@dataclass
class OrbitRecord:
    point: np.ndarray
    period: float
    energy: float
    residual: float
    monodromy: np.ndarray               # STM over one period at ``point``
    tag: str = ""
    reversors: tuple = ()   # the chain: shot over period / 2^len(reversors)


@dataclass
class FrameBasis:
    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray

    def gram_defect(self) -> float:
        m = np.stack([self.v0, self.v1, self.v2, self.v3])
        return float(np.max(np.abs(m @ m.T - np.eye(4))))


@dataclass
class RotationEstimate:
    value: float
    error: float
    method: str                    # "snap-elliptic" | "snap-hyperbolic" | "circle-map"
    raw: list = dc_field(default_factory=list)   # the last bracket [lo, hi]
    trace_monodromy: float = math.nan


# The variational runs step on scipy's Fortran DOP853 behind ``ode``: the
# step loop runs in Fortran and calls Python only for the right-hand side.
# scipy's wrapper keeps a reference to every callback it is handed, so one
# stepper per tolerance is built, around the one trampoline below, and
# reused, one run at a time; a stepper built per run would leak with its
# work arrays.  The wrapper also steps on past an exception in the
# callback, so the trampoline keeps the first one and answers NaN, on
# which DOP853 stops.  The step-size ratio is bounded to [0.2, 10] as in
# ``solve_ivp`` (``ode`` defaults to [0.3, 6]): no verify column then moves
# from ``solve_ivp``'s value by more than 1e-4 of its row's error bar.  A
# run fails after _DOP853_NSTEPS steps; the longest run of the tests takes
# under 1 000.
_DOP853_NSTEPS = 100_000
_DOP853_CODES = {-1: "input is not consistent",
                 -2: f"more than {_DOP853_NSTEPS} steps needed",
                 -3: "step size too small",
                 -4: "problem is probably stiff"}
_rhs_now = None                 # the right-hand side of the run in progress
_raised = []                    # what it raised


def _trampoline(t, y):
    try:
        return _rhs_now(t, y)
    except BaseException as exc:    # noqa: BLE001 - re-raised by _dop853
        _raised.append(exc)
        return np.full(len(y), math.nan)


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on first use: the import is most of
    bgnf's start-up, and normalize and analyze never integrate."""
    from scipy.integrate import solve_ivp as run
    return run(*args, **kwargs)


@functools.cache
def _stepper(rtol: float):
    from scipy.integrate import ode
    solver = ode(_trampoline).set_integrator(
        "dop853", rtol=rtol, atol=rtol * 1e-2, nsteps=_DOP853_NSTEPS,
        ifactor=10.0, dfactor=0.2)
    # each run hands the wrapper the integrator's bound _solout too: bind
    # it once, or every run would leave one more bound method behind
    dop = solver._integrator
    dop._solout = dop._solout
    return solver


def _dop853(rhs, y0, T: float, rtol: float) -> np.ndarray:
    """y(T) for y' = rhs(t, y), y(0) = y0, at ``rtol`` (atol = rtol * 1e-2)
    on the shared Fortran stepper.  An exception of ``rhs`` propagates; a
    failed run warns nothing, it raises RuntimeError naming the variational
    stage and the DOP853 return code."""
    global _rhs_now
    if T == 0:                  # DOP853 takes no step of length 0
        return np.array(y0, dtype=float)
    solver = _stepper(rtol).set_initial_value(y0, 0.0)
    _rhs_now = rhs
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            y = solver.integrate(T)
        if _raised:
            raise _raised[0]
    finally:
        _rhs_now = None
        _raised.clear()
    code = solver.get_return_code()
    if code < 0:
        raise RuntimeError("variational integration failed: "
                           f"{_DOP853_CODES.get(code, 'unknown failure')} "
                           f"(DOP853 code {code})")
    return y


def flow_with_stm(ham: EvaluableHamiltonian, w0, T: float, tol: float = 1e-12):
    """Flow to time T together with the state-transition matrix.

    The right-hand side makes one ``ham.jet`` call per evaluation and
    returns (J grad H, J L M) as one list of 20 Python floats, each entry
    of dM a four-term sum in index order.  A failed integration, a NaN or
    overflowing field among the causes, raises RuntimeError naming the
    DOP853 return code."""

    jet = ham.jet

    def rhs(_t, y):
        # dM = J L M on Python floats: the rows of J L are -L2, -L3, L0, L1
        # and M's rows are (a, b, c, d)
        (w0, w1, w2, w3, a0, a1, a2, a3, b0, b1, b2, b3,
         c0, c1, c2, c3, d0, d1, d2, d3) = y.tolist()
        (g0, g1, g2, g3, h00, h01, h02, h03, h11, h12, h13, h22, h23,
         h33) = jet((w0, w1, w2, w3))
        return [-g2, -g3, g0, g1,
                -(h02 * a0 + h12 * b0 + h22 * c0 + h23 * d0),
                -(h02 * a1 + h12 * b1 + h22 * c1 + h23 * d1),
                -(h02 * a2 + h12 * b2 + h22 * c2 + h23 * d2),
                -(h02 * a3 + h12 * b3 + h22 * c3 + h23 * d3),
                -(h03 * a0 + h13 * b0 + h23 * c0 + h33 * d0),
                -(h03 * a1 + h13 * b1 + h23 * c1 + h33 * d1),
                -(h03 * a2 + h13 * b2 + h23 * c2 + h33 * d2),
                -(h03 * a3 + h13 * b3 + h23 * c3 + h33 * d3),
                h00 * a0 + h01 * b0 + h02 * c0 + h03 * d0,
                h00 * a1 + h01 * b1 + h02 * c1 + h03 * d1,
                h00 * a2 + h01 * b2 + h02 * c2 + h03 * d2,
                h00 * a3 + h01 * b3 + h02 * c3 + h03 * d3,
                h01 * a0 + h11 * b0 + h12 * c0 + h13 * d0,
                h01 * a1 + h11 * b1 + h12 * c1 + h13 * d1,
                h01 * a2 + h11 * b2 + h12 * c2 + h13 * d2,
                h01 * a3 + h11 * b3 + h12 * c3 + h13 * d3]

    y0 = np.concatenate([np.asarray(w0, dtype=float), np.eye(4).ravel()])
    yT = _dop853(rhs, y0, T, tol)
    return yT[:4], yT[4:].reshape(4, 4)


def _rebuilt(M_arc: np.ndarray, r: np.ndarray) -> np.ndarray:
    """R M^-1 R M: the STM over twice the arc of M when that arc ends on
    Fix(R), R = diag(r) (one period from a half, or a half period from a
    quarter); M^-1 = -J M^T J."""
    return (r[:, None] * (-_J @ M_arc.T @ _J) * r) @ M_arc


def _one_period(M: np.ndarray, reversors: tuple) -> np.ndarray:
    """The one-period monodromy from the STM M of the shot arc, rebuilt
    once per reversor, last first: a quarter arc gives M_h = R2 M^-1 R2 M
    over T/2, a half arc R M_h^-1 R M_h over T."""
    for r in reversed(reversors):
        M = _rebuilt(M, np.asarray(r, dtype=float))
    return M


# Newton shooting integrates the flow and its STM at STM_RTOL and stops once
# the one-period defect (to first order, for half- and quarter-period
# shooting) and the energy pin are within SHOOT_TOL, or fails after
# _NEWTON_ITERS steps; verify reports carry both in "tolerances".
SHOOT_TOL = 1e-10
STM_RTOL = 1e-12
_NEWTON_ITERS = 30


def find_periodic_orbit(ham: EvaluableHamiltonian, energy: float, seed_point,
                        seed_period: float, tag: str = "",
                        reversors: tuple = ()) -> OrbitRecord:
    """Newton shooting for the periodic orbit through ``seed_point``.

    ``reversors`` is the orbit's symmetry chain, sign 4-tuples of diagonal
    reversors R of ``ham`` (H o R = H, R anti-symplectic); the orbit is
    shot over T / 2^len(reversors), and a longer chain than two raises
    ValueError.  With () the unknowns are three coordinates on the section
    transverse to the seed velocity and T; the residual is the periodicity
    defect w(T) - w plus the energy pin, solved in least-squares form (the
    system is 5x4 but consistent, the flow preserving H makes one
    periodicity component redundant).

    With (R,): an orbit that leaves Fix(R) and meets it again after T/2 is
    periodic with period T (Devaney 1976; Lamb and Roberts 1998), so the
    orbit is shot from the seed's projection onto Fix(R) over T/2 only:
    the unknowns are the two coordinates R keeps and T/2, the residual the
    two coordinates R flips at T/2 plus the energy pin.  The one-period
    monodromy is rebuilt from the half-period STM M_h as
    M = R M_h^-1 R M_h, with M_h^-1 = -J M_h^T J, and the stopping rule
    bounds the full-period defect w(T) - w = -R M_h^-1 (w_h - R w_h), to
    first order in the distance of w_h = w(T/2) from Fix(R).

    With (R, R2), R2 together with R acts as -I on the orbit's plane.  An
    orbit that leaves Fix(R) and meets Fix(R2) after T/4 is doubly
    symmetric (Henon 1969): w(T/2) = R2 w is on Fix(R) again.  Such an
    orbit is shot over the quarter arc alone, the same loop with R2 in
    place of R at the arc's end: the unknowns are the two coordinates R
    keeps and T/4, the residual the two coordinates R2 flips at T/4 plus
    the energy pin.  The half-period STM is M_h = R2 M_q^-1 R2 M_q and M
    is rebuilt from it as above.  The stopping rule chains the half-period
    bound through R2: to first order, w_h = R2 (w - M_q^-1 (w_q - R2 w_q))
    with w_q = w(T/4), and the half-period test runs on that w_h and M_h.

    Either way each step clamps its length, the run stops once the defect
    and the energy pin are within SHOOT_TOL, and the record keeps the full
    period, the monodromy of the converged step (integrated at STM_RTOL)
    and the chain.
    """
    if len(reversors) > 2:
        raise ValueError(f"a chain of {len(reversors)} reversors; at most 2")
    w = np.asarray(seed_point, dtype=float).copy()
    arcs = 2 ** len(reversors)
    span = float(seed_period) / arcs
    if not reversors:
        v0 = ham.vector_field(w)
        nv = np.linalg.norm(v0)
        if nv == 0:
            raise ValueError("seed velocity vanishes; section undefined")
        q, _ = np.linalg.qr(np.column_stack([v0 / nv, np.eye(4)[:, :3]]))
        B = q[:, 1:4]  # orthonormal complement of the seed velocity
        rows = np.arange(4)
    else:
        r = np.asarray(reversors[0], dtype=float)
        r_end = np.asarray(reversors[-1], dtype=float)
        B = np.eye(4)[:, r > 0]     # Fix(R): the coordinates R keeps
        rows = np.flatnonzero(r_end < 0)    # the coordinates R_end flips
        w[r < 0] = 0.0
    base = w.copy()

    for _ in range(_NEWTON_ITERS):
        wt, M = flow_with_stm(ham, w, span, STM_RTOL)
        if not reversors:
            defect = wt - w
        else:
            wh, M_h = wt, M
            if len(reversors) == 2:         # chain through R2 to T/2
                wh = r_end * (w - (-_J @ M.T @ _J) @ (wt - r_end * wt))
                M_h = _rebuilt(M, r_end)
            defect = (-_J @ M_h.T @ _J) @ (wh - r * wh)
        pin = ham.value(w) - energy
        if np.linalg.norm(defect) <= SHOOT_TOL and abs(pin) <= SHOOT_TOL:
            return OrbitRecord(point=w, period=arcs * span, energy=energy,
                               residual=float(np.linalg.norm(defect)),
                               monodromy=_one_period(M, reversors), tag=tag,
                               reversors=reversors)
        # rows of the arc's end condition and the energy pin against the
        # moves of w (along B) and of span: w(span) - w on a full or a half
        # arc (w is 0 on the rows R flips), w(span) on a quarter arc
        if len(reversors) < 2:
            gap, dgap = wt - w, M - np.eye(4)
        else:
            gap, dgap = wt, M
        n, k = len(rows), B.shape[1]
        Js = np.zeros((n + 1, k + 1))
        Js[:n, :k] = dgap[rows] @ B
        Js[:n, k] = ham.vector_field(wt)[rows]
        Js[n, :k] = np.asarray(ham.jet(w)[:4]) @ B
        res = np.concatenate([gap[rows], [pin]])
        step, *_ = np.linalg.lstsq(Js, -res, rcond=None)
        # clamp absurd steps to keep Newton in its basin
        limit = 0.5 * max(np.linalg.norm(w - base) + np.linalg.norm(base), 1e-3)
        sn = np.linalg.norm(step)
        if sn > limit:
            step *= limit / sn
        w = w + B @ step[:k]
        span = span + step[k]
        if span <= 0 or not np.all(np.isfinite(w)):
            raise RuntimeError("shooting diverged (negative period or NaN)")
    raise RuntimeError(
        f"Newton shooting did not converge in {_NEWTON_ITERS} iterations "
        f"(last residual {np.linalg.norm(defect):.3e})"
    )


# ---------------------------------------------------------------------------
# quaternion frame and the winding equation
# ---------------------------------------------------------------------------


def _frame(g, phase: float = 0.0):
    """The quaternion frame (V0, V1, V2, V3) at gradient g as 4-tuples,
    with (V1, V2) turned by ``phase``; pure Python, as the winding
    right-hand side builds one per call.  With n = |g|:
      V1 = ( g_x2, -g_x1,  g_y2, -g_y1) / n
      V2 = (-g_y2,  g_y1,  g_x2, -g_x1) / n
      V3 = (-g_x1, -g_x2,  g_y1,  g_y2) / n
    """
    a, b, c, d = g
    n = math.sqrt(a * a + b * b + c * c + d * d)
    if n == 0:
        raise ValueError("zero gradient: frame undefined")
    a, b, c, d = a / n, b / n, c / n, d / n
    v1 = (d, -c, b, -a)
    v2 = (-b, a, d, -c)
    if phase:
        cp, sp = math.cos(phase), math.sin(phase)
        v1, v2 = (tuple(cp * x + sp * y for x, y in zip(v1, v2)),
                  tuple(-sp * x + cp * y for x, y in zip(v1, v2)))
    return (a, b, c, d), v1, v2, (-c, -d, a, b)


def quaternion_frame(grad) -> FrameBasis:
    """Orthonormal frame V0 = grad/|grad|, V_k = A_k V0, of :func:`_frame`
    as numpy arrays; V3 is parallel to the Hamiltonian vector field and
    omega0(V1, V2) = 1.  A zero gradient raises ValueError."""
    return FrameBasis(*(np.array(v, dtype=float) for v in _frame(grad)))


def _projected_hessian(ham, w, phase):
    """(grad, h11, h12, h22, h33): the Hessian at w in the rotated frame."""
    # pure-python inner loop: one jet, three products L v, four projections
    (g0, g1, g2, g3, h00, h01, h02, h03, h11, h12, h13, h22, h23,
     h33) = ham.jet(w)
    g = (g0, g1, g2, g3)
    _, v1, v2, v3 = _frame(g, phase)
    Lv1, Lv2, Lv3 = [(h00 * a + h01 * b + h02 * c + h03 * d,
                      h01 * a + h11 * b + h12 * c + h13 * d,
                      h02 * a + h12 * b + h22 * c + h23 * d,
                      h03 * a + h13 * b + h23 * c + h33 * d)
                     for a, b, c, d in (v1, v2, v3)]
    return (g,
            v1[0] * Lv1[0] + v1[1] * Lv1[1] + v1[2] * Lv1[2] + v1[3] * Lv1[3],
            v1[0] * Lv2[0] + v1[1] * Lv2[1] + v1[2] * Lv2[2] + v1[3] * Lv2[3],
            v2[0] * Lv2[0] + v2[1] * Lv2[1] + v2[2] * Lv2[2] + v2[3] * Lv2[3],
            v3[0] * Lv3[0] + v3[1] * Lv3[1] + v3[2] * Lv3[2] + v3[3] * Lv3[3])


def _reduced_monodromy(ham, point, M, phase: float = 0.0) -> np.ndarray:
    """The monodromy M restricted to (V1, V2) at ``point``, in the frame
    turned by ``phase``.  An M whose entries are not finite, or sum past
    the float range, raises RuntimeError before P is formed, without a
    warning: the entries of P and of its partial sums are bounded by that
    sum, so any other M forms P without overflow."""
    size = sum(map(abs, M.ravel().tolist()))
    if not math.isfinite(size):
        raise RuntimeError("rotation number failed: the monodromy's entries "
                           f"sum to {size}, not a finite float")
    _, v1, v2, _ = (np.array(v) for v in _frame(ham.jet(point)[:4], phase))
    return np.array([[x @ (M @ y) for y in (v1, v2)] for x in (v1, v2)])


# Poincare bracket: starting angles of the circle map.  The anchor run is
# integrated at _ANCHOR_RTOL, and again at _ANCHOR_REFINE_RTOL only when its
# wrap residual, its distance to the branch it picks, comes within
# _WRAP_MARGIN of +-pi.  The circle-map fallback measures the error of the
# record's P (integrated at STM_RTOL) against a second P at
# _STM_CHECK_RTOL (at 1e-11 the quadratic 1:2 control's error at 2^8
# periods is no bound).  |tr| within _PARABOLIC_MARGIN of 2 is
# near-parabolic: no snap.
_BRACKET_ANGLES = 16
_ANCHOR_RTOL = 1e-6
_ANCHOR_REFINE_RTOL = 1e-11
_STM_CHECK_RTOL = 1e-10
_WRAP_MARGIN = 0.1
_PARABOLIC_MARGIN = 1e-7


def _anchor_winding(ham, orbit: OrbitRecord, frame_phase: float,
                    rtol: float) -> float:
    """theta(T) for the winding equation started at theta(0) = 0."""

    def rhs(t, y):
        *w, theta = y.tolist()
        g, h11, h12, h22, h33 = _projected_hessian(ham, w, frame_phase)
        ct = math.cos(theta)
        st = math.sin(theta)
        rate = h33 + ct * ct * h11 + 2.0 * ct * st * h12 + st * st * h22
        # solve_ivp never returns from a NaN error norm; the rate is NaN
        # or infinite whenever the gradient or the Hessian is
        if not math.isfinite(rate):
            raise RuntimeError("winding integration failed: the winding "
                               f"rate is not finite at t = {t:.6g}")
        return (-g[2], -g[3], g[0], g[1], rate)

    sol = solve_ivp(rhs, (0.0, orbit.period),
                    np.concatenate([orbit.point, [0.0]]), method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise RuntimeError(f"winding integration failed: {sol.message}")
    return float(sol.y[4, -1])


def _monodromy(ham, orbit: OrbitRecord, rtol: float) -> np.ndarray:
    """The one-period STM at ``orbit.point``, integrated at ``rtol`` over
    the arc :func:`find_periodic_orbit` shot (period / 2^len(reversors))
    and rebuilt along the record's chain as there."""
    arc = orbit.period / 2 ** len(orbit.reversors)
    _, M = flow_with_stm(ham, orbit.point, arc, rtol)
    return _one_period(M, orbit.reversors)


def _branch(P: np.ndarray, d0: float) -> float:
    """The angle of P e_0 on the branch nearest ``d0``."""
    base = math.atan2(P[1, 0], P[0, 0])
    return base + 2.0 * math.pi * round((d0 - base) / (2.0 * math.pi))


def _circle_brackets(P: np.ndarray, delta0: float, horizon: int):
    """Yield (lo, hi) after n = 1, 2, 4, ..., 2^horizon iterates of the lift
    F(theta) = theta + Delta(theta) of P's circle map with Delta(0) = delta0.

    lo and hi bound the mean displacements (F^n(theta) - theta)/(2 pi n)
    over the starting angles; by Poincare the rotation number lies between.
    Delta is pi-periodic, and on [0, pi) it is delta0 plus the angle swept
    from P e_0 to P e_psi, less psi.  The sweep lies in [0, pi), the cross
    product of the two being det P sin psi >= 0, so every angle takes the
    branch within pi of delta0.

    A bracket that is not finite, from a P that is not or that is so large
    that the map's products overflow, raises RuntimeError without a warning.
    """
    with np.errstate(all="ignore"):
        det = float(np.linalg.det(P))
    th0 = math.pi * np.arange(_BRACKET_ANGLES) / _BRACKET_ANGLES
    th, n = th0, 0
    for k in range(horizon + 1):
        with np.errstate(all="ignore"):
            while n < 2 ** k:
                psi = np.remainder(th, math.pi)
                c, s = np.cos(psi), np.sin(psi)
                th = th + delta0 - psi + np.arctan2(
                    det * s, P[0, 0] * (P[0, 0] * c + P[0, 1] * s)
                    + P[1, 0] * (P[1, 0] * c + P[1, 1] * s))
                n += 1
            d = (th - th0) / (2.0 * math.pi * n)
        lo, hi = float(np.min(d)), float(np.max(d))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise RuntimeError(
                "rotation number failed: the circle-map bracket of a reduced "
                f"monodromy up to {np.max(np.abs(P)):.3g} is not finite")
        yield lo, hi


def _snap(tr: float, center: float, radius: float):
    """(value, error, method) of the one snap target within ``radius`` of
    ``center``, or None: near-parabolic monodromy, or no unique target.

    Elliptic monodromy (|tr| < 2) puts the rotation number on an integer
    winding plus or minus the elliptic phase mu; hyperbolic monodromy on a
    half-integer.
    """
    lo, hi = center - radius, center + radius
    if abs(tr) < 2.0 - _PARABOLIC_MARGIN:
        mu = math.acos(max(-1.0, min(1.0, tr / 2.0))) / (2.0 * math.pi)
        cands = {j + s * mu for j in range(math.floor(lo) - 1,
                                           math.floor(hi) + 2)
                 for s in (1, -1)}
        error = max(1e-9, 1e-9 / max(abs(math.sin(2 * math.pi * mu)), 1e-6))
        method = "snap-elliptic"
    elif abs(tr) > 2.0 + _PARABOLIC_MARGIN:
        cands = {k / 2.0 for k in range(math.floor(2 * lo),
                                         math.floor(2 * hi) + 2)}
        error = 1e-9
        method = "snap-hyperbolic"
    else:
        return None
    hits = [c for c in cands if abs(c - center) < radius]
    return (hits[0], error, method) if len(hits) == 1 else None


def rotation_number_numeric(ham: EvaluableHamiltonian, orbit: OrbitRecord,
                            horizon: int = 8,
                            frame_phase: float = 0.0) -> RotationEstimate:
    """Rotation number of a periodic orbit in the quaternion frame.

    Everything is read off the reduced one-period monodromy P (the one the
    last Newton step of :func:`find_periodic_orbit` left on the record,
    rebuilt along the record's reversor chain) and one run of the winding
    equation over one period from
    the anchor angle 0, which fixes the branch of the lift of P's circle
    map.  The lift is iterated in numpy from 16 starting angles for
    n = 1, 2, 4, ..., 2^horizon periods, so ``horizon`` costs no ODE time;
    ``raw`` holds the last bracket [lo, hi] of the mean displacements.

    When P is cleanly elliptic (|tr| < 2) the rotation number is an integer
    winding plus or minus the elliptic phase; cleanly hyperbolic P puts it
    on a half-integer.  The first bracket (padded by its width plus 1e-7 on
    each side) that holds exactly one candidate decides it, and the value is
    then exact up to the tolerance of P.

    Near-parabolic P and a bracket still ambiguous after 2^horizon
    periods give method "circle-map": the midpoint of the
    2^horizon bracket, with its half-width as the error plus the distance
    the bracket moves when P comes from a second STM run at 1e-10 (over
    the same arc as the first, period / 2^len(reversors), rebuilt along
    the same chain).
    """
    P = _reduced_monodromy(ham, orbit.point, orbit.monodromy, frame_phase)
    tr = float(np.trace(P))
    d0 = _anchor_winding(ham, orbit, frame_phase, _ANCHOR_RTOL)
    if abs(d0 - _branch(P, d0)) > math.pi - _WRAP_MARGIN:
        d0 = _anchor_winding(ham, orbit, frame_phase, _ANCHOR_REFINE_RTOL)
    for lo, hi in _circle_brackets(P, _branch(P, d0), horizon):
        hit = _snap(tr, 0.5 * (lo + hi), 1.5 * (hi - lo) + 1e-7)
        if hit:
            value, error, method = hit
            break
    else:
        P = _reduced_monodromy(ham, orbit.point,
                               _monodromy(ham, orbit, _STM_CHECK_RTOL),
                               frame_phase)
        *_, (lo10, hi10) = _circle_brackets(P, _branch(P, d0), horizon)
        value, method = 0.5 * (lo + hi), "circle-map"
        error = 0.5 * (hi - lo) + max(abs(lo10 - lo), abs(hi10 - hi))
    return RotationEstimate(value=value, error=error, method=method,
                            raw=[lo, hi], trace_monodromy=tr)


# ---------------------------------------------------------------------------
# the scalar winding-rate oracle
# ---------------------------------------------------------------------------


def winding_rate(a: float, b: float) -> float:
    """Closed-form asymptotic rate of theta' = a + b cos theta."""
    if abs(a) <= abs(b):
        return 0.0
    return math.copysign(math.sqrt(a * a - b * b), a)


def winding_rate_grid(a_values, b_values, horizon: float = 10000.0,
                      tol: float = 1e-8):
    """Vectorized winding rates over a grid; returns (numeric, closed)."""
    pairs = [(a, b) for a in a_values for b in b_values]
    a_arr = np.array([p[0] for p in pairs])
    b_arr = np.array([p[1] for p in pairs])

    def rhs(_t, th):
        return a_arr + b_arr * np.cos(th)

    sol = solve_ivp(rhs, (0.0, horizon), np.zeros(len(pairs)),
                    method="DOP853", rtol=tol, atol=tol)
    if not sol.success:
        raise RuntimeError(sol.message)
    numeric = sol.y[:, -1] / horizon
    closed = np.array([winding_rate(a, b) for a, b in pairs])
    return pairs, numeric, closed


# ---------------------------------------------------------------------------
# series vs numeric report
# ---------------------------------------------------------------------------


@dataclass
class ReportRow:
    energy: float
    rho1_num: float
    rho1_series: float
    rho2_num: float
    rho2_series: float
    product_num: float
    product_series: float
    err_bar: float


@dataclass
class ReportTable:
    rows: list
    fit_q1: float
    fit_q2: float
    model: str

    COLUMNS = ("E", "rho1_num", "rho1_series", "rho2_num", "rho2_series",
               "product_num", "product_series", "err_bar")

    def format_csv(self) -> str:
        out = [",".join(self.COLUMNS)]
        for r in self.rows:
            out.append(",".join(f"{v:.12g}" for v in astuple(r)))
        return "\n".join(out) + "\n"


def _fit_power(energies, diffs) -> float:
    """Fit |diff| ~ C E^q; round-off-level differences report q = inf."""
    d = np.maximum(np.abs(np.asarray(diffs, dtype=float)), 1e-300)
    if np.all(d < 1e-12):
        return math.inf
    if len(d) < 2:
        return math.nan
    x = np.log(np.asarray(energies, dtype=float))
    y = np.log(d)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


# Two axis orbits whose periods agree to _SAME_PERIOD, relative, are one
# orbit when the axis-2 start lies within _SAME_POINT |w| of the axis-1 orbit.
_SAME_PERIOD = 1e-6
_SAME_POINT = 1e-6


def _on_orbit(ham: EvaluableHamiltonian, orbit: OrbitRecord, point) -> bool:
    """Does ``point`` lie on ``orbit``?  One integration over its period,
    with an event where it crosses the plane through ``point`` normal to
    the flow there, at SHOOT_TOL: the orbit closes to no better."""
    v = ham.vector_field(point)

    def plane(_t, w):
        return float(np.dot(w - point, v))

    def flow(t, w):
        g0, g1, g2, g3 = ham.jet(w)[:4]
        f = [-g2, -g3, g0, g1]
        if not all(map(math.isfinite, f)):
            raise RuntimeError("orbit-coincidence integration failed: the "
                               f"vector field is not finite at t = {t:.6g}")
        return f

    plane.direction = 1.0
    sol = solve_ivp(flow, (0.0, orbit.period),
                    orbit.point, method="DOP853", rtol=SHOOT_TOL,
                    atol=SHOOT_TOL * 1e-2, events=plane)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    tol = _SAME_POINT * np.linalg.norm(point)
    return any(np.linalg.norm(w - point) <= tol
               for w in (orbit.point, *sol.y_events[0]))


def series_vs_numeric_report(model, energies, horizon: int = 8,
                             series_order: int | None = None) -> ReportTable:
    """Measure both axial orbits on the true flow and compare to the series.

    ``model`` is a ModelBundle.  Produces one row per energy plus fitted
    convergence orders q for |rho_num - rho_series| against E.  The model's
    one full analysis seeds the orbits, and its series truncated at
    O(E^(K+1)), K = ``series_order``, are the series columns.  Each orbit
    is shot along the reversor chain of its seed
    (:meth:`ModelBundle.symmetric_seed`): over a full, a half or a quarter
    period.  A seed or a series value that is no finite float, a failed
    integration or a shooting run that does not converge raises
    ``ValueError`` naming the energy, the axis and the stage; so do two
    axis orbits that are one: periods within _SAME_PERIOD and the axis-2
    start on the axis-1 orbit (:func:`_on_orbit`), and an energy given
    twice, which would make the fit of q degenerate.
    """
    if len(set(energies)) < len(energies):
        raise ValueError(f"energies {list(energies)!r} repeat a value: the "
                         "fit of q would be degenerate")
    analysis = model.analysis()
    if analysis.product is None:
        raise ValueError(f"{model.name}: the analysis derived no rotation "
                         "series to compare")
    K = analysis.series_order if series_order is None else series_order
    if not 0 <= K <= analysis.series_order:
        raise ValueError(f"series order K must be in 0..{analysis.series_order}"
                         f", got {K}")
    rho1, rho2, product = (s.truncate(K + 1) for s in (
        analysis.rho1, analysis.rho2, analysis.product))
    rows = []
    d1, d2 = [], []
    for e_val in energies:
        try:
            r1s, r2s, ps = (s.eval_float(e_val) for s in (rho1, rho2, product))
        except OverflowError:
            raise ValueError(f"E = {e_val!r}: the rotation series overflow a "
                             "float") from None
        # seed both axes before integrating: a bad seed can hang the solver
        seeds, est, orbits = {}, {}, {}
        for axis in (1, 2):
            try:
                seeds[axis] = model.seed_orbit(e_val, axis)
            except ValueError as exc:
                raise ValueError(f"E = {e_val!r}, axis-{axis} seed: "
                                 f"{exc}") from None
        for axis, (seed_w, seed_T) in seeds.items():
            tag = f"axis-{axis}"
            try:
                orbit = orbits[axis] = find_periodic_orbit(
                    model.hamiltonian, e_val, seed_w, seed_T, tag=tag,
                    reversors=model.symmetric_seed(axis)[1])
                est[axis] = rotation_number_numeric(model.hamiltonian, orbit,
                                                    horizon=horizon)
            except RuntimeError as exc:     # the message names the stage
                raise ValueError(f"E = {e_val!r}, {tag} orbit: {exc}") from None
        T1, T2 = orbits[1].period, orbits[2].period
        if abs(T1 - T2) <= _SAME_PERIOD * max(T1, T2):
            try:
                same = _on_orbit(model.hamiltonian, orbits[1], orbits[2].point)
            except RuntimeError as exc:
                raise ValueError(f"E = {e_val!r}, axis-1 orbit: {exc}") from None
            if same:
                raise ValueError(f"E = {e_val!r}: axis orbits coincide (both "
                                 f"seeds reach one orbit, T = {T1:.6g})")
        r1n = est[1].value
        r2n = est[2].value
        rows.append(ReportRow(
            energy=e_val, rho1_num=r1n, rho1_series=r1s,
            rho2_num=r2n, rho2_series=r2s,
            product_num=(r1n - 1.0) * (r2n - 1.0), product_series=ps,
            err_bar=max(est[1].error, est[2].error),
        ))
        d1.append(r1n - r1s)
        d2.append(r2n - r2s)
    return ReportTable(rows=rows, fit_q1=_fit_power(energies, d1),
                       fit_q2=_fit_power(energies, d2), model=model.name)
