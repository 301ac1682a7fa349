"""Numeric ground truth: frames, flows, shooting, rotation numbers."""

import contextlib
import dataclasses
import gc
import math
import re
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ode import dop853

from bgnf import cli, numeric
from bgnf.numeric import (
    EvaluableHamiltonian,
    PolynomialHamiltonian,
    find_periodic_orbit,
    flow_with_stm,
    quaternion_frame,
    rotation_number_numeric,
    winding_rate,
    winding_rate_grid,
)
from bgnf.models import (from_polynomial, henon_heiles, hill_regularized,
                         isosceles, quadratic)
from bgnf.poly import read_polynomial, write_polynomial
from bgnf.scalars import RATIONAL, quad_field

from conftest import (gradient_and_hessian, oracle_gradient, oracle_hessian,
                      oracle_poincare_brackets, oracle_stm_rhs,
                      oracle_stm_rhs_loop, real_chart_polynomials)


def test_frame_component_rows():
    fr = quaternion_frame((0.0, 0.0, 1.0, 0.0))
    assert np.allclose(fr.v0, [0, 0, 1, 0])
    assert np.allclose(fr.v1, [0, -1, 0, 0])
    assert np.allclose(fr.v2, [0, 0, 0, -1])
    assert np.allclose(fr.v3, [-1, 0, 0, 0])


def test_frame_orthonormal_and_symplectic_pairing():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = rng.normal(size=4)
        if np.linalg.norm(g) < 1e-6:
            continue
        fr = quaternion_frame(g)
        assert fr.gram_defect() < 1e-12
        # omega0(V1, V2) = 1 for dy1^dx1 + dy2^dx2
        v1, v2 = fr.v1, fr.v2
        omega = (v1[0] * v2[2] - v1[2] * v2[0]
                 + v1[1] * v2[3] - v1[3] * v2[1])
        assert omega == pytest.approx(1.0, abs=1e-12)
        # V3 parallel to the Hamiltonian vector field J grad
        x = np.array([-g[2], -g[3], g[0], g[1]]) / np.linalg.norm(g)
        assert np.allclose(fr.v3, x, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(g=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4).filter(
           lambda g: math.hypot(*g) > 1e-6),
       phase=st.floats(-2 * math.pi, 2 * math.pi))
def test_turned_frame_is_the_quaternion_frame_turned(g, phase):
    fr = quaternion_frame(g)
    v0, v1, v2, v3 = (np.array(v) for v in numeric._frame(g, phase))
    c, s = math.cos(phase), math.sin(phase)
    assert np.allclose(v0, fr.v0, rtol=0, atol=1e-15)
    assert np.allclose(v3, fr.v3, rtol=0, atol=1e-15)
    assert np.allclose(v1, c * fr.v1 + s * fr.v2, rtol=0, atol=1e-15)
    assert np.allclose(v2, -s * fr.v1 + c * fr.v2, rtol=0, atol=1e-15)


def test_frame_zero_gradient_rejected():
    with pytest.raises(ValueError):
        quaternion_frame((0.0, 0.0, 0.0, 0.0))


def test_harmonic_circle_period_and_energy():
    q = quadratic(1, 1)
    w0 = np.array([0.0, 0.0, 0.1, 0.0])
    w, _ = flow_with_stm(q.hamiltonian, w0, 2 * math.pi, 1e-12)
    assert np.linalg.norm(w - w0) < 1e-10
    assert abs(q.hamiltonian.value(w) - q.hamiltonian.value(w0)) < 1e-12


def test_energy_drift_bound_hill():
    m = hill_regularized()
    w, _ = m.seed_orbit(1e-3, 1)
    e0 = m.hamiltonian.value(w)
    for _ in range(10):             # 100 time units in ten chained segments
        w, _ = flow_with_stm(m.hamiltonian, w, 10.0, 1e-12)
        assert abs(m.hamiltonian.value(w) - e0) < 1e-10


def test_forward_backward_reversibility():
    m = henon_heiles()
    w0 = np.array([0.01, -0.02, 0.03, 0.015])
    fwd, _ = flow_with_stm(m.hamiltonian, w0, 20.0, 1e-12)
    back, _ = flow_with_stm(m.hamiltonian, fwd, -20.0, 1e-12)
    assert np.linalg.norm(back - w0) < 1e-9


_NAN_FIELD = EvaluableHamiltonian(lambda w: math.nan,
                                  lambda w: (math.nan,) * 14, "nan")


@pytest.mark.parametrize("ham,w0", [
    (_NAN_FIELD, (0.1, 0.0, 0.0, 0.0)),
    # the cubic terms overflow a float at |w| = 1e200: inf, then inf - inf
    (henon_heiles(4).hamiltonian, (1e200, -1e200, 1e200, 1e200)),
], ids=["nan", "overflow"])
def test_flow_with_stm_fails_fast_on_a_non_finite_field(recwarn, ham, w0):
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"variational integration failed: "
                       r"step size too small \(DOP853 code -3\)"):
        flow_with_stm(ham, w0, 1.0)
    assert time.perf_counter() - t0 < 1.0
    assert not recwarn.list


def test_flow_with_stm_raises_what_the_field_raises():
    def fails(_w):
        raise ZeroDivisionError("in the field")

    with pytest.raises(ZeroDivisionError, match="in the field"):
        flow_with_stm(EvaluableHamiltonian(fails, fails),
                      (0.1, 0.0, 0.0, 0.0), 1.0)
    # and the shared stepper runs on
    w, _ = flow_with_stm(quadratic(1, 1).hamiltonian, (0.0, 0.0, 0.1, 0.0),
                         math.pi)
    assert np.allclose(w, (0.0, 0.0, -0.1, 0.0), atol=1e-12)


def test_flow_with_stm_shares_one_stepper_per_tolerance():
    # a stepper built per run would stay alive: scipy's wrapper keeps a
    # reference to each callback it is handed
    def live():
        gc.collect()
        return sum(isinstance(o, dop853) for o in gc.get_objects())

    def runs(n):
        for k in range(n):
            flow_with_stm(ham, (0.0, 0.0, 0.1, 0.0), 0.1, (1e-7, 1e-9)[k % 2])

    ham = quadratic(1, 2).hamiltonian
    before = live()
    runs(2000)
    assert live() - before <= 2
    # nor does a run leave a bound method behind: 64 B a run, well above
    # the allocator noise of a few KB
    tracemalloc.start()
    try:
        runs(1)
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        runs(300)
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - start < 32 * 300
    finally:
        tracemalloc.stop()


def test_monodromy_symplectic_properties():
    m = hill_regularized()
    w, T = m.seed_orbit(1e-3, 1)
    orbit = find_periodic_orbit(m.hamiltonian, 1e-3, w, T)
    _, M = flow_with_stm(m.hamiltonian, orbit.point, orbit.period, 1e-13)
    assert abs(np.linalg.det(M) - 1.0) < 1e-8
    # eigenvalue 1 with (algebraic) multiplicity >= 2; the pair is defective
    # (period-energy Jordan block), so only the eigenvalues are testable
    eig = np.linalg.eigvals(M)
    close_to_one = np.sum(np.abs(eig - 1.0) < 1e-6)
    assert close_to_one >= 2


def test_shooting_quadratic_exact():
    q = quadratic(1, 2)
    w, T = q.seed_orbit(1e-3, 1)
    orbit = find_periodic_orbit(q.hamiltonian, 1e-3, w, T)
    assert orbit.period == pytest.approx(2 * math.pi, abs=1e-10)
    assert orbit.residual < 1e-10


def test_hill_orbit_period_matches_series():
    m = hill_regularized()
    e = 1e-3
    w, T = m.seed_orbit(e, 1)
    orbit = find_periodic_orbit(m.hamiltonian, e, w, T)
    omega_series = 1 - 4 * e - 17 * e * e
    assert abs(orbit.period - 2 * math.pi / omega_series) < 2e-4


def test_henon_heiles_orbits_wind_oppositely():
    m = henon_heiles()
    e = 1e-3
    winds = []
    for axis in (1, 2):
        w, T = m.seed_orbit(e, axis)
        orbit = find_periodic_orbit(m.hamiltonian, e, w, T)
        sol = solve_ivp(lambda _t, w: m.hamiltonian.vector_field(w),
                        (0.0, orbit.period), orbit.point, method="DOP853",
                        rtol=1e-11, atol=1e-13,
                        t_eval=np.linspace(0.0, orbit.period, 400))
        x1, x2 = sol.y[2], sol.y[3]
        angle = np.unwrap(np.arctan2(x2, x1))
        winds.append(angle[-1] - angle[0])
    assert winds[0] * winds[1] < 0
    assert abs(abs(winds[0]) - 2 * math.pi) < 0.5


def test_quadratic_rotation_numbers_exact():
    q = quadratic(1, 2)
    for axis, want in ((1, 3.0), (2, 1.5)):
        w, T = q.seed_orbit(1e-3, axis)
        orbit = find_periodic_orbit(q.hamiltonian, 1e-3, w, T)
        est = rotation_number_numeric(q.hamiltonian, orbit, horizon=6)
        assert abs(est.value - want) < 1e-9


def test_rotation_number_frame_phase_invariance():
    m = hill_regularized()
    e = 2e-3
    w, T = m.seed_orbit(e, 1)
    orbit = find_periodic_orbit(m.hamiltonian, e, w, T)
    a = rotation_number_numeric(m.hamiltonian, orbit, horizon=6)
    b = rotation_number_numeric(m.hamiltonian, orbit, horizon=6,
                                frame_phase=0.7)
    assert abs(a.value - b.value) <= max(a.error + b.error, 1e-8)


def test_rotation_number_hill_vs_series():
    m = hill_regularized()
    e = 1e-3
    w, T = m.seed_orbit(e, 1)
    orbit = find_periodic_orbit(m.hamiltonian, e, w, T)
    est = rotation_number_numeric(m.hamiltonian, orbit, horizon=8)
    series = 2 + 4 * e + 26 * e * e
    assert abs(est.value - series) < 5e-4
    assert est.method == "snap-elliptic"


def _orbit(model, e, axis, n=None):
    """The axis orbit as verify shoots it; an ``n`` cuts its reversor
    chain to the first n, so 0 shoots it from the same seed over full
    periods and 1 over half periods."""
    w, T = model.seed_orbit(e, axis)
    return find_periodic_orbit(model.hamiltonian, e, w, T,
                               tag=f"axis-{axis}",
                               reversors=model.symmetric_seed(axis)[1][:n])


def _circle_brackets(ham, orbit, horizon, frame_phase=0.0):
    """The circle-map brackets (lo, hi) for n = 1, 2, 4, ..., 2^horizon."""
    P = numeric._reduced_monodromy(ham, orbit.point, orbit.monodromy,
                                   frame_phase)
    d0 = numeric._anchor_winding(ham, orbit, frame_phase, 1e-6)
    return list(numeric._circle_brackets(P, numeric._branch(P, d0), horizon))


@pytest.mark.parametrize("model", [hill_regularized, lambda: henon_heiles(4)],
                         ids=["hill", "henon-heiles-4"])
def test_circle_brackets_match_the_ode_oracle(model):
    m = model()
    for axis, phase in ((1, 0.0), (2, 0.0), (1, 0.3)):
        orbit = _orbit(m, 1e-3, axis)
        got = _circle_brackets(m.hamiltonian, orbit, 3, phase)
        want = oracle_poincare_brackets(m.hamiltonian, orbit, phase)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-6


@pytest.mark.parametrize("P,largest", [
    (np.array([[1e200, 3e200], [-2e200, 1e200]]), "3e+200"),
    (np.array([[math.inf, 0.0], [0.0, 1.0]]), "inf"),
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), "nan"),
], ids=["overflow", "infinite", "nan"])
def test_circle_brackets_reject_a_monodromy_past_a_float(recwarn, P, largest):
    with pytest.raises(RuntimeError, match=re.escape(
            "rotation number failed: the circle-map bracket of a reduced "
            f"monodromy up to {largest} is not finite")):
        list(numeric._circle_brackets(P, 0.0, 5))
    assert not recwarn.list


@pytest.mark.parametrize("fill", [math.nan, 1e308], ids=["nan", "overflow"])
def test_rotation_number_rejects_a_monodromy_past_a_float(fill):
    # no NaN may reach round() in _branch, and no entry of 1e308 may
    # overflow the projection onto (V1, V2) with a warning
    q = quadratic(1, 2)
    orbit = dataclasses.replace(_orbit(q, 1e-3, 1),
                                monodromy=np.full((4, 4), fill))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=re.escape(
                "rotation number failed: the monodromy's entries sum to "
                f"{16 * fill}, not a finite float")):
            rotation_number_numeric(q.hamiltonian, orbit, horizon=5)


def test_a_monodromy_past_a_float_exits_3_naming_the_orbit(monkeypatch,
                                                           capsys):
    shoot = numeric.find_periodic_orbit

    def shoot_then_spoil(*args, **kwargs):
        orbit = shoot(*args, **kwargs)
        return dataclasses.replace(orbit, monodromy=np.full((4, 4), math.nan))

    monkeypatch.setattr(numeric, "find_periodic_orbit", shoot_then_spoil)
    code = cli.main(["verify", "--model", "quadratic", "--alpha2", "2",
                     "--energies", "1e-3", "--horizon", "5"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PRECONDITION
    assert "E = 0.001, axis-1 orbit: rotation number failed" in err


def _no_snap_holds(est, want):
    lo, hi = est.raw
    assert est.method == "circle-map"
    assert est.value == 0.5 * (lo + hi)
    assert est.error > 0.5 * (hi - lo)
    assert abs(est.value - want) <= est.error


def test_parabolic_monodromy_reports_the_circle_map():
    q = quadratic(1, 2)
    for axis, want in ((1, 3.0), (2, 1.5)):
        est = rotation_number_numeric(q.hamiltonian, _orbit(q, 1e-3, axis),
                                      horizon=5)
        assert abs(abs(est.trace_monodromy) - 2.0) < 1e-7
        _no_snap_holds(est, want)
        assert est.error < 1e-10


def test_snap_false_reports_the_circle_map(monkeypatch):
    # with no snap target the fallback is the circle map
    m = hill_regularized()
    orbit = _orbit(m, 1e-3, 1)
    snapped = rotation_number_numeric(m.hamiltonian, orbit, horizon=6)
    assert snapped.method == "snap-elliptic"
    monkeypatch.setattr(numeric, "_snap", lambda *args: None)
    est = rotation_number_numeric(m.hamiltonian, orbit, horizon=6)
    _no_snap_holds(est, snapped.value)
    assert est.trace_monodromy == snapped.trace_monodromy
    assert est.raw == list(_circle_brackets(m.hamiltonian, orbit, 6)[-1])


def test_ambiguous_bracket_reports_the_circle_map(monkeypatch):
    m = hill_regularized()
    orbit = _orbit(m, 1e-3, 1)
    snapped = rotation_number_numeric(m.hamiltonian, orbit, horizon=6)
    tried = []

    def ambiguous(_tr, center, radius):
        tried.append(radius)
        return None

    monkeypatch.setattr(numeric, "_snap", ambiguous)
    est = rotation_number_numeric(m.hamiltonian, orbit, horizon=6)
    assert len(tried) == 7                      # n = 1, 2, 4, ..., 64
    _no_snap_holds(est, snapped.value)


@pytest.mark.parametrize("model,horizon", [
    (hill_regularized, 8), (lambda: quadratic(1, 2), 5)],
    ids=["hill-8", "quadratic12-5"])
def test_rotation_number_rhs_budget(monkeypatch, model, horizon):
    # one anchor run over one period; the horizon costs no ODE time
    m = model()
    orbit = _orbit(m, 1e-3, 1)
    calls = []
    inner = numeric._projected_hessian

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(numeric, "_projected_hessian", counted)
    rotation_number_numeric(m.hamiltonian, orbit, horizon=horizon)
    assert 0 < len(calls) <= 200


@pytest.fixture(scope="module")
def property_orbits():
    """(model, orbit, exact value or None) for the criterion-5 orbits and
    the quadratic 1:2 and 2:3 controls, shot once."""
    out = []
    for model, energies, exact in (
            (hill_regularized(), (1e-3, 2e-3, 4e-3), False),
            (henon_heiles(4), (1e-3, 2e-3, 4e-3), False),
            (quadratic(1, 2), (1e-3,), True),
            (quadratic(2, 3), (1e-3,), True)):
        a1, a2 = (float(a) for a in model.alpha)
        for e in energies:
            for axis, rho in ((1, 1 + a2 / a1), (2, 1 + a1 / a2)):
                out.append((model, _orbit(model, e, axis),
                            rho if exact else None))
    return out


@pytest.mark.parametrize("horizon", [5, 6, 7, 8])
def test_rotation_error_is_a_bound(monkeypatch, property_orbits, horizon):
    # with the snap and without it: the circle-map fallback, reached when
    # _snap finds no target
    for model, orbit, exact in property_orbits:
        ham = model.hamiltonian
        want = exact
        if want is None:
            ref = rotation_number_numeric(ham, orbit)
            assert ref.method == "snap-elliptic"
            want = ref.value
        for phase in (0.0, 0.3):
            for snap in (True, False):
                with monkeypatch.context() as mp:
                    if not snap:
                        mp.setattr(numeric, "_snap", lambda *args: None)
                    est = rotation_number_numeric(
                        ham, orbit, horizon=horizon, frame_phase=phase)
                assert abs(est.value - want) <= est.error, (
                    model.name, orbit.tag, orbit.energy, phase, snap, est)


def test_orbit_record_keeps_the_newton_monodromy(monkeypatch):
    # the record's M is R M_h^-1 R M_h of the last half-period Newton run,
    # and the rotation number integrates no monodromy again
    m = hill_regularized()
    w, T = m.seed_orbit(1e-3, 2)
    chain = m.symmetric_seed(2)[1][:1]
    runs = []
    inner = numeric.flow_with_stm

    def recorded(ham, w0, t, tol):
        out = inner(ham, w0, t, tol)
        runs.append((np.array(w0), t, tol, out[1]))
        return out

    monkeypatch.setattr(numeric, "flow_with_stm", recorded)
    orbit = find_periodic_orbit(m.hamiltonian, 1e-3, w, T, reversors=chain)
    w0, t, tol, M_half = runs[-1]
    assert orbit.reversors == chain
    assert np.array_equal(w0, orbit.point) and tol == numeric.STM_RTOL
    assert t == 0.5 * orbit.period
    R = np.diag(chain[0])
    want = R @ np.linalg.inv(M_half) @ R @ M_half
    assert np.max(np.abs(orbit.monodromy - want)) < 1e-11

    def unused(*_args):
        raise AssertionError("monodromy integrated again")

    monkeypatch.setattr(numeric, "flow_with_stm", unused)
    est = rotation_number_numeric(m.hamiltonian, orbit)
    assert est.method == "snap-elliptic"


# a 1:2 polynomial as `verify --input` reads it (Theorem 1.2(v) holds);
# y1 y2^2 needs s1 = 1 and x2^3 needs s2 = -1: its one diagonal reversor
# is (1, -1, -1, 1)
_INPUT_12 = """chart: real
field: rational
order: 4
1 : 0 0 0 2
1/2 : 0 0 2 0
1 : 0 2 0 0
1/2 : 2 0 0 0
-1 : 0 0 0 3
1/2 : 0 1 1 1
-2/3 : 1 2 0 0
3 : 2 0 0 2
-3/4 : 2 2 0 0
-1 : 4 0 0 0
"""


# a 2:3 polynomial with the Henon-Heiles coupling x1^2 x2, which needs
# s2 = -1: its reversors (1, -1, -1, 1) and (-1, -1, 1, 1) multiply to -I
# on the axis-1 plane and to +I on the other, which the flow couples to it,
# so its axis-1 orbit is shot over a quarter period and the order of the
# two rebuilds matters; its axis-2 orbit is shot over half a period
_INPUT_23 = """chart: real
field: rational
order: 4
1 : 2 0 0 0
1 : 0 0 2 0
3/2 : 0 2 0 0
3/2 : 0 0 0 2
1 : 0 0 2 1
1 : 2 0 0 1
1/2 : 0 0 0 3
"""


@pytest.fixture(scope="module")
def input_orbits():
    out = []
    for text, name in ((_INPUT_12, "input-1:2"), (_INPUT_23, "input-2:3")):
        m = from_polynomial(read_polynomial(text), name)
        out.extend((m, _orbit(m, 1e-3, axis)) for axis in (1, 2))
    return out


def test_half_and_full_period_paths_agree(property_orbits, input_orbits):
    # every built-in verify orbit and the inputs: each shorter prefix of
    # the orbit's reversor chain, from the same seed, finds the same orbit
    # and rotation number (full vs half, and half vs quarter)
    cases = [(m, o) for m, o, _ in property_orbits] + input_orbits
    for model, orbit in cases:
        assert orbit.reversors, model.name
        axis = int(orbit.tag[-1])
        others = [_orbit(model, orbit.energy, axis, n)
                  for n in range(len(orbit.reversors))]
        assert [o.reversors for o in others] == [
            orbit.reversors[:n] for n in range(len(orbit.reversors))]
        est = rotation_number_numeric(model.hamiltonian, orbit)
        for other in others:
            assert abs(orbit.period - other.period) < 1e-9 * other.period
            other_est = rotation_number_numeric(model.hamiltonian, other)
            err_bar = max(est.error, other_est.error)
            assert abs(est.value - other_est.value) <= err_bar, (
                model.name, orbit.tag, orbit.energy, est, other_est)


def test_doubly_symmetric_orbits_take_the_quarter_path(property_orbits,
                                                       input_orbits):
    # hill and the quadratic controls have a second reversor fixing the
    # quarter-turn point, and so has the 2:3 input on axis 1;
    # henon-heiles (N = 4 and 6), isosceles and the 1:2 input have none
    # and keep the half- or full-period path
    for model, orbit in [(m, o) for m, o, _ in property_orbits] + input_orbits:
        quarter = (model.name in ("hill", "quadratic")
                   or (model.name, orbit.tag) == ("input-2:3", "axis-1"))
        assert (len(orbit.reversors) == 2) == quarter, model.name
        assert orbit.reversors == model.symmetric_seed(int(orbit.tag[-1]))[1]
        if quarter:
            assert orbit.reversors[1] != orbit.reversors[0]
    for m in (henon_heiles(6), isosceles(3, 1, 4), isosceles(1, 1, 4)):
        assert [m.symmetric_seed(axis)[1][1:] for axis in (1, 2)] == [(), ()]
    hill = hill_regularized()
    assert [hill.symmetric_seed(axis)[1][1:] for axis in (1, 2)] == [
        ((1, -1, -1, 1),), ((1, -1, -1, 1),)]


def test_quarter_arc_ends_on_the_second_fixed_set(property_orbits,
                                                  input_orbits):
    # the converged hill orbits and the 2:3 input's axis-1 orbit meet
    # Fix(R2) at T/4, and reach R2 w at T/2
    cases = [(m, o) for m, o, _ in property_orbits if m.name == "hill"]
    cases += [(m, o) for m, o in input_orbits if len(o.reversors) == 2]
    assert len(cases) == 7
    for model, orbit in cases:
        r2 = np.asarray(orbit.reversors[1], dtype=float)
        size = np.linalg.norm(orbit.point)
        wq, _ = flow_with_stm(model.hamiltonian, orbit.point,
                              0.25 * orbit.period, numeric.STM_RTOL)
        assert np.linalg.norm(wq - r2 * wq) <= 1e-9 * size, (
            orbit.tag, orbit.energy)
        wh, _ = flow_with_stm(model.hamiltonian, orbit.point,
                              0.5 * orbit.period, numeric.STM_RTOL)
        assert np.linalg.norm(wh - r2 * orbit.point) <= 1e-9 * size


@pytest.mark.parametrize("build,axis", [
    (hill_regularized, 2),
    (lambda: from_polynomial(read_polynomial(_INPUT_23), "input-2:3"), 1)],
    ids=["hill", "input-2:3"])
def test_quarter_arc_record_keeps_the_newton_monodromy(monkeypatch, build,
                                                       axis):
    # the record's M is R M_h^-1 R M_h with M_h = R2 M_q^-1 R2 M_q of the
    # last quarter-period Newton run, and the rotation number integrates
    # no monodromy again; on hill R2 = -R, on the 2:3 input it is not
    m = build()
    w, T = m.seed_orbit(1e-3, axis)
    chain = m.symmetric_seed(axis)[1]
    runs = []
    inner = numeric.flow_with_stm

    def recorded(ham, w0, t, tol):
        out = inner(ham, w0, t, tol)
        runs.append((np.array(w0), t, tol, out[1]))
        return out

    monkeypatch.setattr(numeric, "flow_with_stm", recorded)
    orbit = find_periodic_orbit(m.hamiltonian, 1e-3, w, T, reversors=chain)
    w0, t, tol, M_q = runs[-1]
    assert orbit.reversors == chain and len(chain) == 2
    assert np.array_equal(w0, orbit.point) and tol == numeric.STM_RTOL
    assert t == 0.25 * orbit.period
    R, R2 = (np.diag(r) for r in chain)
    M_half = R2 @ np.linalg.inv(M_q) @ R2 @ M_q
    want = R @ np.linalg.inv(M_half) @ R @ M_half
    assert np.max(np.abs(orbit.monodromy - want)) < 1e-11

    def unused(*_args):
        raise AssertionError("monodromy integrated again")

    monkeypatch.setattr(numeric, "flow_with_stm", unused)
    est = rotation_number_numeric(m.hamiltonian, orbit)
    assert est.method == "snap-elliptic"
    # the circle-map check's second monodromy integrates the same arc
    monkeypatch.setattr(numeric, "flow_with_stm", recorded)
    M_check = numeric._monodromy(m.hamiltonian, orbit, 1e-10)
    assert runs[-1][1:3] == (0.25 * orbit.period, 1e-10)
    assert np.max(np.abs(M_check - orbit.monodromy)) < 1e-8


def test_report_rejects_a_repeated_energy(monkeypatch):
    # the fit of q would be degenerate; no orbit is shot
    def unused(*_args, **_kw):
        raise AssertionError("an orbit was shot")

    monkeypatch.setattr(numeric, "find_periodic_orbit", unused)
    with pytest.raises(ValueError, match="repeat a value"):
        numeric.series_vs_numeric_report(henon_heiles(4), [1e-3, 1e-3],
                                         horizon=5)


def test_a_chain_of_three_reversors_is_rejected():
    m = hill_regularized()
    w, T = m.seed_orbit(1e-3, 1)
    chain = m.symmetric_seed(1)[1]
    with pytest.raises(ValueError, match="3 reversors"):
        find_periodic_orbit(m.hamiltonian, 1e-3, w, T,
                            reversors=chain + chain[:1])


def test_on_orbit_tells_the_orbit_from_another(property_orbits):
    # henon-heiles at E = 1e-3: the two axis periods agree to 1e-6, so
    # verify asks whether the axis-2 start lies on the axis-1 orbit
    o1, o2 = (o for m, o, _ in property_orbits
              if m.name == "henon-heiles" and o.energy == 1e-3)
    assert abs(o1.period - o2.period) <= numeric._SAME_PERIOD * o1.period
    ham = henon_heiles(4).hamiltonian
    assert not numeric._on_orbit(ham, o1, o2.point)
    assert numeric._on_orbit(ham, o1, o1.point)
    for frac in (0.3, 0.7):
        w, _ = flow_with_stm(ham, o1.point, frac * o1.period, numeric.STM_RTOL)
        assert numeric._on_orbit(ham, o1, w)
        assert not numeric._on_orbit(ham, o1, 1.001 * w)


class BudgetExceeded(BaseException):
    """Raised by the alarm; not an Exception, so the CLI boundary lets it by."""


@contextlib.contextmanager
def _budget(seconds):
    def alarm(_signum, _frame):
        raise BudgetExceeded(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_field_turning_nan_after_shooting_exits_3(monkeypatch, capsys):
    # solve_ivp never returns from a NaN error norm: the winding anchor
    # run must stop on its right-hand side instead
    shoot = numeric.find_periodic_orbit

    def shoot_then_poison(ham, *args, **kwargs):
        orbit = shoot(ham, *args, **kwargs)
        monkeypatch.setattr(ham, "jet", _NAN_FIELD.jet)
        return orbit

    monkeypatch.setattr(numeric, "find_periodic_orbit", shoot_then_poison)
    with _budget(5):
        code = cli.main(["verify", "--model", "henon-heiles", "--order", "4",
                         "--series-order", "1", "--energies", "1e-3",
                         "--horizon", "5"])
    assert code == cli.EXIT_PRECONDITION
    assert ("axis-1 orbit: winding integration failed"
            in capsys.readouterr().err)


def test_on_orbit_stops_on_a_non_finite_field(property_orbits):
    orbit = next(o for m, o, _ in property_orbits if m.name == "henon-heiles")
    with _budget(5), pytest.raises(
            RuntimeError, match="orbit-coincidence integration failed"):
        numeric._on_orbit(_NAN_FIELD, orbit, orbit.point)


def test_rebuilt_monodromy_is_symplectic_and_one_period(property_orbits,
                                                        input_orbits):
    J = numeric._J
    cases = [(m, o) for m, o, _ in property_orbits] + input_orbits
    for model, orbit in cases:
        M = orbit.monodromy
        assert np.max(np.abs(M.T @ J @ M - J)) < 1e-9
        _, M_full = flow_with_stm(model.hamiltonian, orbit.point,
                                  orbit.period, numeric.STM_RTOL)
        assert np.max(np.abs(M - M_full)) < 1e-9, (model.name, orbit.tag)


def test_polynomial_hamiltonian_compiles_exactly():
    m = hill_regularized()
    ph = PolynomialHamiltonian(m.poly)
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.uniform(-0.2, 0.2, 4)
        assert ph.value(w) == pytest.approx(m.hamiltonian.value(w), abs=1e-14)
        (g, L), (g_m, L_m) = (gradient_and_hessian(h, w)
                              for h in (ph, m.hamiltonian))
        assert np.allclose(g, g_m, atol=1e-13)
        assert np.allclose(L, L_m, atol=1e-12)


def test_polynomial_hamiltonian_compiles_two_functions(monkeypatch):
    names = []
    codegen = numeric._codegen
    monkeypatch.setattr(numeric, "_codegen", lambda name, *args: (
        names.append(name) or codegen(name, *args)))
    PolynomialHamiltonian(henon_heiles(4).poly)
    assert names == ["h_value", "h_jet"]


@pytest.mark.parametrize("coefficient,says", [
    (2 ** 1030, "monomial 1 0 3 0 overflows"),
    # 2^1023 fits a float, 3 * 2^1023 from d/dx1 does not
    (2 ** 1023, "monomial 1 0 3 0 in a derivative overflows"),
], ids=["value", "derivative"])
def test_a_coefficient_past_a_float_is_named(coefficient, says):
    poly = read_polynomial(write_polynomial(henon_heiles(4).poly)
                           + f"{coefficient} : 1 0 3 0\n")
    with pytest.raises(ValueError, match=says):
        PolynomialHamiltonian(poly)


def _stm_rhs(ham):
    """The right-hand side that flow_with_stm hands the stepper."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "_dop853",
                   lambda rhs, y0, T, rtol: seen.append(rhs) or y0)
        flow_with_stm(ham, (0.0,) * 4, 1.0)
    return seen[0]


# hill, Henon-Heiles N = 4 and 8, and the isosceles closed form
_FLOWS = (hill_regularized().hamiltonian, henon_heiles(4).hamiltonian,
          henon_heiles(8).hamiltonian, isosceles(3).hamiltonian)


_stm_rhs_draws = given(
    ham=st.one_of(st.sampled_from(_FLOWS),
                  real_chart_polynomials().map(PolynomialHamiltonian)),
    w=st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4),
    m=st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16))


@settings(max_examples=200, deadline=None)
@_stm_rhs_draws
def test_stm_rhs_is_the_row_loop_bit_for_bit(ham, w, m):
    # the unrolled sums keep the loop's term order: the verify rows pinned
    # with == rest on it
    y = np.array(w + m)
    got = _stm_rhs(ham)(0.0, y)
    want = oracle_stm_rhs_loop(ham, y)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@settings(max_examples=200, deadline=None)
@_stm_rhs_draws
def test_stm_rhs_matches_the_numpy_oracle(ham, w, m):
    # entry by entry within 4 ulp of sum_k |(J L)_ik M_kj|, the scale of
    # the four-term sum, whatever order or FMA the oracle's product takes
    y = np.array(w + m)
    got = np.asarray(_stm_rhs(ham)(0.0, y))
    want = oracle_stm_rhs(ham, y)
    assert got[:4].tolist() == want[:4].tolist()
    _, L = gradient_and_hessian(ham, w)
    scale = np.abs(numeric._J @ np.asarray(L)) @ np.abs(y[4:].reshape(4, 4))
    assert np.all(np.abs(got[4:] - want[4:]) <= 4 * np.spacing(scale.ravel()))


# the built-in polynomials, isosceles alpha = 1 over Q(sqrt 15)
_POLYS = (henon_heiles(4).poly, henon_heiles(8).poly, hill_regularized().poly,
          isosceles(1).poly, isosceles(3).poly, quadratic(1, 2).poly)


@settings(max_examples=200, deadline=None)
@given(poly=st.one_of(st.sampled_from(_POLYS),
                      real_chart_polynomials(fields=(
                          RATIONAL, quad_field(2), quad_field(15)))),
       w=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_hessian_codegen_matches_the_16_expression_oracle(poly, w):
    # one expression per distinct entry, read on both sides of the
    # diagonal: exactly symmetric, and the old codegen's floats bit for bit
    _, got = gradient_and_hessian(PolynomialHamiltonian(poly), w)
    want = oracle_hessian(poly)(w)
    hexes = [[v.hex() for v in row] for row in got]
    assert hexes == [list(col) for col in zip(*hexes)]
    assert hexes == [[v.hex() for v in row] for row in want]


@settings(max_examples=200, deadline=None)
@given(poly=st.one_of(st.sampled_from(_POLYS), real_chart_polynomials()),
       w=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_jet_is_the_compiled_gradient_and_hessian(poly, w):
    # the gradient's entries each compiled alone, then the Hessian's upper
    # triangle row by row: one flat tuple of floats, bit for bit
    got = PolynomialHamiltonian(poly).jet(w)
    L = oracle_hessian(poly)(w)
    want = (*oracle_gradient(poly)(w),
            *(L[i][j] for i in range(4) for j in range(i, 4)))
    assert type(got) is tuple and {type(v) for v in got} == {float}
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_winding_rate_closed_form():
    assert winding_rate(2.0, 1.0) == pytest.approx(math.sqrt(3))
    assert winding_rate(1.0, 2.0) == 0.0
    assert winding_rate(-2.0, 1.0) == pytest.approx(-math.sqrt(3))
    assert winding_rate(1.0, 1.0) == 0.0


def test_winding_rate_small_grid():
    vals = [-2.0, -0.5, 0.5, 2.0]
    pairs, numeric, closed = winding_rate_grid(vals, vals, horizon=4000)
    for (a, b), got, want in zip(pairs, numeric, closed):
        if abs(abs(a) - abs(b)) < 0.1:
            continue
        assert abs(got - want) < 1e-3
