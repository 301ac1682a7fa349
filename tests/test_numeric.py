"""Numeric ground truth: frames, flows, shooting, rotation numbers."""

import math

import numpy as np
import pytest

from bgnf import numeric
from bgnf.numeric import (
    PolynomialHamiltonian,
    find_periodic_orbit,
    flow_with_stm,
    integrate,
    quaternion_frame,
    rotation_number_numeric,
    winding_rate,
    winding_rate_grid,
    winding_rate_numeric,
)
from bgnf.models import henon_heiles, hill_regularized, quadratic


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


def test_frame_zero_gradient_rejected():
    with pytest.raises(ValueError):
        quaternion_frame((0.0, 0.0, 0.0, 0.0))


def test_harmonic_circle_period_and_energy():
    q = quadratic(1, 1)
    w0 = np.array([0.0, 0.0, 0.1, 0.0])
    traj = integrate(q.hamiltonian, w0, (0.0, 2 * math.pi), tol=1e-12,
                     t_eval=[2 * math.pi])
    assert np.linalg.norm(traj.w[-1] - w0) < 1e-10
    assert traj.energy_drift < 1e-12


def test_energy_drift_bound_hill():
    m = hill_regularized()
    w, _ = m.seed_orbit(1e-3, 1)
    traj = integrate(m.hamiltonian, w, (0.0, 100.0), tol=1e-12,
                     t_eval=np.linspace(0.0, 100.0, 101))
    assert traj.energy_drift < 1e-10


def test_forward_backward_reversibility():
    m = henon_heiles()
    w0 = np.array([0.01, -0.02, 0.03, 0.015])
    fwd = integrate(m.hamiltonian, w0, (0.0, 20.0), tol=1e-12, t_eval=[20.0])
    back = integrate(m.hamiltonian, fwd.w[-1], (20.0, 0.0), tol=1e-12,
                     t_eval=[0.0])
    assert np.linalg.norm(back.w[-1] - w0) < 1e-9


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
        traj = integrate(m.hamiltonian, orbit.point, (0.0, orbit.period),
                         tol=1e-11,
                         t_eval=np.linspace(0.0, orbit.period, 400))
        x1 = traj.w[:, 2]
        x2 = traj.w[:, 3]
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


def _orbit(model, e, axis):
    w, T = model.seed_orbit(e, axis)
    return find_periodic_orbit(model.hamiltonian, e, w, T)


def _long_run(monkeypatch, ham, orbit, horizon):
    """The rotation number with no bracket: the 2^horizon Richardson path."""
    with monkeypatch.context() as mp:
        mp.setattr(numeric, "_poincare_brackets", lambda *a: iter(()))
        return rotation_number_numeric(ham, orbit, horizon=horizon)


@pytest.mark.slow
@pytest.mark.parametrize("model", [hill_regularized, lambda: henon_heiles(4)],
                         ids=["hill", "henon-heiles-4"])
def test_bracket_snap_matches_long_run(monkeypatch, model):
    # the shortest long run whose window isolates one candidate: 2^6
    # periods at E = 4e-3, 2^8 at E = 1e-3 (the phases sit closer there)
    m = model()
    for e, horizon in ((1e-3, 8), (4e-3, 6)):
        for axis in (1, 2):
            orbit = _orbit(m, e, axis)
            est = rotation_number_numeric(m.hamiltonian, orbit)
            long = _long_run(monkeypatch, m.hamiltonian, orbit, horizon)
            assert est.method == long.method == "snap-elliptic"
            assert (est.value, est.error) == (long.value, long.error)
            assert math.isnan(est.richardson)
            lo, hi = est.raw
            pad = (hi - lo) + 1e-7
            assert lo - pad <= long.richardson <= hi + pad


def test_ambiguous_bracket_falls_back_to_richardson(monkeypatch):
    m = hill_regularized()
    orbit = _orbit(m, 1e-3, 1)
    periods = []

    def wide(*_args):
        for n in (1, 2, 4, 8):
            periods.append(n)
            yield 0.0, 10.0

    long = _long_run(monkeypatch, m.hamiltonian, orbit, 6)
    monkeypatch.setattr(numeric, "_poincare_brackets", wide)
    est = rotation_number_numeric(m.hamiltonian, orbit, horizon=6)
    assert periods == [1, 2, 4, 8]
    assert len(est.raw) == 3                     # 2^4, 2^5, 2^6 periods
    assert est.richardson == long.richardson
    assert (est.value, est.error, est.method) == (
        long.value, long.error, long.method)
    plain = rotation_number_numeric(m.hamiltonian, orbit, horizon=6,
                                    snap=False)
    assert plain.method == "richardson"
    assert plain.value == plain.richardson == long.richardson


def test_parabolic_monodromy_skips_the_bracket(monkeypatch):
    def unused(*_args):
        raise AssertionError("bracket run on a parabolic monodromy")

    monkeypatch.setattr(numeric, "_poincare_brackets", unused)
    q = quadratic(1, 2)
    for axis in (1, 2):
        est = rotation_number_numeric(q.hamiltonian, _orbit(q, 1e-3, axis),
                                      horizon=5)
        assert est.method == "richardson"
        assert abs(abs(est.trace_monodromy) - 2.0) < 1e-7


def test_orbit_record_keeps_the_newton_monodromy(monkeypatch):
    m = hill_regularized()
    orbit = _orbit(m, 1e-3, 2)
    _, M = flow_with_stm(m.hamiltonian, orbit.point, orbit.period, 1e-12)
    assert np.array_equal(orbit.monodromy, M)

    def unused(*_args):
        raise AssertionError("monodromy integrated again")

    monkeypatch.setattr(numeric, "flow_with_stm", unused)
    est = rotation_number_numeric(m.hamiltonian, orbit, tol=1e-12)
    assert est.method == "snap-elliptic"


def test_polynomial_hamiltonian_compiles_exactly():
    m = hill_regularized()
    ph = PolynomialHamiltonian(m.poly)
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.uniform(-0.2, 0.2, 4)
        assert ph.value(w) == pytest.approx(m.hamiltonian.value(w), abs=1e-14)
        assert np.allclose(ph.grad(w), m.hamiltonian.grad(w), atol=1e-13)
        assert np.allclose(np.asarray(ph.hess(w)),
                           np.asarray(m.hamiltonian.hess(w)), atol=1e-12)


def test_winding_rate_closed_form():
    assert winding_rate(2.0, 1.0) == pytest.approx(math.sqrt(3))
    assert winding_rate(1.0, 2.0) == 0.0
    assert winding_rate(-2.0, 1.0) == pytest.approx(-math.sqrt(3))
    assert winding_rate(1.0, 1.0) == 0.0


def test_winding_rate_numeric_samples():
    assert winding_rate_numeric(2.0, 1.0, horizon=4000) == pytest.approx(
        math.sqrt(3), abs=1e-3)
    assert abs(winding_rate_numeric(1.0, 2.0, horizon=4000)) < 1e-3


def test_winding_rate_small_grid():
    vals = [-2.0, -0.5, 0.5, 2.0]
    pairs, numeric, closed = winding_rate_grid(vals, vals, horizon=4000)
    for (a, b), got, want in zip(pairs, numeric, closed):
        if abs(abs(a) - abs(b)) < 0.1:
            continue
        assert abs(got - want) < 1e-3
