"""Model bundles: closed forms vs exact truncations, metadata, energy maps."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from bgnf import cli, hopf, models
from bgnf.models import (from_polynomial, henon_heiles, hill_regularized,
                         isosceles, quadratic)
from bgnf.poly import REAL, Polynomial
from bgnf.scalars import CC, RATIONAL


def _poly_value(poly, w):
    return poly.evaluate(w).real


@pytest.mark.parametrize("builder,args", [
    (henon_heiles, ()),
    (hill_regularized, ()),
    (isosceles, (F(3), F(1), 6)),
    (isosceles, (F(1), F(1), 6)),
    (quadratic, (1, 2)),
])
def test_polynomial_matches_closed_form(builder, args):
    m = builder(*args)
    rng = np.random.default_rng(7)
    order = m.poly.order
    for _ in range(20):
        w = rng.uniform(-1e-2, 1e-2, 4)
        exact = _poly_value(m.poly, w)
        closed = m.hamiltonian.value(w)
        bound = 10.0 * np.sum(np.abs(w)) ** (order + 1) + 1e-15
        assert abs(exact - closed) <= bound


@pytest.mark.parametrize("builder,args", [
    (henon_heiles, ()),
    (hill_regularized, ()),
    (isosceles, (F(3), F(1), 4)),
])
def test_gradient_hessian_consistent_with_value(builder, args):
    m = builder(*args)
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(5):
        w = rng.uniform(-5e-2, 5e-2, 4)
        g = np.asarray(m.hamiltonian.grad(w))
        L = np.asarray(m.hamiltonian.hess(w))
        assert np.allclose(L, L.T)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (m.hamiltonian.value(w + e) - m.hamiltonian.value(w - e)) / (2 * h)
            assert abs(fd - g[i]) < 5e-8 * (1 + abs(g[i]))
            fd2 = (np.asarray(m.hamiltonian.grad(w + e))
                   - np.asarray(m.hamiltonian.grad(w - e))) / (2 * h)
            assert np.allclose(fd2, L[:, i], atol=5e-7)


@pytest.mark.parametrize("builder,args,zp,route", [
    (henon_heiles, (), 3, "psi"),
    (hill_regularized, (), 4, "psi"),
    (quadratic, (1, 1), 4, "psi"),      # every rotation: recorded as Z_4
    (quadratic, (1, 2), None, "direct"),
    (isosceles, (F(1), F(1), 4), None, "direct"),
    (isosceles, (F(3), F(1), 4), None, "direct"),
    # equal frequencies without Z_p stay on the direct route
    (isosceles, (F(0), F(1), 4), None, "direct"),
])
def test_metadata_is_derived_from_the_polynomial(builder, args, zp, route):
    m = builder(*args)
    assert m.symmetry.get("zp") == zp and m.route == route
    again = from_polynomial(m.poly)
    for key in ("alpha", "res", "symmetry", "route"):
        assert getattr(again, key) == getattr(m, key), key


@pytest.mark.parametrize("verb,unread", [
    ("normalize", ("zp_phase_gcd", "diagonal_reversors", "PolynomialHamiltonian")),
    ("analyze", ("diagonal_reversors", "PolynomialHamiltonian")),
])
def test_a_verb_derives_only_what_it_reads(monkeypatch, capsys, verb, unread):
    def unread_derivation(*_args):
        raise AssertionError("derived, but the verb never reads it")
    for name in unread:
        monkeypatch.setattr(models, name, unread_derivation)
    for model in ("henon-heiles", "hill"):
        assert cli.main([verb, "--model", model, "--order", "6"]) == 0
    assert "internal error" not in capsys.readouterr().err


def test_from_polynomial_needs_a_diagonal_quadratic_part():
    h = Polynomial(REAL, RATIONAL, 4, {(1, 1, 0, 0): CC(F(1))})
    with pytest.raises(ValueError, match="no diagonal quadratic part"):
        from_polynomial(h)


def test_henon_heiles_basics():
    m = henon_heiles()
    assert m.hamiltonian.value(np.zeros(4)) == 0
    assert np.allclose(np.asarray(m.hamiltonian.hess(np.zeros(4))), np.eye(4))
    assert m.res.label() == "(-1,1)"
    assert m.symmetry["zp"] == 3


def test_hill_quartic_closed_form_sample():
    # H^(4) = 2|x|^2 (i y . x) at x = (1, 0), y = (0, 1): i y.x = -x1 y2 = -1
    m = hill_regularized()
    w = np.array([0.0, 1.0, 1.0, 0.0])
    h2 = 0.5 * (1 + 1)
    h4 = 2.0 * 1.0 * (-1.0)
    h6 = -4.0
    assert m.hamiltonian.value(w) == pytest.approx(h2 + h4 + h6, rel=1e-14)


def test_hill_energy_maps_roundtrip():
    m = hill_regularized()
    e = 1e-3
    c_h = m.energy_maps["jacobi_from_energy"](e)
    assert c_h < 0
    assert m.energy_maps["energy_from_jacobi"](c_h) == pytest.approx(e, rel=1e-12)


def test_isosceles_field_selection():
    assert isosceles(3, 1, 4).poly.field.kind == "rational"
    m = isosceles(1, 1, 4)
    assert m.poly.field.kind == "quadratic" and m.poly.field.d == 15
    # varpi must have a square root in the field
    with pytest.raises(ValueError, match="sqrt\\(varpi\\)"):
        isosceles(1, 2, 4)
    # a rational square works, and so does r^2 * core
    isosceles(1, 4, 4)
    isosceles(1, 15, 4)


def test_isosceles_resonance_classification():
    assert isosceles(3, 1, 4).res.label() == "(-2,1)"
    assert isosceles(1, 1, 4).res.nonresonant
    assert isosceles(0, 1, 4).res.label() == "(-1,1)"
    # alpha = 20/23 has frequency ratio 3/2
    assert isosceles(F(20, 23), 1, 4).res.label() == "(-3,2)"


def test_isosceles_eccentricity_map():
    m = isosceles(3, 1, 4)
    e = m.energy_maps["eccentricity"]()
    assert e == pytest.approx(math.sqrt(1 - 2 / (1 + 4 / 3) ** 2))
    assert m.energy_maps["energy_from_eccentricity"](0.1) == pytest.approx(0.01)


def test_isosceles_alpha_continuity_float_bracketing():
    # coefficients at alpha = 3 +/- 1e-6 (float path) bracket the exact
    # alpha = 3 rationals
    exact = isosceles(3, 1, 4).normal_form(4)
    lo = isosceles(F(3) - F(1, 10 ** 6), 1, 4)
    hi = isosceles(F(3) + F(1, 10 ** 6), 1, 4)
    for e in ((2, 0, 2, 0), (1, 1, 1, 1), (0, 2, 0, 2)):
        v = float(exact.coefficient(e).re)
        a = float(lo.normal_form(4).coefficient(e).re)
        b = float(hi.normal_form(4).coefficient(e).re)
        assert min(a, b) - 1e-9 <= v <= max(a, b) + 1e-9


def test_quadratic_model_degeneracies():
    m = quadratic(1, 2)
    ana = m.analysis()
    assert ana.nu is None and not ana.verdict.satisfied
    w, T = m.seed_orbit(1e-3, 1)
    assert T == pytest.approx(2 * math.pi)
    w, T = m.seed_orbit(1e-3, 2)
    assert T == pytest.approx(math.pi)


def test_seed_orbit_reads_the_analysis_series(monkeypatch):
    m = henon_heiles(order=4)
    ana = m.analysis()
    u1 = hopf.amplitude_series(ana.nf, 1).eval_float(2e-3)
    omega1 = hopf.frequency_series(ana.nf)[0].eval_float(2e-3)

    def unused(*_args, **_kw):
        raise AssertionError("series derived again")

    monkeypatch.setattr(hopf, "amplitude_series", unused)
    monkeypatch.setattr(hopf, "frequency_series", unused)
    w, T = m.seed_orbit(2e-3, 1)
    assert T == 2.0 * math.pi / abs(omega1)
    c = math.sqrt(u1)
    pt = [c / math.sqrt(2.0), 0.0, 0.0, -c / math.sqrt(2.0)]  # Psi(c, 0, 0, 0)
    assert np.array_equal(w, [z.real for z in
                              m.normal_form().transform.evaluate(pt)])


def test_seed_orbit_reads_the_one_branch_of_a_one_orbit_form(monkeypatch):
    # 1:2 with an x1^2 x2 term: gamma1 does not exist, gamma2 does
    h = quadratic(1, 2, 4).poly + Polynomial.monomial(
        REAL, (0, 0, 2, 1), 1, RATIONAL, 4)
    m = from_polynomial(h)
    branch = m.analysis().cases.branch2

    def unused(*_args, **_kw):
        raise AssertionError("series derived again")

    monkeypatch.setattr(hopf, "amplitude_series", unused)
    monkeypatch.setattr(hopf, "frequency_series", unused)
    w, T = m.seed_orbit(1e-3, 2)
    assert T == 2.0 * math.pi / abs(branch.omega.eval_float(1e-3))
    assert np.linalg.norm(w) == pytest.approx(
        math.sqrt(branch.u.eval_float(1e-3)))
    with pytest.raises(ValueError, match="axis-1 orbit does not exist"):
        m.seed_orbit(1e-3, 1)


@pytest.mark.parametrize("build,seeds", [
    (lambda: henon_heiles(4),
     ((0, ((1, -1, -1, 1),)), (1, ((1, -1, -1, 1),)))),
    (hill_regularized,
     ((2, ((-1, 1, 1, -1), (1, -1, -1, 1))),
      (3, ((-1, 1, 1, -1), (1, -1, -1, 1))))),
    (lambda: quadratic(1, 2),
     ((2, ((-1, 1, 1, -1), (1, 1, -1, -1))),
      (3, ((1, -1, -1, 1), (1, 1, -1, -1))))),
], ids=["henon-heiles", "hill", "quadratic12"])
def test_seeds_lie_on_a_fixed_set(build, seeds):
    # x_j on the normal-form circle where a reversor R fixes its image,
    # else the quarter turn y_j; the image is exactly on Fix(R), the first
    # reversor of the chain
    m = build()
    for axis, want in zip((1, 2), seeds):
        assert m.symmetric_seed(axis) == want
        w, _ = m.seed_orbit(1e-3, axis)
        assert np.array_equal(np.asarray(want[1][0]) * w, w)


@pytest.mark.parametrize("build", [
    lambda: henon_heiles(4), lambda: henon_heiles(8), hill_regularized,
    lambda: quadratic(1, 2), lambda: isosceles(3, 1, 6)],
    ids=["henon-heiles-4", "henon-heiles-8", "hill", "quadratic12",
         "isosceles3-6"])
def test_truncated_full_analysis_is_the_k_analysis(build):
    # verify truncates the one full analysis for its series columns: that
    # is the series analyze gives at K, error order included
    m = build()
    full = m.analysis()
    for K in range(full.series_order + 1):
        ana = m.analysis(series_order=K)
        for name in ("rho1", "rho2", "product"):
            assert getattr(full, name).truncate(K + 1) == getattr(ana, name)


def test_seed_orbit_rejects_a_seed_off_the_energy_surface():
    # a 10^6 y2^2 x1 coupling puts the axis-2 seed at H ~ 6e49 for E = 1e-3
    h = quadratic(2, 3, 4).poly + Polynomial.monomial(
        REAL, (0, 2, 1, 0), 10 ** 6, RATIONAL, 4)
    m = from_polynomial(h)
    with pytest.raises(ValueError, match="energy surface"):
        m.seed_orbit(1e-3, 2)


def test_seed_orbit_lands_near_energy_level():
    for m in (henon_heiles(), hill_regularized()):
        for axis in (1, 2):
            w, T = m.seed_orbit(1e-3, axis)
            assert abs(m.hamiltonian.value(w) - 1e-3) < 5e-5
            assert 5.0 < T < 7.5
