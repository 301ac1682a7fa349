"""CLI contract: subcommands, report schema, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from fractions import Fraction

from bgnf.cli import EXIT_INPUT, EXIT_OK, EXIT_PRECONDITION, EXIT_TOLERANCE, main
from bgnf import cli, hopf, numeric
from bgnf.poly import REAL, Polynomial, write_polynomial
from bgnf.scalars import RATIONAL
from bgnf.models import MODEL_BUILDERS, henon_heiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_henon_heiles_json(capsys):
    code, out, _ = run(capsys, "normalize", "--model", "henon-heiles",
                       "--order", "4", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["coefficients"]["2 0 2 0"]["re"] == "-5/48"
    assert doc["gauge"] == "im-D"
    assert doc["resonance"] == "(-1,1)"
    assert doc["version"]


def test_normalize_from_input_file(tmp_path, capsys):
    h = henon_heiles(order=4).poly
    path = tmp_path / "hh.poly"
    path.write_text(write_polynomial(h))
    code, out, _ = run(capsys, "normalize", "--input", str(path),
                       "--order", "4", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["coefficients"]["2 0 2 0"]["re"] == "-5/48"


def test_analyze_hill_schema_and_values(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "hill", "--order", "6",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"]["theorem"] == "1.3"
    assert doc["verdict"]["clause"] == "ii"
    assert doc["series"]["product"]["coefficients"] == ["1", "0", "36"]
    assert doc["Omega"] == {"nu1": "1", "nu2": "-1", "nu": "0"}
    assert doc["beta"] == {"beta1": "13/4", "beta2": "13/4"}
    assert doc["nu"] == 2


def test_analyze_isosceles_verdict(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "isosceles",
                       "--alpha", "3", "--varpi", "1", "--order", "4",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"]["theorem"] == "1.2"
    assert doc["verdict"]["clause"] == "v"


def test_analyze_text_prints_extension_scalars_in_report_form(capsys):
    # series and verdict lines over Q(sqrt 15) use the a+b*sqrt(d) format
    code, out, _ = run(capsys, "analyze", "--model", "isosceles",
                       "--alpha", "1", "--order", "4")
    assert code == EXIT_OK
    assert "QuadExt(" not in out
    assert "rho1: 1+2/5*sqrt(15) + 0+21/430*sqrt(15)*E + O(E^2)" in out
    assert "twist product = 1 + (1395/2752) E^1" in out


def test_analyze_quadratic_inconclusive(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "quadratic",
                       "--alpha1", "1", "--alpha2", "2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["nu"] is None
    assert not doc["verdict"]["satisfied"]


def test_analyze_hill_averaged_route(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "hill", "--order", "6",
                       "--route", "rotate", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["gauge"] == "averaged"
    assert doc["series"]["rho1"]["coefficients"] == ["2", "4", "26"]


@pytest.mark.parametrize("argv", [
    ("--model", "isosceles"), ("--model", "henon-heiles"),
    ("--model", "quadratic", "--alpha2", "2")],
    ids=["isosceles", "henon-heiles", "quadratic-1-2"])
def test_rotate_route_without_an_averaged_form_exit_2(capsys, argv):
    code, out, err = run(capsys, "analyze", *argv, "--route", "rotate")
    assert code == EXIT_INPUT
    assert out == ""
    assert "--route rotate" in err and "hill" in err


@pytest.mark.parametrize("verb", ["normalize", "verify"])
def test_route_is_an_analyze_option_only(capsys, verb):
    # only analyze reads --route; argparse rejects it elsewhere, exit 2
    with pytest.raises(SystemExit) as exc:
        main([verb, "--model", "hill", "--route", "psi"])
    assert exc.value.code == EXIT_INPUT
    assert "--route" in capsys.readouterr().err


def test_series_order_is_no_normalize_option(capsys):
    # normalize derives no series; argparse rejects the option, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--model", "henon-heiles", "--order", "3",
              "--series-order", "5"])
    assert exc.value.code == EXIT_INPUT
    assert "--series-order" in capsys.readouterr().err


def test_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.poly"
    path.write_text("chart: real\nfield: rational\norder: 4\noops\n")
    code, _, err = run(capsys, "normalize", "--input", str(path))
    assert code == EXIT_INPUT
    assert "line 4" in err


def test_repeated_monomial_input_exit_2(tmp_path, capsys):
    path = tmp_path / "twice.poly"
    path.write_text("chart: real\nfield: rational\norder: 4\n"
                    "1/2 : 2 0 0 0\n1/2 : 2 0 0 0\n")
    code, _, err = run(capsys, "normalize", "--input", str(path))
    assert code == EXIT_INPUT
    assert "line 5" in err


def test_repeated_header_input_exit_2(tmp_path, capsys):
    # a second order line would cut the degree-6 term and run at N = 4
    path = tmp_path / "reordered.poly"
    path.write_text("chart: real\nfield: rational\norder: 6\n"
                    "1/2 : 2 0 0 0\n1/2 : 0 0 2 0\n1/2 : 0 2 0 0\n"
                    "1/2 : 0 0 0 2\n1 : 0 0 2 1\n1 : 0 0 3 3\norder: 4\n")
    code, out, err = run(capsys, "normalize", "--input", str(path))
    assert code == EXIT_INPUT and not out
    assert "line 10: repeated order header" in err


@pytest.mark.parametrize("imaginary", ["2", f"1/{10 ** 326}"],
                         ids=["2", "1e-326"])
@pytest.mark.parametrize("verb", ["normalize", "analyze", "verify"])
def test_real_chart_imaginary_coefficient_exit_2(tmp_path, capsys, verb,
                                                 imaginary):
    # decided on the exact numerators: 10^-326 is 0.0 as a float
    path = tmp_path / "complex.poly"
    path.write_text("chart: real\nfield: rational\norder: 4\n"
                    "1/2 : 2 0 0 0\n1/2 : 0 0 2 0\n1 : 0 2 0 0\n"
                    f"1 : 0 0 0 2\n1+{imaginary}i : 0 0 2 1\n")
    code, out, err = run(capsys, verb, "--input", str(path))
    assert code == EXIT_INPUT and not out
    assert "numeric path needs real coefficients" in err


@pytest.mark.parametrize("verb,order", [("analyze", "-1"), ("normalize", "2")])
def test_order_below_three_exit_2(capsys, verb, order):
    code, _, err = run(capsys, verb, "--model", "henon-heiles",
                       "--order", order)
    assert code == EXIT_INPUT
    assert "--order" in err


@pytest.mark.parametrize("verb", ["normalize", "analyze", "verify"])
def test_input_file_order_below_three_exit_2(tmp_path, capsys, verb):
    # the file's order is the default N, which --order bounds below by 3
    path = tmp_path / "low.poly"
    path.write_text("chart: real\nfield: rational\norder: 2\n"
                    "1/2 : 2 0 0 0\n1/2 : 0 2 0 0\n"
                    "1/2 : 0 0 2 0\n1/2 : 0 0 0 2\n")
    code, out, err = run(capsys, verb, "--input", str(path))
    assert code == EXIT_INPUT and not out
    assert "order 2" in err and "3..255" in err


@pytest.mark.parametrize("verb", ["normalize", "analyze", "verify"])
def test_order_above_the_key_cap_exit_2(tmp_path, capsys, verb):
    # an exponent must fit its 8-bit key field: N <= 255, by flag or by file
    code, out, err = run(capsys, verb, "--model", "henon-heiles",
                         "--order", "256")
    assert code == EXIT_INPUT and not out
    assert "--order" in err and "255" in err
    path = tmp_path / "high.poly"
    path.write_text("chart: real\nfield: rational\norder: 300\n"
                    "1/2 : 2 0 0 0\n")
    code, out, err = run(capsys, verb, "--input", str(path))
    assert code == EXIT_INPUT and not out
    assert "line 3" in err and "cap 255" in err


HH4 = ("--model", "henon-heiles", "--order", "4", "--series-order", "1")


@pytest.mark.parametrize("token", ["nan", "inf", "-1e-3", "abc"])
def test_verify_energy_not_finite_positive_exit_2(capsys, token):
    code, _, err = run(capsys, "verify", *HH4, f"--energies=1e-3,{token}")
    assert code == EXIT_INPUT
    assert repr(token) in err


def test_verify_repeated_energy_exit_2(capsys, monkeypatch):
    # a repeated energy makes the fit of q degenerate; 1e-3 and 0.001 are
    # one float, and the check runs before any integration
    def unused(*_args, **_kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(numeric, "solve_ivp", unused)
    monkeypatch.setattr(numeric, "_dop853", unused)
    code, out, err = run(capsys, "verify", *HH4,
                         "--energies", "1e-3,2e-3,0.001")
    assert code == EXIT_INPUT and not out
    assert "--energies: 0.001 is given more than once" in err


def test_verify_json_writes_null_for_a_fit_q_that_is_no_number(capsys):
    # one energy fits no q (NaN), which strict JSON cannot carry
    def no_constants(token):
        raise AssertionError(f"{token} is not JSON")

    code, out, err = run(capsys, "verify", *HH4, "--energies", "1e-3",
                         "--format", "json")
    assert code == EXIT_OK, err
    doc = json.loads(out, parse_constant=no_constants)
    assert doc["fit_q"] == {"rho1": None, "rho2": None}
    code, out, err = run(capsys, "verify", *HH4, "--energies", "1e-3")
    assert code == EXIT_OK, err
    assert "# fitted q: rho1 nan  rho2 nan" in out


def test_verify_json_keeps_seven_digits_of_fit_q(capsys):
    # round-off moves the fitted order from its 8th digit on; the text
    # report keeps its 3 digits
    code, out, err = run(capsys, "verify", *HH4, "--energies", "1e-3,2e-3",
                         "--horizon", "5", "--format", "json")
    assert code == EXIT_OK, err
    fit_q = json.loads(out)["fit_q"]
    for q in fit_q.values():
        assert math.isfinite(q) and q == float(f"{q:.7g}")
    code, out, err = run(capsys, "verify", *HH4, "--energies", "1e-3,2e-3",
                         "--horizon", "5")
    assert code == EXIT_OK, err
    assert (f"# fitted q: rho1 {fit_q['rho1']:.3g}  "
            f"rho2 {fit_q['rho2']:.3g}") in out


def test_verify_horizon_below_five_exit_2(capsys):
    code, _, err = run(capsys, "verify", *HH4, "--energies", "1e-3",
                       "--horizon", "4")
    assert code == EXIT_INPUT
    assert "--horizon" in err


@pytest.mark.parametrize("horizon", ["17", "22", "1000000"])
def test_verify_horizon_above_the_cap_exit_2(capsys, monkeypatch, horizon):
    # the lift is iterated 2^horizon times; above 16 is rejected before
    # any integration (one would make the CLI exit 4 here)
    def unused(*_args, **_kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(numeric, "solve_ivp", unused)
    monkeypatch.setattr(numeric, "_dop853", unused)
    code, out, err = run(capsys, "verify", *HH4, "--energies", "1e-3",
                         "--horizon", horizon)
    assert code == EXIT_INPUT and not out
    assert f"--horizon must be in 5..16, got {horizon}" in err


def test_verify_horizon_at_the_cap_runs(capsys):
    # henon-heiles snaps within a few periods, so the cap costs no time
    code, out, err = run(capsys, "verify", *HH4, "--energies", "1e-3",
                         "--horizon", "16", "--format", "json")
    assert code == EXIT_OK, err
    assert json.loads(out)["horizon"] == 16


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    inner = cli.build_parser

    def counted():
        built.append(1)
        return inner()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in (("normalize", "--model", "henon-heiles", "--order", "4"),
                     ("verify", *HH4, "--horizon", "4")):
            run(capsys, *argv)
        assert built == [1]
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("token", ["nan", "inf", "0", "-1"])
def test_verify_ci_tol_not_finite_positive_exit_2(capsys, token):
    # a NaN tolerance would make every comparison false and pass any run
    code, out, err = run(capsys, "verify", *HH4, "--energies", "1e-3",
                         "--ci", f"--ci-tol={token}")
    assert code == EXIT_INPUT
    assert out == ""
    assert "--ci-tol" in err and repr(float(token)) in err


def test_verify_has_no_frame_tolerance_option(capsys):
    # the frame tolerances are fixed; argparse rejects the option, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", *HH4, "--energies", "1e-3", "--tol-frame", "1e-12"])
    assert exc.value.code == EXIT_INPUT
    assert "--tol-frame" in capsys.readouterr().err


def test_verify_has_no_shooting_tolerance_option(capsys):
    # the shooting tolerance is fixed; argparse rejects the option, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", *HH4, "--energies", "1e-3", "--tol-shoot", "1e-8"])
    assert exc.value.code == EXIT_INPUT
    assert "--tol-shoot" in capsys.readouterr().err


def test_verify_numeric_failure_exit_3(capsys):
    # far above the escape energy 1/6 the Newton iterates leave the well
    # and the variational integration fails; up to E = 2 the rotating
    # axis orbits still exist, hyperbolic, and shooting finds them
    code, _, err = run(capsys, "verify", *HH4, "--energies", "3.5",
                       "--horizon", "5")
    assert code == EXIT_PRECONDITION
    assert "E = 3.5" in err and "orbit" in err and "failed" in err


def test_verify_axis_orbits_coincide_exit_3(capsys):
    # at E = 2, above the escape energy, both axis seeds converge to one
    # orbit (T = 5.1516); its rotation number is no row for both axes
    code, out, err = run(capsys, "verify", *HH4, "--energies", "2")
    assert code == EXIT_PRECONDITION and not out
    assert "E = 2.0" in err and "axis orbits coincide" in err


def test_verify_runs_one_analysis(capsys, monkeypatch):
    # the seeds and the K-truncated series columns share one analysis
    calls = []
    inner = hopf.analyze

    def counted(*args, **kwargs):
        calls.append(args[2:] + tuple(kwargs.values()))
        return inner(*args, **kwargs)

    monkeypatch.setattr(hopf, "analyze", counted)
    code, _, err = run(capsys, "verify", *HH4, "--energies", "1e-3,2e-3")
    assert code == EXIT_OK, err
    assert calls == [(None,)]


def test_verify_transform_past_a_float_at_the_seed_exit_3(tmp_path, capsys):
    # y1 x1^3 is dropped by the normal form, so no series reads it, but the
    # coordinate transform carries a coefficient past the float range
    path = tmp_path / "big.poly"
    path.write_text(write_polynomial(henon_heiles(4).poly)
                    + f"{2 ** 1030} : 1 0 3 0\n")
    code, out, err = run(capsys, "verify", "--input", str(path),
                         "--energies", "1e-3", "--horizon", "5")
    assert code == EXIT_PRECONDITION and not out
    assert "E = 0.001, axis-1 seed" in err and "overflows a float" in err


def test_a_series_coefficient_past_a_float_is_null(tmp_path, capsys):
    # y1^2 x1^2 stays in the normal form, so rho1's E term is past the
    # float range: exact in "coefficients", null in "float"
    path = tmp_path / "kept.poly"
    path.write_text("chart: real\nfield: rational\norder: 4\n"
                    "1/2 : 2 0 0 0\n1/2 : 0 0 2 0\n1 : 0 2 0 0\n"
                    f"1 : 0 0 0 2\n{2 ** 1030} : 2 0 2 0\n")
    code, out, err = run(capsys, "analyze", "--input", str(path),
                         "--format", "json")
    assert code == EXIT_OK, err
    rho1 = json.loads(out)["series"]["rho1"]
    assert len(rho1["coefficients"][1]) > 300
    assert rho1["float"] == [3.0, None]


def test_verify_series_overflow_at_the_seed_exit_3(capsys):
    # the amplitude series of the seed overflows a float at E = 1e300
    code, out, err = run(capsys, "verify", "--model", "henon-heiles",
                         "--order", "4", "--energies", "1e300")
    assert code == EXIT_PRECONDITION and not out
    assert "E = 1e+300, axis-1 seed" in err and "overflows" in err


# omega1 = 1 - E + O(E^2) on the axis-1 orbit: zero at E = 1, where
# u1 = 2E + E^2 is still positive
_ZERO_FREQUENCY = """chart: real
field: rational
order: 4
1/2 : 2 0 0 0
7/4 : 0 2 0 0
1/2 : 0 0 2 0
7/4 : 0 0 0 2
-1/8 : 4 0 0 0
-1/4 : 2 0 2 0
-1/8 : 0 0 4 0
"""


def test_verify_zero_frequency_at_the_seed_exit_3(tmp_path, capsys):
    path = tmp_path / "zero-frequency.poly"
    path.write_text(_ZERO_FREQUENCY)
    code, out, err = run(capsys, "verify", "--input", str(path),
                         "--order", "4", "--energies", "1")
    assert code == EXIT_PRECONDITION and not out
    assert "E = 1.0, axis-1 seed" in err and "frequency series is 0.0" in err


# a 10^6 y2^2 x1 coupling: the axis-2 seed the normal form gives lies
# far off the energy surface, H(seed) ~ 6e49 at E = 1e-3
_OFF_SURFACE = """chart: real
field: rational
order: 4
1 : 2 0 0 0
1 : 0 0 2 0
3/2 : 0 2 0 0
3/2 : 0 0 0 2
1000000 : 0 2 1 0
"""


def test_verify_seed_off_the_energy_surface_exit_3(tmp_path, capsys):
    # rejected at the seed, before any integration runs
    path = tmp_path / "off-surface.poly"
    path.write_text(_OFF_SURFACE)
    start = time.monotonic()
    code, out, err = run(capsys, "verify", "--input", str(path),
                         "--order", "4", "--energies", "1e-3",
                         "--horizon", "5")
    assert time.monotonic() - start < 5.0
    assert code == EXIT_PRECONDITION and not out
    assert "E = 0.001, axis-2 seed" in err and "energy surface" in err


def test_verify_input_without_order_runs_the_file_order(tmp_path, capsys):
    path = _write_model(tmp_path, "henon-heiles", (), 4)
    code, out, err = run(capsys, "verify", "--input", path, "--energies",
                         "1e-3", "--horizon", "5")
    assert code == EXIT_OK, err
    assert out.count("\n0.001,") == 1


def test_verify_without_rotation_series_exit_3(tmp_path, capsys):
    # 1:2 with an x1^2 x2 term: the analysis derives no rotation series
    h = Polynomial(REAL, RATIONAL, 4, {
        (2, 0, 0, 0): Fraction(1, 2), (0, 0, 2, 0): Fraction(1, 2),
        (0, 2, 0, 0): 1, (0, 0, 0, 2): 1, (0, 0, 2, 1): 1,
        (0, 2, 0, 2): -1})
    path = tmp_path / "no-series.poly"
    path.write_text(write_polynomial(h))
    code, out, err = run(capsys, "verify", "--input", str(path),
                         "--order", "4", "--energies", "1e-3")
    assert code == EXIT_PRECONDITION and not out
    assert "no rotation series" in err


def test_isosceles_alpha_past_the_core_bound_exit_2(capsys):
    # d = (4 + 8 alpha)(4 + alpha) is about 8e40, past the 2^64 bound of
    # the square-free core's trial division
    code, out, err = run(capsys, "analyze", "--model", "isosceles",
                         "--alpha", "1e20")
    assert code == EXIT_INPUT and not out
    assert "--alpha=1e20" in err and "2^64" in err


def test_input_field_past_the_core_bound_exit_2(tmp_path, capsys):
    path = tmp_path / "big-field.poly"
    path.write_text(f"chart: real\nfield: quadratic(d={10 ** 60 + 39})\n"
                    "order: 4\n1/2 : 2 0 0 0\n1/2 : 0 0 2 0\n"
                    "1 : 0 2 0 0\n1 : 0 0 0 2\n")
    code, out, err = run(capsys, "analyze", "--input", str(path),
                         "--order", "4")
    assert code == EXIT_INPUT and not out
    assert "line 2" in err and "2^64" in err


# 1:3 with y1^3 and x1^3: s1 = 1 and -s1 = 1 cannot both hold, so no
# diagonal reversor exists
_NO_REVERSOR = """chart: real
field: rational
order: 4
1/2 : 2 0 0 0
3/2 : 0 2 0 0
1/2 : 0 0 2 0
3/2 : 0 0 0 2
1/5 : 3 0 0 0
1/3 : 0 0 3 0
1 : 0 0 1 2
-1 : 0 2 2 0
"""


@pytest.mark.parametrize("argv,rows", [
    (("--input", "no-reversor.poly", "--order", "4"),
     [0.001, 4.001231865731278, 4.001228571428571, 1.3331284149663611,
      1.3331285714285714, 0.9997956143775956, 0.9997952380952381,
      1.2919957766258866e-07]),
    (("--model", "isosceles", "--alpha", "3", "--order", "4"),
     [0.001, 3.0003001696406746, 3.0003, 1.5003613147466441, 1.5003609375,
      1.0008728227693433, 1.000871875, 5.302169702723653e-07]),
], ids=["no-reversor-input", "isosceles"])
def test_verify_without_a_reversor_keeps_the_full_period_path(
        tmp_path, capsys, monkeypatch, argv, rows):
    # every orbit is shot over full periods, and the rows are the ones
    # the full-period path gave before half-period shooting existed, as
    # the Fortran DOP853 stepper integrates it with the pure-float
    # variational right-hand side: fixed-order IEEE sums, not a BLAS kernel
    (tmp_path / "no-reversor.poly").write_text(_NO_REVERSOR)
    monkeypatch.chdir(tmp_path)
    shot = []
    inner = numeric.find_periodic_orbit

    def spy(*args, reversors=(), **kwargs):
        shot.append(reversors)
        return inner(*args, reversors=reversors, **kwargs)

    monkeypatch.setattr(numeric, "find_periodic_orbit", spy)
    code, out, err = run(capsys, "verify", *argv, "--energies", "1e-3",
                         "--format", "json")
    assert code == EXIT_OK, err
    assert shot == [(), ()]
    assert json.loads(out)["rows"] == [rows]


@pytest.mark.parametrize("argv,allowed", [
    (("analyze", *HH4[:-1], "50"), "0..1 for N = 4"),
    (("analyze", *HH4[:-1], "-3"), "0..1 for N = 4"),
    (("verify", *HH4[:-1], "2", "--energies", "1e-3"), "0..1 for N = 4"),
    # hill's psi route analyzes N = 4, its rotate route the averaged N = 6
    (("analyze", "--model", "hill", "--order", "4", "--series-order", "2"),
     "0..1 for N = 4"),
    (("analyze", "--model", "hill", "--order", "4", "--route", "rotate",
      "--series-order", "3"), "0..2 for N = 6"),
])
def test_series_order_out_of_range_exit_2(capsys, argv, allowed):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert f"--series-order must be in {allowed}" in err


def test_analyze_reports_the_order_of_the_averaged_form(capsys):
    # --route rotate analyzes the order-6 averaged form
    code, out, _ = run(capsys, "analyze", "--model", "hill",
                       "--route", "rotate", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["N"] == 6
    code, out, _ = run(capsys, "analyze", "--model", "hill", "--order", "6",
                       "--route", "rotate")
    assert code == EXIT_OK
    assert "N: 6 " in out


@pytest.mark.parametrize("order", ["4", "8"])
def test_rotate_route_order_other_than_the_averaged_form_exit_2(capsys,
                                                                 order):
    # the averaged form is fixed at N = 6: another --order is not ignored
    code, out, err = run(capsys, "analyze", "--model", "hill", "--order",
                         order, "--route", "rotate")
    assert code == EXIT_INPUT and not out
    assert f"--order {order}" in err and "N = 6" in err


def test_series_order_range_of_the_averaged_form(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "hill",
                       "--route", "rotate", "--series-order", "2",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["series"]["product"]["coefficients"] == ["1", "0", "36"]


@pytest.mark.parametrize("verb", ["normalize", "analyze", "verify"])
@pytest.mark.parametrize("chart", ["real", "complex"])
def test_float_field_input_exit_2(tmp_path, capsys, verb, chart):
    quadratic_part = ("0.5 : 2 0 0 0\n0.5 : 0 0 2 0\n" if chart == "real"
                      else "1.0 : 1 0 1 0\n")
    path = tmp_path / "float.poly"
    path.write_text(f"chart: {chart}\nfield: float\norder: 4\n"
                    + quadratic_part)
    code, _, err = run(capsys, verb, "--input", str(path), "--order", "4")
    assert code == EXIT_INPUT
    assert "field float is not supported" in err


# (model, its parameter flags, N): the built-in models whose written
# polynomial must analyze exactly as the model does
_INPUT_MATRIX = ([("henon-heiles", (), n) for n in range(4, 11)]
                 + [("hill", (), 6)]
                 + [("isosceles", ("--alpha", a), n)
                    for a in ("1", "3") for n in (4, 6)]
                 + [("quadratic", ("--alpha1", "1", "--alpha2", "2"), 6)])


def _write_model(tmp_path, model, flags, order):
    """The model's polynomial at ``order`` in a file; returns its path."""
    params = [Fraction(v) for v in flags[1::2]]
    path = tmp_path / f"{model}.poly"
    path.write_text(write_polynomial(
        MODEL_BUILDERS[model](*params, order=order).poly))
    return str(path)


@pytest.mark.parametrize(
    "model,flags,order", _INPUT_MATRIX,
    ids=[f"{m}{''.join(f[1::2])}-{n}" for m, f, n in _INPUT_MATRIX])
def test_input_file_matches_model(tmp_path, capsys, model, flags, order):
    # frequencies, resonance, invariant planes and Z_p are derived from the
    # file's coefficients, so the verdict is the model's (isosceles alpha = 1
    # lives over Q(sqrt 15))
    path = _write_model(tmp_path, model, flags, order)
    code, out, err = run(capsys, "analyze", "--input", path,
                         "--order", str(order), "--format", "json")
    assert code == EXIT_OK, err
    from_file = json.loads(out)
    _, out, _ = run(capsys, "analyze", "--model", model, *flags,
                    "--order", str(order), "--format", "json")
    from_model = json.loads(out)
    assert (from_file.pop("model"), from_file.pop("input")) == (None, path)
    assert (from_model.pop("model"), from_model.pop("input")) == (model, None)
    assert from_file == from_model


def test_verify_input_matches_model(tmp_path, capsys):
    path = _write_model(tmp_path, "henon-heiles", (), 4)
    argv = ("--series-order", "1", "--energies", "1e-3", "--format", "json")
    code, out, err = run(capsys, "verify", "--input", path, "--order", "4",
                         *argv)
    assert code == EXIT_OK, err
    from_file = json.loads(out)
    _, out, _ = run(capsys, "verify", *HH4[:4], *argv)
    from_model = json.loads(out)
    assert from_file["rows"] == from_model["rows"]
    assert from_file["columns"] == from_model["columns"]


def test_verify_order_other_than_the_model_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--model", "hill", "--order", "4",
                         "--series-order", "2", "--energies", "1e-3",
                         "--horizon", "5")
    assert code == EXIT_INPUT and not out
    assert "--order 4" in err and "N = 6" in err
    path = _write_model(tmp_path, "henon-heiles", (), 6)
    code, out, err = run(capsys, "verify", "--input", path, "--order", "4",
                         "--series-order", "1", "--energies", "1e-3")
    assert code == EXIT_INPUT and not out
    assert "--order 4" in err and "N = 6" in err


def test_broken_symmetry_input_gets_no_zp(tmp_path, capsys):
    # a 1e-6 x1^3 term breaks the Z_3 symmetry of Henon-Heiles: the derived
    # facts must not claim it
    h = henon_heiles(order=4).poly + Polynomial.monomial(
        REAL, (0, 0, 3, 0), Fraction(1, 10 ** 6), order=4)
    path = tmp_path / "bent.poly"
    path.write_text(write_polynomial(h))
    code, out, err = run(capsys, "analyze", "--input", str(path),
                         "--order", "4", "--format", "json")
    assert code == EXIT_OK, err
    verdict = json.loads(out)["verdict"]
    assert verdict["theorem"] is None and not verdict["satisfied"]
    assert verdict["hypothesis_trace"][-1].startswith("hypothesis failed")


@pytest.mark.parametrize("verb", ["normalize", "analyze"])
def test_input_order_above_the_file_exit_3(tmp_path, capsys, verb):
    path = _write_model(tmp_path, "henon-heiles", (), 4)
    code, _, err = run(capsys, verb, "--input", path, "--order", "6")
    assert code == EXIT_PRECONDITION
    assert "to order 4 only" in err


@pytest.mark.parametrize("verb", ["normalize", "analyze"])
@pytest.mark.parametrize("order", [4, 8])
def test_input_without_order_runs_the_file_order(tmp_path, capsys, verb,
                                                 order):
    # --order has one default on every verb: an --input file runs at its
    # own order, neither refused below 6 nor cut to 6 above it
    path = _write_model(tmp_path, "henon-heiles", (), order)
    code, out, err = run(capsys, verb, "--input", path, "--format", "json")
    assert code == EXIT_OK, err
    assert json.loads(out)["N"] == order
    code, out, err = run(capsys, verb, "--input", path)
    assert code == EXIT_OK, err
    assert f"  N: {order}  gauge: " in out


@pytest.mark.parametrize("verb", ["analyze", "verify"])
def test_order_three_analysis_exit_3(capsys, verb):
    code, out, err = run(capsys, verb, "--model", "henon-heiles",
                         "--order", "3")
    assert code == EXIT_PRECONDITION and not out
    assert "nu is defined for normal forms of order >= 4" in err


@pytest.mark.parametrize("verb", ["normalize", "analyze", "verify"])
def test_model_and_input_together_exit_2(tmp_path, capsys, verb):
    path = _write_model(tmp_path, "henon-heiles", (), 4)
    code, out, err = run(capsys, verb, "--input", path, "--model", "hill",
                         "--order", "4")
    assert code == EXIT_INPUT and not out
    assert "--model" in err and "--input" in err


@pytest.mark.parametrize("flag,token,model", [
    ("--alpha", "abc", "isosceles"),
    ("--alpha", "nan", "isosceles"),
    ("--alpha", "1/0", "isosceles"),
    ("--varpi", "inf", "isosceles"),
    ("--alpha1", "x", "quadratic"),
    ("--alpha2", "1/0", "quadratic"),
])
def test_model_parameter_not_a_fraction_exit_2(capsys, flag, token, model):
    code, _, err = run(capsys, "analyze", "--model", model, "--order", "4",
                       f"{flag}={token}")
    assert code == EXIT_INPUT
    assert flag in err and repr(token) in err


@pytest.mark.parametrize("model,params,flag", [
    ("isosceles", ["--alpha=-1"], "--alpha=-1"),
    ("isosceles", ["--varpi=2"], "--varpi=2"),      # sqrt 2 not in Q(sqrt 15)
    ("quadratic", ["--alpha1=2", "--alpha2=1"], "--alpha1=2"),
    ("quadratic", ["--alpha1=0"], "--alpha1=0"),
    # (4+8*3)(4+3) = 14^2: the field is Q, and sqrt 15 is not in it
    ("isosceles", ["--alpha=3", "--varpi=15"], "--varpi=15"),
])
def test_model_parameter_out_of_range_exit_2(capsys, model, params, flag):
    code, _, err = run(capsys, "analyze", "--model", model, "--order", "4",
                       *params)
    assert code == EXIT_INPUT
    assert err.startswith("input error:") and flag in err
    # a field is named Q, or Q(sqrt(d)) for a square-free core d > 1
    assert "sqrt(1)" not in err


@pytest.mark.parametrize("argv,flag", [
    (("--model", "henon-heiles", "--alpha", "7"), "--alpha"),
    (("--model", "isosceles", "--alpha1", "2"), "--alpha1"),
    (("--model", "quadratic", "--varpi", "1"), "--varpi"),
], ids=["henon-heiles", "isosceles", "quadratic"])
def test_model_parameter_the_model_does_not_take_exit_2(capsys, argv, flag):
    code, out, err = run(capsys, "analyze", *argv, "--order", "4")
    assert code == EXIT_INPUT and not out
    assert f"{flag}: {argv[1]} takes no such parameter" in err


@pytest.mark.parametrize("verb", ["normalize", "analyze", "verify"])
def test_model_parameter_with_input_exit_2(tmp_path, capsys, verb):
    path = _write_model(tmp_path, "henon-heiles", (), 4)
    code, out, err = run(capsys, verb, "--input", path, "--order", "4",
                         "--alpha2", "2")
    assert code == EXIT_INPUT and not out
    assert "--alpha2: --input takes no such parameter" in err


def test_verify_ci_tol_without_ci_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--model", "hill", "--energies",
                         "1e-3", "--horizon", "5", "--ci-tol", "1e-30")
    assert code == EXIT_INPUT and not out
    assert "--ci-tol applies only with --ci" in err


def test_isosceles_large_denominator_runs(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "analyze", "--model", "isosceles",
                       "--alpha=1/1000000007", "--order", "4")
    assert code == EXIT_OK and "verdict:" in out
    assert time.perf_counter() - t0 < 10.0


def test_unwritable_out_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "normalize", "--model", "henon-heiles",
                       "--order", "4", "--out", str(target))
    assert code == EXIT_INPUT
    assert "cannot write" in err


def test_runs_without_mpmath():
    script = (
        "import sys\n"
        "class BlockMpmath:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'mpmath':\n"
        "            raise ImportError('mpmath is blocked')\n"
        "sys.meta_path.insert(0, BlockMpmath())\n"
        "from bgnf.cli import main\n"
        "sys.exit(main(['analyze', '--model', 'henon-heiles', '--order', '4']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verdict:" in proc.stdout


def test_import_leaves_the_integrator_unloaded():
    # normalize and analyze integrate nothing: scipy.integrate is imported
    # on the first integration, not with the package, and no other part of
    # scipy is imported with it
    script = ("import sys\n"
              "import bgnf.cli\n"
              "print([m for m in sys.modules if m.startswith('scipy')])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "--input", "/nonexistent.poly")
    assert code == EXIT_INPUT


def test_precondition_violation_exit_3(tmp_path, capsys):
    # a Hamiltonian without the diagonal quadratic part
    path = tmp_path / "nodiag.poly"
    path.write_text("chart: real\nfield: rational\norder: 4\n"
                    "1 : 1 1 0 0\n")
    code, _, err = run(capsys, "normalize", "--input", str(path),
                       "--order", "4")
    assert code in (EXIT_INPUT, EXIT_PRECONDITION)


def test_determinism_byte_identical(capsys):
    _, out1, _ = run(capsys, "analyze", "--model", "henon-heiles",
                     "--order", "4", "--format", "json")
    _, out2, _ = run(capsys, "analyze", "--model", "henon-heiles",
                     "--order", "4", "--format", "json")
    assert out1 == out2


@pytest.mark.slow
def test_verify_quadratic_roundoff_and_ci(capsys):
    code, out, _ = run(capsys, "verify", "--model", "quadratic",
                       "--alpha1", "1", "--alpha2", "2",
                       "--energies", "1e-3,2e-3", "--horizon", "5",
                       "--format", "json", "--ci")
    assert code == EXIT_OK
    doc = json.loads(out)
    cols = doc["columns"]
    assert cols[:2] == ["E", "rho1_num"]
    for row in doc["rows"]:
        r = dict(zip(cols, row))
        assert abs(r["rho1_num"] - r["rho1_series"]) < 1e-8


@pytest.mark.slow
def test_verify_ci_mode_flags_breach(capsys):
    # an unreasonably tight CI tolerance must trip the nonzero exit
    code, _, err = run(capsys, "verify", "--model", "hill",
                       "--energies", "1e-3", "--horizon", "5",
                       "--ci", "--ci-tol", "1e-12")
    assert code == EXIT_TOLERANCE
    assert "CI failure" in err
