"""Batch front door: normalize, analyze, and numerically verify Hamiltonians.

Exit codes: 0 success, 2 bad input, 3 precondition violation, 4 internal
error (and, in CI mode, 5 for a tolerance breach).  Reports embed the tool
version, the gauge tag and every tolerance used, and exact-field output is
deterministic byte for byte for identical configurations.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import astuple
from fractions import Fraction

from . import __version__
from .scalars import FieldError, scalar_str
from .poly import MAX_ORDER, read_polynomial, write_polynomial
from . import hopf
from .models import MODEL_BUILDERS, from_polynomial
from .numeric import SHOOT_TOL, STM_RTOL, series_vs_numeric_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4
EXIT_TOLERANCE = 5


class CliInputError(Exception):
    pass


def _scalar_str(x) -> str | None:
    return None if x is None else scalar_str(x)


def _series_dict(s) -> dict | None:
    if s is None:
        return None
    return {
        "coefficients": [_scalar_str(c) for c in s.coeffs],
        "error_order": None if math.isinf(s.err_order) else int(s.err_order),
        "float": s.coeffs_float(),
    }


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _fraction(flag: str, token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise CliInputError(
            f"{flag}: {token!r} is not a finite fraction") from None


# the builder parameters each model takes from the command line, with their
# defaults, and the smallest order each builder carries its Taylor data to
_MODEL_PARAMS = {"isosceles": {"alpha": "1", "varpi": "1"},
                 "quadratic": {"alpha1": "1", "alpha2": "1"}}
_MIN_ORDER = {"hill": 6, "isosceles": 4, "quadratic": 4}
_DEFAULT_ORDER = 6      # of a --model build; --input runs the file's order
_CI_TOL = 5e-4


def _build_model(args):
    """The model bundle named by --model; a rejected parameter is exit 2."""
    name = args.model               # argparse allows only MODEL_BUILDERS
    params = {p: default if getattr(args, p) is None else getattr(args, p)
              for p, default in _MODEL_PARAMS.get(name, {}).items()}
    values = [_fraction(f"--{p}", v) for p, v in params.items()]
    order = max(args.order or _DEFAULT_ORDER, _MIN_ORDER.get(name, 3))
    try:
        return MODEL_BUILDERS[name](*values, order=order)
    except ValueError as exc:
        given = " ".join(f"--{p}={v}" for p, v in params.items())
        raise CliInputError(f"{given}: {exc}") from None


def _load_input(args):
    """The model bundle of --model, or the one derived from the --input file."""
    if args.order is not None and not 3 <= args.order <= MAX_ORDER:
        raise CliInputError(f"--order must be in 3..{MAX_ORDER}, got {args.order}")
    if args.model and args.input:
        raise CliInputError("give either --model or --input, not both")
    taken = _MODEL_PARAMS.get(args.model, {})
    for p in (p for params in _MODEL_PARAMS.values() for p in params):
        if getattr(args, p) is not None and p not in taken:
            raise CliInputError(f"--{p}: {args.model or '--input'} takes "
                                "no such parameter")
    if args.model:
        return _build_model(args)
    if not args.input:
        raise CliInputError("either --model or --input is required")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {args.input}: {exc}") from None
    try:
        return from_polynomial(read_polynomial(text), args.input)
    except ValueError as exc:
        raise CliInputError(f"{args.input}: {exc}") from None


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise CliInputError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(out)


def _common_payload(args, model, order: int):
    """The report head; ``order`` is the N of the analyzed form."""
    return {
        "version": __version__,
        "model": args.model,
        "input": args.input,
        "alpha": [_scalar_str(a) for a in model.alpha],
        "resonance": model.res.label(),
        "N": order,
    }


def cmd_normalize(args) -> int:
    model = _load_input(args)
    nf = model.normal_form(args.order)
    payload = _common_payload(args, model, nf.order)
    payload.update({
        "gauge": nf.gauge,
        "tolerances": {},
        "coefficients": {
            " ".join(map(str, e)): {
                "re": _scalar_str(c.re), "im": _scalar_str(c.im),
            }
            for e, c in sorted(nf.table.items())
        },
        "normal_form": write_polynomial(nf.h_n),
    })
    lines = [
        f"# bgnf {__version__} normalize",
        f"model: {payload['model'] or payload['input']}",
        f"alpha: {payload['alpha']}  resonance: {payload['resonance']}  "
        f"N: {nf.order}  gauge: {nf.gauge}",
        "",
        payload["normal_form"].rstrip(),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _check_series_order(args, order: int) -> None:
    """--series-order K must lie in 0..floor(N/2)-1 for the analyzed N."""
    cap = order // 2 - 1
    if args.series_order is not None and not 0 <= args.series_order <= cap:
        raise CliInputError(
            f"--series-order must be in 0..{cap} for N = {order}, "
            f"got {args.series_order}")


def cmd_analyze(args) -> int:
    model = _load_input(args)
    rotate = args.route == "rotate"
    if rotate and model.averaged_form is None:
        raise CliInputError(
            f"--route rotate: {model.name} has no built-in averaged form; "
            "only --model hill carries one")
    _check_series_order(args, model.averaged_form.order if rotate
                        else args.order or model.poly.order)
    if rotate:
        nf = model.averaged_form
        ana = hopf.analyze(nf, nf.symmetry, args.series_order)
    else:
        ana = model.analysis(args.order, args.series_order)
    payload = _common_payload(args, model, ana.nf.order)
    v = ana.verdict
    payload.update({
        "gauge": ana.nf.gauge,
        "nu": ana.nu,
        "Omega": {
            "nu1": _scalar_str(ana.omega_nu1),
            "nu2": _scalar_str(ana.omega_nu2),
            "nu": _scalar_str(ana.omega_nu),
        },
        "beta": {"beta1": _scalar_str(ana.beta1),
                 "beta2": _scalar_str(ana.beta2)},
        "orbits": {"gamma1": ana.exists_gamma1, "gamma2": ana.exists_gamma2},
        "verdict": {
            "theorem": v.theorem,
            "clause": v.clause,
            "satisfied": v.satisfied,
            "hypothesis_trace": v.hypothesis_trace,
        },
        "series": {
            "rho1": _series_dict(ana.rho1),
            "rho2": _series_dict(ana.rho2),
            "product": _series_dict(ana.product),
        },
        "tolerances": {},
    })
    lines = [
        f"# bgnf {__version__} analyze",
        f"model: {payload['model'] or payload['input']}",
        f"alpha: {payload['alpha']}  resonance: {payload['resonance']}  "
        f"N: {ana.nf.order}  gauge: {ana.nf.gauge}",
        f"nu: {ana.nu}",
        f"Omega_nu1: {_scalar_str(ana.omega_nu1)}   "
        f"Omega_nu2: {_scalar_str(ana.omega_nu2)}   "
        f"Omega_nu: {_scalar_str(ana.omega_nu)}",
        f"beta1: {_scalar_str(ana.beta1)}   beta2: {_scalar_str(ana.beta2)}",
        f"orbits: gamma1={ana.exists_gamma1} gamma2={ana.exists_gamma2}",
        f"rho1: {ana.rho1}",
        f"rho2: {ana.rho2}",
        f"twist product: {ana.product}",
        f"verdict: {v.describe()}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _energy(token: str) -> float:
    try:
        e = float(token)
    except ValueError:
        e = math.nan
    if not (math.isfinite(e) and e > 0):
        raise CliInputError(
            f"--energies: {token!r} is not a finite energy greater than 0")
    return e


# the circle map's lift is iterated 2^horizon times: --horizon 16 takes a
# few seconds on the quadratic 1:2 control, and each step past it doubles that
_MAX_HORIZON = 16


def cmd_verify(args) -> int:
    if not 5 <= args.horizon <= _MAX_HORIZON:
        raise CliInputError(f"--horizon must be in 5..{_MAX_HORIZON}, "
                            f"got {args.horizon}")
    model = _load_input(args)
    energies = [_energy(t) for t in args.energies.split(",") if t]
    if not energies:
        raise CliInputError("--energies needs a comma-separated list")
    repeated = next((e for i, e in enumerate(energies) if e in energies[:i]),
                    None)
    if repeated is not None:
        raise CliInputError(f"--energies: {repeated!r} is given more than once")
    if args.ci_tol is not None and not args.ci:
        raise CliInputError("--ci-tol applies only with --ci")
    ci_tol = _CI_TOL if args.ci_tol is None else args.ci_tol
    if not (math.isfinite(ci_tol) and ci_tol > 0):
        raise CliInputError(
            f"--ci-tol must be finite and greater than 0, got {ci_tol!r}")
    if args.order not in (None, model.poly.order):
        raise CliInputError(
            f"--order {args.order}: verify runs {model.name} at its own "
            f"order N = {model.poly.order}")
    _check_series_order(args, model.poly.order)
    table = series_vs_numeric_report(model, energies, horizon=args.horizon,
                                     series_order=args.series_order)
    payload = {
        "version": __version__,
        "model": model.name,
        "gauge": model.analysis().nf.gauge,
        "energies": energies,
        "horizon": args.horizon,
        "tolerances": {"shoot": SHOOT_TOL, "frame": STM_RTOL},
        "columns": list(table.COLUMNS),
        "rows": [list(astuple(r)) for r in table.rows],
        # NaN (one energy) and inf (round-off-level differences) are no JSON
        "fit_q": {"rho1": _finite(table.fit_q1),
                  "rho2": _finite(table.fit_q2)},
    }
    lines = [f"# bgnf {__version__} verify: {model.name}",
             table.format_csv().rstrip(),
             f"# fitted q: rho1 {table.fit_q1:.3g}  rho2 {table.fit_q2:.3g}"]
    _emit(args, payload, lines)
    if args.ci:
        worst = max(max(abs(r.rho1_num - r.rho1_series),
                        abs(r.rho2_num - r.rho2_series))
                    for r in table.rows)
        if worst > ci_tol:
            sys.stderr.write(
                f"CI failure: |rho_num - rho_series| = {worst:.3e} "
                f"> {ci_tol:.3e}\n")
            return EXIT_TOLERANCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bgnf",
        description="Birkhoff-Gustavson normal forms and Hopf-link criteria",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", choices=sorted(MODEL_BUILDERS), default=None)
        sp.add_argument("--input", default=None,
                        help="polynomial file in the text format")
        sp.add_argument("--order", type=int, default=None,
                        help=f"normal-form order N (default {_DEFAULT_ORDER} "
                        "for --model, the file's order for --input)")
        sp.add_argument("--alpha", help="isosceles mass ratio")
        sp.add_argument("--varpi", help="isosceles angular momentum")
        sp.add_argument("--alpha1", help="quadratic model frequency")
        sp.add_argument("--alpha2", help="quadratic model frequency")
        sp.add_argument("--format", default="text", choices=["text", "json"])
        sp.add_argument("--out", default=None)

    sp_n = sub.add_parser("normalize", help="compute the normal form")
    common(sp_n)
    sp_n.set_defaults(func=cmd_normalize)

    sp_a = sub.add_parser("analyze", help="run the Hopf-link decision procedure")
    common(sp_a)
    sp_a.add_argument("--series-order", type=int, default=None)
    sp_a.add_argument("--route", default="psi", choices=["psi", "rotate"])
    sp_a.set_defaults(func=cmd_analyze)

    sp_v = sub.add_parser("verify", help="numeric vs symbolic rotation numbers")
    common(sp_v)
    sp_v.add_argument("--series-order", type=int, default=None)
    sp_v.add_argument("--energies", default="1e-3,2e-3,4e-3")
    sp_v.add_argument("--horizon", type=int, default=8)
    sp_v.add_argument("--ci", action="store_true",
                      help="exit nonzero when |rho_num - rho_series| exceeds --ci-tol")
    sp_v.add_argument("--ci-tol", type=float, default=None,
                      help=f"with --ci only (default {_CI_TOL:g})")
    sp_v.set_defaults(func=cmd_verify)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (ValueError, FieldError) as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
