"""One run of one bgnf benchmark workload, in the interpreter it starts in.

``run.py`` starts this file in a fresh interpreter per run; the self-test
imports it.  A workload is a fixed list of jobs replayed by one client in a
closed loop: each job starts when the previous one returns.  Only the calls
into bgnf are timed, summed by verb; output checks run after each job, off
the clock.  The last line printed is the run's result as JSON.

    PYTHONPATH=src python3 perfbench/worker.py --workload models-cli --seed 1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import re
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import spans as spanlib

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = os.path.join(HERE, ".run")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("dense-exact", "models-cli", "reanalyze", "verify-flow")
SIZES = ("full", "tiny")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _exact_fields(node):
    """A report without its float and version keys."""
    if isinstance(node, dict):
        return {k: _exact_fields(v) for k, v in node.items()
                if k not in ("float", "version")}
    if isinstance(node, list):
        return [_exact_fields(v) for v in node]
    return node


_QUAD = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)\*sqrt\((\d+)\))?$")


def parse_scalar(text: str):
    """(a, b, d) of a report scalar a + b sqrt(d); d is 0 when rational."""
    m = _QUAD.match(text)
    if m is None:
        raise ValueError(f"not an exact scalar: {text!r}")
    b = Fraction(m.group(2)) if m.group(2) else Fraction(0)
    return Fraction(m.group(1)), b, int(m.group(3)) if b else 0


class Workload:
    """A job list plus its checks.

    ``digests`` maps job id to the digest of the job's exact output.  The
    workloads over the built-in models load theirs from expected.json; the
    others record them in the first pass and compare every later pass.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.digests: dict = {}

    def compare(self, jid, value) -> list[str]:
        got = digest(value)
        want = self.digests.setdefault(jid, got)
        return [] if got == want else [f"digest {got} != expected {want}"]

    def warm(self, mark):
        """Set-up work that must precede the timed passes; ``mark()`` closes
        a set-up stage."""

    def jobs(self) -> list:
        raise NotImplementedError

    def end_pass(self) -> dict:
        return {}

    def close(self):
        pass


# ---------------------------------------------------------------------------
# dense-exact: seeded dense random Hamiltonians, normalize then certify
# ---------------------------------------------------------------------------


def _exponents(deg):
    return [(k1, k2, l1, deg - k1 - k2 - l1)
            for k1 in range(deg + 1) for k2 in range(deg + 1 - k1)
            for l1 in range(deg + 1 - k1 - k2)]


def dense_hamiltonian(rng: random.Random, alpha, order: int):
    """Every monomial of degree 3..order with a random rational coefficient
    over the quadratic part alpha1/2 (y1^2+x1^2) + alpha2/2 (y2^2+x2^2).

    ``alpha`` is a pair of integers over Q, or None for (1, sqrt 2) over
    Q(sqrt 2).  Returns (polynomial, frequencies, declared resonance).
    """
    from bgnf import (CC, NONRESONANT, RATIONAL, Frequencies, Polynomial,
                      QuadExt, quad_field)
    from bgnf.poly import REAL

    if alpha is None:
        field, res = quad_field(2), NONRESONANT
        freqs = (Fraction(1), QuadExt(0, 1, 2))
    else:
        field, res = RATIONAL, None
        freqs = (Fraction(alpha[0]), Fraction(alpha[1]))
    half = Fraction(1, 2)
    coeffs = {(2, 0, 0, 0): CC(field.coerce(freqs[0] * half)),
              (0, 0, 2, 0): CC(field.coerce(freqs[0] * half)),
              (0, 2, 0, 0): CC(field.coerce(freqs[1] * half)),
              (0, 0, 0, 2): CC(field.coerce(freqs[1] * half))}
    for deg in range(3, order + 1):
        for e in _exponents(deg):
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            if c:
                coeffs[e] = CC(field.coerce(c))
    return Polynomial(REAL, field, order, coeffs), Frequencies(*freqs), res


class DenseExact(Workload):
    ALPHAS = (("1:2", (1, 2)), ("2:3", (2, 3)), ("1:1", (1, 1)),
              ("1:sqrt2", None))

    def __init__(self, seed, size):
        super().__init__(seed)
        self.order = 6 if size == "full" else 4
        self._inputs = self._generate()

    def _generate(self):
        # a fresh copy per pass: polynomials cache their integer form
        rng = random.Random(self.seed)
        return [(f"{label} N={self.order}",
                 dense_hamiltonian(rng, alpha, self.order))
                for label, alpha in self.ALPHAS]

    def jobs(self):
        from bgnf import normalform

        inputs, self._inputs = self._inputs or self._generate(), None
        order = self.order

        def job(jid, h, freqs, res):
            def run(clock):
                with clock("normalize"):
                    nf = normalform.normalize(h, order, freqs, res)
                with clock("certify"):
                    report = normalform.verify(nf, h)

                def check():
                    table = sorted(nf.table.items())
                    return (list(report.failures)
                            + self.compare(jid, [(e, c.re, c.im)
                                                 for e, c in table]))
                return check
            return jid, run

        return [job(jid, *inp) for jid, inp in inputs]


# ---------------------------------------------------------------------------
# models-cli / verify-flow: the CLI verbs on the built-in models
# ---------------------------------------------------------------------------


def _hh(verb, n):
    return [verb, "--model", "henon-heiles", "--order", str(n)]


def _iso(verb, a, n):
    return [verb, "--model", "isosceles", "--alpha", str(a), "--order", str(n)]


QUAD12 = ["--model", "quadratic", "--alpha1", "1", "--alpha2", "2"]
CLI_JOBS = {
    "full": ([_hh(verb, n) for verb in ("normalize", "analyze")
              for n in (4, 6, 8)]
             + [["analyze", "--model", "hill", "--order", "6"],
                ["analyze", "--model", "hill", "--order", "6",
                 "--route", "rotate"]]
             + [_iso(v, 1, n) for v in ("normalize", "analyze") for n in (4, 6)]
             + [_iso("analyze", 3, 6), ["analyze", *QUAD12, "--order", "6"]]),
    "tiny": ([_hh("normalize", 4), _hh("analyze", 4),
              ["analyze", "--model", "hill", "--order", "6"],
              ["analyze", "--model", "hill", "--order", "6",
               "--route", "rotate"],
              _iso("analyze", 1, 4), ["analyze", *QUAD12, "--order", "6"]]),
}
CRITERION_5 = (("hill", ["--model", "hill", "--series-order", "2"], 2.5),
               ("henon-heiles", ["--model", "henon-heiles", "--order", "4",
                                 "--series-order", "1"], 1.5))
ENERGIES = ("1e-3", "2e-3", "4e-3")
VERIFY_JOBS = {
    "full": [["verify", *args, "--energies", e, "--horizon", "8"]
             for _, args, _ in CRITERION_5 for e in ENERGIES]
            + [["verify", *QUAD12, "--energies", "1e-3", "--horizon", "5"]],
    "tiny": [["verify", *QUAD12, "--energies", "1e-3", "--horizon", "5"]],
}


def _series_prefix(report, name, want):
    got = report["series"][name]["coefficients"][:len(want)]
    return [] if got == want else [f"{name} series {got} != pinned {want}"]


def _isosceles_omegas(report, a):
    """Closed-form Omega values of the isosceles family (criterion 4)."""
    a = Fraction(a)
    a1, _, _ = parse_scalar(report["alpha"][0])
    x, y, d = parse_scalar(report["alpha"][1])
    q1 = Fraction(21) * a / (16 * (12 + 31 * a))
    q2 = 3 * a * (260 + 93 * a) / (256 * (12 + 31 * a))
    want = {"nu1": (a1 * x * q1, a1 * y * q1, d),
            "nu2": (a1 * x * q2, a1 * y * q2, d),
            "nu": (279 * a * (4 + a) / (256 * (12 + 31 * a)), Fraction(0), 0)}
    errs = []
    for key, (wa, wb, wd) in want.items():
        got = parse_scalar(report["Omega"][key])
        if got != (wa, wb, wd if wb else 0):
            errs.append(f"Omega_{key} {report['Omega'][key]} != closed form")
    return errs


def _pinned(argv):
    """Acceptance-pinned values a report must carry, by job."""
    if argv[0] != "analyze":
        return []
    if argv[1:5] == ["--model", "henon-heiles", "--order", "4"]:
        return [lambda r: _series_prefix(r, "product", ["1", "-14/3"])]
    if argv[1:3] == ["--model", "hill"]:
        return [lambda r: _series_prefix(r, "product", ["1", "0", "36"])]
    if argv[1:3] == ["--model", "isosceles"]:
        return [lambda r, a=argv[4]: _isosceles_omegas(r, a)]
    return []


def _verify_rows(argv):
    """Criterion-5 and criterion-8 tolerances on a one-energy verify report."""
    model = argv[argv.index("--model") + 1]

    def check(report):
        row = dict(zip(report["columns"], report["rows"][0]))
        errs = []
        if model == "quadratic":
            for key, want in (("rho1_num", 3.0), ("rho2_num", 1.5)):
                if not abs(row[key] - want) <= 1e-9:
                    errs.append(f"{key} {row[key]!r} != {want} to 1e-9")
        elif row["E"] == 1e-3:
            for axis in ("1", "2"):
                diff = abs(row[f"rho{axis}_num"] - row[f"rho{axis}_series"])
                if not diff <= 5e-4:
                    errs.append(f"|rho{axis}_num - rho{axis}_series| = "
                                f"{diff:.3g} > 5e-4 at E = 1e-3")
        return errs
    return [check]


def fitted_order(energies, diffs) -> float:
    """Least-squares slope of log|diff| against log E (criterion 5's q)."""
    if all(abs(d) < 1e-12 for d in diffs):
        return math.inf
    xs = [math.log(e) for e in energies]
    ys = [math.log(max(abs(d), 1e-300)) for d in diffs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


class CliWorkload(Workload):
    def __init__(self, seed, size, verb_jobs, checks, expected):
        super().__init__(seed)
        self.argvs = [list(a) for a in verb_jobs[size]]
        random.Random(seed).shuffle(self.argvs)
        self.checks = checks
        self.digests.update(expected)
        self.reports: dict = {}
        self._tmp = tempfile.TemporaryDirectory(dir=_run_dir())

    def jobs(self):
        from bgnf import cli

        self.reports = {}

        def job(n, argv):
            jid = " ".join(argv)
            out = os.path.join(self._tmp.name, f"{n}.json")

            def run(clock):
                with clock(argv[0]):
                    rc = cli.main(argv + ["--format", "json", "--out", out])

                def check():
                    if rc != 0:
                        return [f"exit code {rc}"]
                    with open(out, encoding="utf-8") as fh:
                        report = json.load(fh)
                    self.reports[jid] = (argv, report)
                    errs = self.compare(jid, self.signature(report))
                    for fn in self.checks(argv):
                        errs += fn(report)
                    return errs
                return check
            return jid, run

        return [job(n, argv) for n, argv in enumerate(self.argvs)]

    @staticmethod
    def signature(report):
        """The digested part of a report: its exact fields."""
        return _exact_fields(report)

    def close(self):
        self._tmp.cleanup()


def _row_drift(report, want) -> list[str]:
    """A verify row against the row recorded in expected.json.

    The series columns come from exact series and must agree to 1e-12; the
    numeric columns must agree to ten times the larger error bar.
    """
    if want is None:
        return []
    got = dict(zip(report["columns"], report["rows"][0]))
    want = dict(zip(report["columns"], want))
    bar = 10.0 * max(got["err_bar"], want["err_bar"])
    errs = []
    for key, w in want.items():
        if key == "err_bar":
            continue
        tol = bar if key.endswith("_num") else 1e-12 * max(1.0, abs(w))
        if not abs(got[key] - w) <= tol:
            errs.append(f"{key} {got[key]!r} != recorded {w!r} to {tol:.2g}")
    return errs


class VerifyFlow(CliWorkload):
    def __init__(self, seed, size):
        expected = _load_expected("verify-flow")
        super().__init__(seed, size, VERIFY_JOBS, self._checks,
                         {jid: e["report"] for jid, e in expected.items()})
        self.rows = {jid: e["row"] for jid, e in expected.items()}

    def _checks(self, argv):
        want = self.rows.get(" ".join(argv))
        return _verify_rows(argv) + [lambda report: _row_drift(report, want)]

    @staticmethod
    def signature(report):
        """Everything but the float rows (checked against their recorded
        values) and the fit, which is NaN on a one-energy report."""
        return _exact_fields({k: v for k, v in report.items()
                              if k not in ("rows", "fit_q")})

    def end_pass(self):
        """Fitted convergence orders over each model's energies (the q
        floors of criterion 5)."""
        errs: dict = {}
        for model, args, floor in CRITERION_5:
            rows = {jid: dict(zip(rep["columns"], rep["rows"][0]))
                    for jid, (argv, rep) in self.reports.items()
                    if argv[1:1 + len(args)] == args}
            if len(rows) < len(ENERGIES):
                continue                    # a failed job is already counted
            for axis in ("1", "2"):
                q = fitted_order(
                    [r["E"] for r in rows.values()],
                    [r[f"rho{axis}_num"] - r[f"rho{axis}_series"]
                     for r in rows.values()])
                if not q >= floor:
                    for jid in rows:
                        errs.setdefault(jid, []).append(
                            f"{model} fitted q{axis} = {q:.3g} < {floor}")
        return errs


def _run_dir():
    os.makedirs(RUN_DIR, exist_ok=True)
    return RUN_DIR


def _load_expected(workload):
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------
# reanalyze: the decision procedure on normal forms warmed in set-up
# ---------------------------------------------------------------------------


def _series_sig(s):
    if s is None:
        return None
    return [[repr(c) for c in s.coeffs], str(s.err_order)]


def _analysis_sig(ana):
    v = ana.verdict
    return {"nu": ana.nu,
            "Omega": [repr(x) for x in (ana.omega_nu1, ana.omega_nu2,
                                        ana.omega_nu)],
            "beta": [repr(ana.beta1), repr(ana.beta2)],
            "orbits": [ana.exists_gamma1, ana.exists_gamma2],
            "series": [_series_sig(s) for s in (ana.rho1, ana.rho2,
                                                ana.product)],
            "verdict": [v.theorem, v.clause, v.satisfied]}


def _prefix_errors(short, full, name):
    if (short is None) != (full is None):
        return [f"{name} present at one K only"]
    if short is None:
        return []
    if short.err_order > full.err_order:
        return [f"{name} truncation is longer than the full series"]
    for k in range(min(len(short.coeffs), len(full.coeffs)) + 1):
        if k < short.err_order and short.coefficient(k) != full.coefficient(k):
            return [f"{name} E^{k} coefficient differs from the full series"]
    return []


class Reanalyze(Workload):
    def __init__(self, seed, size):
        super().__init__(seed)
        from bgnf import models

        if size == "full":
            bundles = [("henon-heiles N=10", models.henon_heiles(order=10), 10),
                       ("hill N=10", models.hill_regularized(order=10), 10),
                       ("isosceles a=3 N=8", models.isosceles(3, 1, order=8), 8),
                       ("isosceles a=1 N=6", models.isosceles(1, 1, order=6), 6)]
        else:
            bundles = [("hill N=6", models.hill_regularized(order=6), 6)]
        bundles.append(("quadratic 1:2", models.quadratic(1, 2), 6))
        self.bundles = bundles
        self.targets = []
        for label, bundle, order in bundles:
            for k in range(order // 2):
                self.targets.append((label, bundle, order, k))
        hill = next(b for label, b, _ in bundles if label.startswith("hill"))
        for k in range(3):
            self.targets.append(("hill averaged", hill.averaged_form, None, k))
        random.Random(seed).shuffle(self.targets)
        self.digests.update(_load_expected("reanalyze"))
        self.results: dict = {}

    def warm(self, mark):
        for _, bundle, order in self.bundles:
            bundle.normal_form(order)
            mark()

    def jobs(self):
        from bgnf import hopf

        self.results = {}

        def job(label, source, order, k):
            jid = f"{label} K={k}"

            def run(clock):
                with clock("analyze"):
                    if order is None:       # the built-in averaged form
                        ana = hopf.analyze(source, source.symmetry, k)
                    else:                   # ModelBundle.analysis, uncached
                        nf, facts = source.analysis_form(order)
                        ana = hopf.analyze(nf, facts, k)
                self.results[(label, k)] = (jid, ana)

                def check():
                    return self.compare(jid, _analysis_sig(ana))
                return check
            return jid, run

        return [job(*t) for t in self.targets]

    def end_pass(self):
        """Each K-truncated series must be a prefix of the full-K series."""
        errs: dict = {}
        cap = {}
        for label, k in self.results:
            cap[label] = max(k, cap.get(label, k))
        for (label, k), (jid, ana) in self.results.items():
            ref = self.results[(label, cap[label])][1]
            for name in ("rho1", "rho2", "product"):
                e = _prefix_errors(getattr(ana, name), getattr(ref, name), name)
                if e:
                    errs.setdefault(jid, []).extend(e)
        return errs


def make_workload(name: str, seed: int, size: str = "full") -> Workload:
    if name == "dense-exact":
        return DenseExact(seed, size)
    if name == "models-cli":
        return CliWorkload(seed, size, CLI_JOBS, _pinned,
                           _load_expected("models-cli"))
    if name == "verify-flow":
        return VerifyFlow(seed, size)
    if name == "reanalyze":
        return Reanalyze(seed, size)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def reference() -> float:
    """Wall time of a fixed piece of stdlib exact arithmetic (about 10 ms).

    A shared machine's speed drifts by tens of percent over tens of seconds, for
    all interpreted code alike.  Timing this reference next to every job and
    dividing by it cancels that drift; bgnf never runs inside it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        acc: dict = {}
        x = Fraction(1, 3)
        for i in range(1, 800):
            x = x * Fraction(i % 7 + 1, i % 11 + 2) + Fraction(1, i)
            x = Fraction(x.numerator % _REF_MOD, x.denominator % _REF_MOD + 1)
            key = (i % 13, i % 17)
            acc[key] = acc.get(key, 0) + x
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


_REF_MOD = 10 ** 30
# Nominal duration of reference(): setup_s is set-up time in seconds on a
# machine that runs the reference in this time.
REF_S = 0.010


class SetupClock:
    """Times set-up in stages, from interpreter start to the first pass.

    Each ``mark()`` ends a stage and times the reference (median of three).
    A stage's time is divided by the mean of the references around it, like
    a pass segment, and scaled back to seconds by ``REF_S``.  The references
    themselves are not set-up and are left out.
    """

    def __init__(self, t0: float):
        self.stages: list = []            # (seconds, reference seconds)
        self._start, self._ref = t0, None
        self.mark()

    def mark(self):
        end = time.time()
        ref = statistics.median(reference() for _ in range(3))
        before = ref if self._ref is None else self._ref
        self.stages.append((end - self._start, (before + ref) / 2))
        self._start, self._ref = time.time(), ref

    def seconds(self) -> float:
        return sum(dt for dt, _ in self.stages)

    def scaled(self) -> float:
        return REF_S * sum(dt / ref for dt, ref in self.stages)


class Clock:
    """Times the segments of a pass, each a verb within a job: raw wall
    time and wall time in units of the reference run just before and just
    after the segment.  In a traced pass each segment is also a span."""

    def __init__(self, tracer=None):
        self.segments: dict = {}          # (job, verb, k) -> (seconds, refs)
        self.tracer = tracer
        self.job = None
        self.last_ref = reference()

    @contextmanager
    def __call__(self, verb):
        rec = self.tracer.open(f"verb.{verb}") if self.tracer else None
        t = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t
            if rec is not None:
                self.tracer.close(rec)
            ref = reference()
            k = sum(1 for key in self.segments if key[:2] == (self.job, verb))
            self.segments[(self.job, verb, k)] = (
                dt, 2.0 * dt / (self.last_ref + ref))
            self.last_ref = ref


def run_pass(wl: Workload, tracer=None):
    """One pass over the job list: (segments, jobs attempted, failures)."""
    failures: dict = {}
    jobs = wl.jobs()
    clock = Clock(tracer)
    for jid, run in jobs:
        clock.job = jid
        if tracer is not None:
            tracer.job = jid
        try:
            errs = run(clock)()
        except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
            errs = [f"{type(exc).__name__}: {exc}"]
        if errs:
            failures[jid] = errs
    for jid, errs in wl.end_pass().items():
        failures.setdefault(jid, []).extend(errs)
    return clock.segments, len(jobs), failures


def median_pass(passes: list[dict], unit: int, verb=None) -> float:
    """Sum over segments of each segment's median over the passes.

    Every pass replays the same segments, so a burst of machine noise that
    hits one segment in one pass is voted out segment by segment.
    """
    keys = {k for p in passes for k in p if verb is None or k[1] == verb}
    return sum(statistics.median(p[k][unit] for p in passes if k in p)
               for k in keys)


SECONDS, REFS = 0, 1


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    """Passes until the next one would overrun ``seconds`` (at least one;
    with tracing, untraced and traced passes alternate, at least one each)."""
    tracer = spanlib.Tracer() if trace else None
    plain, traced, layers = [], [], []
    attempted, failed, notes = 0, 0, []
    first_spans = None
    start = perf_counter()
    while True:
        t = perf_counter()
        use = trace and len(plain) > len(traced)
        if use:
            tracer.install()
        try:
            segments, n, failures = run_pass(wl, tracer if use else None)
        finally:
            if use:
                tracer.uninstall()
        (traced if use else plain).append(segments)
        if use:
            spans, nfs = tracer.take()
            layers.append(spanlib.summarise(spans, nfs))
            first_spans = first_spans or spans
        attempted += n
        failed += len(failures)
        notes += [f"{jid}: {'; '.join(errs)}" for jid, errs in failures.items()]
        last = perf_counter() - t
        if (traced or not trace) and perf_counter() - start + last > seconds:
            break

    out = {"passes": len(plain) + len(traced), "attempted": attempted,
           "failed": failed, "failures": notes[:20],
           "pass_s": median_pass(plain, SECONDS),
           "pass_ref": median_pass(plain, REFS),
           "pass_totals": [sum(v[SECONDS] for v in p.values()) for p in plain],
           "pass_refs": [sum(v[REFS] for v in p.values()) for p in plain],
           "verbs": {v: median_pass(plain, SECONDS, v) for v in spanlib.VERBS},
           "verbs_ref": {v: median_pass(plain, REFS, v) for v in spanlib.VERBS}}
    if trace:
        overhead = 100.0 * (median_pass(traced, REFS) / out["pass_ref"] - 1.0)
        out["per_layer"] = spanlib.combine(layers, overhead)
        out["spans"] = first_spans
    return out


def run(workload, seed, seconds, trace, size="full", t0=None, setup_only=False):
    """Set up ``workload``, measure it, and return the run's result dict."""
    clock = SetupClock(time.time() if t0 is None else t0)
    import numpy
    import scipy
    import bgnf
    import bgnf.cli  # noqa: F401 - the CLI import is part of set-up

    clock.mark()
    wl = make_workload(workload, seed, size)
    wl.warm(clock.mark)
    clock.mark()
    result = {"setup_s": clock.scaled(), "setup_raw_s": clock.seconds()}
    try:
        if not setup_only:
            result.update(measure(wl, seconds, trace))
    finally:
        wl.close()
    if setup_only:
        return result
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "bgnf": bgnf.__version__}
    return result


def record_expected():
    """Rewrite expected.json from one pass of each model workload."""
    expected = {}
    for name in ("models-cli", "reanalyze", "verify-flow"):
        expected[name] = {}
        for size in SIZES:
            wl = make_workload(name, 1, size)
            wl.digests.clear()
            if name == "verify-flow":
                wl.rows.clear()
            try:
                _, _, failures = run_pass(wl)
            finally:
                wl.close()
            if failures:
                raise SystemExit(f"{name}/{size} failed: {failures}")
            if name == "verify-flow":
                expected[name].update(
                    (jid, {"report": wl.digests[jid], "row": rep["rows"][0]})
                    for jid, (_, rep) in wl.reports.items())
            else:
                expected[name].update(wl.digests)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, default=None,
                   help="wall-clock time the interpreter was started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None,
                   help="write the first traced pass's spans here (JSON lines)")
    p.add_argument("--record-expected", action="store_true",
                   help="rewrite expected.json at the current commit")
    args = p.parse_args(argv)
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 t0=args.t0, setup_only=args.setup_only)
    spans = result.pop("spans", None)
    if args.spans and spans:
        os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
        spanlib.Tracer.dump(spans, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
