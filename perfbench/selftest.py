"""Self-test of the benchmark harness at tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with tracing off and on; that the traced counters repeat exactly; that the
tracer restores every name it patched; that expected.json covers every job
over the built-in models; and that a corrupted expected digest turns into a
failed job.  Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as runner  # noqa: E402
import spans as spanlib  # noqa: E402
import worker  # noqa: E402


def _names(entries):
    return {e["name"]: e["unit"] for e in entries}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e, layers = _names(bench["end_to_end"]), _names(bench["per_layer"])
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
        return ok

    expect([w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS),
           "BENCHMARK.json workloads differ from the worker's")
    expect(layers == dict(spanlib.PER_LAYER),
           "BENCHMARK.json per_layer differs from spans.PER_LAYER")

    from bgnf import cli, poly
    before = (poly.Polynomial.__mul__, cli.main, cli.json,
              dict(cli.MODEL_BUILDERS))
    counts = {}
    for name in worker.WORKLOADS:
        res = worker.run(name, 1, 0, False, "tiny")
        line = runner.result_line(res, [res], False)
        expect(line["correct"], f"{name}: failures {res['failures']}")
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        expect(got == e2e, f"{name}: end-to-end metrics {sorted(got)}")
        expect(all(v["value"] > 0 for v in line["metrics"].values()),
               f"{name}: an end-to-end metric is not positive")

        for repeat in range(2):
            res = worker.run(name, 1, 0, True, "tiny")
            line = runner.result_line(res, [], True)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(got == layers, f"{name}: per-layer metrics differ")
            expect(line["correct"], f"{name} traced: {res['failures']}")
            counts.setdefault(name, []).append(
                {k: v["value"] for k, v in line["metrics"].items()
                 if v["unit"] not in ("s", "%")})
        expect(counts[name][0] == counts[name][1],
               f"{name}: traced counters differ between two runs")
    expect(before == (poly.Polynomial.__mul__, cli.main, cli.json,
                      dict(cli.MODEL_BUILDERS)),
           "the tracer left a patched name behind")
    expect(counts["dense-exact"][0]["poly.mul.term_pairs"] > 0,
           "dense-exact counted no term pairs")
    expect(counts["verify-flow"][0]["numeric.winding.nfev"] > 0,
           "verify-flow counted no winding evaluations")

    with open(worker.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    for name in ("models-cli", "reanalyze", "verify-flow"):
        for size in worker.SIZES:
            wl = worker.make_workload(name, 1, size)
            try:
                missing = {jid for jid, _ in wl.jobs()} - set(expected[name])
            finally:
                wl.close()
            expect(not missing, f"{name}/{size}: no expected output for "
                                f"{sorted(missing)}")

    wl = worker.make_workload("models-cli", 1, "tiny")
    try:
        victim = " ".join(wl.argvs[0])
        wl.digests[victim] = "0" * 16
        res = worker.measure(wl, 0, False)
    finally:
        wl.close()
    expect(res["failed"] >= 1 and any(victim in f for f in res["failures"]),
           "a corrupted expected digest did not fail its job")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
