"""bgnf benchmark: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is loaded from ``src/`` next to this
directory.  Each run starts fresh interpreters with one BLAS/OpenMP thread
and a fixed hash seed.  With ``--trace 0`` the result carries the end-to-end
metrics (set-up is repeated in extra interpreters and the median
reported); with ``--trace 1`` it carries the per-layer metrics of a traced
run.  The last line of standard output is the result; the lines before it
give the per-verb split, the failures and the environment.  Exits non-zero,
printing no result, when the sources are missing or a run breaks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
# Interpreters whose set-up is timed per run; reanalyze's set-up is about
# 5 s, so it gets fewer.
SETUP_REPEATS = {"reanalyze": 3}
SETUP_REPEATS_DEFAULT = 5
DEADLINE_S = 170.0


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter and return its result line."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time before the run finished")
    cmd = [sys.executable, WORKER, *args, "--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=left,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded {DEADLINE_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RunError("worker printed no result") from None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bgnf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"                 # e.g. an exported checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def result_line(res: dict, setups: list[dict], trace: bool) -> dict:
    """The benchmark's result object for one run of the worker."""
    if trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"]
                                                   for r in setups),
                        "unit": "s"},
            "pass_ref": {"value": res["pass_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one run of the bgnf benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bgnf", "__init__.py")):
        sys.stderr.write(f"bgnf sources not found under {SRC}\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    spans_path = os.path.join(HERE, ".run", f"spans-{args.workload}.jsonl")
    try:
        setups = []
        if not args.trace:
            repeats = SETUP_REPEATS.get(args.workload, SETUP_REPEATS_DEFAULT)
            for _ in range(repeats - 1):
                setups.append(spawn(common + ["--setup-only"], deadline))
        extra = ["--spans", spans_path] if args.trace else []
        res = spawn(common + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace)] + extra, deadline)
    except RunError as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 3
    setups.append(res)

    attempted, failed = res["attempted"], res["failed"]
    env = dict(res["env"], commit=commit(), source=source_digest(),
               nproc=os.cpu_count())
    print(f"# {args.workload} seed={args.seed} passes={res['passes']} "
          f"env={json.dumps(env, sort_keys=True)}")
    print("# set-up of each interpreter, scaled s (raw s): " + " ".join(
        f"{s['setup_s']:.4f} ({s['setup_raw_s']:.4f})" for s in setups))
    print(f"# pass_s {res['pass_s']:.4f} s; each pass: "
          + " ".join(f"{t:.4f}" for t in res["pass_totals"]))
    for verb, t in res["verbs"].items():
        if t:
            print(f"# {verb}_s {t:.4f} s = {res['verbs_ref'][verb]:.1f} ref")
    print("# pass_ref of each pass: "
          + " ".join(f"{r:.1f}" for r in res["pass_refs"]))
    print(f"# fail_frac {failed / attempted:.4f} ({failed}/{attempted} jobs)")
    for note in res["failures"]:
        print(f"# FAIL {note}")
    if args.trace:
        print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")
    print(json.dumps(result_line(res, setups, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
