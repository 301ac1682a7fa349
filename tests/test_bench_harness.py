"""The benchmark harness still runs against the program: its self-test."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_perfbench_selftest_passes():
    # the traced passes read every normal form's transform, so this also
    # catches a lazily built map the tracer cannot read
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
