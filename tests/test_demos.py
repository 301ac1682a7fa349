"""The worked demos still run end to end and print their report."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# demo 05 repeats acceptance criterion 5 and takes longer than the others
# together, so it is left to that test
DEMOS = ["01_normal_form_basics", "02_henon_heiles_hopf_link",
         "03_hill_lunar_pipeline", "04_isosceles_family",
         "06_winding_and_frames"]


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, os.path.join("demos", f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip()
