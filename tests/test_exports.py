"""Package tooling: the export lists name only what the modules define,
``python -m bgnf`` runs the command line, and the pytest configuration
reports a failing property."""

import importlib
import os
import pkgutil
import subprocess
import sys

import bgnf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(bgnf.__path__):
        module = importlib.import_module(f"bgnf.{info.name}")
        missing += [f"bgnf.{info.name}.{name}"
                     for name in getattr(module, "__all__", ())
                     if not hasattr(module, name)]
    assert not missing


def test_python_m_bgnf_runs_the_command_line():
    # from a checkout: src on PYTHONPATH, no installed script
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, "-m", "bgnf", "--version"],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == bgnf.__version__


def test_a_failing_property_prints_its_example(tmp_path):
    # hypothesis reports the example through libcst, which raises a
    # DeprecationWarning; under the error filter of pyproject.toml that
    # must not end the session in INTERNALERROR
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir",
         str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
