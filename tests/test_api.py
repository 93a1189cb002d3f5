"""Public surface: every name a module exports, and every name the benchmark
tracer patches, must exist."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ncvi

MODULES = ["ncvi"] + [f"ncvi.{m.name}" for m in pkgutil.iter_modules(ncvi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_benchmark_tracer_finds_every_traced_name():
    # perfbench/tracer.py patches ncvi names in place; a renamed or removed
    # name must fail here, not only under `perfbench/run.py --trace 1`
    root = Path(__file__).resolve().parent.parent
    code = "import tracer; tracer.install(tracer.Tracer(0))"
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_linalg_unloaded():
    # numerics factorizes on numpy alone; scipy.linalg costs startup on every command
    root = Path(__file__).resolve().parent.parent
    code = "import sys, ncvi.cli; sys.exit('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
