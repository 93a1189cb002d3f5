"""Public surface: every name a module exports, and every name the benchmark
tracer patches, must exist; `python -m ncvi.cli` runs without warnings; no
command loads scipy, each command in FOOTPRINT loads no other model's
modules, and a command leaves its start-up heap frozen."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ncvi
from ncvi import cli

from conftest import make_blr_problem, make_ctm_corpus, make_ctm_params, make_unigram_corpus

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


def run_python(*args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True)


def test_module_entry_point_runs_without_warnings():
    # the package does not import cli, so runpy finds it unloaded
    proc = run_python("-W", "error::RuntimeWarning", "-m", "ncvi.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and proc.stdout.startswith("usage: ncvi")


def test_cli_import_leaves_scipy_unloaded():
    # scipy.special alone costs every command ~0.3 s of startup
    code = "import sys, ncvi.cli; loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; " \
           "sys.exit(f'loaded {loaded}' if loaded else None)"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


# what each command must not load: a fresh interpreter pays to compile and
# run every module it imports
FOOTPRINT = {
    "infer-unigram": ("infer-unigram --corpus words.txt --out r-footprint.csv",
                      {"ncvi.blr", "ncvi.ctm", "ncvi.evaluate", "numpy.random"}),
    "fit-blr": ("fit-blr --data train.txt --out f-footprint.post", {"ncvi.ctm", "ncvi.unigram"}),
    # numpy.ma comes in through np.unique, and costs ~9 ms of startup;
    # numpy.random ~13 ms, and the ctm commands draw from the standard library
    "fit-ctm": ("fit-ctm --corpus corpus.txt --k 2 --out m-footprint.txt --em-iters 1",
                {"numpy.ma", "numpy.random", "ncvi.blr", "ncvi.unigram"}),
    "eval-ctm": ("eval-ctm --model model.txt --corpus corpus.txt --out s-footprint.csv",
                 {"numpy.ma", "numpy.random", "ncvi.blr", "ncvi.unigram"}),
    "eval-blr": ("eval-blr --posterior coef.post --data train.txt --out b-footprint.csv",
                 {"ncvi.ctm", "ncvi.unigram", "numpy.random"}),
    "fit-hblr": ("fit-hblr --tasks tasks --out h-footprint --em-iters 1",
                 {"ncvi.ctm", "ncvi.unigram", "numpy.random"}),
}


@pytest.mark.parametrize("command", list(FOOTPRINT))
def test_command_loads_only_the_modules_it_runs(tiny, command):
    argv, unused = FOOTPRINT[command]
    code = "import sys; from ncvi.cli import main; rc = main(sys.argv[1:]); " \
           f"loaded = sorted(set(sys.modules).intersection({sorted(unused)!r})); " \
           "sys.exit(rc or (f'loaded {loaded}' if loaded else None))"
    proc = run_python("-c", code, *argv.split(), cwd=tiny)
    assert proc.returncode == 0, proc.stderr


def test_command_leaves_its_start_up_heap_frozen(tiny):
    # main freezes the objects alive at its start, so neither its own
    # collections nor the interpreter's at exit walk them; collection stays on
    code = "import gc, sys; from ncvi.cli import main; rc = main(sys.argv[1:]); " \
           "sys.exit(rc or (None if gc.isenabled() and gc.get_freeze_count() > 0 " \
           "else f'enabled {gc.isenabled()}, frozen {gc.get_freeze_count()}'))"
    proc = run_python("-c", code, *"fit-blr --data train.txt --out g-frozen.post".split(), cwd=tiny)
    assert proc.returncode == 0, proc.stderr


def sparse_lines(header, rows):
    return "\n".join([header] + [f"{lead} " + " ".join(f"{i}:{v!r}" for i, v in pairs)
                                  for lead, pairs in rows]) + "\n"


def corpus_text(docs, vocab):
    return sparse_lines(f"V {vocab}", [(len(d.counts), d.items()) for d in docs])


def labeled_text(instances, dim):
    return sparse_lines(f"P {dim}", [(x.z[0], enumerate(x.covariates.tolist()))
                                     for x in instances])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny corpora, labeled data and task files, plus a fitted model and posterior."""
    root = tmp_path_factory.mktemp("tiny")
    params = make_ctm_params(0, num_topics=2, vocab_size=12)
    (root / "corpus.txt").write_text(corpus_text(make_ctm_corpus(1, params, 8, 20), 12))
    (root / "words.txt").write_text(corpus_text(make_unigram_corpus(2, 12, 4)[0], 12))
    instances, _ = make_blr_problem(3, 40, 3)
    (root / "train.txt").write_text(labeled_text(instances, 3))
    (root / "tasks").mkdir()
    for t in range(2):
        (root / "tasks" / f"t{t}.txt").write_text(labeled_text(instances[20 * t:20 * (t + 1)], 3))
    assert cli.main(["fit-ctm", "--corpus", str(root / "corpus.txt"), "--k", "2",
                     "--out", str(root / "model.txt"), "--em-iters", "2"]) == 0
    assert cli.main(["fit-blr", "--data", str(root / "train.txt"),
                     "--out", str(root / "coef.post")]) == 0
    return root


# the gamma family is numpy too: with scipy unimportable every command runs
WITHOUT_SCIPY = {
    "fit-ctm": "fit-ctm --corpus corpus.txt --k 2 --out m.txt --em-iters 2",
    "eval-ctm-delta": "eval-ctm --model model.txt --corpus corpus.txt --out s.csv --method delta",
    "fit-blr-laplace": "fit-blr --data train.txt --out l.post --method laplace",
    "fit-blr-delta": "fit-blr --data train.txt --out d.post --method delta",
    "eval-blr": "eval-blr --posterior coef.post --data train.txt --out b.csv",
    "fit-hblr": "fit-hblr --tasks tasks --out hier --em-iters 2",
}


def run_without_scipy(cwd, argv):
    code = "import sys; sys.modules['scipy'] = None; from ncvi.cli import main; " \
           "sys.exit(main(sys.argv[1:]))"
    proc = run_python("-c", code, *argv.split(), cwd=cwd)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", WITHOUT_SCIPY.values(), ids=list(WITHOUT_SCIPY))
def test_ctm_and_blr_commands_run_without_scipy(tiny, argv):
    run_without_scipy(tiny, argv)


@pytest.mark.parametrize("method", ["laplace", "delta"])
def test_infer_unigram_runs_without_scipy(tiny, method):
    run_without_scipy(tiny, f"infer-unigram --corpus words.txt --out r-{method}.csv --method {method}")
