"""ncvi benchmark: three CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload ctm|blr|unigram|all --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed
(perfbench/gen.py).  Load is a closed loop with one client: the workload's
commands run one after another, each in a fresh interpreter calling
`ncvi.cli.main` with PYTHONPATH=src and BLAS pinned to one thread.  Whole
passes of the command sequence repeat while another pass fits in --seconds
(at least one pass); times are medians over passes.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced pass, which is
checked to write the same outputs as an untraced pass run just before it.
The lines above it are a readable report: environment, input and output
digests, per-command times, and every quality figure by name.

Workloads, metrics and known failures are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import gammaln

import gen
import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("ctm", "blr", "unigram")
SETUP_PROBES = 7
EM_BOUND_TOL = 1e-4  # per-word EM bound may not fall by more than this


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _read_trace(path) -> list[float]:
    """Objectives of a trace CSV, after checking its header and columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["iter", "objective", "mean_change", "seconds"],
             f"{path.name}: bad trace header")
    _require(len(rows) > 1, f"{path.name}: empty trace")
    objectives = [float(r[1]) for r in rows[1:]]
    _require(all(math.isfinite(v) for v in objectives), f"{path.name}: non-finite objective")
    return objectives


def _read_summary(path) -> dict[str, str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["unit_id", "metric", "value"], f"{path.name}: bad header")
    return {r[1]: r[2] for r in rows[1:] if r[0] == "summary"}


def _load_posterior(path, dim):
    from ncvi import dataio

    q = dataio.load_posterior(path)
    _require(q.dim == dim, f"{path.name}: dimension {q.dim}, expected {dim}")
    _require(np.all(np.isfinite(q.mu)) and np.all(np.isfinite(q.sigma)),
             f"{path.name}: non-finite posterior")
    return q


# Each check reads a command's outputs back, raises CheckFailed on a wrong
# one, and stores the quality figures it finds in `quality`.

def _check_fit_ctm(out, facts, quality):
    from ncvi import dataio

    params = dataio.load_ctm_params(out / "model.txt")
    _require(params.topics.shape == (gen.CTM_TOPICS, facts["vocab"]), "model.txt: wrong shape")
    words = sum(sum(doc.values()) for doc in facts["train"][0])
    per_word = np.array(_read_trace(out / "model.txt.trace.csv")) / words
    _require(per_word.size == 2, "model.txt.trace.csv: expected 2 EM iterations")
    _require(np.all(np.diff(per_word) >= -EM_BOUND_TOL), "EM bound per word fell")
    quality["em_bound_per_word"] = float(per_word[-1])


def _check_eval_ctm(out, facts, quality):
    summary = _read_summary(out / "scores.csv")
    _require(summary.get("heldout_loglik_count") == str(len(facts["heldout"][0])),
             f"heldout_loglik_count is {summary.get('heldout_loglik_count')}")
    value = float(summary["heldout_loglik_mean"])
    _require(math.isfinite(value), "heldout_loglik_mean is not finite")
    _read_trace(out / "scores.csv.trace.csv")
    quality["heldout_loglik"] = value


def _check_fit_blr(name):
    def check(out, facts, quality):
        _load_posterior(out / name, gen.BLR_DIM)
        _read_trace(out / f"{name}.trace.csv")
    return check


def _check_eval_blr(out, facts, quality):
    summary = _read_summary(out / "eval.csv")
    value = float(summary["avg_log_pred_mean"])
    _require(math.isfinite(value) and value <= 0.0, "avg_log_pred_mean out of range")
    _require(0.0 <= float(summary["accuracy_mean"]) <= 1.0, "accuracy_mean out of range")
    quality["blr_log_pred"] = value


def _check_fit_hblr(out, facts, quality):
    posts = sorted(p.name for p in (out / "hfit").glob("*.post"))
    tasks = len(facts["tasks"])
    _require(len(posts) == tasks + 1 and "prior.post" in posts,
             f"hfit: {len(posts)} posteriors, expected {tasks} tasks + prior.post")
    for name in posts:
        _load_posterior(out / "hfit" / name, gen.HBLR_DIM)
    objectives = _read_trace(out / "hfit" / "trace.csv")
    instances = sum(len(labels) for _, labels, _ in facts["tasks"])
    quality["hblr_bound_per_instance"] = objectives[-1] / instances


def _check_unigram(out, facts, quality):
    with open(out / "rates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["term", "posterior_mean", "posterior_var"], "rates.csv: bad header")
    _require(len(rows) - 1 == facts["vocab"], f"rates.csv: {len(rows) - 1} rows, expected V")
    table = np.array([[float(v) for v in r] for r in rows[1:]])
    _require(np.array_equal(table[:, 0], np.arange(facts["vocab"])), "rates.csv: term ids")
    _require(np.all(np.isfinite(table)) and np.all(table[:, 2] > 0.0), "rates.csv: bad values")
    objectives = _read_trace(out / "rates.csv.trace.csv")
    quality["unigram_bound"] = objectives[-1]
    quality["unigram_rmse"] = float(np.sqrt(np.mean((table[:, 1] - facts["theta_star"]) ** 2)))


def commands(workload, inp: Path, out: Path):
    """The workload's command sequence: (label, ncvi argv, outputs, check)."""
    if workload == "ctm":
        return [
            ("fit-ctm", ["fit-ctm", "--corpus", inp / "train.txt", "--k", gen.CTM_TOPICS,
                         "--em-iters", 2, "--out", out / "model.txt"],
             ["model.txt", "model.txt.trace.csv"], _check_fit_ctm),
            ("eval-ctm", ["eval-ctm", "--model", inp / "truth.txt", "--corpus",
                          inp / "heldout.txt", "--method", "delta", "--out", out / "scores.csv"],
             ["scores.csv", "scores.csv.trace.csv"], _check_eval_ctm),
        ]
    if workload == "blr":
        return [
            ("fit-blr-delta", ["fit-blr", "--data", inp / "train.txt", "--method", "delta",
                               "--out", out / "delta.post"],
             ["delta.post", "delta.post.trace.csv"], _check_fit_blr("delta.post")),
            ("fit-blr-laplace", ["fit-blr", "--data", inp / "train.txt",
                                 "--out", out / "laplace.post"],
             ["laplace.post", "laplace.post.trace.csv"], _check_fit_blr("laplace.post")),
            ("eval-blr", ["eval-blr", "--posterior", out / "delta.post", "--data",
                          inp / "test.txt", "--out", out / "eval.csv"],
             ["eval.csv", "eval.csv.trace.csv"], _check_eval_blr),
            ("fit-hblr-delta", ["fit-hblr", "--tasks", inp / "tasks", "--method", "delta",
                                "--out", out / "hfit"],
             ["hfit"], _check_fit_hblr),
        ]
    return [
        ("infer-unigram", ["infer-unigram", "--corpus", inp / "corpus.txt",
                           "--conv-tol", 0.1, "--out", out / "rates.csv"],
         ["rates.csv", "rates.csv.trace.csv"], _check_unigram),
    ]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, env, log: Path) -> dict:
    """Run one child to completion; wall, CPU and peak RSS come from wait4.
    Its stderr goes to `log`; the last line is kept when it exits nonzero."""
    argv = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = log.read_text(errors="replace").splitlines() if proc.returncode else []
    return {
        "rc": proc.returncode,
        "stderr": lines[-1] if lines else "",
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def masked_digest(out: Path, names) -> str:
    """SHA-256 of a command's outputs with the trace `seconds` column masked."""
    h = hashlib.sha256()
    files = []
    for name in names:
        path = out / name
        files.extend(sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path])
    for path in files:
        h.update(str(path.relative_to(out)).encode() + b"\0")
        if not path.exists():
            h.update(b"<missing>")
            continue
        text = path.read_text()
        if path.name.endswith("trace.csv"):
            text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
        h.update(text.encode())
    return h.hexdigest()


def run_pass(workload, inp, out, facts, env, work, spans_prefix=None) -> dict:
    """One pass of the command sequence, with every output checked."""
    out.mkdir(parents=True)
    steps = []
    quality: dict[str, float] = {}
    for run_id, (label, args, outputs, check) in enumerate(commands(workload, inp, out)):
        spans = "-" if spans_prefix is None else f"{spans_prefix}{run_id}.npz"
        step = spawn(["run", spans, run_id, *args], env, work / f"{out.name}-{label}.err")
        step["label"] = label
        step["error"] = None if step["rc"] == 0 else f"exit code {step['rc']}: {step['stderr']}"
        if step["error"] is None:
            try:
                check(out, facts, quality)
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as err:
                step["error"] = f"output check: {err}"
        step["digest"] = masked_digest(out, outputs)
        if spans_prefix is not None:
            step["spans"] = spans
        steps.append(step)
    return {
        "steps": steps,
        "quality": quality,
        "wall_s": sum(s["wall_s"] for s in steps),
        "cpu_s": sum(s["cpu_s"] for s in steps),
        "rss_mb": max(s["rss_mb"] for s in steps),
    }


def setup_times(workload, inp, facts, env, work) -> list[float]:
    """Fresh interpreter, `import ncvi.cli`, parse the inputs; one warm-up."""
    paths = [inp / name for name in facts["inputs"]]
    times = []
    for probe in range(SETUP_PROBES + 1):
        step = spawn(["setup", workload, *paths], env, work / "setup.err")
        if step["rc"] != 0:
            raise RuntimeError(f"set-up probe exited {step['rc']}: {step['stderr']}")
        if probe:
            times.append(step["wall_s"])
    return times


def _logistic_nll(covs, labels, coefs) -> np.ndarray:
    margin = covs @ coefs
    return np.logaddexp(0.0, np.where(labels == 1, -margin, margin))


def _mixture_nll(doc, weights, topics) -> tuple[float, int]:
    """Negative log likelihood and token count of a document under its
    true topic proportions."""
    probs = weights @ topics
    return -sum(c * float(np.log(probs[i])) for i, c in doc.items()), sum(doc.values())


def _oracle_ctm(facts) -> tuple[float, float]:
    """Per-word NLL of the generating model: held-out second halves (split as
    eval-ctm splits them) and the whole training corpus."""
    from ncvi.evaluate import DEFAULT_SPLIT_SEED, split_document
    from ncvi.model import Document

    topics = facts["topics"]
    docs, weights = facts["heldout"]
    per_doc = []
    for pos, (doc, w) in enumerate(zip(docs, weights)):
        _, second = split_document(Document(doc), (DEFAULT_SPLIT_SEED, pos))
        nll, n = _mixture_nll(second.counts, w, topics)
        per_doc.append(nll / n)
    totals = np.array([_mixture_nll(d, w, topics) for d, w in zip(*facts["train"])])
    return float(np.mean(per_doc)), float(totals[:, 0].sum() / totals[:, 1].sum())


def _oracle_unigram(facts) -> float:
    """Per-token NLL of the corpus under Dirichlet-multinomial(exp(theta*)),
    without the multinomial coefficient, which the model's bound also omits."""
    alpha = np.exp(facts["theta_star"])
    total, tokens = 0.0, 0
    for doc in facts["docs"]:
        x = np.zeros_like(alpha)
        x[list(doc)] = list(doc.values())
        n = x.sum()
        total -= (gammaln(alpha.sum()) - gammaln(alpha.sum() + n)
                  + (gammaln(alpha + x) - gammaln(alpha)).sum())
        tokens += n
    return float(total / tokens)


def quality_metrics(workload, quality, facts) -> dict[str, float]:
    """Quality as ratios of the program's loss to a reference loss on the
    same data; lower is better.  The ratio cancels most of the seed-to-seed
    change in how hard the data are.

    quality_loss: held-out NLL over the generating model's (ctm, blr); RMS
    error of the posterior mean log rates over the prior mean's (unigram).
    bound_loss: negative variational bound per token or instance over the
    generating model's NLL.
    """
    if workload == "ctm":
        heldout, train = _oracle_ctm(facts)
        return {"quality_loss": -quality["heldout_loglik"] / heldout,
                "bound_loss": -quality["em_bound_per_word"] / train}
    if workload == "blr":
        tasks = np.concatenate([_logistic_nll(*t) for t in facts["tasks"]])
        return {"quality_loss": -quality["blr_log_pred"] / _logistic_nll(*facts["test"]).mean(),
                "bound_loss": -quality["hblr_bound_per_instance"] / tasks.mean()}
    theta = facts["theta_star"]
    tokens = sum(sum(doc.values()) for doc in facts["docs"])
    return {"quality_loss": quality["unigram_rmse"] / float(np.sqrt(np.mean(theta ** 2))),
            "bound_loss": -quality["unigram_bound"] / tokens / _oracle_unigram(facts)}


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # the config layout differs across numpy versions
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": 1,
    }


def bench(workload, seed, seconds, trace) -> tuple[dict, dict]:
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    inp = work / "inputs"
    try:
        facts = gen.generate(workload, seed, inp)
        env = child_env()
        report = {
            "workload": workload,
            "seed": seed,
            "environment": environment(),
            "inputs_sha256": {n: gen.sha256(inp / n) for n in facts["inputs"]},
        }
        if trace:
            return _traced(workload, inp, facts, env, work, report)
        return _untraced(workload, seconds, inp, facts, env, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _failures(passes, reference) -> tuple[int, int, list[str]]:
    """Commands attempted and failed; outputs unlike the reference pass fail."""
    attempted, errors = 0, []
    for i, p in enumerate(passes):
        for step, ref in zip(p["steps"], reference["steps"]):
            attempted += 1
            if step["error"] is None and step["digest"] != ref["digest"]:
                step["error"] = "outputs differ from the reference pass"
            if step["error"] is not None:
                errors.append(f"pass {i} {step['label']}: {step['error']}")
    return attempted, len(errors), errors


def _untraced(workload, seconds, inp, facts, env, work, report):
    setup = setup_times(workload, inp, facts, env, work)
    # A further pass starts only if one as long as the last still ends within
    # --seconds, so a run stays within its time however fast the machine is.
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1]["wall_s"] <= seconds:
        passes.append(run_pass(workload, inp, work / f"out{len(passes)}", facts, env, work))
    attempted, failed, errors = _failures(passes, passes[0])
    quality = passes[0]["quality"]
    metrics = {
        "solve_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    try:
        for name, value in quality_metrics(workload, quality, facts).items():
            metrics[name] = (value, "ratio")
    except KeyError:  # a failed command left no figure; the run is not correct
        pass
    report.update({
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_probes_s": setup,
        "commands": [{k: s[k] for k in ("label", "rc", "wall_s", "cpu_s", "rss_mb")}
                     for s in passes[0]["steps"]],
        "outputs_sha256_masked": {s["label"]: s["digest"] for s in passes[0]["steps"]},
        "op_fail_rate": failed / attempted,
        "quality": {**quality, **{k: v for k, (v, _) in metrics.items() if k.endswith("loss")}},
        "errors": errors,
    })
    return report, _result(attempted, failed, metrics)


def _traced(workload, inp, facts, env, work, report):
    plain = run_pass(workload, inp, work / "plain", facts, env, work)
    traced = run_pass(workload, inp, work / "traced", facts, env, work,
                      spans_prefix=str(work / "spans"))
    attempted, failed, errors = _failures([plain, traced], plain)
    layer = tracer.summarize([s["spans"] for s in traced["steps"] if Path(s["spans"]).exists()])
    layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {**tracer.metric_names(), "trace.overhead_s": "s"}
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    report.update({
        "untraced_solve_s": plain["wall_s"],
        "traced_solve_s": traced["wall_s"],
        "tracing_overhead_s": layer["trace.overhead_s"],
        "traced_outputs_match": all(
            a["digest"] == b["digest"] for a, b in zip(plain["steps"], traced["steps"])),
        "op_fail_rate": failed / attempted,
        "errors": errors,
    })
    return report, _result(attempted, failed, metrics)


def _result(attempted, failed, metrics) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ncvi" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'ncvi'} not found; run from an ncvi checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        report, result = bench(workload, args.seed, args.seconds, args.trace)
        print(json.dumps(report, indent=1, default=str))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
