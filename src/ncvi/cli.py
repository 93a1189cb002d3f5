"""Command-line entry points.

Subcommands cover topic-model fitting and held-out scoring, flat and
hierarchical logistic regression, and the unigram posterior.  Every command
writes a trace CSV next to its primary output: a fit's iterations, or one
record holding an evaluation's mean metric.  Exit codes: 0 on success, 1 on
input problems (ValueError, OSError), 2 on numerical failure.  Each command
imports the model modules it runs, and no others.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import dataio, engine
from .model import GaussianVariational

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # funnel argparse's own failures into the input-error exit path
    def error(self, message):
        raise ValueError(message)


def _inference(args) -> engine.InferenceConfig:
    return engine.InferenceConfig(method=args.method, conv_tol=args.conv_tol)


def _single_record_trace(objective, mean_change, seconds, converged=True) -> engine.InferenceTrace:
    trace = engine.InferenceTrace()
    trace.append(engine.TraceRecord(1, objective, mean_change, seconds))
    trace.converged = bool(converged)
    return trace


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


def _warn_unless_converged(trace: engine.InferenceTrace, cap=None, conv_tol=None) -> None:
    """Name why a fit has not converged: its iteration cap, with the mean
    still moving, or a last q(theta) refit that stopped short."""
    if trace.converged:
        return
    moved = trace.records[-1].mean_change
    if cap is not None and moved >= conv_tol:
        cause = (f"stopped at the {cap}-iteration cap; the mean still moved "
                 f"{moved:.3g} > --conv-tol {conv_tol:g}")
    else:
        cause = "the last q(theta) refit stopped short of the optimizer's gradient tolerance"
    _warn(f"warning: {cause}")


def _cmd_fit_ctm(args) -> int:
    from . import ctm

    cfg = _inference(args)
    docs, vocab = dataio.parse_corpus(args.corpus, warn=_warn)
    fit = ctm.em_fit(docs, vocab, args.k, cfg, em_iters=args.em_iters, seed=args.seed)
    dataio.save_ctm_params(fit.params, args.out)
    fit.trace.to_csv(str(args.out) + ".trace.csv")
    return 0


def _cmd_eval_ctm(args) -> int:
    from . import evaluate

    cfg = _inference(args)
    seed = evaluate.DEFAULT_SPLIT_SEED if args.seed is None else args.seed
    params = dataio.load_ctm_params(args.model)
    docs, vocab = dataio.parse_corpus(args.corpus, warn=_warn)
    if vocab != params.vocab_size:
        raise ValueError(
            f"corpus vocabulary {vocab} does not match the model's {params.vocab_size}"
        )
    start = time.perf_counter()
    report = evaluate.heldout_corpus(params, docs, cfg, seed=seed)
    dataio.write_metrics_csv([report], args.out, extra_summary={"split_seed": seed})
    trace = (_single_record_trace(report.mean, 0.0, time.perf_counter() - start)
             if report.count else engine.InferenceTrace())
    trace.to_csv(str(args.out) + ".trace.csv")
    return 0


def _cmd_fit_blr(args) -> int:
    from . import blr

    instances, _ = dataio.parse_labeled(args.data)
    if not instances:
        raise ValueError(f"{args.data}: no instances")
    start = time.perf_counter()
    cfg = engine.InferenceConfig(method=args.method)
    (q,), (objective,), (converged,) = blr._fit(blr._Tasks.of([instances]), cfg)
    dataio.save_posterior(q, args.out)
    trace = _single_record_trace(
        objective, float(np.linalg.norm(q.mu)), time.perf_counter() - start, converged
    )
    _warn_unless_converged(trace)
    trace.to_csv(str(args.out) + ".trace.csv")
    return 0


def _cmd_fit_hblr(args) -> int:
    from . import blr

    cfg = _inference(args)
    task_dir = Path(args.tasks)
    if not task_dir.is_dir():
        raise ValueError(f"{args.tasks} is not a directory")
    paths = sorted(p for p in task_dir.iterdir() if p.is_file())
    if not paths:
        raise ValueError(f"{args.tasks}: no task files")
    stems = [p.stem for p in paths] + ["prior"]  # each writes <stem>.post
    clash = [str(p) for p in paths if stems.count(p.stem) > 1]
    if clash:
        raise ValueError(f"{', '.join(clash)}: each task writes <stem>.post beside prior.post; "
                         "the stems must differ")
    tasks = []
    dim = None
    for path in paths:
        instances, p = dataio.parse_labeled(path)
        if not instances:
            raise ValueError(f"{path}: no instances")
        if dim not in (None, p):
            raise ValueError(f"{path}: dimension {p} differs from {dim}")
        dim = p
        tasks.append(instances)
    hier = blr.HierPrior.default(
        dim, nu_offset=args.nu_offset, phi0_scale=args.phi0, phi1_scale=args.phi1,
    )
    result = blr.fit_hierarchical(tasks, hier, cfg=cfg, em_iters=args.em_iters)
    _warn_unless_converged(result.trace, args.em_iters, cfg.conv_tol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, q in zip(paths, result.posteriors):
        dataio.save_posterior(q, out_dir / (path.stem + ".post"))
    dataio.save_posterior(
        GaussianVariational(result.prior_mean, result.prior_cov),
        out_dir / "prior.post",
    )
    result.trace.to_csv(out_dir / "trace.csv")
    return 0


def _cmd_eval_blr(args) -> int:
    from . import evaluate

    q = dataio.load_posterior(args.posterior)
    instances, dim = dataio.parse_labeled(args.data)
    if not instances:
        raise ValueError(f"{args.data}: no instances")
    if q.dim != dim:
        raise ValueError(
            f"posterior dimension {q.dim} does not match data dimension {dim}"
        )
    start = time.perf_counter()
    acc = evaluate.accuracy_report([q], [instances])
    pred = evaluate.avg_log_pred([q], [instances])
    dataio.write_metrics_csv([acc, pred], args.out)
    trace = _single_record_trace(pred.mean, 0.0, time.perf_counter() - start)
    trace.to_csv(str(args.out) + ".trace.csv")
    return 0


def _cmd_infer_unigram(args) -> int:
    from . import unigram

    cfg = _inference(args)
    docs, vocab = dataio.parse_corpus(args.corpus, warn=_warn)
    if not docs:
        raise ValueError(f"{args.corpus}: no documents")
    q_theta, q_z, trace = unigram.infer(docs, vocab, cfg)
    _warn_unless_converged(trace, cfg.max_outer_iters, cfg.conv_tol)
    var = q_theta.sigma.diagonal()
    with open(args.out, "w") as handle:
        handle.write("term,posterior_mean,posterior_var\n")
        for i in range(vocab):
            handle.write("%d,%.17g,%.17g\n" % (i, q_theta.mu[i], var[i]))
    trace.to_csv(str(args.out) + ".trace.csv")
    return 0


def _add_common(sub, *, method=True, conv_tol=True):
    if method:
        sub.add_argument("--method", choices=("laplace", "delta"), default="laplace")
    if conv_tol:
        sub.add_argument("--conv-tol", type=float, default=1e-4)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ncvi", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("fit-ctm", help="fit a topic model by variational EM")
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--em-iters", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_fit_ctm)

    p = commands.add_parser("eval-ctm", help="held-out per-word log likelihood")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)  # unset: evaluate.DEFAULT_SPLIT_SEED
    _add_common(p)
    p.set_defaults(func=_cmd_eval_ctm)

    p = commands.add_parser("fit-blr", help="fit a logistic regression posterior")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, conv_tol=False)
    p.set_defaults(func=_cmd_fit_blr)

    p = commands.add_parser("fit-hblr", help="fit tasks under a shared learned prior")
    p.add_argument("--tasks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--em-iters", type=int, default=20)
    p.add_argument("--nu-offset", type=float, default=100.0)
    p.add_argument("--phi0", type=float, default=0.01)
    p.add_argument("--phi1", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=_cmd_fit_hblr)

    p = commands.add_parser("eval-blr", help="accuracy and log predictive score")
    p.add_argument("--posterior", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, method=False, conv_tol=False)
    p.set_defaults(func=_cmd_eval_blr)

    p = commands.add_parser("infer-unigram", help="posterior over log term rates")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_infer_unigram)

    return parser


def main(argv=None) -> int:
    import gc

    # start-up objects skip every later collection, exit's included;
    # refcounting still frees them, but cycles already garbage now stay
    gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        # LinAlgError subclasses ValueError, so it is caught first
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
