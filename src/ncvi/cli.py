"""Command-line entry points.

Subcommands cover topic-model fitting and held-out scoring, flat and
hierarchical logistic regression, and the unigram posterior.  Every command
writes an iteration trace CSV next to its primary output.  Exit codes: 0 on
success, 1 on input problems, 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import blr, ctm, dataio, engine, evaluate, unigram
from .model import GaussianVariational

__all__ = ["main"]


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # funnel argparse's own failures into the input-error exit path
    def error(self, message):
        raise CliInputError(message)


def _inference(args) -> engine.InferenceConfig:
    return engine.InferenceConfig(method=args.method, conv_tol=args.conv_tol)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _single_record_trace(objective: float, mean_change: float, seconds: float) -> engine.InferenceTrace:
    trace = engine.InferenceTrace()
    trace.append(engine.TraceRecord(1, objective, mean_change, seconds))
    trace.converged = True
    return trace


def _cmd_fit_ctm(args) -> int:
    cfg = _inference(args)
    docs, vocab = dataio.parse_corpus(
        args.corpus, warn=lambda m: print(m, file=sys.stderr)
    )
    fit = ctm.em_fit(docs, vocab, args.k, cfg, em_iters=args.em_iters, seed=args.seed)
    dataio.save_ctm_params(fit.params, args.out)
    fit.trace.to_csv(str(args.out) + ".trace.csv")
    return 0


def _cmd_eval_ctm(args) -> int:
    cfg = _inference(args)
    params = dataio.load_ctm_params(args.model)
    docs, vocab = dataio.parse_corpus(args.corpus)
    if vocab != params.vocab_size:
        raise CliInputError(
            f"corpus vocabulary {vocab} does not match the model's {params.vocab_size}"
        )
    start = time.perf_counter()
    report = evaluate.heldout_corpus(params, docs, cfg, seed=args.seed)
    dataio.write_metrics_csv(report, args.out, extra_summary={"split_seed": args.seed})
    trace = engine.InferenceTrace()
    for i, value in enumerate(report.values, start=1):
        trace.append(engine.TraceRecord(i, value, 0.0, time.perf_counter() - start))
    trace.converged = True
    trace.to_csv(str(args.out) + ".trace.csv")
    return 0


def _cmd_fit_blr(args) -> int:
    cfg = _inference(args)
    instances, dim = dataio.parse_labeled(args.data)
    if not instances:
        raise CliInputError(f"{args.data}: no instances")
    start = time.perf_counter()
    prior = blr.BlrPrior.standard(dim)
    q = blr.fit(instances, prior, cfg=cfg)
    objective = engine.approx_objective(blr.BlrModel(instances, prior), q, None)
    dataio.save_posterior(q, args.out)
    trace = _single_record_trace(
        objective, float(np.linalg.norm(q.mu)), time.perf_counter() - start
    )
    trace.to_csv(str(args.out) + ".trace.csv")
    return 0


def _cmd_fit_hblr(args) -> int:
    cfg = _inference(args)
    task_dir = Path(args.tasks)
    if not task_dir.is_dir():
        raise CliInputError(f"{args.tasks} is not a directory")
    paths = sorted(p for p in task_dir.iterdir() if p.is_file())
    if not paths:
        raise CliInputError(f"{args.tasks}: no task files")
    tasks = []
    dim = None
    for path in paths:
        instances, p = dataio.parse_labeled(path)
        if not instances:
            raise CliInputError(f"{path}: no instances")
        if dim is None:
            dim = p
        elif p != dim:
            raise CliInputError(f"{path}: dimension {p} differs from {dim}")
        tasks.append(instances)
    hier = blr.HierPrior.default(
        dim, nu_offset=args.nu_offset, phi0_scale=args.phi0, phi1_scale=args.phi1,
    )
    result = blr.fit_hierarchical(
        tasks, hier, cfg=cfg, em_iters=args.em_iters, threads=args.threads,
    )
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
    q = dataio.load_posterior(args.posterior)
    instances, dim = dataio.parse_labeled(args.data)
    if not instances:
        raise CliInputError(f"{args.data}: no instances")
    if q.dim != dim:
        raise CliInputError(
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
    cfg = _inference(args)
    docs, vocab = dataio.parse_corpus(
        args.corpus, warn=lambda m: print(m, file=sys.stderr)
    )
    if not docs:
        raise CliInputError(f"{args.corpus}: no documents")
    q_theta, q_z, trace = unigram.infer(docs, vocab, cfg)
    if not trace.converged:
        print(
            f"warning: stopped at the {cfg.max_outer_iters}-iteration cap; the mean still "
            f"moved {trace.records[-1].mean_change:.3g} > --conv-tol {cfg.conv_tol:g}",
            file=sys.stderr,
        )
    var = np.diag(q_theta.sigma)
    with open(args.out, "w") as handle:
        handle.write("term,posterior_mean,posterior_var\n")
        for i in range(vocab):
            handle.write("%d,%.17g,%.17g\n" % (i, q_theta.mu[i], var[i]))
    trace.to_csv(str(args.out) + ".trace.csv")
    return 0


def _add_common(sub, *, method=True, conv_tol=True, threads=False, seed=None):
    if method:
        sub.add_argument("--method", choices=("laplace", "delta"), default="laplace")
    if conv_tol:
        sub.add_argument("--conv-tol", type=float, default=1e-4)
    if threads:
        sub.add_argument("--threads", type=_positive_int, default=1)
    if seed is not None:
        sub.add_argument("--seed", type=int, default=seed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ncvi", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("fit-ctm", help="fit a topic model by variational EM")
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--em-iters", type=int, default=20)
    _add_common(p, seed=0)
    p.set_defaults(func=_cmd_fit_ctm)

    p = commands.add_parser("eval-ctm", help="held-out per-word log likelihood")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, seed=evaluate.DEFAULT_SPLIT_SEED)
    p.set_defaults(func=_cmd_eval_ctm)

    p = commands.add_parser("fit-blr", help="fit a logistic regression posterior")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_fit_blr)

    p = commands.add_parser("fit-hblr", help="fit tasks under a shared learned prior")
    p.add_argument("--tasks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--em-iters", type=int, default=20)
    p.add_argument("--nu-offset", type=float, default=100.0)
    p.add_argument("--phi0", type=float, default=0.01)
    p.add_argument("--phi1", type=float, default=0.01)
    _add_common(p, threads=True)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliInputError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ArithmeticError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
