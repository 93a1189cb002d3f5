"""Outside-in span tracing of the ncvi layers.

`install()` replaces public functions and model methods with wrappers that
record one span per call: name, start, end and the enclosing span.  Each
name is patched where callers look it up, so the wrappers see every call:

- module functions are looked up as module attributes at call time
  (`numerics.softmax`, `optimize.maximize`, `engine.laplace_step`, ...);
- `evaluate` binds `predict_loglik` by name from `blr`, so both modules are
  patched;
- model methods and `SpdFactorization.inverse` are patched on their class;
- the CLI commands are bound when the parser is built, which happens inside
  `cli.main`, so patching `cli._cmd_*` before `main` runs is enough.

Spans stay in flat in-memory arrays and are written once, at exit, to an
`.npz` file alongside the counts gathered at the same boundaries.  The
wrappers assume one thread, which holds because the workloads never pass
`--threads`.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

import numpy as np

# dataio readers and writers grouped into one span name each
_PARSERS = ("parse_corpus", "parse_labeled", "load_ctm_params", "load_posterior")
_WRITERS = ("save_ctm_params", "save_posterior", "write_metrics_csv")
_GAMMA = ("log_gamma", "digamma", "trigamma", "polygamma_2")
_MODEL_METHODS = ("f_value_grad", "f_hessian", "trace_grad", "conjugate_update", "expected_stats")
_COMMANDS = {
    "fit-ctm": "_cmd_fit_ctm",
    "eval-ctm": "_cmd_eval_ctm",
    "fit-blr": "_cmd_fit_blr",
    "eval-blr": "_cmd_eval_blr",
    "fit-hblr": "_cmd_fit_hblr",
    "infer-unigram": "_cmd_infer_unigram",
}


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None, on_error=None):
        """Return fn wrapped in a span; hooks see (args, result) or the error."""
        nid = self._name_id(name)
        stack, nids, parents = self._stack, self.name_ids, self.parents
        starts, ends, clock = self.starts, self.ends, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                ends[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(err)
                raise
            ends[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        np.savez(
            path,
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            meta=np.array(json.dumps(
                {"run_id": self.run_id, "names": self.names, "counts": dict(self.counts)}
            )),
        )


def install(tracer: Tracer) -> None:
    """Patch every traced ncvi name in place."""
    from ncvi import blr, cli, ctm, dataio, engine, evaluate, numerics, optimize, unigram

    counts = tracer.counts

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    for command, attr in _COMMANDS.items():
        patch(cli, attr, f"cli.{command}")
    for attr in _PARSERS:
        patch(dataio, attr, "dataio.parse")
    for attr in _WRITERS:
        patch(dataio, attr, "dataio.write")

    def em_done(args, fit):
        counts["ctm.em_fit.iters"] += len(fit.trace)

    patch(ctm, "em_fit", "ctm.em_fit", on_result=em_done)
    patch(evaluate, "heldout_doc_loglik", "evaluate.heldout_doc_loglik")
    for attr in ("fit", "hyper_update", "fit_hierarchical"):
        patch(blr, attr, f"blr.{attr}")
    traced_pred = tracer.wrap("blr.predict_loglik", blr.predict_loglik)
    blr.predict_loglik = traced_pred
    evaluate.predict_loglik = traced_pred

    def ascent_done(args, result):
        trace = result[2]
        counts["engine.run_coordinate_ascent.outer_iters"] += len(trace)
        counts["engine.run_coordinate_ascent.cap_hits"] += int(not trace.converged)

    def ascent_failed(err):
        trace = getattr(err, "trace", None)
        if trace is not None:
            counts["engine.run_coordinate_ascent.outer_iters"] += len(trace)

    patch(engine, "run_coordinate_ascent", "engine.run_coordinate_ascent",
          on_result=ascent_done, on_error=ascent_failed)
    for attr in ("laplace_step", "delta_step", "approx_objective"):
        patch(engine, attr, f"engine.{attr}")

    def maximize_done(args, result):
        counts["optimize.maximize.iters"] += result.iterations
        counts["optimize.maximize.not_converged"] += int(not result.converged)

    def maximize_failed(err):
        if isinstance(err, optimize.LineSearchStallError):
            counts["optimize.maximize.stalls"] += 1

    traced_maximize = tracer.wrap(
        "optimize.maximize", optimize.maximize,
        on_result=maximize_done, on_error=maximize_failed,
    )

    def maximize(objective, init, config=None, **kwargs):
        def counted(x):
            counts["optimize.maximize.evals"] += 1
            return objective(x)

        return traced_maximize(counted, init, config, **kwargs)

    optimize.maximize = maximize

    def blr_flops(args, result):
        n, p = args[0]._t.shape  # 2 N P^2 for the einsum over the design matrix
        counts["BlrModel.trace_grad.flops"] += 2 * n * p * p

    for cls in (ctm.CtmDocModel, blr.BlrModel, unigram.UnigramModel):
        for attr in _MODEL_METHODS:
            hooks = {"on_result": blr_flops} if cls is blr.BlrModel and attr == "trace_grad" else {}
            patch(cls, attr, f"{cls.__name__}.{attr}", **hooks)

    for attr in ("softmax", "log_sum_exp", "sigmoid", "log_sigmoid"):
        patch(numerics, attr, f"numerics.{attr}")
    for attr in _GAMMA:
        patch(numerics, attr, "numerics.gamma")

    def factorize_failed(err):
        if isinstance(err, numerics.NotPositiveDefiniteError):
            counts["numerics.spd_factorize.failures"] += 1

    patch(numerics, "spd_factorize", "numerics.spd_factorize", on_error=factorize_failed)
    patch(numerics.SpdFactorization, "inverse", "numerics.spd_inverse")


# Span-derived per-layer metrics: (span name, kinds).  A kind is "calls",
# "s" (inclusive seconds), "self_s", or "p50_s"/"p75_s" (per-call duration
# quantiles).  COUNTERS and DELTA_ROUNDS below add the counted metrics.
def _layer_specs():
    specs = [
        ("optimize.maximize", ["calls", "self_s"]),
        ("engine.run_coordinate_ascent", ["calls", "self_s"]),
        ("engine.laplace_step", ["calls", "self_s"]),
        ("engine.delta_step", ["calls", "self_s"]),
        ("engine.approx_objective", ["calls", "s"]),
    ]
    for cls in ("CtmDocModel", "BlrModel", "UnigramModel"):
        for attr in _MODEL_METHODS:
            specs.append((f"{cls}.{attr}", ["calls", "s"]))
    for attr in ("softmax", "log_sum_exp", "sigmoid", "log_sigmoid", "gamma"):
        specs.append((f"numerics.{attr}", ["calls", "s"]))
    specs += [
        ("numerics.spd_factorize", ["calls", "s"]),
        ("numerics.spd_inverse", ["s"]),
        ("ctm.em_fit", ["self_s"]),
        ("evaluate.heldout_doc_loglik", ["p50_s", "p75_s"]),
        ("blr.fit", ["s"]),
        ("blr.hyper_update", ["s"]),
        ("blr.fit_hierarchical", ["s"]),
        ("blr.predict_loglik", ["calls", "s"]),
        ("dataio.parse", ["s"]),
        ("dataio.write", ["s"]),
    ]
    specs += [(f"cli.{command}", ["s"]) for command in _COMMANDS]
    return specs


COUNTERS = {
    "optimize.maximize.iters": "count",
    "optimize.maximize.evals": "count",
    "optimize.maximize.not_converged": "count",
    "optimize.maximize.stalls": "count",
    "engine.run_coordinate_ascent.outer_iters": "count",
    "engine.run_coordinate_ascent.cap_hits": "count",
    "BlrModel.trace_grad.flops": "flop",
    "numerics.spd_factorize.failures": "count",
    "ctm.em_fit.iters": "count",
}
DELTA_ROUNDS = "engine.delta_step.inner_rounds"


def metric_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for span, kinds in _layer_specs():
        for kind in kinds:
            out[f"{span}.{kind}"] = "count" if kind == "calls" else "s"
    out.update(COUNTERS)
    out[DELTA_ROUNDS] = "count"
    return out


def summarize(dump_paths) -> dict[str, float]:
    """Aggregate the span files of one traced pass into per-layer metrics."""
    calls, incl, self_s, durations = Counter(), Counter(), Counter(), {}
    counts: Counter = Counter()
    for path in dump_paths:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            nids, parents = data["name_ids"], data["parents"]
            dur = data["ends"] - data["starts"]
        names = meta["names"]
        counts.update(meta["counts"])
        if nids.size == 0:
            continue
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=nids.size)
        parent_nid = np.where(has_parent, nids[np.maximum(parents, 0)], -1)
        outermost = parent_nid != nids  # a same-name child is already inside its parent
        for nid, name in enumerate(names):
            mine = nids == nid
            calls[name] += int(mine.sum())
            incl[name] += float(dur[mine & outermost].sum())
            self_s[name] += float((dur[mine] - child_time[mine]).sum())
            durations.setdefault(name, []).append(dur[mine])
        if "engine.delta_step" in names and "optimize.maximize" in names:
            delta = names.index("engine.delta_step")
            inner = (nids == names.index("optimize.maximize")) & (parent_nid == delta)
            counts[DELTA_ROUNDS] += int(inner.sum())

    metrics = {}
    for span, kinds in _layer_specs():
        for kind in kinds:
            key = f"{span}.{kind}"
            if kind == "calls":
                metrics[key] = calls[span]
            elif kind == "s":
                metrics[key] = incl[span]
            elif kind == "self_s":
                metrics[key] = self_s[span]
            else:
                per_call = np.concatenate(durations.get(span, [np.zeros(0)]))
                q = 50 if kind == "p50_s" else 75
                metrics[key] = float(np.percentile(per_call, q)) if per_call.size else 0.0
    for key in COUNTERS:
        metrics[key] = counts[key]
    metrics[DELTA_ROUNDS] = counts[DELTA_ROUNDS]
    return metrics
