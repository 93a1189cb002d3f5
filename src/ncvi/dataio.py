"""Text file formats: sparse corpora, labeled instances, fitted parameters,
Gaussian posteriors, and metric CSVs.

Everything is plain text so golden files diff cleanly; floats are written
with 17 significant digits, which round-trips doubles exactly.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .ctm import CtmParams
from .evaluate import MetricReport
from .model import Document, GaussianVariational, LabeledInstance

__all__ = [
    "ParseError",
    "parse_corpus",
    "parse_labeled",
    "save_ctm_params",
    "load_ctm_params",
    "save_posterior",
    "load_posterior",
    "write_metrics_csv",
]

_FLOAT_FMT = "%.17g"


class ParseError(ValueError):
    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _read_lines(path) -> list[str]:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ParseError(path, 0, f"cannot read file: {err}") from err
    return text.splitlines()


def _sparse_rows(path, tag: str, key: str, pair_form: str, convert, valid):
    """The grammar both sparse formats share: header "<tag> <size>", then per
    non-blank line "<head> idx:value ..." with unique 0-based ids below size
    and values that `convert` parses and `valid` accepts (as `pair_form`
    says).  Returns the size and, lazily, each line's number, head and dict."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, f'missing header line "{tag} <int>"')
    header = lines[0].split()
    if len(header) != 2 or header[0] != tag:
        raise ParseError(path, 1, f'header must be "{tag} <int>", got {lines[0]!r}')
    try:
        size = int(header[1])
    except ValueError:
        raise ParseError(path, 1, f"header size {header[1]!r} is not an integer") from None
    if size < 1:
        raise ParseError(path, 1, f"declared size must be positive, got {size}")

    def rows():
        for line_no, line in enumerate(lines[1:], start=2):
            if not (parts := line.split()):
                continue
            values = {}
            for pos, pair in enumerate(parts[1:], start=1):
                idx_s, _, value_s = pair.partition(":")
                try:
                    idx, value = int(idx_s), convert(value_s)
                    if not valid(value):
                        raise ValueError(value_s)
                except ValueError:
                    raise ParseError(
                        path, line_no, f"pair {pos} ({pair!r}) is not {pair_form}"
                    ) from None
                if not 0 <= idx < size:
                    raise ParseError(path, line_no, f"{key} id {idx} outside 0..{size - 1}")
                if idx in values:
                    raise ParseError(path, line_no, f"duplicate {key} id {idx}")
                values[idx] = value
            yield line_no, parts[0], values

    return size, rows()


def parse_corpus(path, warn=None) -> tuple[list[Document], int]:
    """Read a sparse bag-of-words file: header "V <int>", then one document
    per line as "N idx:count ..." with N unique 0-based term ids below V.

    Empty documents ("0" lines) are accepted; each is reported through the
    optional warn callback.
    """
    vocab_size, rows = _sparse_rows(
        path, "V", "term", "idx:count with a positive integer count", int, lambda c: c > 0
    )
    documents: list[Document] = []
    for line_no, head, counts in rows:
        try:
            declared = int(head)
        except ValueError:
            raise ParseError(path, line_no, f"term count {head!r} is not an integer") from None
        if len(counts) != declared:
            raise ParseError(path, line_no, f"declared {declared} terms, found {len(counts)} pairs")
        if not counts and warn is not None:
            warn(f"{path}:{line_no}: empty document")
        documents.append(Document(counts))
    return documents, vocab_size


def parse_labeled(path) -> tuple[list[LabeledInstance], int]:
    """Read labeled instances: header "P <int>", then "label idx:value ..."
    per line with label in {0,1} and unlisted covariates equal to zero."""
    dim, rows = _sparse_rows(
        path, "P", "covariate", "idx:value with a finite value", float, math.isfinite
    )
    instances: list[LabeledInstance] = []
    for line_no, head, values in rows:
        if head not in ("0", "1"):
            raise ParseError(path, line_no, f"label must be 0 or 1, got {head!r}")
        covariates = np.zeros(dim)
        covariates[list(values)] = list(values.values())
        instances.append(LabeledInstance(covariates, (1, 0) if head == "1" else (0, 1)))
    return instances, dim


def _format_row(values) -> str:
    return " ".join(_FLOAT_FMT % v for v in np.asarray(values, dtype=float))


def save_ctm_params(params: CtmParams, path) -> None:
    k, v = params.num_topics, params.vocab_size
    out = [f"{k} {v}"]
    out.extend(_format_row(row) for row in params.topics)
    out.append(_format_row(params.prior_mean))
    out.extend(_format_row(row) for row in params.prior_cov)
    Path(path).write_text("\n".join(out) + "\n")


def _parse_floats(path, line_no: int, line: str, expect: int) -> np.ndarray:
    parts = line.split()
    if len(parts) != expect:
        raise ParseError(path, line_no, f"expected {expect} values, found {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ParseError(path, line_no, "non-numeric value") from None


def load_ctm_params(path) -> CtmParams:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, 'missing header line "K V"')
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(path, 1, f'header must be "K V", got {lines[0]!r}')
    try:
        k, v = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(path, 1, "header sizes must be integers") from None
    need = 1 + k + 1 + k
    if len(lines) < need:
        raise ParseError(path, len(lines), f"expected {need} lines, found {len(lines)}")
    topics = np.stack(
        [_parse_floats(path, 2 + i, lines[1 + i], v) for i in range(k)]
    )
    mean = _parse_floats(path, 2 + k, lines[1 + k], k)
    cov = np.stack(
        [_parse_floats(path, 3 + k + i, lines[2 + k + i], k) for i in range(k)]
    )
    try:
        return CtmParams(topics, mean, cov)
    except ValueError as err:
        raise ParseError(path, 1, f"invalid model values: {err}") from None


def save_posterior(q: GaussianVariational, path) -> None:
    out = [str(q.dim), _format_row(q.mu)]
    out.extend(_format_row(row) for row in q.sigma)
    Path(path).write_text("\n".join(out) + "\n")


def load_posterior(path) -> GaussianVariational:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, "missing dimension header")
    try:
        p = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise ParseError(path, 1, f"dimension header {lines[0]!r} is not an integer") from None
    if p < 1:
        raise ParseError(path, 1, f"dimension must be positive, got {p}")
    if len(lines) < 2 + p:
        raise ParseError(path, len(lines), f"expected {2 + p} lines, found {len(lines)}")
    mu = _parse_floats(path, 2, lines[1], p)
    sigma = np.stack([_parse_floats(path, 3 + i, lines[2 + i], p) for i in range(p)])
    return GaussianVariational(mu, sigma)


def write_metrics_csv(reports, path, extra_summary=None) -> None:
    """Emit "unit_id,metric,value" rows followed by summary rows holding each
    metric's mean, its unit count, and any run settings worth recording."""
    if isinstance(reports, MetricReport):
        reports = [reports]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit_id", "metric", "value"])
        for report in reports:
            for unit, value in zip(report.unit_ids, report.values):
                writer.writerow([unit, report.metric, _FLOAT_FMT % value])
        for report in reports:
            if report.count:
                writer.writerow(
                    ["summary", f"{report.metric}_mean", _FLOAT_FMT % report.mean]
                )
            writer.writerow(["summary", f"{report.metric}_count", str(report.count)])
        for key, value in (extra_summary or {}).items():
            writer.writerow(["summary", key, str(value)])
