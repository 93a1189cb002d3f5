"""Text file formats: sparse corpora, labeled instances, fitted parameters,
Gaussian posteriors, and metric CSVs.

Everything is plain UTF-8 text so golden files diff cleanly; floats are
written with 17 significant digits, which round-trips doubles exactly.

Labeled instances are read in one pass over the whole text into arrays
(`_labeled_arrays`).  The line-by-line reader (`_parse_labeled_lines`)
stays the reference and the only error path: whatever the one pass does not
accept, every malformed file among it, is read again line by line, so each
ParseError names its line.
"""

from __future__ import annotations

import csv
import math
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .model import Document, GaussianVariational, LabeledData

if TYPE_CHECKING:
    from .ctm import CtmParams

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


def _read_text(path) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise ParseError(path, 0, f"cannot read file: {err}") from err
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # a character in the bad byte's place ends the text before it on its line
        line_no = len((data[: err.start].decode("utf-8") + "?").splitlines())
        raise ParseError(
            path, line_no, f"not UTF-8 text: byte 0x{data[err.start]:02x} ({err.reason})"
        ) from None


def _read_lines(path) -> list[str]:
    return _read_text(path).splitlines()


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


def parse_labeled(path) -> tuple[LabeledData, int]:
    """Read labeled instances: header "P <int>", then "label idx:value ..."
    per line with label in {0,1} and unlisted covariates equal to zero."""
    fast = _labeled_arrays(_read_text(path))
    return _parse_labeled_lines(path) if fast is None else fast


def _parse_labeled_lines(path) -> tuple[LabeledData, int]:
    """`parse_labeled` line by line: the reference reader, and its error path."""
    dim, rows = _sparse_rows(
        path, "P", "covariate", "idx:value with a finite value", float, math.isfinite
    )
    covariates, labels = [], []
    for line_no, head, values in rows:
        if head not in ("0", "1"):
            raise ParseError(path, line_no, f"label must be 0 or 1, got {head!r}")
        row = np.zeros(dim)
        row[list(values)] = list(values.values())
        covariates.append(row)
        labels.append(head == "1")
    return LabeledData(np.reshape(covariates, (-1, dim)), labels), dim


_TAB, _NEWLINE, _SPACE, _COLON = map(ord, "\t\n :")
# characters per block of lines the one pass reads at a time: its transient
# memory, a Python string per token, scales with the block, not the file
_BLOCK = 1 << 16


def _labeled_arrays(text: str):
    """`parse_labeled`'s result from one pass over the whole text, a block of
    lines at a time, or None where the line reader must decide: a header
    other than "P <digits>", a character outside ASCII, or a block that
    `_labeled_block` leaves to it."""
    newline = text.find("\n")
    head = text if newline < 0 else text[:newline]
    header = head.split()
    if not (text.isascii() and head.isprintable() and len(header) == 2
            and header[0] == "P" and header[1].isdigit() and int(header[1]) > 0):
        return None
    dim, start, blocks = int(header[1]), len(head) + 1, []
    while True:
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        blocks.append(_labeled_block(text[start:end], dim))
        if blocks[-1] is None:
            return None
        if end == len(text):
            covariates, labels = zip(*blocks)
            return LabeledData(np.concatenate(covariates), np.concatenate(labels)), dim
        start = end


def _labeled_block(body: str, dim: int):
    """The covariates and labels of whole lines of ASCII text, or None: a
    byte below "+" other than space, tab and newline, or a line other than
    a label 0 or 1 and idx:value tokens with unique ids below dim and
    finite values.  A run of bytes at or above "+" but for ":" is an id
    where a colon follows it, a value where one precedes it, and otherwise
    its line's label; float parses the values, as in the line reader."""
    b = np.frombuffer(body.encode("ascii"), np.uint8)
    if not np.all((b > ord("*")) | (b == _SPACE) | (b == _TAB) | (b == _NEWLINE)):
        return None
    word = (b > ord("*")) & (b != _COLON)
    edges = np.flatnonzero(np.diff(word, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]
    # the byte after each run, or its own last; before it, or the text's last
    # (a colon there fails the label test below)
    is_id = b[np.minimum(ends, b.size - 1)] == _COLON
    is_value = b[starts - 1] == _COLON
    line = np.searchsorted(np.flatnonzero(b == _NEWLINE), starts)
    is_label = np.concatenate(([True], line[1:] != line[:-1]))[: len(starts)]
    colons = np.count_nonzero(b == _COLON)
    labels = starts[is_label]
    if not (np.count_nonzero(is_id) == colons == np.count_nonzero(is_value)
            and not np.any(is_id & is_value) and np.array_equal(is_label, ~(is_id | is_value))
            and np.all(ends[is_label] == labels + 1)
            and np.all((b[labels] == ord("0")) | (b[labels] == ord("1")))):
        return None
    id_starts, id_ends = starts[is_id], ends[is_id]
    ids = np.zeros(colons, np.int64)
    for k in range(int(np.max(id_ends - id_starts, initial=0))):
        more = id_starts + k < id_ends
        digit = b[id_starts[more] + k] - ord("0")  # wraps above 9 below "0"
        if np.any(digit > 9) or np.any(ids > dim):
            return None
        ids[more] = 10 * ids[more] + digit
    # str.split splits on exactly the space, tab and newline bytes allowed
    # above, so with colons as spaces its runs are the byte runs; a list
    # first, as np.fromiter costs as much again per value
    runs = body.replace(":", " ").split()
    try:
        values = np.array(list(map(float, compress(runs, is_value.tolist()))))
    except ValueError:
        return None
    if not (np.all(ids < dim) and np.all(np.isfinite(values))):
        return None
    cells = (np.cumsum(is_label)[is_id] - 1) * dim + ids
    covariates = np.zeros(labels.size * dim)
    covariates[cells] = 1.0
    if np.count_nonzero(covariates) != colons:  # a duplicate id
        return None
    covariates[cells] = values
    return covariates.reshape(-1, dim), b[labels] == ord("1")


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


def _float_rows(path, header: str, blocks):
    """A matrix file: a header line of the positive sizes that `header`
    names, then the rows that `blocks(*sizes)` lists as (count, width)
    pairs, one row of floats per line.  Returns the sizes and the rows."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, f'missing header line "{header}"')
    try:
        sizes = [int(s) for s in lines[0].split()]
    except ValueError:
        sizes = []
    if len(sizes) != len(header.split()) or min(sizes, default=0) < 1:
        raise ParseError(path, 1, f'header must be "{header}" as positive integers, '
                                  f'got {lines[0]!r}')
    shape = blocks(*sizes)
    need = 1 + sum(count for count, _ in shape)
    if len(lines) < need:
        raise ParseError(path, len(lines), f"expected {need} lines, found {len(lines)}")
    widths = [width for count, width in shape for _ in range(count)]
    return sizes, [_parse_floats(path, 2 + i, lines[1 + i], width)
                   for i, width in enumerate(widths)]


def load_ctm_params(path) -> CtmParams:
    from .ctm import CtmParams

    (k, _), rows = _float_rows(path, "K V", lambda k, v: [(k, v), (1 + k, k)])
    try:
        return CtmParams(np.stack(rows[:k]), rows[k], np.stack(rows[k + 1:]))
    except ValueError as err:
        raise ParseError(path, 1, f"invalid model values: {err}") from None


def save_posterior(q: GaussianVariational, path) -> None:
    out = [str(q.dim), _format_row(q.mu)]
    out.extend(_format_row(row) for row in q.sigma)
    Path(path).write_text("\n".join(out) + "\n")


def load_posterior(path) -> GaussianVariational:
    _, rows = _float_rows(path, "P", lambda p: [(1 + p, p)])
    for line_no, row in enumerate(rows, start=2):
        if not np.all(np.isfinite(row)):
            raise ParseError(path, line_no, "non-finite value")
    return GaussianVariational(rows[0], np.stack(rows[1:]))


def write_metrics_csv(reports, path, extra_summary=None) -> None:
    """Emit "unit_id,metric,value" rows followed by summary rows holding each
    metric's mean, its unit count, and any run settings worth recording."""
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
