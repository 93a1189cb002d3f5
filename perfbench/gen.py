"""Seeded input generator for the benchmark workloads.

The builders follow the generative story of the test suite's synthetic data
(`tests/conftest.py`) call for call.  The generating parameters of the `ctm`
and `blr` workloads (topics and prior, regression coefficients) are drawn
from the default seed 11 whatever the seed; the seed draws the data.  That
keeps the problems alike across seeds, so the times measure the program
rather than how hard one draw happened to be.  With the default seed the
`ctm` training corpus is the first 100 documents of the acceptance tests'
`em_corpus` (topic parameters from seed 11, documents of 80 tokens from
seed 12).

Files are written in the README formats.  Covariates go out as
`repr(float(v))`: under numpy 2, `repr` of an `np.float64` reads
`np.float64(...)`, which the labeled-instance parser rightly rejects.

Run directly to write one workload's inputs into a directory:

    python3 perfbench/gen.py --workload ctm --seed 11 --out ctm-inputs
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

import numpy as np

DEFAULT_SEED = 11


def make_unigram_corpus(seed, vocab_size, num_docs, tokens_per_doc=30):
    rng = np.random.default_rng(seed)
    theta_star = rng.normal(size=vocab_size)
    docs = []
    for _ in range(num_docs):
        z = rng.dirichlet(np.exp(theta_star))
        counts = rng.multinomial(tokens_per_doc, z)
        docs.append({i: int(c) for i, c in enumerate(counts) if c > 0})
    return docs, theta_star


def make_ctm_params(seed, num_topics, vocab_size, topic_conc=0.1, cov_scale=0.3):
    rng = np.random.default_rng(seed)
    topics = rng.dirichlet(np.full(vocab_size, topic_conc), size=num_topics)
    mu0 = rng.normal(scale=0.5, size=num_topics)
    a = rng.normal(size=(num_topics, num_topics)) * cov_scale
    sigma0 = a @ a.T + 0.5 * np.eye(num_topics)
    return topics, mu0, sigma0


def make_ctm_corpus(seed, params, num_docs, tokens_per_doc=60):
    """Documents and each document's true topic proportions."""
    topics, mu0, sigma0 = params
    rng = np.random.default_rng(seed)
    docs, weights = [], []
    for _ in range(num_docs):
        eta = rng.multivariate_normal(mu0, sigma0)
        w = np.exp(eta - eta.max())
        w /= w.sum()
        counts = rng.multinomial(tokens_per_doc, w @ topics)
        docs.append({i: int(c) for i, c in enumerate(counts) if c > 0})
        weights.append(w)
    return docs, np.array(weights)


def make_blr_problem(seed, num_instances, dim, coef_scale=1.0, coefs=None):
    """Returns (covariates, labels, coefs); labels are 1 or 0.  Given
    `coefs`, they replace the drawn coefficients, so only the covariates and
    labels depend on the seed."""
    rng = np.random.default_rng(seed)
    covs = rng.normal(size=(num_instances, dim))
    drawn = rng.normal(scale=coef_scale, size=dim)
    coefs = drawn if coefs is None else coefs
    probs = 1.0 / (1.0 + np.exp(-covs @ coefs))
    labels = (rng.random(num_instances) < probs).astype(int)
    return covs, labels, coefs


def write_corpus(path, docs, vocab_size) -> None:
    lines = [f"V {vocab_size}"]
    for doc in docs:
        pairs = " ".join(f"{i}:{c}" for i, c in sorted(doc.items()))
        lines.append(f"{len(doc)} {pairs}".rstrip())
    Path(path).write_text("\n".join(lines) + "\n")


def write_labeled(path, covs, labels) -> None:
    lines = [f"P {covs.shape[1]}"]
    for row, label in zip(covs, labels):
        pairs = " ".join(f"{j}:{float(v)!r}" for j, v in enumerate(row))
        lines.append(f"{int(label)} {pairs}")
    Path(path).write_text("\n".join(lines) + "\n")


def _format_row(values) -> str:
    return " ".join("%.17g" % v for v in np.asarray(values, dtype=float))


def write_ctm_params(path, params) -> None:
    topics, mu0, sigma0 = params
    lines = [f"{topics.shape[0]} {topics.shape[1]}"]
    lines.extend(_format_row(row) for row in topics)
    lines.append(_format_row(mu0))
    lines.extend(_format_row(row) for row in sigma0)
    Path(path).write_text("\n".join(lines) + "\n")


# Workload sizes.  The reasons for each are in perfbench/NOTES.md.
CTM_TOPICS, CTM_VOCAB, CTM_DOCS, CTM_TOKENS, CTM_HELDOUT = 5, 100, 100, 80, 20
BLR_TRAIN, BLR_TEST, BLR_DIM = 1000, 500, 50
HBLR_TASKS, HBLR_INSTANCES, HBLR_DIM = 10, 60, 10
UNI_VOCAB, UNI_DOCS, UNI_TOKENS = 1000, 20, 200


def generate(workload: str, seed: int, out_dir) -> dict:
    """Write the inputs of one workload under out_dir.

    Returns the input file names plus the sizes and generating parameters
    that the output checks and quality ratios need.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "ctm":
        params = make_ctm_params(DEFAULT_SEED, CTM_TOPICS, CTM_VOCAB, topic_conc=0.2)
        train, train_w = make_ctm_corpus(seed + 1, params, CTM_DOCS, tokens_per_doc=CTM_TOKENS)
        heldout, heldout_w = make_ctm_corpus(
            [seed, 2], params, CTM_HELDOUT, tokens_per_doc=CTM_TOKENS)
        write_corpus(out / "train.txt", train, CTM_VOCAB)
        write_corpus(out / "heldout.txt", heldout, CTM_VOCAB)
        write_ctm_params(out / "truth.txt", params)
        return {
            "inputs": ["train.txt", "heldout.txt", "truth.txt"],
            "vocab": CTM_VOCAB,
            "topics": params[0],
            "train": (train, train_w),
            "heldout": (heldout, heldout_w),
        }
    if workload == "blr":
        coefs = make_blr_problem(DEFAULT_SEED, BLR_TRAIN + BLR_TEST, BLR_DIM)[2]
        covs, labels, _ = make_blr_problem(seed, BLR_TRAIN + BLR_TEST, BLR_DIM, coefs=coefs)
        write_labeled(out / "train.txt", covs[:BLR_TRAIN], labels[:BLR_TRAIN])
        write_labeled(out / "test.txt", covs[BLR_TRAIN:], labels[BLR_TRAIN:])
        (out / "tasks").mkdir(exist_ok=True)
        names, tasks = [], []
        for m in range(HBLR_TASKS):
            truth = make_blr_problem([DEFAULT_SEED, 1, m], HBLR_INSTANCES, HBLR_DIM)[2]
            task = make_blr_problem([seed, 1, m], HBLR_INSTANCES, HBLR_DIM, coefs=truth)
            names.append(f"tasks/task{m:02d}.txt")
            write_labeled(out / names[-1], task[0], task[1])
            tasks.append(task)
        return {
            "inputs": ["train.txt", "test.txt", *names],
            "test": (covs[BLR_TRAIN:], labels[BLR_TRAIN:], coefs),
            "tasks": tasks,
        }
    if workload == "unigram":
        docs, theta_star = make_unigram_corpus(seed, UNI_VOCAB, UNI_DOCS, tokens_per_doc=UNI_TOKENS)
        write_corpus(out / "corpus.txt", docs, UNI_VOCAB)
        return {
            "inputs": ["corpus.txt"],
            "vocab": UNI_VOCAB,
            "docs": docs,
            "theta_star": theta_star,
        }
    raise ValueError(f"unknown workload {workload!r}")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("--workload", required=True, choices=("ctm", "blr", "unigram"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    facts = generate(args.workload, args.seed, args.out)
    for name in facts["inputs"]:
        print(sha256(Path(args.out) / name), name)


if __name__ == "__main__":
    main()
