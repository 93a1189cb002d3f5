"""File formats and the command-line entry points."""

import argparse
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ncvi import cli, ctm, dataio, engine, optimize, unigram
from ncvi.model import GaussianVariational

from conftest import make_ctm_params, make_unigram_corpus, random_spd, stopped_short


def write(path, text):
    path.write_text(text)
    return str(path)


class TestParseCorpus:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path / "c.txt", "V 5\n2 0:3 4:1\n1 2:2\n")
        docs, vocab = dataio.parse_corpus(path)
        assert vocab == 5
        assert docs[0].counts == {0: 3, 4: 1}
        assert docs[1].counts == {2: 2}

    def test_empty_document_warns_with_location(self, tmp_path):
        path = write(tmp_path / "c.txt", "V 3\n0\n1 1:2\n")
        warnings = []
        docs, _ = dataio.parse_corpus(path, warn=warnings.append)
        assert docs[0].counts == {}
        assert warnings == [f"{path}:2: empty document"]

    def test_blank_lines_are_ignored(self, tmp_path):
        path = write(tmp_path / "c.txt", "V 3\n\n1 0:1\n\n")
        docs, _ = dataio.parse_corpus(path)
        assert len(docs) == 1

    @pytest.mark.parametrize("body,line", [
        ("x 5\n1 0:1", 1),            # wrong header tag
        ("V five\n1 0:1", 1),         # non-integer size
        ("V 0\n", 1),                 # nonpositive size
        ("V 3\ntwo 0:1 1:1", 2),      # term count not an integer
        ("V 3\n2 0:1", 2),            # declared count mismatch
        ("V 3\n1 0-1", 2),            # malformed pair
        ("V 3\n1 3:1", 2),            # term id out of range
        ("V 3\n1 1:0", 2),            # nonpositive count
        ("V 3\n1 0:1\n2 1:1 1:2", 3), # duplicate term id
    ])
    def test_errors_carry_path_and_line(self, tmp_path, body, line):
        path = write(tmp_path / "bad.txt", body)
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_corpus(path)
        assert str(err.value).startswith(f"{path}:{line}:")

    def test_missing_file(self, tmp_path):
        with pytest.raises(dataio.ParseError):
            dataio.parse_corpus(tmp_path / "absent.txt")


class TestParseLabeled:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path / "d.txt", "P 3\n1 0:1.5 2:-2\n0 1:0.25\n")
        instances, dim = dataio.parse_labeled(path)
        assert dim == 3
        np.testing.assert_allclose(instances[0].covariates, [1.5, 0.0, -2.0])
        assert instances[0].z == (1, 0)
        assert instances[1].z == (0, 1)
        assert instances[1].label == 0

    @pytest.mark.parametrize("body,line", [
        ("P 2\n2 0:1", 2),            # label outside {0,1}
        ("P 2\n1 2:1", 2),            # covariate id out of range
        ("P 2\n1 0:1 0:2", 2),        # duplicate covariate
        ("P 2\n1 0:nan", 2),          # non-finite value
        ("P 2\n1 0=1", 2),            # malformed pair
    ])
    def test_errors_carry_path_and_line(self, tmp_path, body, line):
        path = write(tmp_path / "bad.txt", body)
        with pytest.raises(dataio.ParseError) as err:
            dataio.parse_labeled(path)
        assert str(err.value).startswith(f"{path}:{line}:")


_VALUE_FORMS = (repr, "%.17g".__mod__, "%e".__mod__, "%.3E".__mod__, "{:+.17e}".format)


@st.composite
def labeled_texts(draw):
    """Valid labeled files: sparse and dense lines, blank lines, tabs and
    runs of spaces, ids written with a sign or leading zeros, and values as
    repr, 17 digits, exponents and -0.0."""
    dim = draw(st.integers(1, 12))
    lines = [f"P {dim}"]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        pairs = []
        for i in draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim)):
            value = draw(st.floats(-1e300, 1e300) | st.just(-0.0))
            idx = draw(st.sampled_from([str(i), f"+{i}", f"0{i}", "-0" if i == 0 else str(i)]))
            pairs.append(f"{idx}:{draw(st.sampled_from(_VALUE_FORMS))(value)}")
        sep = draw(st.sampled_from([" ", " ", "  ", "\t"]))
        label = draw(st.sampled_from("01"))
        lines.append(sep.join([label, *pairs]) + draw(st.sampled_from(["", " "])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


# one malformed token or separator each: a missing or doubled colon, an
# empty id or value, a duplicate or out-of-range id, a value that is not
# finite, a label other than 0 or 1, bytes that int rejects in an id, and
# what int and float accept but the one-pass reader leaves to the line
# reader: underscores, non-ASCII digits, other whitespace and line breaks
_CORRUPTIONS = (
    "{i}{v}", "{i}::{v}", "{i}:{last}:{v}", ":{v}", "{i}:", "{i} :{v}",
    "{p} {p}", "{d}:1", "{big}:1",
    "0:nan", "0:inf", "0:-Infinity", "0:1e400",
    "!{p}", "({p}", "1;:{v}", "=:{v}",
    "1_0:1", "0:1_0", "\u0661:1", "0:\uff12.5",
    "{p}\r0 0:1", "{p}\x0b1", "{p}\x1c", "{p}\u2028{p}", "{p}\u3000{p}", "{p}\xa0", "{p}\x00",
)
_BAD_LABELS = ("2", "-1", "1.0", "+1", "01", "", "\u0661")


@st.composite
def malformed_texts(draw):
    """A valid file with one line corrupted."""
    dim = draw(st.integers(1, 40))
    ids = st.lists(st.integers(0, dim - 1), min_size=1, max_size=3, unique=True)
    rows = [[draw(st.sampled_from("01")),
             *(f"{i}:{draw(st.floats(-1e3, 1e3))!r}" for i in draw(ids))]
            for _ in range(draw(st.integers(1, 4)))]
    row, header = draw(st.sampled_from(rows)), f"P {dim}"
    target = draw(st.sampled_from(["label", "pair", "pair", "header"]))
    if target == "label":
        row[0] = draw(st.sampled_from(_BAD_LABELS))
    elif target == "pair":
        pos = draw(st.integers(1, len(row) - 1))
        i, v = row[pos].split(":")
        row[pos] = draw(st.sampled_from(_CORRUPTIONS)).format(
            p=row[pos], i=i, v=v, d=dim, last=dim - 1, big=dim + 7)
    else:  # a line break inside the header, or what int reads in its size
        header = draw(st.sampled_from([f"P\r{dim}", f"P\x1c{dim}", f"P {dim}\x0b1", f"P +{dim}"]))
    return "\n".join([header, *(" ".join(r) for r in rows)]) + "\n"


def _read_outcome(read, path):
    """The arrays a reader returns, bit for bit, or its ParseError's text."""
    try:
        data, dim = read(path)
    except dataio.ParseError as err:
        return str(err)
    return dim, data.covariates.shape, data.covariates.tobytes(), data.labels.tobytes()


class TestLabeledReadersAgree:
    """The one-pass reader against the line reader, its reference."""

    @given(text=labeled_texts(), block=st.sampled_from([1, 7, 1 << 16]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_valid_files_read_bit_for_bit_alike(self, tmp_path, monkeypatch, text, block):
        monkeypatch.setattr(dataio, "_BLOCK", block)  # blocks of about one line too
        path = tmp_path / "d.txt"
        path.write_text(text, encoding="utf-8")
        fast = _read_outcome(dataio.parse_labeled, path)
        assert not isinstance(fast, str)
        assert fast == _read_outcome(dataio._parse_labeled_lines, path)

    @given(text=malformed_texts())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_malformed_files_fail_alike(self, tmp_path, text):
        path = tmp_path / "d.txt"
        path.write_text(text, encoding="utf-8")
        assert (_read_outcome(dataio.parse_labeled, path)
                == _read_outcome(dataio._parse_labeled_lines, path))

    @pytest.mark.parametrize("text", [
        "P 30\n1 1;:5\n",       # ";" is 11 past "0": an id int rejects
        "P 3\n1 0:1:2\n",       # a doubled colon whose middle reads as an id
        "P 2\n1 !0:1\n",        # a byte that splits neither token nor line
        "P\r3\n1 0:1\n",        # a line break inside the header
        "P five\n1 0:1\n",
        "P +3\n1 +0:1 2:-0\n",  # int's signs, for the line reader
    ])
    def test_listed_files_read_alike(self, tmp_path, text):
        path = tmp_path / "d.txt"
        path.write_text(text, encoding="utf-8")
        assert (_read_outcome(dataio.parse_labeled, path)
                == _read_outcome(dataio._parse_labeled_lines, path))

    def test_plain_files_take_the_one_pass(self):
        text = "P 3\n1 0:1.5 2:-2e-3\n\n0 1:0.25\t2:7\n0\n"
        data, dim = dataio._labeled_arrays(text)
        assert dim == 3 and np.array_equal(data.labels, [1.0, 0.0, 0.0])
        assert np.array_equal(data.covariates, [[1.5, 0.0, -2e-3], [0.0, 0.25, 7.0], [0.0] * 3])


class TestUndecodableInput:
    """Input is UTF-8: a byte that does not decode is a ParseError naming
    the path and the line that holds it, from every reader."""

    @pytest.mark.parametrize("read,text", [
        (dataio.parse_corpus, b"V 3\n1 0:1\n1 2:\xff1\n"),
        (dataio.parse_labeled, b"P 2\n1 0:1\n0 1:\xff\n"),
        (dataio.load_ctm_params, b"1 2\n0.5 0.5\n0\xe9\n1\n"),
        (dataio.load_posterior, b"1\n0\n\xc3\n"),
    ])
    def test_bad_byte_names_its_line(self, tmp_path, read, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        with pytest.raises(dataio.ParseError, match="not UTF-8") as err:
            read(path)
        assert str(err.value).startswith(f"{path}:3:")

    def test_fit_blr_exits_one_naming_the_path(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"P 2\n1 0:1 1:2\n0 0:\xff 1:1\n")
        assert cli.main(["fit-blr", "--data", str(path), "--out", str(tmp_path / "q")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:3: not UTF-8")


class TestRoundTrips:
    def test_topic_model_parameters(self, tmp_path):
        params = make_ctm_params(0, 3, 7)
        path = tmp_path / "m.txt"
        dataio.save_ctm_params(params, path)
        loaded = dataio.load_ctm_params(path)
        assert np.array_equal(loaded.topics, params.topics)
        assert np.array_equal(loaded.prior_mean, params.prior_mean)
        assert np.array_equal(loaded.prior_cov, params.prior_cov)

    def test_posterior(self, tmp_path):
        rng = np.random.default_rng(1)
        q = GaussianVariational(rng.normal(size=4), random_spd(rng, 4))
        path = tmp_path / "q.txt"
        dataio.save_posterior(q, path)
        loaded = dataio.load_posterior(path)
        assert np.array_equal(loaded.mu, q.mu)
        assert np.array_equal(loaded.sigma, q.sigma)

    def test_truncated_files_fail_cleanly(self, tmp_path):
        params = make_ctm_params(2, 2, 4)
        path = tmp_path / "m.txt"
        dataio.save_ctm_params(params, path)
        lines = path.read_text().splitlines()
        short = write(tmp_path / "short.txt", "\n".join(lines[:-1]))
        with pytest.raises(dataio.ParseError):
            dataio.load_ctm_params(short)
        with pytest.raises(dataio.ParseError):
            dataio.load_posterior(write(tmp_path / "p.txt", "2\n0 0\n"))
        # a header size below 1 declares no rows: a parse error on line 1
        for read, header in [(dataio.load_ctm_params, "-1 5"), (dataio.load_ctm_params, "0 5"),
                             (dataio.load_posterior, "0")]:
            path = write(tmp_path / "h.txt", header + "\n0 0\n0 0\n")
            with pytest.raises(dataio.ParseError) as err:
                read(path)
            assert str(err.value).startswith(f"{path}:1:")


class TestMetricsCsv:
    def test_layout(self, tmp_path):
        from ncvi.evaluate import MetricReport

        acc = MetricReport("accuracy", ("problem0", "problem1"), (1.0, 0.5))
        empty = MetricReport("heldout_loglik", (), ())
        path = tmp_path / "metrics.csv"
        dataio.write_metrics_csv([acc, empty], path, extra_summary={"seed": 42})
        lines = path.read_text().splitlines()
        assert lines[0] == "unit_id,metric,value"
        assert lines[1] == "problem0,accuracy,1"
        assert lines[2] == "problem1,accuracy,0.5"
        assert "summary,accuracy_mean,0.75" in lines
        assert "summary,accuracy_count,2" in lines
        assert "summary,heldout_loglik_count,0" in lines
        assert not any("heldout_loglik_mean" in l for l in lines)
        assert lines[-1] == "summary,seed,42"


@pytest.fixture(scope="module")
def clidata(tmp_path_factory):
    """Small deterministic corpus, labeled data, and task files."""
    root = tmp_path_factory.mktemp("clidata")
    rng = np.random.default_rng(0)

    lines = ["V 12"]
    for _ in range(10):
        ids = rng.choice(12, size=4, replace=False)
        pairs = " ".join(f"{i}:{rng.integers(1, 6)}" for i in sorted(ids))
        lines.append(f"4 {pairs}")
    lines.append("0")  # one empty document
    (root / "corpus.txt").write_text("\n".join(lines) + "\n")

    coefs = rng.normal(size=3)
    lab = ["P 3"]
    for _ in range(30):
        x = rng.normal(size=3)
        label = int(rng.uniform() < 1.0 / (1.0 + np.exp(-x @ coefs)))
        pairs = " ".join(f"{i}:{x[i]:.6f}" for i in range(3))
        lab.append(f"{label} {pairs}")
    (root / "train.txt").write_text("\n".join(lab) + "\n")

    tasks = root / "tasks"
    tasks.mkdir()
    for t in range(3):
        body = ["P 3"] + lab[1 + 10 * t:1 + 10 * (t + 1)]
        (tasks / f"task{t}.txt").write_text("\n".join(body) + "\n")
    return root


def run_cli(args):
    return cli.main([str(a) for a in args])


def mask_seconds(path):
    lines = path.read_text().splitlines()
    return [",".join(l.split(",")[:3]) for l in lines]


class TestCliCommands:
    def test_fit_and_eval_ctm(self, clidata, tmp_path):
        model = tmp_path / "model.txt"
        code = run_cli(["fit-ctm", "--corpus", clidata / "corpus.txt", "--k", 2,
                        "--out", model, "--em-iters", 2])
        assert code == 0
        params = dataio.load_ctm_params(model)
        assert params.num_topics == 2 and params.vocab_size == 12
        trace = (tmp_path / "model.txt.trace.csv").read_text().splitlines()
        assert trace[0] == "iter,objective,mean_change,seconds"
        assert len(trace) == 3

        metrics = tmp_path / "scores.csv"
        code = run_cli(["eval-ctm", "--model", model, "--corpus",
                        clidata / "corpus.txt", "--out", metrics])
        assert code == 0
        text = metrics.read_text()
        assert "split_seed,42" in text
        # the trace holds one record, the metric's mean, exactly as summarized
        mean = next(l for l in text.splitlines() if "heldout_loglik_mean" in l).split(",")[2]
        trace = (tmp_path / "scores.csv.trace.csv").read_text().splitlines()
        assert trace[0] == "iter,objective,mean_change,seconds"
        assert [r.split(",")[:3] for r in trace[1:]] == [["1", mean, "0"]]

        # with no document long enough to split, nothing is scored: the header alone
        short = write(tmp_path / "short.txt", "V 12\n1 3:1\n0\n")
        assert run_cli(["eval-ctm", "--model", model, "--corpus", short, "--out", metrics]) == 0
        assert "heldout_loglik_count,0" in metrics.read_text()
        trace = (tmp_path / "scores.csv.trace.csv").read_text().splitlines()
        assert trace == ["iter,objective,mean_change,seconds"]

    def test_fit_ctm_single_topic(self, clidata, tmp_path):
        code = run_cli(["fit-ctm", "--corpus", clidata / "corpus.txt", "--k", 1,
                        "--out", tmp_path / "m1.txt", "--em-iters", 1])
        assert code == 0

    def test_fit_ctm_warns_about_empty_document(self, clidata, tmp_path, capsys):
        run_cli(["fit-ctm", "--corpus", clidata / "corpus.txt", "--k", 2,
                 "--out", tmp_path / "m.txt", "--em-iters", 1])
        assert "empty document" in capsys.readouterr().err

    def test_fit_and_eval_blr(self, clidata, tmp_path):
        post = tmp_path / "coef.post"
        assert run_cli(["fit-blr", "--data", clidata / "train.txt",
                        "--out", post]) == 0
        q = dataio.load_posterior(post)
        assert q.dim == 3

        metrics = tmp_path / "blr.csv"
        assert run_cli(["eval-blr", "--posterior", post, "--data",
                        clidata / "train.txt", "--out", metrics]) == 0
        text = metrics.read_text()
        assert "accuracy_mean" in text and "avg_log_pred_mean" in text

    def test_fit_blr_curvature_corrected_method(self, clidata, tmp_path):
        assert run_cli(["fit-blr", "--data", clidata / "train.txt",
                        "--out", tmp_path / "d.post", "--method", "delta"]) == 0

    def test_fit_hblr(self, clidata, tmp_path):
        out = tmp_path / "hier"
        assert run_cli(["fit-hblr", "--tasks", clidata / "tasks", "--out", out,
                        "--em-iters", 3]) == 0
        assert (out / "prior.post").exists()
        for t in range(3):
            assert (out / f"task{t}.post").exists()
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,objective,mean_change,seconds"

    @pytest.mark.parametrize("command", ["fit-blr", "fit-hblr"])
    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_converged_blr_fits_print_no_warning(self, clidata, tmp_path, capsys,
                                                 command, method):
        data = ["--data", clidata / "train.txt"] if command == "fit-blr" else \
            ["--tasks", clidata / "tasks"]
        assert run_cli([command, *data, "--out", tmp_path / "o", "--method", method]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["fit-blr", "fit-hblr"])
    def test_blr_fits_warn_when_the_last_refit_stopped_short(
        self, clidata, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(optimize, "newton", stopped_short(optimize.newton))
        data = ["--data", clidata / "train.txt"] if command == "fit-blr" else \
            ["--tasks", clidata / "tasks"]
        out = tmp_path / "o"
        assert run_cli([command, *data, "--out", out]) == 0
        assert capsys.readouterr().err == "warning: the last q(theta) refit stopped " \
            "short of the optimizer's gradient tolerance\n"
        assert dataio.load_posterior(out if command == "fit-blr" else out / "prior.post").dim == 3

    def test_fit_hblr_warns_at_its_em_iteration_cap(self, clidata, tmp_path, capsys):
        out = tmp_path / "hier"
        assert run_cli(["fit-hblr", "--tasks", clidata / "tasks", "--out", out,
                        "--em-iters", 1]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: stopped at the 1-iteration cap; the mean still moved")
        assert err.endswith("> --conv-tol 0.0001\n")
        assert len((out / "trace.csv").read_text().splitlines()) == 2

    def test_infer_unigram(self, clidata, tmp_path):
        out = tmp_path / "rates.csv"
        assert run_cli(["infer-unigram", "--corpus", clidata / "corpus.txt",
                        "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "term,posterior_mean,posterior_var"
        assert len(lines) == 13
        var = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(v > 0.0 for v in var)

    def test_infer_unigram_warns_when_the_last_refit_stopped_short(
        self, clidata, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(optimize, "newton", stopped_short(optimize.newton))
        out = tmp_path / "rates.csv"
        assert run_cli(["infer-unigram", "--corpus", clidata / "corpus.txt",
                        "--out", out]) == 0
        err = capsys.readouterr().err
        assert "empty document" in err
        assert "warning: the last q(theta) refit stopped short of the optimizer's " \
               "gradient tolerance" in err
        assert "iteration cap" not in err
        assert len(out.read_text().splitlines()) == 13

    def test_repeated_runs_reproduce_traces(self, clidata, tmp_path):
        paths = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert run_cli(["infer-unigram", "--corpus", clidata / "corpus.txt",
                            "--out", out]) == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert mask_seconds(tmp_path / "r1.csv.trace.csv") == \
            mask_seconds(tmp_path / "r2.csv.trace.csv")

    def test_every_subcommand_reads_every_option_it_declares(self, clidata, tmp_path,
                                                            monkeypatch):
        # An option no command reads is a knob that does nothing.
        reads, declared = set(), {}

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        build = cli.build_parser

        def recording_parser():
            parser = build()
            parse = parser.parse_args

            def parse_args(argv):
                plain = parse(argv)
                declared[plain.command] = set(vars(plain)) - {"command", "func"}
                args = Recording(**vars(plain))
                reads.clear()
                return args

            parser.parse_args = parse_args
            return parser

        monkeypatch.setattr(cli, "build_parser", recording_parser)
        model, post = tmp_path / "model.txt", tmp_path / "coef.post"
        runs = [
            ["fit-ctm", "--corpus", clidata / "corpus.txt", "--k", 2, "--em-iters", 1,
             "--out", model],
            ["eval-ctm", "--model", model, "--corpus", clidata / "corpus.txt",
             "--out", tmp_path / "scores.csv"],
            ["fit-blr", "--data", clidata / "train.txt", "--out", post],
            ["eval-blr", "--posterior", post, "--data", clidata / "train.txt",
             "--out", tmp_path / "metrics.csv"],
            ["fit-hblr", "--tasks", clidata / "tasks", "--em-iters", 2,
             "--out", tmp_path / "hfit"],
            ["infer-unigram", "--corpus", clidata / "corpus.txt", "--out", tmp_path / "rates.csv"],
        ]
        unread = {}
        for argv in runs:
            assert run_cli(argv) == 0
            unread[argv[0]] = declared[argv[0]] - reads
        assert len(declared) == len(runs)
        assert unread == {argv[0]: set() for argv in runs}


def unigram_corpus_file(tmp_path, vocab, num_docs, tokens, seed=1):
    docs, _ = make_unigram_corpus(seed, vocab, num_docs, tokens_per_doc=tokens)
    lines = [f"V {vocab}"]
    for doc in docs:
        pairs = " ".join(f"{i}:{c}" for i, c in sorted(doc.counts.items()))
        lines.append(f"{len(doc.counts)} {pairs}")
    return write(tmp_path / "corpus.txt", "\n".join(lines) + "\n")


class TestUnigramUnderflow:
    """Valid corpora whose line-search trials drive a rate exp(theta) to 0."""

    @pytest.mark.parametrize("num_docs,method,converges", [
        (50, "delta", True),
        (200, "laplace", True),  # 135 plain maps, about 30 extrapolated
    ])
    def test_exits_zero(self, tmp_path, capsys, num_docs, method, converges):
        corpus = unigram_corpus_file(tmp_path, 100, num_docs, 200)
        out = tmp_path / "rates.csv"
        assert run_cli(["infer-unigram", "--corpus", corpus, "--method", method,
                        "--out", out]) == 0
        assert (capsys.readouterr().err == "") is converges
        trace = (tmp_path / "rates.csv.trace.csv").read_text().splitlines()
        assert (int(trace[-1].split(",")[0]) < 100) is converges
        assert len(out.read_text().splitlines()) == 101

    def test_underflowed_rate_exits_two(self, tmp_path, capsys, monkeypatch):
        # a rate whose E[exp(theta)] underflows to 0 on a term a document
        # lacks is a numerical failure, not bad input
        real = unigram.UnigramModel.eta_expectation
        monkeypatch.setattr(unigram.UnigramModel, "eta_expectation",
                            lambda self, q: real(self, q) * (np.arange(self.dim) != 0))
        corpus = write(tmp_path / "corpus.txt", "V 3\n2 1:2 2:1\n")
        assert run_cli(["infer-unigram", "--corpus", corpus, "--out", tmp_path / "r.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: conjugate update left nonpositive parameter")


class TestUnigramOuterLoop:
    """`infer-unigram` at the default tolerance, and at its map cap."""

    def test_single_token_corpus_warns_at_the_cap(self, tmp_path, capsys):
        corpus = unigram_corpus_file(tmp_path, 5, 500, 1)
        out = tmp_path / "rates.csv"
        assert run_cli(["infer-unigram", "--corpus", corpus, "--method", "delta",
                        "--out", out]) == 0
        assert capsys.readouterr().err.startswith("warning: stopped at the 100-iteration cap")
        trace = (tmp_path / "rates.csv.trace.csv").read_text().splitlines()
        assert int(trace[-1].split(",")[0]) == 100
        assert len(out.read_text().splitlines()) == 6

    @pytest.mark.parametrize("vocab,method", [(1000, "laplace"), (300, "delta")])
    def test_default_tolerance_converges_on_the_benchmark_corpus(
        self, tmp_path, capsys, vocab, method
    ):
        # the unigram benchmark's corpus (20 documents of 200 tokens, seed
        # 11) at the default --conv-tol, where the plain alternation stopped
        # at the cap; delta on a smaller vocabulary keeps the test short
        corpus = unigram_corpus_file(tmp_path, vocab, 20, 200, seed=11)
        start = time.perf_counter()
        assert run_cli(["infer-unigram", "--corpus", corpus, "--method", method,
                        "--out", tmp_path / "rates.csv"]) == 0
        assert time.perf_counter() - start < 10.0
        assert capsys.readouterr().err == ""
        trace = (tmp_path / "rates.csv.trace.csv").read_text().splitlines()
        assert int(trace[-1].split(",")[0]) < 40


def corpus_text(vocab, docs):
    return "\n".join([f"V {vocab}"] + [f"{len(c)} " + " ".join(f"{i}:{n}" for i, n in c.items())
                                       for c in docs]) + "\n"


@st.composite
def separable_labeled_texts(draw):
    """Labeled text whose labels are the sign of one covariate, at any scale
    from 1e-3 to past where the logistic curvature overflows."""
    dim = draw(st.integers(1, 4))
    sep = draw(st.integers(0, dim - 1))
    scale = 10.0 ** draw(st.integers(-3, 300))
    lines = [f"P {dim}"]
    for _ in range(draw(st.integers(1, 12))):
        label = draw(st.sampled_from("01"))
        values = [draw(st.floats(-1e3, 1e3)) for _ in range(dim)]
        values[sep] = (1.0 if label == "1" else -1.0) * draw(st.floats(1e-3, 1.0)) * scale
        lines.append(" ".join([label, *(f"{i}:{v!r}" for i, v in enumerate(values))]))
    return "\n".join(lines) + "\n"


@st.composite
def repeated_term_corpora(draw):
    """A corpus text whose documents each repeat one term up to 1e5 times,
    beside at most two single tokens, and a topic count it supports."""
    vocab = draw(st.integers(2, 6))
    docs = []
    for _ in range(draw(st.integers(1, 5))):
        counts = {draw(st.integers(0, vocab - 1)): draw(st.integers(1, 100_000))}
        for term in draw(st.lists(st.integers(0, vocab - 1), max_size=2)):
            counts.setdefault(term, 1)
        docs.append(counts)
    used = len(set().union(*docs))
    return corpus_text(vocab, docs), draw(st.integers(1, min(3, used)))


@st.composite
def long_unigram_documents(draw):
    """A corpus text of up to five documents of thousands of tokens each."""
    vocab = draw(st.integers(2, 40))
    docs = []
    for _ in range(draw(st.integers(1, 5))):
        terms = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=vocab, unique=True))
        counts = [draw(st.integers(1000, 100_000))] + [draw(st.integers(1, 100_000))
                                                       for _ in terms[1:]]
        docs.append(dict(zip(terms, counts)))
    return corpus_text(vocab, docs)


@st.composite
def large_vocabulary_corpora(draw):
    """A corpus text over thousands of terms, each document using few of them."""
    vocab = draw(st.integers(1000, 3000))
    docs = [{draw(st.integers(0, vocab - 1)): draw(st.integers(1, 1000))
             for _ in range(draw(st.integers(1, 50)))}
            for _ in range(draw(st.integers(1, 4)))]
    return corpus_text(vocab, docs)


@st.composite
def concentrated_unigram_corpora(draw):
    """Hundreds to thousands of documents repeating one term distribution
    with counts up to 1e300: the posterior mean log rate grows about as
    (documents)(V - 1) / 2V, up to unigram._EXP_GUARD and past it."""
    vocab = draw(st.integers(2, 3))
    count = 10 ** draw(st.integers(0, 300))
    doc = {i: count for i in range(vocab)}
    return corpus_text(vocab, [doc] * draw(st.integers(200, 3000)))


def finite_trace(path):
    objectives = [float(r.split(",")[1]) for r in path.read_text().splitlines()[1:]]
    return bool(objectives) and all(np.isfinite(objectives))


class TestExtremeInputs:
    """Valid inputs at the extremes: each command exits 0 with finite outputs
    or 2 naming a numerical failure, never 1 as if the input were bad."""

    @staticmethod
    def clean_exit(code, capsys, outputs_finite):
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 0:
            assert outputs_finite()
        else:
            assert err.startswith("numerical failure:")

    @given(text=separable_labeled_texts(), method=st.sampled_from(["laplace", "delta"]))
    # the delta profile's Newton matrix, a Gram matrix of weights of both
    # signs, cancelled to an asymmetry that spd_factorize rejected (exit 1)
    @example(text="P 4\n0 0:478.9158741102069 1:80.0 2:-100.0 3:0.0\n"
                  "0 0:0.0 1:0.0 2:-100.0 3:0.0\n", method="delta")
    @settings(max_examples=25, deadline=2000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_separable_blr_data(self, tmp_path, capsys, text, method):
        data, out = write(tmp_path / "d.txt", text), tmp_path / "q.post"
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = run_cli(["fit-blr", "--data", data, "--method", method, "--out", out])

        def outputs_finite():
            q = dataio.load_posterior(out)
            return (np.all(np.isfinite(q.mu)) and np.all(np.isfinite(q.sigma))
                    and finite_trace(tmp_path / "q.post.trace.csv"))

        self.clean_exit(code, capsys, outputs_finite)

    @given(corpus=repeated_term_corpora(), method=st.sampled_from(["laplace", "delta"]))
    @settings(max_examples=15, deadline=5000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_repeated_term_ctm_corpora(self, tmp_path, capsys, corpus, method):
        (text, k), out = corpus, tmp_path / "m.txt"
        path = write(tmp_path / "c.txt", text)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = run_cli(["fit-ctm", "--corpus", path, "--k", k, "--em-iters", 2,
                            "--method", method, "--out", out])

        def outputs_finite():
            params = dataio.load_ctm_params(out)
            return (np.all(np.isfinite(params.topics))
                    and finite_trace(tmp_path / "m.txt.trace.csv"))

        self.clean_exit(code, capsys, outputs_finite)


    @staticmethod
    def infer_unigram(tmp_path, capsys, text, method):
        """infer-unigram exits 0 with finite rates or 2, and warns nothing
        at run time (the suite makes a RuntimeWarning an error): the gamma
        family meets its extreme arguments here."""
        path, out = write(tmp_path / "c.txt", text), tmp_path / "r.csv"
        capsys.readouterr()
        code = run_cli(["infer-unigram", "--corpus", path, "--method", method, "--out", out])

        def outputs_finite():
            rates = np.loadtxt(out, delimiter=",", skiprows=1)
            return np.all(np.isfinite(rates)) and finite_trace(tmp_path / "r.csv.trace.csv")

        TestExtremeInputs.clean_exit(code, capsys, outputs_finite)

    @given(text=long_unigram_documents(), method=st.sampled_from(["laplace", "delta"]))
    @settings(max_examples=15, deadline=3000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_long_unigram_documents(self, tmp_path, capsys, text, method):
        self.infer_unigram(tmp_path, capsys, text, method)

    @given(text=large_vocabulary_corpora(), method=st.sampled_from(["laplace", "delta"]))
    @settings(max_examples=5, deadline=5000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_large_unigram_vocabularies(self, tmp_path, capsys, text, method):
        self.infer_unigram(tmp_path, capsys, text, method)

    @given(text=concentrated_unigram_corpora(), method=st.sampled_from(["laplace", "delta"]))
    # the gradient's squares and b' Sigma b overflowed (RuntimeWarning)
    @example(text=corpus_text(2, [{0: 10 ** 137, 1: 10 ** 137}] * 1870), method="delta")
    @example(text=corpus_text(2, [{0: 10 ** 35, 1: 10 ** 35}] * 1456), method="delta")
    @settings(max_examples=15, deadline=3000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_unigram_rates_near_the_exp_guard(self, tmp_path, capsys, text, method):
        self.infer_unigram(tmp_path, capsys, text, method)

class TestCliErrors:
    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert run_cli(["fit-blr", "--data", tmp_path / "absent.txt",
                        "--out", tmp_path / "o"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        assert run_cli(["fit-blr", "--nope", "x", "--out", tmp_path / "o"]) == 1
        capsys.readouterr()

    def test_bad_topic_count_exits_one(self, clidata, tmp_path, capsys):
        assert run_cli(["fit-ctm", "--corpus", clidata / "corpus.txt", "--k", 0,
                        "--out", tmp_path / "o"]) == 1
        assert run_cli(["fit-ctm", "--corpus", clidata / "corpus.txt", "--k", 99,
                        "--out", tmp_path / "o"]) == 1
        capsys.readouterr()

    def test_vocabulary_mismatch_exits_one(self, clidata, tmp_path, capsys):
        model = tmp_path / "m.txt"
        dataio.save_ctm_params(make_ctm_params(0, 2, 9), model)
        assert run_cli(["eval-ctm", "--model", model, "--corpus",
                        clidata / "corpus.txt", "--out", tmp_path / "s.csv"]) == 1
        capsys.readouterr()

    def test_non_positive_definite_prior_exits_one(self, clidata, tmp_path, capsys):
        model = write(tmp_path / "m.txt", "2 12\n" + "\n".join(
            [" ".join(["0.0833333333333333333"] * 12)] * 2 + ["0 0", "-1 0", "0 -1"]
        ) + "\n")
        assert run_cli(["eval-ctm", "--model", model, "--corpus",
                        clidata / "corpus.txt", "--out", tmp_path / "s.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}:")
        assert "invalid model values" in err and "positive definite" in err

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_non_finite_prior_exits_one(self, clidata, tmp_path, capsys, entry):
        params = make_ctm_params(0, 2, 12)
        model = tmp_path / "m.txt"
        dataio.save_ctm_params(params, model)
        lines = model.read_text().splitlines()
        lines[-1] = lines[-1].split()[0] + f" {entry}"  # the last variance
        model.write_text("\n".join(lines) + "\n")
        assert run_cli(["eval-ctm", "--model", model, "--corpus",
                        clidata / "corpus.txt", "--out", tmp_path / "s.csv"]) == 1
        err = capsys.readouterr().err
        assert "invalid model values" in err and "positive definite" in err

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_overflowing_hessian_exits_two(self, tmp_path, capsys, method):
        data = write(tmp_path / "d.txt", "P 2\n1 0:1e200 1:1\n0 0:-1e200 1:2\n1 0:3 1:1\n")
        with np.errstate(all="ignore"):
            code = run_cli(["fit-blr", "--data", data, "--method", method,
                            "--out", tmp_path / "o"])
        assert code == 2
        # fails at once and names the overflow, not the shift or jitter policy
        err = capsys.readouterr().err
        assert "numerical failure" in err and "overflowed" in err

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_singular_newton_matrix_exits_two(self, clidata, tmp_path, capsys, method):
        # a prior variance of 1e200 leaves -H singular along the all-ones
        # direction, where softmax is flat; np.linalg.solve raises LinAlgError
        params = make_ctm_params(0, 2, 12)
        model = tmp_path / "m.txt"
        dataio.save_ctm_params(
            ctm.CtmParams(params.topics, params.prior_mean, 1e200 * np.eye(2)), model)
        assert run_cli(["eval-ctm", "--model", model, "--corpus", clidata / "corpus.txt",
                        "--method", method, "--out", tmp_path / "s.csv"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("names,clash", [
        (("prior.txt", "b.txt"), ("prior.txt",)),
        (("a.dat", "a.txt", "b.txt"), ("a.dat", "a.txt")),
    ])
    def test_clashing_task_outputs_exit_one(self, clidata, tmp_path, capsys, names, clash):
        # prior.txt would overwrite the shared prior's prior.post, and a.dat
        # and a.txt each other's a.post
        tasks = tmp_path / "tasks"
        tasks.mkdir()
        for name in names:
            (tasks / name).write_text((clidata / "train.txt").read_text())
        assert run_cli(["fit-hblr", "--tasks", tasks, "--out", tmp_path / "fit"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "b.txt" not in err
        assert all(str(tasks / name) in err for name in clash)
        assert not (tmp_path / "fit").exists()

    def test_parse_error_exits_one(self, clidata, tmp_path, capsys):
        bad = write(tmp_path / "bad.txt", "V 3\n1 9:1\n")
        assert run_cli(["infer-unigram", "--corpus", bad,
                        "--out", tmp_path / "o"]) == 1
        assert f"{bad}:2:" in capsys.readouterr().err
        model = write(tmp_path / "m.txt", "-1 12\n")
        assert run_cli(["eval-ctm", "--model", model, "--corpus", clidata / "corpus.txt",
                        "--out", tmp_path / "s.csv"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {model}:1:")

    @pytest.mark.parametrize("command,flags", [
        ("fit-blr", ["--method", "newton"]),
        ("fit-ctm", ["--em-iters", 0]),
        ("fit-hblr", ["--em-iters", 0]),
        ("fit-hblr", ["--em-iters", "x"]),
        ("fit-hblr", ["--nu-offset", -1]),
        ("fit-hblr", ["--phi0", 0]),
        ("fit-hblr", ["--phi1", 0]),
        ("infer-unigram", ["--conv-tol", "nan"]),
        ("fit-hblr", ["--nu-offset", "nan"]),
    ])
    def test_invalid_settings_exit_one(self, clidata, tmp_path, capsys, command, flags):
        inputs = {
            "fit-blr": ["--data", clidata / "train.txt"],
            "fit-ctm": ["--corpus", clidata / "corpus.txt", "--k", 2],
            "fit-hblr": ["--tasks", clidata / "tasks"],
            "infer-unigram": ["--corpus", clidata / "corpus.txt"],
        }
        assert run_cli([command, *inputs[command], "--out", tmp_path / "o", *flags]) == 1
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_exits_two(self, clidata, tmp_path, capsys,
                                         monkeypatch):
        def blow_up(*args, **kwargs):
            raise engine.NonConcaveError("curvature fit failed")

        monkeypatch.setattr(unigram, "infer", blow_up)
        assert run_cli(["infer-unigram", "--corpus", clidata / "corpus.txt",
                        "--out", tmp_path / "o"]) == 2
        assert "numerical failure" in capsys.readouterr().err
