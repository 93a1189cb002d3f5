"""File formats and the command-line entry points."""

import numpy as np
import pytest

from ncvi import cli, ctm, dataio, engine
from ncvi.model import GaussianVariational

from conftest import make_ctm_params, make_unigram_corpus, random_spd


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
        assert "heldout_loglik_mean" in text
        assert "split_seed,42" in text
        assert (tmp_path / "scores.csv.trace.csv").exists()

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

    def test_infer_unigram(self, clidata, tmp_path):
        out = tmp_path / "rates.csv"
        assert run_cli(["infer-unigram", "--corpus", clidata / "corpus.txt",
                        "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "term,posterior_mean,posterior_var"
        assert len(lines) == 13
        var = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(v > 0.0 for v in var)

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


class TestUnigramUnderflow:
    """Valid corpora whose line-search trials drive a rate exp(theta) to 0."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("num_docs,method,converges", [
        (50, "delta", True),
        (200, "laplace", False),  # stops at the 100-iteration cap
    ])
    def test_exits_zero(self, tmp_path, capsys, num_docs, method, converges):
        docs, _ = make_unigram_corpus(1, 100, num_docs, tokens_per_doc=200)
        lines = ["V 100"]
        for doc in docs:
            pairs = " ".join(f"{i}:{c}" for i, c in sorted(doc.counts.items()))
            lines.append(f"{len(doc.counts)} {pairs}")
        corpus = write(tmp_path / "corpus.txt", "\n".join(lines) + "\n")
        out = tmp_path / "rates.csv"
        assert run_cli(["infer-unigram", "--corpus", corpus, "--method", method,
                        "--out", out]) == 0
        err = capsys.readouterr().err
        assert "error:" not in err
        trace = (tmp_path / "rates.csv.trace.csv").read_text().splitlines()
        if converges:
            assert err == ""
        else:
            assert err.startswith("warning: stopped at the 100-iteration cap")
            assert len(trace) == 101
        assert len(out.read_text().splitlines()) == 101


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

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.txt", "V 3\n1 9:1\n")
        assert run_cli(["infer-unigram", "--corpus", bad,
                        "--out", tmp_path / "o"]) == 1
        assert f"{bad}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("fit-blr", ["--conv-tol", 0]),
        ("fit-ctm", ["--em-iters", 0]),
        ("fit-hblr", ["--em-iters", 0]),
        ("fit-hblr", ["--threads", 0]),
        ("fit-hblr", ["--threads", "x"]),
        ("fit-hblr", ["--phi0", 0]),
        ("fit-hblr", ["--phi1", 0]),
    ])
    def test_invalid_settings_exit_one(self, clidata, tmp_path, capsys, command, flags):
        inputs = {
            "fit-blr": ["--data", clidata / "train.txt"],
            "fit-ctm": ["--corpus", clidata / "corpus.txt", "--k", 2],
            "fit-hblr": ["--tasks", clidata / "tasks"],
        }
        assert run_cli([command, *inputs[command], "--out", tmp_path / "o", *flags]) == 1
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_exits_two(self, clidata, tmp_path, capsys,
                                         monkeypatch):
        def blow_up(*args, **kwargs):
            raise engine.NonConcaveError("curvature fit failed")

        monkeypatch.setattr(cli.unigram, "infer", blow_up)
        assert run_cli(["infer-unigram", "--corpus", clidata / "corpus.txt",
                        "--out", tmp_path / "o"]) == 2
        assert "numerical failure" in capsys.readouterr().err
