import inspect
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import wassrec.cli as cli
from wassrec import (
    DataError,
    GibbsKernel,
    SolverError,
    UnboundedDualError,
    build_cost_matrix,
    cold_start_split,
    infer_cold,
    load_genome,
    load_interactions,
    load_model,
    predict_user,
    rank_items,
    train_wcf,
)
from wassrec.cli import main

from conftest import FIXTURE_DIR, ROOT
from oracles import oracle_ap, oracle_ndcg, oracle_recall

RATINGS = str(FIXTURE_DIR / "u.data")
GENOME = str(FIXTURE_DIR / "genome.csv")
MISSING = object()  # a manifest value that is deleted rather than replaced


def run_pipeline(out, algorithms=("wf", "wcf")):
    assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                 "--out", str(out)]) == 0
    for algo in algorithms:
        assert main(["train", "--algorithm", algo, "--out", str(out)]) == 0
    assert main(["evaluate", "--out", str(out)]) == 0


def snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    run_pipeline(out)
    return out


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        assert "prepare" in capsys.readouterr().out

    def test_zero_gamma_rejected_before_work(self, tmp_path):
        rc = main(["train", "--algorithm", "wf", "--gamma", "0",
                   "--out", str(tmp_path / "never")])
        assert rc == 1
        assert not (tmp_path / "never").exists()

    def test_missing_required_flag(self):
        assert main(["train"]) == 1
        assert main(["prepare", "--ratings", RATINGS]) == 1

    def test_bad_ratio_value(self):
        assert main(["train", "--algorithm", "wf", "--ratio", "5:1"]) == 1

    @pytest.mark.parametrize("case", ["ratings-is-a-directory", "out-is-a-file"])
    def test_unusable_path_exits_2(self, tmp_path, capsys, case):
        # the OS refuses the path (IsADirectoryError, NotADirectoryError):
        # a data error, not a traceback
        ratings, out = RATINGS, tmp_path / "out"
        if case == "ratings-is-a-directory":
            ratings = str(tmp_path)
        else:
            out.write_text("")
        rc = main(["prepare", "--ratings", ratings, "--genome", GENOME, "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unusable_out_refused_before_parsing(self, tmp_path, monkeypatch, capsys):
        def no_parse(*args, **kwargs):
            raise AssertionError("inputs parsed before --out was checked")

        monkeypatch.setattr(cli, "load_interactions", no_parse)
        out = tmp_path / "out"
        out.write_text("")
        rc = main(["prepare", "--ratings", RATINGS, "--genome", GENOME, "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_import_leaves_scipy_optimize_unloaded(self):
        # every CLI stage starts by importing the package, whose runtime
        # path is NumPy only; SciPy is loaded only when exact_ot runs
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        code = ("import sys, wassrec.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestPrepare:
    def test_stats_match_hand_counts(self, pipeline_out):
        stats = json.loads((pipeline_out / "prepared" / "stats.json").read_text())
        assert stats == {"users": 4, "items": 5, "interactions": 9,
                         "density": 0.45}

    def test_prepared_files_round_trip(self, pipeline_out):
        table = load_interactions(pipeline_out / "prepared" / "interactions.tsv")
        assert len(table) == 9
        assert list(table.users) == [1, 2, 3, 4]
        genome = load_genome(pipeline_out / "prepared" / "genome.csv")
        assert list(genome.item_ids) == [1, 2, 3, 4, 5]

    def test_prepared_genome_keeps_values_in_shortest_text(self, pipeline_out):
        prepared = pipeline_out / "prepared" / "genome.csv"
        with pytest.warns(UserWarning, match="absent"):
            source = load_genome(GENOME)
        genome = load_genome(prepared)
        assert genome.item_ids.tobytes() == source.item_ids.tobytes()
        assert genome.tag_ids.tobytes() == source.tag_ids.tobytes()
        assert genome.relevance.tobytes() == source.relevance.tobytes()

        def texts(path):
            with open(path, encoding="utf-8") as fh:
                rows = [line.rstrip("\n").split(",") for line in fh][1:]
            return {(movie, tag): rel for movie, tag, rel in rows}

        given = texts(GENOME)
        for pair, text in texts(prepared).items():
            if pair in given:
                assert len(text) <= len(given[pair]), (pair, text, given[pair])

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "o"
        args = ["prepare", "--ratings", RATINGS, "--genome", GENOME,
                "--out", str(out)]
        assert main(args) == 0
        before = snapshot(out)
        assert main(args) == 0
        assert snapshot(out) == before

    def test_missing_genome_names_path(self, tmp_path, capsys):
        rc = main(["prepare", "--ratings", RATINGS,
                   "--genome", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("name, line", [("u.data", "99999999999999999999\t2\t5\t100\n"),
                                            ("genome.csv", "99999999999999999999,1,0.5\n")],
                             ids=["ratings", "genome"])
    def test_id_beyond_int64_exits_2(self, tmp_path, capsys, name, line):
        for path in (RATINGS, GENOME):
            shutil.copy(path, tmp_path)
        with open(tmp_path / name, "a", encoding="utf-8") as fh:
            fh.write(line)
        rc = main(["prepare", "--ratings", str(tmp_path / "u.data"),
                   "--genome", str(tmp_path / "genome.csv"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "malformed" in capsys.readouterr().err

    def test_threshold_that_empties_catalog(self, tmp_path, capsys):
        rc = main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                   "--threshold", "6", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestTrain:
    def test_requires_prepared_data(self, tmp_path, capsys):
        rc = main(["train", "--algorithm", "wf", "--out", str(tmp_path / "empty")])
        assert rc == 2
        assert "interactions.tsv" in capsys.readouterr().err

    def test_wf_predictions_equal_library_calls(self, pipeline_out):
        # the CLI is a thin shell: fold 0's file must reproduce direct
        # library inference on the same split, scores included; the
        # batched inference it runs agrees with per-user calls to 1e-12
        table = load_interactions(pipeline_out / "prepared" / "interactions.tsv")
        genome = load_genome(pipeline_out / "prepared" / "genome.csv")
        split = cold_start_split(table, ratio="3:1", seed=0)[0]
        cost = build_cost_matrix(genome, split.interacted_items, split.cold_items)
        kernel = GibbsKernel.from_cost(cost, 0.05)

        interacted = np.asarray(split.interacted_items)
        histograms = {}
        for user, (items, vals) in split.train.by_user().items():
            p = np.zeros(interacted.size)
            p[np.searchsorted(interacted, items)] = vals
            histograms[user] = p / p.sum()
        users = sorted(histograms)
        Q = infer_cold(np.stack([histograms[u] for u in users], axis=1), kernel)
        expected = {}
        for user, q in zip(users, Q.T):
            np.testing.assert_allclose(q, infer_cold(histograms[user], kernel),
                                       rtol=0, atol=1e-12)
            expected[user] = rank_items(q, split.cold_items)

        path = pipeline_out / "runs" / "wf" / "fold0" / "predictions.tsv"
        got = {}
        for line in path.read_text().splitlines()[1:]:
            user, rank, item, score = line.split("\t")
            got.setdefault(int(user), []).append((int(rank), int(item), float(score)))
        assert set(got) == set(expected)
        for user, rows in got.items():
            assert [r for r, _, _ in rows] == list(range(1, len(rows) + 1))
            assert tuple(i for _, i, _ in rows) == expected[user].item_ids
            assert tuple(s for _, _, s in rows) == expected[user].scores

    def test_wcf_predictions_equal_library_calls(self, pipeline_out):
        # fold 0's file ranks each user as predict_user on the saved model
        # does; one D Lambda product per fold and per-user products may
        # differ in the last bits, so scores agree to 1e-12
        table = load_interactions(pipeline_out / "prepared" / "interactions.tsv")
        split = cold_start_split(table, ratio="3:1", seed=0)[0]
        run = pipeline_out / "runs" / "wcf" / "fold0"
        model = load_model(run / "model")
        assert model.item_ids == split.cold_items

        got = {}
        for line in (run / "predictions.tsv").read_text().splitlines()[1:]:
            user, rank, item, score = line.split("\t")
            got.setdefault(int(user), []).append((int(rank), int(item), float(score)))
        assert set(got) == set(model.user_ids)
        for user, rows in got.items():
            expected = rank_items(predict_user(model, user), split.cold_items)
            assert [r for r, _, _ in rows] == list(range(1, len(rows) + 1))
            assert tuple(i for _, i, _ in rows) == expected.item_ids
            np.testing.assert_allclose([s for _, _, s in rows], expected.scores,
                                       rtol=0, atol=1e-12)

    def test_split_manifest_written(self, pipeline_out):
        manifest = json.loads((pipeline_out / "splits" / "manifest.json").read_text())
        assert manifest["ratio"] == "3:1"
        assert manifest["seed"] == 0
        assert len(manifest["folds"]) == 4
        for fold in manifest["folds"]:
            assert not set(fold["interacted"]) & set(fold["cold"])

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0
        assert main(["train", "--algorithm", "wcf", "--out", str(out)]) == 0
        before = snapshot(out / "runs")
        assert main(["train", "--algorithm", "wcf", "--out", str(out)]) == 0
        assert snapshot(out / "runs") == before

    def test_wcf_clamps_latent_dim(self, pipeline_out, capsys):
        # the module-scoped pipeline already trained wcf; retrain into a
        # fresh dir to capture the note
        out = pipeline_out
        assert main(["train", "--algorithm", "wcf", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "clamped" in err
        for fold in range(4):
            assert (out / "runs" / "wcf" / ("fold%d" % fold) / "model"
                    / "manifest.json").exists()

    def test_wcf_full_rank_matches_wf_rankings(self, pipeline_out):
        # every fixture fold clamps k to the cold-item count, the
        # degenerate case where the factorization reproduces the
        # closed-form inference, so the ranked item orders coincide
        for fold in range(4):
            wf = (pipeline_out / "runs" / "wf" / ("fold%d" % fold)
                  / "predictions.tsv").read_text().splitlines()[1:]
            wcf = (pipeline_out / "runs" / "wcf" / ("fold%d" % fold)
                   / "predictions.tsv").read_text().splitlines()[1:]
            wf_order = [tuple(line.split("\t")[:3]) for line in wf]
            wcf_order = [tuple(line.split("\t")[:3]) for line in wcf]
            assert wf_order == wcf_order

    def test_wf_rankings_do_not_depend_on_blas_threads(self, tmp_path):
        # BLAS threading may reorder floating-point sums, so score bytes
        # can differ between thread counts; the rankings must not
        rng = np.random.default_rng(7)
        users, items, per_user, tags = 300, 600, 60, 100
        rated = np.argsort(rng.uniform(size=(users, items)), axis=1)[:, :per_user] + 1
        user_col = np.repeat(np.arange(1, users + 1), per_user)
        stars = rng.integers(1, 6, size=user_col.size)
        stamps = 880_000_000 + np.arange(user_col.size)
        np.savetxt(tmp_path / "u.data", np.column_stack([user_col, rated.ravel(), stars, stamps]),
                   fmt="%d", delimiter="\t")
        item_col, tag_col = np.divmod(np.arange(items * tags), tags)
        np.savetxt(tmp_path / "genome.csv",
                   np.column_stack([item_col + 1, tag_col + 1, rng.uniform(size=items * tags)]),
                   fmt=["%d", "%d", "%.4f"], delimiter=",", header="movieId,tagId,relevance",
                   comments="")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        orders = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            out = tmp_path / ("threads" + threads)
            for argv in (["prepare", "--ratings", str(tmp_path / "u.data"),
                          "--genome", str(tmp_path / "genome.csv")],
                         ["train", "--algorithm", "wf", "--folds", "1", "--seed", "3"]):
                proc = subprocess.run([sys.executable, "-m", "wassrec.cli", *argv,
                                       "--out", str(out)], env=env, capture_output=True,
                                      text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            lines = (out / "runs" / "wf" / "fold0" / "predictions.tsv").read_text().splitlines()
            orders.append([tuple(line.split("\t")[:3]) for line in lines])
        assert len(orders[0]) > 1
        assert orders[0] == orders[1]

    def test_wcf_trace_of_a_peaked_pair_finishes(self, tmp_path):
        # seed 1's initial factors leave one user a 2 x 2 transport
        # support that plain Sinkhorn cannot close in the trace's
        # 100,000 iterations (exit 3); the Newton finish closes it
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0
        assert main(["train", "--algorithm", "wcf", "--latent-dim", "2", "--seed", "1",
                     "--folds", "2", "--out", str(out)]) == 0

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0

        def boom(*args, **kwargs):
            raise SolverError("summoned for the test")

        monkeypatch.setattr(cli, "train_wcf", boom)
        rc = main(["train", "--algorithm", "wcf", "--out", str(out)])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err

    def test_unbounded_dual_is_a_solver_failure(self, tmp_path, monkeypatch, capsys):
        # also a ValueError, which alone would map to exit 2
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0

        def unbounded(*args, **kwargs):
            raise UnboundedDualError("summoned for the test")

        monkeypatch.setattr(cli, "train_wcf", unbounded)
        rc = main(["train", "--algorithm", "wcf", "--out", str(out)])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err


class TestEvaluate:
    def test_reports_exist_and_are_deterministic(self, pipeline_out):
        before = snapshot(pipeline_out / "reports")
        assert main(["evaluate", "--out", str(pipeline_out)]) == 0
        assert snapshot(pipeline_out / "reports") == before
        assert (pipeline_out / "reports" / "wf" / "per_user.tsv").exists()
        assert (pipeline_out / "reports" / "wcf" / "summary.tsv").exists()

    def test_per_user_rows_match_library_metrics(self, pipeline_out):
        # recompute every reported number from the predictions and the
        # held-out positives; %.17g serialization must round-trip
        table = load_interactions(pipeline_out / "prepared" / "interactions.tsv")
        manifest = json.loads((pipeline_out / "splits" / "manifest.json").read_text())
        cold_by_fold = {f["fold"]: f["cold"] for f in manifest["folds"]}

        lines = (pipeline_out / "reports" / "wf" / "per_user.tsv"
                 ).read_text().splitlines()
        assert lines[0] == "fold\tuser\tap\tndcg\trecall"
        assert len(lines) > 1
        for line in lines[1:]:
            fold_s, user_s, ap_s, ndcg_s, recall_s = line.split("\t")
            fold, user = int(fold_s), int(user_s)
            users, ranked = cli._read_predictions(
                pipeline_out / "runs" / "wf" / ("fold%d" % fold) / "predictions.tsv",
                cold_by_fold[fold])
            items = ranked[users.tolist().index(user)].tolist()
            test = table.restrict_items(cold_by_fold[fold])
            positives = set(
                int(i) for u, i in zip(test.user_ids, test.item_ids) if u == user)
            assert positives
            assert float(ap_s) == oracle_ap(items, positives)
            assert float(ndcg_s) == oracle_ndcg(items, positives, 20)
            assert float(recall_s) == oracle_recall(items, positives, 20)

    def test_comparative_summary_layout(self, pipeline_out):
        lines = (pipeline_out / "reports" / "summary.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "algorithm", "fold", "scope", "evaluated_users", "excluded_users",
            "dropped_users", "map", "ndcg", "recall"]
        rows = [line.split("\t") for line in lines[1:]]
        algos = {row[0] for row in rows}
        assert algos == {"wf", "wcf"}
        for algo in sorted(algos):
            folds = [row[1] for row in rows if row[0] == algo]
            assert folds == ["0", "1", "2", "3", "mean"]
        # fold 0 drops the user whose interactions are all cold there
        wf0 = next(row for row in rows if row[0] == "wf" and row[1] == "0")
        assert wf0[5] == "1"

    def test_scope_flag_changes_reports(self, pipeline_out, tmp_path):
        assert main(["evaluate", "--out", str(pipeline_out), "--scope", "1"]) == 0
        lines = (pipeline_out / "reports" / "summary.tsv").read_text().splitlines()
        assert lines[1].split("\t")[2] == "1"
        # restore the module fixture's reports for later tests
        assert main(["evaluate", "--out", str(pipeline_out)]) == 0

    def test_requires_runs(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0
        assert main(["train", "--algorithm", "wf", "--out", str(out)]) == 0
        shutil.rmtree(out / "runs")
        capsys.readouterr()
        assert main(["evaluate", "--out", str(out)]) == 2
        assert "no runs found under %s" % (out / "runs") in capsys.readouterr().err

    def test_requires_manifest(self, tmp_path, capsys):
        rc = main(["evaluate", "--out", str(tmp_path / "void")])
        assert rc == 2
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param("cold", MISSING, id="cold"),
        pytest.param("interacted", MISSING, id="interacted"),
        pytest.param("fold", MISSING, id="fold"),
        pytest.param("fold", "zero", id="fold-str"),
        pytest.param("fold", True, id="fold-bool"),
        pytest.param("cold", None, id="cold-null"),
        pytest.param("cold", "1 2", id="cold-str"),
        pytest.param("interacted", [1.5], id="interacted-float"),
    ])
    def test_fold_entry_lacking_a_key_is_a_data_error(self, pipeline_out, tmp_path, capsys,
                                                      key, value):
        # a key that is missing or of the wrong JSON type
        out = tmp_path / "o"
        shutil.copytree(pipeline_out, out)
        path = out / "splits" / "manifest.json"
        manifest = json.loads(path.read_text())
        if value is MISSING:
            del manifest["folds"][0][key]
        else:
            manifest["folds"][0][key] = value
        path.write_text(json.dumps(manifest))
        assert main(["evaluate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err

    def test_folds_must_match_the_manifest(self, tmp_path, capsys):
        # a second train with fewer folds rewrites the split manifest;
        # the first run's extra fold must not be dropped silently
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0
        assert main(["train", "--algorithm", "wcf", "--latent-dim", "2",
                     "--folds", "2", "--max-outer", "1", "--out", str(out)]) == 0
        assert main(["train", "--algorithm", "wf", "--folds", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "['fold0', 'fold1']" in err and "['fold0']" in err
        assert not (out / "reports").exists()
        assert main(["evaluate", "--algorithm", "wf", "--out", str(out)]) == 0


VALID_ROWS = ["1\t1\t10\t0.5", "1\t2\t20\t0.25", "2\t1\t20\t0.75", "2\t2\t10\t0.125"]


def write_predictions(path, rows, header=cli.PREDICTION_HEADER):
    path.write_text("".join(line + "\n" for line in [header, *rows]))
    return path


class TestReadPredictions:
    def test_parses_rankings_by_user(self, tmp_path):
        rows = [VALID_ROWS[i] for i in (3, 0, 2, 1)]  # row order does not matter
        users, ranked = cli._read_predictions(write_predictions(tmp_path / "p.tsv", rows),
                                              [20, 10])
        assert users.tolist() == [1, 2]
        assert ranked.tolist() == [[10, 20], [20, 10]]

    @pytest.mark.parametrize("header, rows", [
        ("user\titem\trank\tscore", VALID_ROWS),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t2\t20"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t2\t20\t0.25\t7"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1.0\t2\t20\t0.25"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t2.0\t20\t0.25"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t2\t20.0\t0.25"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t2\t20\thigh"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:2] + [""] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t3\t20\t0.25"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t1\t20\t0.25"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, []),
    ], ids=["header", "three-fields", "five-fields", "float-user", "float-rank",
            "float-item", "text-score", "blank-line", "rank-gap", "repeated-rank",
            "header-only"])
    def test_rejects_malformed_file(self, tmp_path, header, rows):
        path = write_predictions(tmp_path / "bad.tsv", rows, header)
        with pytest.raises(DataError, match=re.escape(str(path))):
            cli._read_predictions(path, [10, 20])

    @pytest.mark.parametrize("rows, user", [
        (["1\t1\t10\t0.5", "1\t2\t30\t0.25", "2\t1\t20\t0.75"], 1),  # 1: wrong item
        (["1\t1\t10\t0.5", "2\t1\t20\t0.75", "2\t2\t30\t0.25"], 1),  # 1: too few
        (VALID_ROWS + ["3\t1\t10\t0.5", "3\t2\t20\t0.5", "3\t3\t30\t0.5"], 3),
    ])
    def test_names_the_smallest_user_off_the_cold_items(self, tmp_path, rows, user):
        path = write_predictions(tmp_path / "p.tsv", rows)
        with pytest.raises(DataError, match="user %d does not rank exactly the fold's 2 "
                                            "cold items" % user):
            cli._read_predictions(path, [10, 20, 20])

    def test_evaluate_exits_2_on_malformed_file(self, pipeline_out, tmp_path, capsys):
        out = tmp_path / "o"
        shutil.copytree(pipeline_out, out)
        path = out / "runs" / "wf" / "fold0" / "predictions.tsv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        assert main(["evaluate", "--out", str(out), "--algorithm", "wf"]) == 2
        assert str(path) in capsys.readouterr().err

    def test_rankings_must_cover_the_cold_items(self, pipeline_out, tmp_path, capsys):
        # a file listing only a user's positives would score AP 1
        out = tmp_path / "o"
        shutil.copytree(pipeline_out, out)
        table = load_interactions(out / "prepared" / "interactions.tsv")
        cold = json.loads((out / "splits" / "manifest.json").read_text())["folds"][0]["cold"]
        path = out / "runs" / "wf" / "fold0" / "predictions.tsv"
        lines = path.read_text().splitlines()
        test = table.restrict_items(cold)
        user = min({int(line.split("\t")[0]) for line in lines[1:]} & set(test.users.tolist()))
        positives = sorted(int(i) for u, i in zip(test.user_ids, test.item_ids) if u == user)
        assert 0 < len(positives) < len(cold)
        own = ["%d\t%d\t%d\t0.5" % (user, r, i) for r, i in enumerate(positives, start=1)]
        others = [line for line in lines[1:] if int(line.split("\t")[0]) != user]
        path.write_text("\n".join([lines[0], *own, *others]) + "\n")
        assert main(["evaluate", "--out", str(out), "--algorithm", "wf"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "cold items" in err


class TestOutResolution:
    def test_env_var_used_when_flag_absent(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from-env"
        monkeypatch.setenv(cli.OUT_ENV, str(envdir))
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME]) == 0
        assert (envdir / "prepared" / "stats.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from-env"
        outdir = tmp_path / "from-flag"
        monkeypatch.setenv(cli.OUT_ENV, str(envdir))
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(outdir)]) == 0
        assert (outdir / "prepared" / "stats.json").exists()
        assert not envdir.exists()

    def test_default_directory_name(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.OUT_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME]) == 0
        assert (tmp_path / "wassrec-out" / "prepared" / "stats.json").exists()


class TestExperimentConfig:
    """An experiment's settings are the parsed flags, checked once by their types."""

    def test_defaults_mirror_flag_defaults(self):
        parser = cli.build_parser()
        prepare = parser.parse_args(["prepare", "--ratings", RATINGS, "--genome", GENOME])
        train = parser.parse_args(["train", "--algorithm", "wf"])
        evaluate = parser.parse_args(["evaluate"])
        assert (prepare.format, prepare.threshold) == ("tab", 4.0)
        assert (train.gamma, train.latent_dim, train.ratio) == (0.05, 30, "3:1")
        assert (train.seed, train.folds, train.tol, train.max_outer) == (0, None, 1e-5, 50)
        assert (evaluate.scope, evaluate.algorithm) == (20, None)
        library = inspect.signature(train_wcf).parameters
        assert (train.tol, train.max_outer, train.seed) == tuple(
            library[name].default for name in ("tol", "max_outer", "seed"))

    def test_paths_are_coerced(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_prepare", lambda args: seen.append(args) or 0)
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(tmp_path)]) == 0
        assert seen[0].out == tmp_path

    @pytest.mark.parametrize("bad", [
        ["train", "--algorithm", "wf", "--gamma", "0"],
        ["train", "--algorithm", "wf", "--gamma", "nan"],
        ["train", "--algorithm", "wcf", "--latent-dim", "0"],
        ["train", "--algorithm", "wf", "--ratio", "2:1"],
        ["prepare", "--ratings", RATINGS, "--genome", GENOME, "--format", "pipe"],
        ["prepare", "--ratings", RATINGS, "--genome", GENOME, "--threshold", "inf"],
        ["train", "--algorithm", "svd"],
        ["train", "--algorithm", "wf", "--folds", "0"],
        ["train", "--algorithm", "wcf", "--tol", "-1e-5"],
        ["train", "--algorithm", "wcf", "--max-outer", "0"],
        ["evaluate", "--scope", "0"],
        ["train", "--algorithm", "wf", "--seed", "-1"],
        ["train", "--algorithm", "wf", "--folds", "5"],
        ["train", "--algorithm", "wf", "--ratio", "1:1", "--folds", "3"],
    ])
    def test_invalid_settings_rejected(self, tmp_path, capsys, bad):
        # exit 1 is argparse's: the same run with a valid value exits 0 or 2
        assert main(bad + ["--out", str(tmp_path / "never")]) == 1
        assert not (tmp_path / "never").exists()
        # the usage line is the subcommand's, whichever check refused the flag
        assert capsys.readouterr().err.startswith("usage: wassrec %s " % bad[0])
