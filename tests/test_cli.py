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
import wassrec.wfilter as wfilter
from wassrec import (
    DataError,
    GibbsKernel,
    SolverError,
    UnboundedDualError,
    binarize,
    build_cost_matrix,
    cold_start_split,
    infer_cold,
    load_genome,
    load_interactions,
    load_model,
    predict_user,
    rank_order,
    train_wcf,
)
from wassrec.cli import main

from conftest import FIXTURE_DIR, ROOT, traced_peak
from oracles import oracle_ap, oracle_ndcg, oracle_recall, write_table

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


def write_catalog(path, rng, users, items, per_user, tags, low_star=1):
    """Write ``u.data`` and ``genome.csv`` of a random catalog into ``path``.

    Each user rates ``per_user`` distinct items with stars from
    ``low_star`` to 5; every item gets ``tags`` uniform relevances.
    """
    rated = np.argsort(rng.uniform(size=(users, items)), axis=1)[:, :per_user] + 1
    user_col = np.repeat(np.arange(1, users + 1), per_user)
    stars = rng.integers(low_star, 6, size=user_col.size)
    stamps = 880_000_000 + np.arange(user_col.size)
    np.savetxt(path / "u.data", np.column_stack([user_col, rated.ravel(), stars, stamps]),
               fmt="%d", delimiter="\t")
    item_col, tag_col = np.divmod(np.arange(items * tags), tags)
    np.savetxt(path / "genome.csv",
               np.column_stack([item_col + 1, tag_col + 1, rng.uniform(size=items * tags)]),
               fmt=["%d", "%d", "%.4f"], delimiter=",", header="movieId,tagId,relevance",
               comments="")


def whole_histograms(split):
    """The fold's users and their n x m histogram stack, built in one piece."""
    users = np.unique(split.train.user_ids)
    interacted = np.asarray(split.interacted_items)
    H = np.zeros((users.size, interacted.size))
    H[np.searchsorted(users, split.train.user_ids),
      np.searchsorted(interacted, split.train.item_ids)] = split.train.ratings
    H /= H.sum(axis=1, keepdims=True)
    return users, H.T


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

    # per stage: its arguments, the stages run before it, and the
    # ``wassrec`` modules it loads besides the package and ``cli``; the
    # runtime path is NumPy only: the package never imports SciPy
    TRAIN_MODULES = {"dataio", "exceptions", "transport", "wcf", "wfilter"}
    STAGES = {
        "prepare": (["prepare", "--ratings", RATINGS, "--genome", GENOME], [],
                    {"dataio", "exceptions"}),
        "train-wf": (["train", "--algorithm", "wf"], ["prepare"], TRAIN_MODULES),
        "train-wcf": (["train", "--algorithm", "wcf", "--latent-dim", "2"], ["prepare"],
                      TRAIN_MODULES),
        "evaluate": (["evaluate"], ["prepare", "train-wf"], {"dataio", "exceptions", "metrics"}),
    }

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_stage_loads_only_its_modules(self, stage, tmp_path):
        argv, before, expected = self.STAGES[stage]
        out = ["--out", str(tmp_path / "out")]
        for name in before:
            assert main(self.STAGES[name][0] + out) == 0
        # NumPy 1.24 imports numpy.ma with numpy itself, NumPy 2 only on demand
        code = ("import json, sys, numpy; eager = 'numpy.ma' in sys.modules; "
                "import wassrec.cli; rc = wassrec.cli.main(sys.argv[1:]); "
                "print(json.dumps([rc, sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('wassrec', 'scipy')), eager, 'numpy.ma' in sys.modules]))")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, *argv, *out],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, modules, eager, ma = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0, proc.stderr
        assert modules == sorted({"wassrec", "wassrec.cli", *("wassrec." + m for m in expected)})
        assert eager or not ma, "%s imported numpy.ma" % stage


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

    @pytest.mark.parametrize("catalog", ["fixture", "shuffled"])
    def test_arrays_equal_the_text_tables_read_back(self, pipeline_out, tmp_path, catalog):
        # train and evaluate read the arrays; people and the benchmark read
        # the text, so the two must hold the same tables bit for bit; the
        # fixture's ratings are in (user, item) order, the shuffled ones not
        prepared = pipeline_out / "prepared"
        if catalog == "shuffled":
            rng = np.random.default_rng(10)
            write_catalog(tmp_path, rng, users=40, items=30, per_user=8, tags=5)
            lines = (tmp_path / "u.data").read_text().splitlines(keepends=True)
            (tmp_path / "u.data").write_text("".join(rng.permutation(lines)))
            assert main(["prepare", "--ratings", str(tmp_path / "u.data"), "--genome",
                         str(tmp_path / "genome.csv"), "--out", str(tmp_path / "o")]) == 0
            prepared = tmp_path / "o" / "prepared"
        texts = {"interactions": load_interactions(prepared / "interactions.tsv"),
                 "genome": load_genome(prepared / "genome.csv")}
        for name, (_, fields) in cli.PREPARED.items():
            for field in fields:
                array = np.load(prepared / ("%s_%s.npy" % (name, field)), allow_pickle=False)
                want = getattr(texts[name], field)
                assert (array.dtype, array.shape) == (want.dtype, want.shape), (name, field)
                assert array.tobytes() == want.tobytes(), (name, field)

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

    def test_signed_zero_keeps_its_text(self, tmp_path):
        # -0.0 == 0.0, so relevance texts looked up by value would print
        # one of them for both
        lines = (FIXTURE_DIR / "genome.csv").read_text().splitlines()
        lines[lines.index("2,40,0.0")] = "2,40,-0.0"
        lines[lines.index("3,40,0.0")] = "3,40,0"
        given = tmp_path / "genome.csv"
        given.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="absent"):
            assert main(["prepare", "--ratings", RATINGS, "--genome", str(given),
                         "--out", str(out)]) == 0
        prepared = out / "prepared" / "genome.csv"
        rows = [line.split(",") for line in prepared.read_text().splitlines()[1:]]
        # (1, 30) is the fixture's missing pair, filled with 0
        assert {(m, t): r for m, t, r in rows if float(r) == 0} == {
            ("1", "30"): "0.0", ("2", "40"): "-0.0", ("3", "40"): "0.0",
            ("4", "10"): "0.0", ("5", "20"): "0.0"}
        with pytest.warns(UserWarning, match="absent"):
            source = load_genome(given)
        genome = load_genome(prepared)
        assert genome.item_ids.tobytes() == source.item_ids.tobytes()
        assert genome.tag_ids.tobytes() == source.tag_ids.tobytes()
        assert genome.relevance.tobytes() == source.relevance.tobytes()
        assert np.signbit(genome.relevance).sum() == 1

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
        err = capsys.readouterr().err
        assert "interactions_user_ids.npy" in err and "run prepare again" in err

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
        cold = np.asarray(split.cold_items)
        expected = {}
        for user, q in zip(users, Q.T):
            np.testing.assert_allclose(q, infer_cold(histograms[user], kernel),
                                       rtol=0, atol=1e-12)
            order = rank_order(q[:, None], cold)[:, 0]
            expected[user] = (tuple(cold[order]), tuple(q[order]))

        path = pipeline_out / "runs" / "wf" / "fold0" / "predictions.tsv"
        got = {}
        for line in path.read_text().splitlines()[1:]:
            user, rank, item, score = line.split("\t")
            got.setdefault(int(user), []).append((int(rank), int(item), float(score)))
        assert set(got) == set(expected)
        for user, rows in got.items():
            assert [r for r, _, _ in rows] == list(range(1, len(rows) + 1))
            assert tuple(i for _, i, _ in rows) == expected[user][0]
            assert tuple(s for _, _, s in rows) == expected[user][1]

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
        cold = np.asarray(split.cold_items)
        for user, rows in got.items():
            q = predict_user(model, user)
            order = rank_order(q[:, None], cold)[:, 0]
            assert [r for r, _, _ in rows] == list(range(1, len(rows) + 1))
            assert tuple(i for _, i, _ in rows) == tuple(cold[order])
            np.testing.assert_allclose([s for _, _, s in rows], q[order],
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
        write_catalog(tmp_path, np.random.default_rng(7), users=300, items=600, per_user=60,
                      tags=100)
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

    @pytest.mark.parametrize("block", [2, 3])
    def test_wf_blocks_equal_one_whole_stack_inference(self, tmp_path, monkeypatch, block):
        # train infers and ranks INFER_BLOCK users at a time; the fixture's
        # folds hold 3 and 4 users, so each width leaves a ragged last block
        monkeypatch.setattr(wfilter, "INFER_BLOCK", block)
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0
        assert main(["train", "--algorithm", "wf", "--out", str(out)]) == 0
        table = load_interactions(out / "prepared" / "interactions.tsv")
        genome = load_genome(out / "prepared" / "genome.csv")
        ragged = 0
        for split in cold_start_split(table, ratio="3:1", seed=0):
            users, P = whole_histograms(split)
            ragged += users.size % block != 0
            cost = build_cost_matrix(genome, split.interacted_items, split.cold_items)
            Q = infer_cold(P, cost, 0.05)
            order = rank_order(Q, split.cold_items)
            cold, s = np.asarray(split.cold_items), len(split.cold_items)
            lines = (out / "runs" / "wf" / ("fold%d" % split.fold)
                     / "predictions.tsv").read_text().splitlines()[1:]
            got = np.array([line.split("\t") for line in lines])
            np.testing.assert_array_equal(got[:, :3].astype(np.int64), np.column_stack([
                np.repeat(users, s), np.tile(np.arange(1, s + 1), users.size),
                cold[order.T.ravel()]]))
            want = np.take_along_axis(Q, order, axis=0).T.ravel()
            assert got[:, 3].astype(float).tobytes() == want.tobytes()
        assert ragged

    def test_histogram_blocks_equal_the_whole_stack(self, tmp_path):
        # every column range of the builder, ragged ends and ranges past the
        # last user included, is the same columns of one whole-stack build
        write_catalog(tmp_path, np.random.default_rng(8), users=300, items=200, per_user=9,
                      tags=4)
        table = binarize(load_interactions(tmp_path / "u.data"))
        split = cold_start_split(table, ratio="3:1", seed=1)[0]
        users, histograms = cli._fold_histograms(split)
        whole = histograms(slice(None))
        expected_users, P = whole_histograms(split)
        assert users == expected_users.tolist()
        assert whole.tobytes() == P.tobytes()
        m = len(users)
        assert m % 128 and m > 128
        edges = [0, 1, 2, 127, 128, 129, m - 1, m, m + 5]
        for start in edges[:-2]:
            for stop in edges[edges.index(start) + 1:]:
                cols = slice(start, stop)
                assert histograms(cols).tobytes() == whole[:, cols].tobytes(), cols
        for block in (2, 3, 128):
            for start in range(0, m, block):
                cols = slice(start, start + block)
                assert histograms(cols).tobytes() == whole[:, cols].tobytes(), cols

    def test_wf_train_holds_one_user_block_not_the_histogram_stack(self, tmp_path):
        # beside the fold's data and the genome, wf train holds its cost and
        # kernel (n x s each) while it infers, the s x m scores and ranking,
        # and one block of users; the n x m histogram stack would not fit
        write_catalog(tmp_path, np.random.default_rng(9), users=600, items=800, per_user=12,
                      tags=20, low_star=4)
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", str(tmp_path / "u.data"),
                     "--genome", str(tmp_path / "genome.csv"), "--out", str(out)]) == 0
        table = load_interactions(out / "prepared" / "interactions.tsv")
        genome = load_genome(out / "prepared" / "genome.csv")
        split = cold_start_split(table, ratio="3:1", seed=1)[0]
        n, s = len(split.interacted_items), len(split.cold_items)
        m = np.unique(split.train.user_ids).size
        assert m >= 4 * wfilter.INFER_BLOCK
        codes = []
        peak = traced_peak(lambda: codes.append(main(["train", "--algorithm", "wf", "--folds",
                                                      "1", "--seed", "1", "--out", str(out)])))
        assert codes == [0]
        # the table and the split's rows, four 8-byte columns each, and the genome
        data = 2 * len(table) * 32 + genome.relevance.nbytes
        assert peak <= 8 * (2 * n * s + 2 * s * m + n * wfilter.INFER_BLOCK) + data + 2**18
        assert 8 * n * m > data + 2**18  # the stack alone outgrows both allowances

    def test_wcf_trace_of_a_peaked_pair_finishes(self, tmp_path):
        # pins that the seed-1 run over two folds trains and exits 0.
        # Its random draw leaves one user a peaked 2 x 2 transport
        # support; the trace reads block dual values, so no primal
        # transport problem is solved for it
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0
        assert main(["train", "--algorithm", "wcf", "--latent-dim", "2", "--seed", "1",
                     "--folds", "2", "--out", str(out)]) == 0

    @pytest.mark.parametrize("algorithm", ["wf", "wcf"])
    def test_subnormal_gamma_is_a_data_error(self, tmp_path, capsys, algorithm):
        # wf used to write NaN scores and exit 0, wcf to exit 3 on a factor
        # column without mass
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0
        assert main(["train", "--algorithm", algorithm, "--gamma", "1e-310",
                     "--latent-dim", "2", "--out", str(out)]) == 2
        assert "gamma 1e-310 is too small for the largest cost" in capsys.readouterr().err
        assert not list(out.glob("runs/*/*/predictions.tsv"))

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        assert main(["prepare", "--ratings", RATINGS, "--genome", GENOME,
                     "--out", str(out)]) == 0

        def boom(*args, **kwargs):
            raise SolverError("summoned for the test")

        monkeypatch.setattr("wassrec.wcf.train_wcf", boom)
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

        monkeypatch.setattr("wassrec.wcf.train_wcf", unbounded)
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

    def test_requires_prepared_arrays(self, pipeline_out, tmp_path, capsys):
        # a directory prepared before the arrays existed holds only the text
        out = tmp_path / "o"
        shutil.copytree(pipeline_out, out)
        for path in (out / "prepared").glob("*.npy"):
            path.unlink()
        capsys.readouterr()
        assert main(["evaluate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "interactions_user_ids.npy" in err and "run prepare again" in err

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
        pytest.param(None, MISSING, id="not-an-object"),
    ])
    def test_fold_entry_lacking_a_key_is_a_data_error(self, pipeline_out, tmp_path, capsys,
                                                      key, value):
        # a key that is missing or of the wrong JSON type, or (key None)
        # a manifest that is a JSON list rather than an object
        out = tmp_path / "o"
        shutil.copytree(pipeline_out, out)
        path = out / "splits" / "manifest.json"
        manifest = json.loads(path.read_text())
        if key is None:
            manifest = [manifest]
        elif value is MISSING:
            del manifest["folds"][0][key]
        else:
            manifest["folds"][0][key] = value
        path.write_text(json.dumps(manifest))
        assert main(["evaluate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert ("is not a JSON object" if key is None else repr(key)) in err

    def test_manifest_without_folds_exits_2(self, pipeline_out, tmp_path, capsys):
        # with no fold directories left either, an empty fold list used to
        # reach the mean row and fail with an IndexError, exit 1
        out = tmp_path / "o"
        shutil.copytree(pipeline_out, out)
        shutil.rmtree(out / "reports")
        path = out / "splits" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "folds": []}))
        for fold in (out / "runs").glob("*/fold*"):
            shutil.rmtree(fold)
        assert main(["evaluate", "--out", str(out)]) == 2
        assert "split manifest %s lists no folds" % path in capsys.readouterr().err
        assert not (out / "reports").exists()

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


def truncated(path):
    path.write_bytes(path.read_bytes()[:-8])


def zipped(path):
    array = np.load(path)
    with open(path, "wb") as fh:  # np.load of a zip archive returns no array
        np.savez(fh, array=array)


class TestPreparedArrays:
    # each array is outside input: a bad one is a data error naming its file
    # (the table's files, for a check its class makes); evaluate reads no genome
    BAD = {
        "float-user-ids": ("interactions_user_ids.npy",
                           lambda path: np.save(path, np.load(path).astype(np.float64))),
        "2-D-ratings": ("interactions_ratings.npy",
                        lambda path: np.save(path, np.load(path)[:, None])),
        "truncated-user-ids": ("interactions_user_ids.npy", truncated),
        "truncated-relevance": ("genome_relevance.npy", truncated),
        "zipped-tag-ids": ("genome_tag_ids.npy", zipped),
        "object-item-ids": ("interactions_item_ids.npy",
                            lambda path: np.save(path, np.load(path).astype(object))),
        "short-timestamps": ("interactions_timestamps.npy",
                             lambda path: np.save(path, np.load(path)[1:])),
    }

    @pytest.mark.parametrize("stage, case", [
        pytest.param(stage, case, id="%s-%s" % (stage, case))
        for case, (name, _) in BAD.items()
        for stage in ("train", "evaluate") if stage == "train" or name.startswith("inter")])
    def test_bad_array_exits_2_naming_the_file(self, pipeline_out, tmp_path, capsys,
                                               stage, case):
        name, spoil = self.BAD[case]
        out = tmp_path / "o"
        shutil.copytree(pipeline_out, out)
        spoil(out / "prepared" / name)
        argv = ["train", "--algorithm", "wf"] if stage == "train" else ["evaluate"]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert (name if case != "short-timestamps" else "interactions_*.npy") in err

    def test_train_and_evaluate_parse_no_prepared_text(self, pipeline_out, tmp_path,
                                                       monkeypatch):
        out = tmp_path / "o"
        shutil.copytree(pipeline_out, out)
        before = snapshot(out / "runs" / "wf") | snapshot(out / "reports")

        def no_parse(*args, **kwargs):
            raise AssertionError("a stage after prepare parsed a text table")

        monkeypatch.setattr(cli, "load_interactions", no_parse)
        monkeypatch.setattr(cli, "load_genome", no_parse)
        assert main(["train", "--algorithm", "wf", "--out", str(out)]) == 0
        assert main(["evaluate", "--out", str(out)]) == 0
        assert snapshot(out / "runs" / "wf") | snapshot(out / "reports") == before


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
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t2\t20\tnan"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:3] + ["2\t2\t10\t-inf"]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:2] + [""] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t3\t20\t0.25"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, VALID_ROWS[:1] + ["1\t1\t20\t0.25"] + VALID_ROWS[2:]),
        (cli.PREDICTION_HEADER, []),
    ], ids=["header", "three-fields", "five-fields", "float-user", "float-rank",
            "float-item", "text-score", "nan-score", "inf-score", "blank-line", "rank-gap",
            "repeated-rank", "header-only"])
    def test_rejects_malformed_file(self, tmp_path, header, rows):
        path = write_predictions(tmp_path / "bad.tsv", rows, header)
        with pytest.raises(DataError, match=re.escape(str(path))):
            cli._read_predictions(path, [10, 20])

    def test_names_the_smallest_user_with_a_non_finite_score(self, tmp_path):
        rows = VALID_ROWS + ["3\t1\t10\tinf", "3\t2\t20\t0.5"]
        rows[3] = "2\t2\t10\tnan"
        path = write_predictions(tmp_path / "p.tsv", rows[::-1])
        with pytest.raises(DataError, match="user 2 has a non-finite score"):
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

    def test_train_order_and_shuffled_rows_read_alike(self, pipeline_out, tmp_path):
        lines = (pipeline_out / "runs" / "wf" / "fold0" / "predictions.tsv").read_text()
        header, *rows = lines.splitlines()
        cold = json.loads((pipeline_out / "splits" / "manifest.json").read_text())
        cold = cold["folds"][0]["cold"]
        shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        assert shuffled != rows
        users, ranked = cli._read_predictions(write_predictions(tmp_path / "a.tsv", rows), cold)
        again = cli._read_predictions(write_predictions(tmp_path / "b.tsv", shuffled), cold)
        assert users.tobytes() == again[0].tobytes()
        assert ranked.tobytes() == again[1].tobytes()
        assert ranked.shape == (users.size, len(cold)) and users.size > 1

    @pytest.mark.parametrize("bad", ["1\t3\t20\t0.25", "1\t1\t20\t0.25"],
                             ids=["rank-gap", "repeated-rank"])
    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 1, 0]], ids=["train", "reversed"])
    def test_rank_errors_caught_in_either_row_order(self, tmp_path, bad, order):
        rows = VALID_ROWS[:1] + [bad] + VALID_ROWS[2:]
        path = write_predictions(tmp_path / "bad.tsv", [rows[i] for i in order])
        with pytest.raises(DataError, match="user 1 has non-contiguous ranks"):
            cli._read_predictions(path, [10, 20])

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


class TestWriteTable:
    @pytest.mark.parametrize("rows", [0, 1, cli.WRITE_BLOCK - 1, cli.WRITE_BLOCK,
                                      cli.WRITE_BLOCK + 1, 2 * cli.WRITE_BLOCK + 3])
    def test_bytes_equal_the_one_format_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        ints = rng.integers(2**62 - 2**20, 2**62, size=rows) * rng.choice([-1, 1], size=rows)
        extremes = np.array([2**62, -2**62, 2**63 - 1, -2**63, 0])
        at = rng.integers(extremes.size, size=rows)
        # both zeros, the smallest subnormal, a huge value, 17-digit values
        pool = np.concatenate([[-0.0, 0.0, 5e-324, 1e308, 0.1 + 0.2], rng.random(50) / 3])
        repeated = rng.permutation(pool[np.arange(rows) % pool.size])
        plain = np.where(rng.random(rows) < 0.5, repeated, rng.random(rows) / 3)
        fields = ("%d\t", "%d\t", "%r\t", "%.17g\t", "%r,", "%.17g\n")
        extreme = cli._lookup(fields[1], extremes)
        cli._write_table(tmp_path / "new.tsv", "h\n", rows,
                         cli._formatted(fields[0], ints.__getitem__), lambda r: extreme(at[r]),
                         cli._formatted(fields[2], plain.__getitem__),
                         cli._formatted(fields[3], plain.__getitem__),
                         cli._lookup(fields[4], repeated), cli._lookup(fields[5], repeated))
        write_table(tmp_path / "old.tsv", "h\n", "".join(fields), ints, extremes[at], plain,
                    plain, repeated, repeated)
        new = (tmp_path / "new.tsv").read_bytes()
        assert new == (tmp_path / "old.tsv").read_bytes()
        assert new.count(b"\n") == rows + 1
        if rows > 2:
            assert b"\t-0.0," in new and b"\t0.0," in new

    def test_peak_memory_is_a_block_plus_the_distinct_texts(self, tmp_path):
        # formatting the plain column whole would hold about 20 MB of texts
        rows = 200_000
        scores = np.random.default_rng(0).random(rows) / 3
        user, index = cli._lookup("%d\t", np.arange(1000)), np.repeat(np.arange(1000), rows // 1000)
        peak = traced_peak(lambda: cli._write_table(
            tmp_path / "t.tsv", "", rows, lambda r: user(index[r]),
            cli._formatted("%.17g\n", scores.__getitem__)))
        assert peak <= 3 * 2**20
        assert (tmp_path / "t.tsv").stat().st_size > 20 * rows


    @pytest.mark.parametrize("items, tags", [(1000, 200), (4000, 100)])
    def test_genome_shaped_write_holds_a_block_plus_the_distinct_texts(self, tmp_path,
                                                                        items, tags):
        # cmd_prepare's columns; np.repeat and np.tile held 16 bytes a row
        rows = items * tags
        values = np.random.default_rng(0).integers(2000, size=rows) / 2000
        relevance = cli._lookup("%r\n", values)
        ids, tag_ids = np.arange(items) * 3 + 1, np.arange(tags) * 7 + 2
        item, tag = cli._lookup("%d,", ids), cli._lookup("%d,", tag_ids)
        peak = traced_peak(lambda: cli._write_table(
            tmp_path / "genome.csv", "", rows,
            lambda r: item(r // tags), lambda r: tag(r % tags), relevance))
        assert peak <= 2**19 + 200 * (items + tags + np.unique(values).size)
        assert (tmp_path / "genome.csv").read_text().count("\n") == rows

    @pytest.mark.parametrize("users, s", [(1000, 200), (2000, 200)])
    def test_predictions_shaped_write_holds_a_block_plus_the_distinct_texts(
            self, tmp_path, users, s):
        # cmd_train's columns; the full-length user, rank and score columns
        # held 24 bytes a row
        rows = users * s
        Q = np.random.default_rng(1).random((s, users))
        ranked = np.argsort(-Q, axis=0).T.ravel()
        user_ids, items = np.arange(users) * 5, np.arange(s) * 11
        user, rank, item = (cli._lookup("%d\t", ids)
                            for ids in (user_ids, np.arange(1, s + 1), items))
        peak = traced_peak(lambda: cli._write_table(
            tmp_path / "predictions.tsv", "", rows,
            lambda r: user(r // s), lambda r: rank(r % s), lambda r: item(ranked[r]),
            cli._formatted("%.17g\n", lambda r: Q[ranked[r], r // s])))
        assert peak <= 2**19 + 200 * (users + 2 * s)
        lines = (tmp_path / "predictions.tsv").read_text().splitlines()
        assert len(lines) == rows
        assert lines[s + 1] == "5\t2\t%d\t%.17g" % (items[ranked[s + 1]], Q[ranked[s + 1], 1])


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

    @pytest.mark.parametrize("flags", [
        ["train", "--algorithm", "wcf", "--latent-dim"],
        ["train", "--algorithm", "wf", "--folds"],
        ["train", "--algorithm", "wf", "--seed"],
        ["train", "--algorithm", "wcf", "--max-outer"],
        ["evaluate", "--scope"],
    ], ids=lambda flags: flags[-1])
    def test_fraction_for_an_integer_flag_is_not_an_integer(self, tmp_path, capsys, flags):
        assert main(flags + ["2.5", "--out", str(tmp_path / "never")]) == 1
        assert "argument %s: '2.5' is not an integer" % flags[-1] in capsys.readouterr().err
