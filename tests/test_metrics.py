import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_ap, oracle_ndcg, oracle_recall
from wassrec import DataError
from wassrec.dataio import InteractionTable
from wassrec.metrics import evaluate_run, write_report_files


def _table(rows):
    u, i = zip(*rows)
    return InteractionTable(np.array(u), np.array(i), np.ones(len(u)),
                            np.zeros(len(u), dtype=np.int64))


def _score(ranked, positives, scope=20):
    """One user's scores, through ``evaluate_run``."""
    rep = evaluate_run({1: list(ranked)}, _table([(1, i) for i in positives]), scope=scope)
    return rep.per_user[1]


def _every_permutation(items, positives, scope):
    """Each permutation of ``items`` with its scores, from one run that
    holds every permutation as a user with the same positives."""
    perms = list(itertools.permutations(items))
    rows = [(u, i) for u in range(len(perms)) for i in positives]
    rep = evaluate_run(dict(enumerate(perms)), _table(rows), scope=scope)
    return [(list(perm), rep.per_user[u]) for u, perm in enumerate(perms)]


class TestAveragePrecision:
    def test_hand_example(self):
        # hits at ranks 1 and 3: (1/1 + 2/3) / 2
        assert _score([1, 2, 3], {1, 3}).ap == (1.0 + 2 / 3) / 2

    def test_perfect_and_worst_orderings(self):
        assert _score([1, 2, 3, 4], {1, 2}).ap == 1.0
        assert _score([3, 4, 1, 2], {1, 2}).ap == (1 / 3 + 2 / 4) / 2

    def test_requires_positives_in_ranking(self):
        with pytest.raises(ValueError, match="missing from the ranking"):
            _score([1, 2], {3})

    def test_matches_enumeration_exactly(self):
        items = list(range(4))
        for r in range(1, 5):
            for pos in map(set, itertools.combinations(items, r)):
                for perm, scores in _every_permutation(items, pos, 20):
                    assert scores.ap == oracle_ap(perm, pos)


class TestNdcg:
    def test_hand_example(self):
        # single positive at rank 2 of 2: 1/log2(3)
        val = _score([1, 2], {2}, scope=2).ndcg
        assert val == 1.0 / math.log2(3)
        assert val == pytest.approx(0.63092975357145743, rel=1e-15)

    def test_perfect_prefix_is_one(self):
        assert _score([5, 6, 7], {5, 6}, scope=2).ndcg == 1.0

    def test_scope_truncates(self):
        # the positive sits below the scope cutoff
        assert _score([1, 2, 3], {3}, scope=2).ndcg == 0.0

    def test_ideal_uses_min_scope_positives(self):
        # 3 positives but scope 2: ideal has hits at ranks 1 and 2 only
        val = _score([1, 2, 9, 3, 4], {1, 3, 4}, scope=2).ndcg
        assert val == (1.0) / (1.0 + 1.0 / math.log2(3))

    def test_matches_enumeration_exactly(self):
        items = list(range(4))
        for r in range(1, 5):
            for pos in map(set, itertools.combinations(items, r)):
                for scope in (1, 2, 4, 10):
                    for perm, scores in _every_permutation(items, pos, scope):
                        assert scores.ndcg == oracle_ndcg(perm, pos, scope)


class TestRecall:
    def test_hand_examples(self):
        assert _score([1, 2, 3, 4], {2, 4}, scope=2).recall == 0.5
        assert _score([1, 2, 3, 4], {2, 4}, scope=4).recall == 1.0
        assert _score([1, 2], {1, 2}, scope=1).recall == 0.5

    def test_matches_enumeration_exactly(self):
        items = list(range(4))
        for pos in map(set, itertools.combinations(items, 2)):
            for scope in (1, 3):
                for perm, scores in _every_permutation(items, pos, scope):
                    assert scores.recall == oracle_recall(perm, pos, scope)


class TestSwapMonotonicity:
    def test_promoting_a_positive_never_hurts(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            ids = list(range(n))
            rng.shuffle(ids)
            pos = set(int(i) for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            neg_ranks = [r for r, i in enumerate(ids) if i not in pos]
            pos_ranks = [r for r, i in enumerate(ids) if i in pos]
            above = [(a, b) for a in neg_ranks for b in pos_ranks if a < b]
            if not above:
                continue
            a, b = above[int(rng.integers(len(above)))]
            swapped = ids.copy()
            swapped[a], swapped[b] = swapped[b], swapped[a]
            scope = int(rng.integers(1, n + 1))
            before, after = _score(ids, pos, scope), _score(swapped, pos, scope)
            assert after.ap >= before.ap
            assert after.ndcg >= before.ndcg
            assert after.recall >= before.recall


class TestEvaluateRun:
    def test_small_run(self):
        predictions = {
            1: [10, 11, 12],
            2: [12, 10, 11],
            3: [10, 11, 12],  # no test positives: excluded
        }
        test = _table([(1, 10), (1, 12), (2, 11)])
        rep = evaluate_run(predictions, test, scope=2)
        assert rep.evaluated_user_count == 2
        assert rep.excluded_user_count == 1
        assert rep.per_user[1].ap == (1.0 + 2 / 3) / 2
        assert rep.per_user[2].ap == 1 / 3
        assert rep.mean_recall == (0.5 + 0.0) / 2
        assert rep.mean_ap == (rep.per_user[1].ap + rep.per_user[2].ap) / 2

    def test_unpredicted_evaluable_user_is_an_error(self):
        with pytest.raises(DataError, match="no predictions"):
            evaluate_run({1: [10]}, _table([(1, 10), (2, 10)]), scope=1)

    def test_scope_below_one_is_an_error(self):
        with pytest.raises(ValueError, match="scope must be at least 1"):
            evaluate_run({1: [10]}, _table([(1, 10)]), scope=0)

    def test_no_evaluable_users_is_an_error(self):
        test = _table([(9, 10)]).restrict_users([123])  # empty table
        with pytest.raises(DataError, match="no evaluable"):
            evaluate_run({1: [10]}, test, scope=1)

    def test_report_files_are_deterministic(self, tmp_path):
        predictions = {2: [10, 11], 1: [11, 10]}
        test = _table([(1, 11), (2, 11)])
        rep = evaluate_run(predictions, test, scope=2, fold=0)
        paths = [(tmp_path / ("u%d.tsv" % k), tmp_path / ("s%d.tsv" % k)) for k in (0, 1)]
        for per_user, summary in paths:
            write_report_files([rep], per_user, summary)
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
        lines = paths[0][0].read_text().splitlines()
        assert lines[0] == "fold\tuser\tap\tndcg\trecall"
        assert len(lines) == 3 and lines[1].startswith("0\t1\t")
        summary_lines = paths[0][1].read_text().splitlines()
        assert summary_lines[1].split("\t")[2] == "2"  # evaluated users


@st.composite
def runs(draw):
    """Rankings of a random part of a small catalog (ragged), positives
    among each ranking (at times none, at times repeated), and a scope."""
    catalog = list(range(100, 100 + draw(st.integers(1, 12))))
    users = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
    predictions, rows = {}, []
    for u in users:
        ranking = draw(st.permutations(catalog))[:draw(st.integers(0, len(catalog)))]
        predictions[u] = ranking
        positives = [i for i in ranking if draw(st.booleans())]
        rows += [(u, i) for i in positives + positives[:draw(st.integers(0, 1))]]
    if not rows:
        rows = [(users[0], predictions[users[0]][0])] if predictions[users[0]] else []
    return predictions, rows, draw(st.integers(1, 15))


class TestEvaluateRunAgainstScalarMetrics:
    @settings(max_examples=300, deadline=None)
    @given(runs())
    def test_bit_identical_to_scalar_metrics(self, run):
        predictions, rows, scope = run
        if not rows:
            with pytest.raises(DataError, match="no evaluable"):
                evaluate_run(predictions, _table([(0, 0)]).restrict_users([]), scope=scope)
            return
        test = _table(rows)
        rep = evaluate_run(predictions, test, scope=scope)
        positives = {}
        for u, i in rows:
            positives.setdefault(u, set()).add(i)
        want = {u: (oracle_ap(predictions[u], pos), oracle_ndcg(predictions[u], pos, scope),
                    oracle_recall(predictions[u], pos, scope)) for u, pos in positives.items()}
        assert {u: (s.ap, s.ndcg, s.recall) for u, s in rep.per_user.items()} == want
        assert list(rep.per_user) == [u for u in predictions if u in positives]
        assert rep.excluded_user_count == len(predictions) - len(positives)
        scores = [want[u] for u in sorted(want)]
        assert (rep.mean_ap, rep.mean_ndcg, rep.mean_recall) == tuple(
            sum(s[k] for s in scores) / len(scores) for k in range(3))

    @pytest.mark.parametrize("predictions, rows, want", [
        ({1: [10, 11, 10], 2: [10]}, [(1, 10), (2, 10)], "ranking contains duplicate items"),
        ({3: [10, 11], 1: [10, 11]}, [(3, 12), (1, 13)],
         "positives [12] are missing from the ranking"),
        ({1: [10, 11, 10], 2: [10, 12]}, [(2, 11), (1, 10)], "ranking contains duplicate items"),
        ({1: [10, 11]}, [(1, 14), (1, 10), (1, 12)],
         "positives [12, 14] are missing from the ranking"),
        ({2: [10, 10], 1: [11]}, [(1, 11)], None),  # no positives: not looked at
        ({1: [10.0, 11.0]}, [(1, 10)], "rankings must hold integer item ids"),
    ], ids=["duplicate", "missing-first-user", "duplicate-before-missing", "missing-sorted",
            "excluded-duplicate", "float-ids"])
    def test_invalid_rankings_raise_the_scalar_error(self, predictions, rows, want):
        # the first bad user in prediction order raises, with these messages
        if want is None:
            assert evaluate_run(predictions, _table(rows), scope=2).evaluated_user_count == 1
        else:
            with pytest.raises(ValueError) as err:
                evaluate_run(predictions, _table(rows), scope=2)
            assert str(err.value) == want
