import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassrec import DataError
from wassrec.dataio import InteractionTable
from wassrec.metrics import (
    EvaluationReport,
    average_precision,
    evaluate_run,
    ndcg_at,
    recall_at,
    write_report_files,
)


def oracle_ap(ids, pos):
    # literal formula: mean over positives of precision at their ranks,
    # accumulated in ascending rank order
    total = 0.0
    for r in range(1, len(ids) + 1):
        if ids[r - 1] in pos:
            total += sum(1 for k in range(r) if ids[k] in pos) / r
    return total / len(pos)


def oracle_ndcg(ids, pos, scope):
    dcg = 0.0
    for r in range(1, min(scope, len(ids)) + 1):
        if ids[r - 1] in pos:
            dcg += 1.0 / math.log2(r + 1)
    ideal = 0.0
    for r in range(1, min(scope, len(pos)) + 1):
        ideal += 1.0 / math.log2(r + 1)
    return dcg / ideal


def oracle_recall(ids, pos, scope):
    return sum(1 for i in ids[:scope] if i in pos) / len(pos)


class TestAveragePrecision:
    def test_hand_example(self):
        # hits at ranks 1 and 3: (1/1 + 2/3) / 2
        assert average_precision(["a", "b", "c"], {"a", "c"}) == (1.0 + 2 / 3) / 2

    def test_perfect_and_worst_orderings(self):
        assert average_precision([1, 2, 3, 4], {1, 2}) == 1.0
        assert average_precision([3, 4, 1, 2], {1, 2}) == (1 / 3 + 2 / 4) / 2

    def test_requires_positives_in_ranking(self):
        with pytest.raises(ValueError):
            average_precision([1, 2], {3})
        with pytest.raises(ValueError):
            average_precision([1, 2], set())

    def test_matches_enumeration_exactly(self):
        items = list(range(4))
        for perm in itertools.permutations(items):
            for r in range(1, 5):
                for pos in itertools.combinations(items, r):
                    assert average_precision(perm, set(pos)) == oracle_ap(perm, set(pos))


class TestNdcg:
    def test_hand_example(self):
        # single positive at rank 2 of 2: 1/log2(3)
        val = ndcg_at(["a", "b"], {"b"}, scope=2)
        assert val == 1.0 / math.log2(3)
        assert val == pytest.approx(0.63092975357145743, rel=1e-15)

    def test_perfect_prefix_is_one(self):
        assert ndcg_at([5, 6, 7], {5, 6}, scope=2) == 1.0

    def test_scope_truncates(self):
        # the positive sits below the scope cutoff
        assert ndcg_at([1, 2, 3], {3}, scope=2) == 0.0

    def test_ideal_uses_min_scope_positives(self):
        # 3 positives but scope 2: ideal has hits at ranks 1 and 2 only
        val = ndcg_at([1, 2, 9, 3, 4], {1, 3, 4}, scope=2)
        assert val == (1.0) / (1.0 + 1.0 / math.log2(3))

    def test_matches_enumeration_exactly(self):
        items = list(range(4))
        for perm in itertools.permutations(items):
            for r in range(1, 5):
                for pos in itertools.combinations(items, r):
                    for scope in (1, 2, 4, 10):
                        assert ndcg_at(perm, set(pos), scope) == oracle_ndcg(
                            list(perm), set(pos), scope
                        )


class TestRecall:
    def test_hand_examples(self):
        assert recall_at([1, 2, 3, 4], {2, 4}, scope=2) == 0.5
        assert recall_at([1, 2, 3, 4], {2, 4}, scope=4) == 1.0
        assert recall_at([1, 2], {1, 2}, scope=1) == 0.5

    def test_matches_enumeration_exactly(self):
        items = list(range(4))
        for perm in itertools.permutations(items):
            for pos in itertools.combinations(items, 2):
                for scope in (1, 3):
                    assert recall_at(perm, set(pos), scope) == oracle_recall(
                        list(perm), set(pos), scope
                    )


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
            assert average_precision(swapped, pos) >= average_precision(ids, pos)
            assert ndcg_at(swapped, pos, scope) >= ndcg_at(ids, pos, scope)
            assert recall_at(swapped, pos, scope) >= recall_at(ids, pos, scope)


def _table(rows):
    u, i = zip(*rows)
    return InteractionTable(np.array(u), np.array(i), np.ones(len(u)),
                            np.zeros(len(u), dtype=np.int64))


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
        want = {u: (average_precision(predictions[u], pos), ndcg_at(predictions[u], pos, scope),
                    recall_at(predictions[u], pos, scope)) for u, pos in positives.items()}
        assert {u: (s.ap, s.ndcg, s.recall) for u, s in rep.per_user.items()} == want
        assert list(rep.per_user) == [u for u in predictions if u in positives]
        assert rep.excluded_user_count == len(predictions) - len(positives)
        scores = [want[u] for u in sorted(want)]
        assert (rep.mean_ap, rep.mean_ndcg, rep.mean_recall) == tuple(
            sum(s[k] for s in scores) / len(scores) for k in range(3))

    @pytest.mark.parametrize("predictions, rows", [
        ({1: [10, 11, 10], 2: [10]}, [(1, 10), (2, 10)]),
        ({3: [10, 11], 1: [10, 11]}, [(3, 12), (1, 13)]),
        ({1: [10, 11, 10], 2: [10, 12]}, [(2, 11), (1, 10)]),
        ({2: [10, 10], 1: [11]}, [(1, 11)]),  # no positives: not looked at
    ])
    def test_invalid_rankings_raise_the_scalar_error(self, predictions, rows):
        positives = {}
        for u, i in rows:
            positives.setdefault(u, set()).add(i)
        want = None
        for u in predictions:
            if u in positives:
                try:
                    average_precision(predictions[u], positives[u])
                except ValueError as err:
                    want = str(err)
                    break
        if want is None:
            assert evaluate_run(predictions, _table(rows), scope=2).evaluated_user_count == 1
        else:
            with pytest.raises(ValueError) as err:
                evaluate_run(predictions, _table(rows), scope=2)
            assert str(err.value) == want
