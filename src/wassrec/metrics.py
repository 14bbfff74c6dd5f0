"""Ranking metrics over cold-item recommendation lists.

Every sum over ranks accumulates left to right in rank order: the
scalar metrics in a plain loop, ``evaluate_run`` as a row ``cumsum``
of a users x ranks hit matrix, whose additions of exact zeros at the
misses change nothing.  Results are reproducible bit for bit, and the
batched scores equal the scalar ones, which can be checked against
literal formula translations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError

__all__ = [
    "UserScores",
    "EvaluationReport",
    "average_precision",
    "ndcg_at",
    "recall_at",
    "evaluate_run",
    "write_report_files",
]


def _ranked_ids(ranked):
    """A sequence of item ids as a duplicate-free list."""
    ids = list(ranked)
    if len(set(ids)) != len(ids):
        raise ValueError("ranking contains duplicate items")
    return ids


def _item_array(ranked):
    """A sequence of item ids as an int64 array."""
    ids = np.asarray(ranked)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError("rankings must hold integer item ids")
    return ids.astype(np.int64, copy=False)


def _check_positives(ids, positives):
    positives = set(positives)
    if not positives:
        raise ValueError("positives must be nonempty")
    missing = positives.difference(ids)
    if missing:
        raise ValueError("positives %r are missing from the ranking" % (sorted(missing),))
    return positives


def average_precision(ranked, positives) -> float:
    """Mean of precision-at-r over the ranks r that hit a positive.

    Every positive must appear somewhere in the ranking (cold-start
    lists rank the whole cold catalog), so the denominator is the
    number of positives.
    """
    ids = _ranked_ids(ranked)
    pos = _check_positives(ids, positives)
    hits = 0
    total = 0.0
    for r, item in enumerate(ids, start=1):
        if item in pos:
            hits += 1
            total += hits / r
    return total / len(pos)


def ndcg_at(ranked, positives, scope: int) -> float:
    """Binary NDCG truncated at ``scope``: gain 1, discount log2(rank + 1).

    The ideal DCG places min(scope, #positives) hits at the top.
    """
    if scope < 1:
        raise ValueError("scope must be at least 1")
    ids = _ranked_ids(ranked)
    pos = _check_positives(ids, positives)
    dcg = 0.0
    for r, item in enumerate(ids[:scope], start=1):
        if item in pos:
            dcg += 1.0 / math.log2(r + 1)
    ideal = 0.0
    for r in range(1, min(scope, len(pos)) + 1):
        ideal += 1.0 / math.log2(r + 1)
    return dcg / ideal


def recall_at(ranked, positives, scope: int) -> float:
    """Fraction of the positives that appear in the top ``scope`` ranks."""
    if scope < 1:
        raise ValueError("scope must be at least 1")
    ids = _ranked_ids(ranked)
    pos = _check_positives(ids, positives)
    hits = sum(1 for item in ids[:scope] if item in pos)
    return hits / len(pos)


@dataclass(frozen=True)
class UserScores:
    ap: float
    ndcg: float
    recall: float


@dataclass(frozen=True)
class EvaluationReport:
    """Per-user and aggregate ranking quality for one evaluation run."""

    scope: int
    per_user: dict
    mean_ap: float
    mean_ndcg: float
    mean_recall: float
    evaluated_user_count: int
    excluded_user_count: int
    fold: int | None = None


def evaluate_run(predictions, test_interactions, scope: int = 20,
                 fold: int | None = None) -> EvaluationReport:
    """Score every predicted user against their held-out positives.

    ``predictions`` maps user id to a ranking of the cold catalog, a
    sequence of integer item ids.  ``test_interactions`` is an
    interaction table over cold items.  Users whose ranking exists but
    who have no test positives are excluded from the means and counted.
    A user with test positives but no ranking is an error: upstream code
    must either predict for every evaluable user or drop the user from
    the test table deliberately.  The scores equal
    ``average_precision``, ``ndcg_at`` and ``recall_at`` bit for bit,
    and a ranking those reject raises their error.
    """
    if scope < 1:
        raise ValueError("scope must be at least 1")
    given = list(predictions)
    users = np.array([int(u) for u in given], dtype=np.int64)
    pos_users = np.unique(test_interactions.user_ids)
    unpredicted = pos_users[~np.isin(pos_users, users)]
    if unpredicted.size:
        raise DataError(
            "users %r have test positives but no predictions" % (unpredicted[:5].tolist(),)
        )
    evaluable = np.isin(users, pos_users)
    if not evaluable.any():
        raise DataError("no evaluable users: every prediction lacks test positives")
    excluded = int(users.size - np.count_nonzero(evaluable))

    # every evaluable ranking, flattened, with its row and rank
    users = users[evaluable]
    rankings = [_item_array(predictions[u]) for u, e in zip(given, evaluable) if e]
    lengths = np.array([r.size for r in rankings])
    items = np.concatenate(rankings)
    row = np.repeat(np.arange(users.size), lengths)
    rank = np.arange(row.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)

    # (row, item) pairs as integer keys over a compact item vocabulary
    order = np.argsort(users)
    pos_row = order[np.searchsorted(users, test_interactions.user_ids, sorter=order)]
    vocab, code = np.unique(np.concatenate([items, test_interactions.item_ids]),
                            return_inverse=True)
    cells = row * vocab.size + code[:items.size]
    pos_cells = np.unique(pos_row * vocab.size + code[items.size:])
    hit = np.isin(cells, pos_cells)
    n_pos = np.bincount(pos_cells // vocab.size, minlength=users.size)
    cells.sort()
    repeated = np.zeros(users.size, dtype=bool)
    repeated[cells[1:][cells[1:] == cells[:-1]] // vocab.size] = True
    bad = repeated | (np.bincount(row[hit], minlength=users.size) < n_pos)
    if bad.any():  # the first such user raises the scalar metrics' error
        k = int(np.argmax(bad))
        positives = vocab[pos_cells[pos_cells // vocab.size == k] % vocab.size]
        average_precision(rankings[k].tolist(), positives.tolist())

    H = np.zeros((users.size, int(lengths.max())), dtype=bool)
    H[row, rank] = hit
    ranks = np.arange(1, H.shape[1] + 1)
    ap = np.where(H, np.cumsum(H, axis=1) / ranks, 0.0).cumsum(axis=1)[:, -1] / n_pos
    top = H[:, :scope]
    discount = np.array([1.0 / math.log2(r + 1) for r in ranks[:scope].tolist()])
    dcg = np.where(top, discount, 0.0).cumsum(axis=1)[:, -1]
    ndcg = dcg / np.cumsum(discount)[np.minimum(scope, n_pos) - 1]
    recall = np.count_nonzero(top, axis=1) / n_pos
    per_user = {u: UserScores(ap=a, ndcg=g, recall=r) for u, a, g, r in zip(
        users.tolist(), ap.tolist(), ndcg.tolist(), recall.tolist())}

    n = len(per_user)
    return EvaluationReport(
        scope=scope,
        per_user=per_user,
        mean_ap=sum(s.ap for _, s in sorted(per_user.items())) / n,
        mean_ndcg=sum(s.ndcg for _, s in sorted(per_user.items())) / n,
        mean_recall=sum(s.recall for _, s in sorted(per_user.items())) / n,
        evaluated_user_count=n,
        excluded_user_count=excluded,
        fold=fold,
    )


def write_report_files(reports, per_user_path, summary_path) -> None:
    """Serialize reports as two TSV files, one user row and one fold row each.

    Rows are sorted and floats fixed-format, so identical runs produce
    byte-identical files.
    """
    reports = sorted(reports, key=lambda r: (r.fold is not None, r.fold))
    with open(per_user_path, "w", encoding="utf-8") as fh:
        fh.write("fold\tuser\tap\tndcg\trecall\n")
        for rep in reports:
            fold = "-" if rep.fold is None else str(rep.fold)
            for user in sorted(rep.per_user):
                s = rep.per_user[user]
                fh.write("%s\t%d\t%.17g\t%.17g\t%.17g\n"
                         % (fold, user, s.ap, s.ndcg, s.recall))
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("fold\tscope\tevaluated_users\texcluded_users\tmap\tndcg\trecall\n")
        for rep in reports:
            fold = "-" if rep.fold is None else str(rep.fold)
            fh.write("%s\t%d\t%d\t%d\t%.17g\t%.17g\t%.17g\n"
                     % (fold, rep.scope, rep.evaluated_user_count,
                        rep.excluded_user_count, rep.mean_ap, rep.mean_ndcg,
                        rep.mean_recall))
