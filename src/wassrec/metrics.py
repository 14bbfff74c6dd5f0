"""Ranking metrics over cold-item recommendation lists.

``evaluate_run`` scores a whole run from one users x ranks hit matrix.
Every sum over ranks accumulates left to right in rank order, as a row
``cumsum`` whose additions of exact zeros at the misses change nothing,
so the scores are reproducible bit for bit and equal literal formula
translations that sum in the same order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataio import _sorted_unique, _unique_inverse
from .exceptions import DataError

__all__ = [
    "UserScores",
    "EvaluationReport",
    "evaluate_run",
    "write_report_files",
]


def _item_array(ranked):
    """A sequence of item ids as an int64 array."""
    ids = np.asarray(ranked)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError("rankings must hold integer item ids")
    return ids.astype(np.int64, copy=False)


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
    interaction table over cold items.  Per user:

    * AP is the mean of precision-at-r over the ranks r that hit a
      positive, divided by the number of positives;
    * NDCG is binary DCG over the top ``scope`` ranks (gain 1, discount
      1/log2(rank + 1)) over the ideal DCG of min(scope, #positives)
      hits at the top;
    * recall is the fraction of the positives in the top ``scope`` ranks.

    Users whose ranking exists but who have no test positives are
    excluded from the means and counted.  A user with test positives but
    no ranking is an error: upstream code must either predict for every
    evaluable user or drop the user from the test table deliberately.
    Every positive must appear in its user's ranking (cold-start lists
    rank the whole cold catalog), and no ranking may repeat an item; the
    first user in ``predictions`` order that breaks either rule raises
    ``ValueError``.
    """
    if scope < 1:
        raise ValueError("scope must be at least 1")
    given = list(predictions)
    users = np.array([int(u) for u in given], dtype=np.int64)
    pos_users = _sorted_unique(test_interactions.user_ids)
    unpredicted = pos_users[~np.isin(pos_users, users)]
    if unpredicted.size:
        raise DataError(
            "users %r have test positives but no predictions" % (unpredicted[:5].tolist(),)
        )
    evaluable = np.isin(users, pos_users)
    if not evaluable.any():
        raise DataError("no evaluable users: every prediction lacks test positives")
    excluded = int(users.size - np.count_nonzero(evaluable))

    # every evaluable ranking, flattened, as (row, item) integer keys over
    # a compact item vocabulary: row * vocab.size + the item's place in it
    users = users[evaluable]
    rankings = [_item_array(predictions[u]) for u, e in zip(given, evaluable) if e]
    lengths = np.array([r.size for r in rankings])
    vocab, code = _unique_inverse(np.concatenate([*rankings, test_interactions.item_ids]))
    cells = code[:code.size - len(test_interactions)]
    cells += np.repeat(np.arange(users.size) * vocab.size, lengths)
    order = np.argsort(users)
    pos_row = order[np.searchsorted(users, test_interactions.user_ids, sorter=order)]
    pos_cells = _sorted_unique(pos_row * vocab.size + code[cells.size:])
    n_pos = np.bincount(pos_cells // vocab.size, minlength=users.size)
    # row u's ranks, left-aligned, flag its positives; the mask's True
    # cells, in row-major order, are the flattened rankings' order
    H = np.zeros((users.size, int(lengths.max())), dtype=bool)
    H[np.arange(H.shape[1]) < lengths[:, None]] = np.isin(cells, pos_cells)
    cells.sort()
    repeated = np.zeros(users.size, dtype=bool)
    repeated[cells[1:][cells[1:] == cells[:-1]] // vocab.size] = True
    bad = repeated | (np.count_nonzero(H, axis=1) < n_pos)
    if bad.any():
        k = int(np.argmax(bad))
        if repeated[k]:
            raise ValueError("ranking contains duplicate items")
        positives = vocab[pos_cells[pos_cells // vocab.size == k] % vocab.size]
        raise ValueError("positives %r are missing from the ranking"
                         % (np.setdiff1d(positives, rankings[k]).tolist(),))

    ranks = np.arange(1, H.shape[1] + 1)
    # precision at each rank, kept at the hits, summed left to right in place
    precision = np.cumsum(H, axis=1, dtype=np.float64)
    precision /= ranks
    precision[~H] = 0.0
    ap = np.cumsum(precision, axis=1, out=precision)[:, -1] / n_pos
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

    Rows are sorted and floats written as ``%.17g``, 17 significant
    digits that read back to the same value, so identical runs produce
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
