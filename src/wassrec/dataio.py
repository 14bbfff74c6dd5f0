"""Interaction logs, tag-genome vectors, cold-start splits and JSON records.

Files are parsed as whole arrays first: one structured ``np.loadtxt``
per file, then vectorized checks.  Each file also has one complete
line reader that defines its behaviour, used when the array path
fails: a rating log that does not parse as an array (a malformed line,
a non-finite rating, the ``::`` format) is read line by line, because
the malformed-line budget is part of the contract: a few bad lines are
skipped and reported, too many are a hard error.  A genome has no such
budget; its line reader raises at the first bad line.
"""

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DataError

__all__ = [
    "InteractionTable",
    "GenomeTable",
    "ColdStartSplit",
    "load_interactions",
    "load_genome",
    "binarize",
    "filter_catalog",
    "build_cost_matrix",
    "cold_start_split",
    "write_split_manifest",
    "read_split_manifest",
]

FORMATS = {"tab": "\t", "double-colon": "::"}

# ratio of cold to interacted items -> (number of subsets in the item
# partition, role a single subset plays in each fold)
RATIOS = {"3:1": (4, "cold"), "1:1": (2, "cold"), "1:3": (4, "interacted")}

MAX_MALFORMED_FRACTION = 0.01

# rows per step of the genome pivot's cell index: ``np.searchsorted``
# copies its strided id column, so whole columns would add two
# row-length arrays beside the parsed rows and the index
PIVOT_BLOCK = 1 << 16

# the Python types of each kind of JSON value a record may require;
# JSON's only integers are ints, and a bool or a float names no count,
# seed, fold, item or user
_JSON_KINDS = {"an int": (int,), "a number": (int, float), "a string": (str,),
               "a list of ints": (int,), "a list of numbers": (int, float),
               "a list of objects": (dict,)}

_RATING_ROW = [("user", np.int64), ("item", np.int64), ("rating", np.float64),
               ("time", np.int64)]
_GENOME_ROW = [("movie", np.int64), ("tag", np.int64), ("relevance", np.float64)]


def _sorted_unique(values) -> np.ndarray:
    """The distinct values of an id array, ascending, as ``np.unique`` gives them.

    One sort and one neighbour comparison: NumPy 2's bare ``np.unique``
    asks ``np.ma.is_masked`` first, which imports ``numpy.ma``.
    """
    values = np.array(values).ravel()  # one copy, sorted in place
    values.sort()
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _unique_inverse(values):
    """``np.unique(values, return_inverse=True)`` of a 1-D int64 array.

    One argsort, with three row-length arrays live where ``np.unique``
    holds about six: the sorted copy's memory is reused for the ranks.
    """
    perm = np.argsort(values)
    ranks = values[perm]
    first = np.empty(ranks.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
    distinct = ranks[first]
    np.cumsum(first, out=ranks)  # each sorted value's place among the distinct, plus one
    ranks -= 1
    index = np.empty_like(perm)
    index[perm] = ranks
    return distinct, index


@dataclass(frozen=True)
class InteractionTable:
    """Column-oriented (user, item, rating, timestamp) records."""

    user_ids: np.ndarray
    item_ids: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.user_ids, dtype=np.int64)
        i = np.asarray(self.item_ids, dtype=np.int64)
        r = np.asarray(self.ratings, dtype=np.float64)
        t = np.asarray(self.timestamps, dtype=np.int64)
        if not (u.shape == i.shape == r.shape == t.shape) or u.ndim != 1:
            raise ValueError("table columns must be aligned 1-D arrays")
        object.__setattr__(self, "user_ids", u)
        object.__setattr__(self, "item_ids", i)
        object.__setattr__(self, "ratings", r)
        object.__setattr__(self, "timestamps", t)

    def __len__(self):
        return self.user_ids.size

    @property
    def users(self) -> np.ndarray:
        return _sorted_unique(self.user_ids)

    @property
    def items(self) -> np.ndarray:
        return _sorted_unique(self.item_ids)

    def _select(self, rows) -> "InteractionTable":
        """The records at ``rows``, a mask or an index array."""
        return InteractionTable(self.user_ids[rows], self.item_ids[rows],
                                self.ratings[rows], self.timestamps[rows])

    def restrict_items(self, keep) -> "InteractionTable":
        return self._select(np.isin(self.item_ids, np.asarray(list(keep), dtype=np.int64)))

    def restrict_users(self, keep) -> "InteractionTable":
        return self._select(np.isin(self.user_ids, np.asarray(list(keep), dtype=np.int64)))

    def by_user(self) -> dict:
        """Map user id -> (item id array, rating array), users ascending."""
        order = np.lexsort((self.item_ids, self.user_ids))
        users, starts = np.unique(self.user_ids[order], return_index=True)
        items = np.split(self.item_ids[order], starts[1:])
        vals = np.split(self.ratings[order], starts[1:])
        return {int(u): (i, v) for u, i, v in zip(users, items, vals)}


def _deduplicate(users, items, ratings, stamps):
    """Keep one record per (user, item): latest timestamp, ties to the
    record seen last in the file."""
    table = InteractionTable(users, items, ratings, stamps)
    arrival = np.arange(len(table))
    order = np.lexsort((arrival, table.timestamps, table.item_ids, table.user_ids))
    u, i = table.user_ids[order], table.item_ids[order]
    last = np.ones(u.size, dtype=bool)
    last[:-1] = (u[:-1] != u[1:]) | (i[:-1] != i[1:])
    keep = order[last]
    keep.sort()  # preserve file order of the survivors
    return table._select(keep)


def _int64(text) -> int:
    """``int(text)``; a value outside int64 raises ValueError like bad text."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError("%s does not fit in int64" % text)
    return value


def _loadtxt(fh, delimiter, dtype, usecols=None):
    """The rest of ``fh`` as a structured array; blank lines are skipped."""
    start = fh.tell()
    if not any(line.rstrip("\r\n") for line in fh):  # np.loadtxt would warn
        return np.empty(0, dtype=dtype)
    fh.seek(start)
    return np.loadtxt(fh, delimiter=delimiter, comments=None, usecols=usecols,
                      ndmin=1, dtype=dtype)


def load_interactions(path, fmt: str = "tab") -> InteractionTable:
    """Parse a rating log with fields user, item, rating, timestamp.

    ``fmt`` chooses the field separator: "tab" or "double-colon".
    Malformed lines are skipped with a warning carrying the count; if
    more than 1% of the lines are malformed the file is rejected.
    Repeated (user, item) pairs keep the latest timestamp.
    """
    if fmt not in FORMATS:
        raise DataError("unknown interaction format %r (use %s)"
                        % (fmt, sorted(FORMATS)))
    if fmt == "tab":  # np.loadtxt takes one-character delimiters only
        try:
            with open(path, encoding="utf-8") as fh:
                rows = _loadtxt(fh, "\t", _RATING_ROW)
        except ValueError:
            pass  # the line parser counts the malformed lines
        else:
            if rows.size and np.isfinite(rows["rating"]).all():
                return _deduplicate(rows["user"], rows["item"], rows["rating"], rows["time"])
    return _parse_rating_lines(path, FORMATS[fmt])


def _parse_rating_lines(path, sep) -> InteractionTable:
    """The line-by-line parser behind ``load_interactions``, with the budget."""
    users, items, ratings, stamps = [], [], [], []
    malformed = 0
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue
            total += 1
            parts = line.split(sep)
            if len(parts) != 4:
                malformed += 1
                continue
            try:
                u = _int64(parts[0])
                i = _int64(parts[1])
                r = float(parts[2])
                t = _int64(parts[3])
            except ValueError:
                malformed += 1
                continue
            if not np.isfinite(r):
                malformed += 1
                continue
            users.append(u)
            items.append(i)
            ratings.append(r)
            stamps.append(t)
    if total == 0:
        raise DataError("no records in %s" % path)
    if malformed > MAX_MALFORMED_FRACTION * total:
        raise DataError(
            "%d of %d lines malformed in %s; above the 1%% budget"
            % (malformed, total, path)
        )
    if malformed:
        warnings.warn("skipped %d malformed line(s) in %s" % (malformed, path))
    return _deduplicate(users, items, ratings, stamps)


def binarize(table: InteractionTable, threshold: float = 4.0) -> InteractionTable:
    """Keep records with rating >= threshold and set their rating to 1."""
    kept = table._select(table.ratings >= threshold)
    return replace(kept, ratings=np.ones(len(kept)))


@dataclass(frozen=True)
class GenomeTable:
    """Dense tag-relevance vectors, one row per item, scores in [0, 1]."""

    item_ids: np.ndarray
    tag_ids: np.ndarray
    relevance: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.item_ids, dtype=np.int64)
        tags = np.asarray(self.tag_ids, dtype=np.int64)
        rel = np.asarray(self.relevance, dtype=np.float64)
        if rel.shape != (ids.size, tags.size):
            raise ValueError("relevance shape %s does not match %d items x %d tags"
                             % (rel.shape, ids.size, tags.size))
        if np.any(np.diff(ids) <= 0) or np.any(np.diff(tags) <= 0):
            raise ValueError("item and tag ids must be strictly increasing")
        if np.any(rel < 0) or np.any(rel > 1) or not np.all(np.isfinite(rel)):
            raise ValueError("relevance scores must lie in [0, 1]")
        object.__setattr__(self, "item_ids", ids)
        object.__setattr__(self, "tag_ids", tags)
        object.__setattr__(self, "relevance", rel)

    def restrict(self, keep_ids) -> "GenomeTable":
        keep = np.isin(self.item_ids, np.asarray(list(keep_ids), dtype=np.int64))
        return GenomeTable(self.item_ids[keep], self.tag_ids, self.relevance[keep])


def load_genome(path) -> GenomeTable:
    """Read long-format (movieId, tagId, relevance) triples and pivot.

    The file must carry a header naming those three columns; comma and
    tab delimiters are both accepted.  Pairs absent for an otherwise
    present movie default to relevance 0 with a warning.  The first
    line that is malformed, has a relevance outside [0, 1] or repeats a
    pair is rejected by number.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if not header:
            raise DataError("empty genome file %s" % path)
        delim = "," if "," in header else "\t"
        names = [c.strip() for c in header.split(delim)]
        try:
            cols = (names.index("movieId"), names.index("tagId"),
                    names.index("relevance"))
        except ValueError:
            raise DataError(
                "genome header must name movieId, tagId and relevance; got %r"
                % (names,)
            ) from None
        body = fh.tell()
        try:
            rows = _loadtxt(fh, delim, _GENOME_ROW, usecols=cols)
        except ValueError:
            fh.seek(body)
            rows = _genome_lines(path, fh, delim, cols)

        # each row's cell, movie-major, found PIVOT_BLOCK rows at a time
        items, tags = _sorted_unique(rows["movie"]), _sorted_unique(rows["tag"])
        cells = np.empty(rows.size, dtype=np.intp)
        for start in range(0, rows.size, PIVOT_BLOCK):
            block = rows[start:start + PIVOT_BLOCK]
            cells[start:start + block.size] = (np.searchsorted(items, block["movie"]) * tags.size
                                               + np.searchsorted(tags, block["tag"]))
        rel = rows["relevance"]
        filled = np.zeros(items.size * tags.size, dtype=bool)
        filled[cells] = True
        present = np.count_nonzero(filled)
        del filled
        # NaN lies in no interval; a repeated pair fills fewer cells than rows
        if present < rows.size or not ((rel >= 0.0) & (rel <= 1.0)).all():
            fh.seek(body)
            _genome_lines(path, fh, delim, cols)  # raises at the first bad line
    if not rows.size:
        raise DataError("no genome records in %s" % path)

    relevance = np.zeros(items.size * tags.size)
    relevance[cells] = rel
    missing = relevance.size - present
    if missing:
        warnings.warn(
            "genome %s: %d (movie, tag) pair(s) absent, filled with relevance 0"
            % (path, missing)
        )
    return GenomeTable(items, tags, relevance.reshape(items.size, tags.size))


def _genome_lines(path, fh, delim, cols):
    """The line-by-line reader behind ``load_genome``: the rows of ``fh``.

    Raises DataError for the first line that is malformed (an id
    outside int64 included), has a relevance outside [0, 1] or repeats
    a (movie, tag) pair, numbered as in the file.
    """
    rows, seen = [], set()
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(delim)
        try:
            movie, tag = _int64(parts[cols[0]]), _int64(parts[cols[1]])
            rel = float(parts[cols[2]])
        except (ValueError, IndexError):
            raise DataError("%s line %d is malformed: %r" % (path, lineno, line)) from None
        if not 0.0 <= rel <= 1.0:
            raise DataError("%s line %d: relevance %g outside [0, 1]" % (path, lineno, rel))
        if (movie, tag) in seen:
            raise DataError("%s line %d: duplicate pair (%d, %d)" % (path, lineno, movie, tag))
        seen.add((movie, tag))
        rows.append((movie, tag, rel))
    return np.array(rows, dtype=_GENOME_ROW)


def filter_catalog(table: InteractionTable, genome: GenomeTable):
    """Drop interactions on items without genomes, and with them empty users.

    A user is only present through rows, so one restriction to the
    genome's items also drops every user left without interactions.
    Returns the reduced table and the genome restricted to the items
    that still occur.  Rejects the combination outright if nothing
    survives.
    """
    t = table.restrict_items(genome.item_ids)
    if len(t) == 0:
        raise DataError("no interactions survive catalog filtering")
    return t, genome.restrict(t.items)


def build_cost_matrix(genome: GenomeTable, row_ids, col_ids) -> np.ndarray:
    """Cosine-distance costs between interacted (rows) and cold (columns) items.

    Every item must have a genome with at least one positive score;
    costs are 1 - cosine similarity, clipped into [0, 2], in a float64 array.
    Beside the result, only the gathered unit vectors are held.
    """
    n = len(row_ids)
    ids = np.concatenate([np.asarray(row_ids, dtype=np.int64),
                          np.asarray(col_ids, dtype=np.int64)])
    pos = np.searchsorted(genome.item_ids, ids)
    found = pos < genome.item_ids.size
    found[found] = genome.item_ids[pos[found]] == ids[found]
    # the norm of each genome row as it is stored, for bit-stable costs
    norms = np.zeros(ids.size)
    norms[found] = [np.linalg.norm(genome.relevance[k]) for k in pos[found]]
    if not norms.all():  # the first bad id: rows before columns
        k = np.flatnonzero(norms == 0.0)[0]
        if not found[k]:
            raise DataError("item %d has no genome vector" % ids[k])
        raise DataError("item %d has an all-zero genome vector" % ids[k])
    # allocated before the unit vectors, whose memory, freed on return,
    # then lies above it for the next array to reuse
    cost = np.empty((n, ids.size - n))
    vecs = genome.relevance[pos]
    vecs /= norms[:, None]
    np.matmul(vecs[:n], vecs[n:].T, out=cost)
    np.subtract(1.0, cost, out=cost)
    return np.clip(cost, 0.0, 2.0, out=cost)


@dataclass(frozen=True)
class ColdStartSplit:
    """One fold of an item cold-start experiment.

    ``interacted_items`` (V) and ``cold_items`` (C) partition the item
    catalog; ``train`` holds the interactions on V, ``test`` those on C.
    """

    fold: int
    seed: int
    ratio: str
    interacted_items: tuple
    cold_items: tuple
    train: InteractionTable
    test: InteractionTable

    def __post_init__(self):
        if set(self.interacted_items) & set(self.cold_items):
            raise ValueError("interacted and cold item sets overlap")


def cold_start_split(table: InteractionTable, ratio: str = "3:1",
                     folds: int | None = None, seed: int = 0):
    """Partition the catalog into interacted/cold item sets, per fold.

    One permutation of the item catalog is drawn from ``seed`` and cut
    into equal subsets (4, 2 or 4 for ratios 3:1, 1:1, 1:3).  Fold i
    uses subset i as the cold set (ratios 3:1 and 1:1) or as the
    interacted set (ratio 1:3).  With the full fold count, every item
    is cold exactly once for 3:1 and 1:1, and cold exactly three times
    for 1:3.
    """
    if ratio not in RATIOS:
        raise DataError("unknown ratio %r (use %s)" % (ratio, sorted(RATIOS)))
    n_subsets, fold_role = RATIOS[ratio]
    if folds is None:
        folds = n_subsets
    if not 1 <= folds <= n_subsets:
        raise ValueError("folds must be in 1..%d for ratio %s" % (n_subsets, ratio))
    items = table.items
    if items.size < n_subsets:
        raise DataError(
            "%d items cannot be divided into %d subsets" % (items.size, n_subsets)
        )
    perm = np.random.default_rng(seed).permutation(items)
    subsets = np.array_split(perm, n_subsets)

    splits = []
    for f in range(folds):
        rest = np.concatenate([s for k, s in enumerate(subsets) if k != f])
        if fold_role == "cold":
            cold, interacted = subsets[f], rest
        else:
            interacted, cold = subsets[f], rest
        splits.append(ColdStartSplit(
            fold=f,
            seed=seed,
            ratio=ratio,
            interacted_items=tuple(int(i) for i in np.sort(interacted)),
            cold_items=tuple(int(i) for i in np.sort(cold)),
            train=table.restrict_items(interacted),
            test=table.restrict_items(cold),
        ))
    return splits


def _write_json(path, record) -> None:
    """Write ``record`` as JSON, indented and key-sorted, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_record(record, what, fields) -> None:
    """Require ``record`` to be a JSON object holding each key of ``fields``.

    ``fields`` maps a key to the kind of value it must hold, one of
    ``_JSON_KINDS``.  A record that is no object, or a key that is
    missing or of another kind, is a DataError naming ``what``.
    """
    if not isinstance(record, dict):
        raise DataError("%s is not a JSON object" % what)
    for key, kind in fields.items():
        values = record.get(key) if kind.startswith("a list") else [record.get(key)]
        if not isinstance(values, list) or any(type(v) not in _JSON_KINDS[kind] for v in values):
            raise DataError("%s: %r is missing or not %s" % (what, key, kind))


def write_split_manifest(splits, path) -> None:
    """Record ratio, seed and the exact item sets of every fold as JSON."""
    if not splits:
        raise ValueError("no splits to write")
    _write_json(path, {
        "ratio": splits[0].ratio,
        "seed": splits[0].seed,
        "folds": [
            {
                "fold": s.fold,
                "interacted": list(s.interacted_items),
                "cold": list(s.cold_items),
            }
            for s in splits
        ],
    })


def read_split_manifest(path) -> dict:
    """The JSON of ``write_split_manifest``: an object with its ratio (a
    string), seed (an int) and at least one fold, each an object naming its
    fold number (an int) and its interacted and cold items (lists of ints)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    what = "split manifest %s" % path
    _check_record(payload, what, {"ratio": "a string", "seed": "an int",
                                  "folds": "a list of objects"})
    if not payload["folds"]:
        raise DataError("%s lists no folds" % what)
    for k, entry in enumerate(payload["folds"]):
        _check_record(entry, "%s: fold entry %d" % (what, k),
                      {"fold": "an int", "interacted": "a list of ints", "cold": "a list of ints"})
    return payload

