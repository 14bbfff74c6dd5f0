"""Command-line pipeline: prepare a catalog, train per fold, evaluate.

Three subcommands share one output directory (flag --out, falling back
to the WASSREC_OUT environment variable, then ./wassrec-out):

* prepare: parse ratings and tag-relevance files, binarize, drop items
  without content vectors, and write the filtered tables plus a stats
  record under <out>/prepared/: each table as one ``.npy`` array per
  column (``PREPARED`` names them), and as text (``interactions.tsv``,
  ``genome.csv``), the readable copies.
* train: read the prepared arrays, build the cold-start splits, fit wf
  or wcf per fold, and write ranked predictions (and wcf model
  directories) under <out>/runs/: each user's cold items by score
  descending, ties to the smaller id.
* evaluate: score every run against the held-out cold interactions,
  read from the prepared arrays, and write per-user and summary tables
  under <out>/reports/.  Each run must hold exactly the split
  manifest's folds, and each user in a prediction file must rank
  exactly the fold's cold items.

Each flag value is checked once, by its argparse type, before any file
is read or written; ``main`` then checks --folds against the --ratio's
subset count, also as a usage error.  ``main`` resolves the output
directory to a Path on the parsed namespace and hands that namespace to
the stage's ``cmd_*`` function.

``train`` and ``evaluate`` never parse prepared text: ``_save_prepared``
and ``_load_prepared`` write and read the arrays, which equal the text
tables read back by ``load_interactions`` and ``load_genome`` in dtype,
shape and bytes, and are checked as outside input on load.

Each stage imports only the modules it runs, so a sweep that starts one
process per stage pays for no other stage's code: ``prepare`` loads
this module, ``dataio`` and ``exceptions``; ``evaluate`` adds
``metrics``; ``train`` loads every module but ``metrics``.  The solver
and metric imports therefore sit in ``cmd_train`` and ``cmd_evaluate``.

``train`` goes through a fold by blocks of ``INFER_BLOCK`` users, the
blocks ``infer_cold`` forms its products over: wf builds one block's
histograms and infers its scores, and both algorithms rank one block at
a time into the fold's ranking.  Beside the fold's data, cost, scores
and ranking, wf holds one block of users, never the n x m histogram
stack; wcf trains on that whole stack.  The genome is dropped once the
last fold's cost is built.

The prepared tables and the predictions are written by one writer,
``_write_table``, WRITE_BLOCK lines at a time.  Its columns are
functions from an array of row numbers to those rows' texts.  A
``_lookup`` formats each distinct value once (ids, ranks, ratings,
genome relevances); ``_formatted`` formats plain values one block at a
time (timestamps, scores).  A column derived from the row number (a
user repeated over its ranks, a tag tiled over the items, an item or a
score gathered through a ranking) is a lambda over those two, so a
write holds one block plus the distinct texts beside its inputs.  The
reports have writers of their own, in ``metrics`` and ``cmd_evaluate``.

Every file the pipeline writes is deterministic for fixed flags, seed
and BLAS thread count: reruns are byte-identical.  Exit codes: 0
success, 1 usage error, 2 data error, 3 solver failure.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .dataio import (
    FORMATS,
    RATIOS,
    GenomeTable,
    InteractionTable,
    _sorted_unique,
    _unique_inverse,
    _write_json,
    binarize,
    build_cost_matrix,
    cold_start_split,
    filter_catalog,
    load_genome,
    load_interactions,
    read_split_manifest,
    write_split_manifest,
)
from .exceptions import DataError, SolverError

__all__ = ["main", "app", "build_parser"]

OUT_ENV = "WASSREC_OUT"
DEFAULT_OUT = "wassrec-out"
PREDICTION_HEADER = "user\trank\titem\tscore"
# rows per write: _write_table asks every column for this many rows at a
# time; formatting a whole column at once would hold one text per row
# (about 20 MB for 200k 17-digit floats)
WRITE_BLOCK = 1 << 10
# prepare's tables as train and evaluate read them: table -> its class and
# each field's dtype and dimension count, stored as prepared/<table>_<field>.npy
PREPARED = {
    "interactions": (InteractionTable, {"user_ids": (np.int64, 1), "item_ids": (np.int64, 1),
                                        "ratings": (np.float64, 1),
                                        "timestamps": (np.int64, 1)}),
    "genome": (GenomeTable, {"item_ids": (np.int64, 1), "tag_ids": (np.int64, 1),
                             "relevance": (np.float64, 2)}),
}


def _finite(kind, low=0):
    """An argparse type: the text as a finite ``kind`` above ``low``."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not %s" % (
                text, "an integer" if kind is int else "a number")) from None
        if not low < value < np.inf:
            raise argparse.ArgumentTypeError("must be a finite number above %s, got %r"
                                             % (low, text))
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassrec",
        description="Cold-start recommendation via smoothed optimal transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out",
        help="output directory (default: $%s, then ./%s)" % (OUT_ENV, DEFAULT_OUT),
    )

    p = sub.add_parser("prepare", parents=[common],
                       help="parse, binarize and filter the input catalog")
    p.add_argument("--ratings", required=True, help="interaction file")
    p.add_argument("--genome", required=True, help="tag-relevance file")
    p.add_argument("--format", choices=sorted(FORMATS), default="tab",
                   help="ratings field delimiter (default tab)")
    p.add_argument("--threshold", type=_finite(float, low=-np.inf), default=4.0,
                   help="keep interactions rated at least this (default 4)")
    p.set_defaults(func=cmd_prepare)

    t = sub.add_parser("train", parents=[common],
                       help="split the catalog and fit one algorithm per fold")
    t.add_argument("--algorithm", choices=("wf", "wcf"), required=True)
    t.add_argument("--gamma", type=_finite(float), default=0.05,
                   help="entropic smoothing (default 0.05)")
    t.add_argument("--latent-dim", dest="latent_dim", type=_finite(int), default=30,
                   help="wcf factorization rank (default 30)")
    t.add_argument("--ratio", choices=sorted(RATIOS), default="3:1",
                   help="interacted:cold item ratio (default 3:1)")
    t.add_argument("--folds", type=_finite(int), default=None,
                   help="fold count (default: every subset once)")
    t.add_argument("--seed", type=_finite(int, low=-1), default=0, help="split and init seed")
    t.add_argument("--tol", type=_finite(float), default=1e-5,
                   help="wcf outer-loop relative tolerance (default 1e-5)")
    t.add_argument("--max-outer", dest="max_outer", type=_finite(int), default=50,
                   help="wcf outer-iteration cap (default 50)")
    t.set_defaults(func=cmd_train, subparser=t)

    e = sub.add_parser("evaluate", parents=[common],
                       help="score trained runs against held-out cold items")
    e.add_argument("--scope", type=_finite(int), default=20,
                   help="ranking cutoff for NDCG and recall (default 20)")
    e.add_argument("--algorithm", choices=("wf", "wcf"), default=None,
                   help="evaluate one algorithm (default: every run found)")
    e.set_defaults(func=cmd_evaluate)
    return parser


def cmd_prepare(args) -> int:
    # an unusable --out fails here, before the inputs are parsed
    prepared = args.out / "prepared"
    prepared.mkdir(parents=True, exist_ok=True)

    table = load_interactions(args.ratings, fmt=args.format)
    table = binarize(table, threshold=args.threshold)
    genome = load_genome(args.genome)
    table, genome = filter_catalog(table, genome)

    # one record per (user, item) is left, so no pair of rows ties
    table = table._select(np.lexsort((table.item_ids, table.user_ids)))
    _save_prepared(prepared, "interactions", table)
    _write_table(prepared / "interactions.tsv", "", len(table),
                 _lookup("%d\t", table.user_ids), _lookup("%d\t", table.item_ids),
                 _lookup("%.17g\t", table.ratings),
                 _formatted("%d\n", table.timestamps.__getitem__))
    _save_prepared(prepared, "genome", genome)
    # %r of a float is its shortest text that reads back to the same value
    tags = genome.tag_ids.size
    item, tag = _lookup("%d,", genome.item_ids), _lookup("%d,", genome.tag_ids)
    _write_table(prepared / "genome.csv", "movieId,tagId,relevance\n", genome.relevance.size,
                 lambda r: item(r // tags), lambda r: tag(r % tags),
                 _lookup("%r\n", genome.relevance))

    n_users = int(table.users.size)
    n_items = int(table.items.size)
    _write_json(prepared / "stats.json", {
        "users": n_users,
        "items": n_items,
        "interactions": len(table),
        "density": len(table) / (n_users * n_items),
    })

    print("prepared %d interactions (%d users, %d items) -> %s"
          % (len(table), n_users, n_items, prepared))
    return 0


def _array_path(prepared, name, field):
    return prepared / ("%s_%s.npy" % (name, field))


def _save_prepared(prepared, name, table) -> None:
    """Write each field of ``table`` as the array ``PREPARED[name]`` names."""
    for field in PREPARED[name][1]:
        np.save(_array_path(prepared, name, field), getattr(table, field), allow_pickle=False)


def _load_prepared(prepared, name):
    """The table ``name`` of ``PREPARED``, read from its arrays under ``prepared``.

    A missing array, one ``np.load`` refuses, one of another dtype or
    dimension count, or arrays the table's class refuses are a DataError
    that names the file (the table's files, for the class's checks).
    """
    kind, fields = PREPARED[name]
    columns = {}
    for field, (dtype, ndim) in fields.items():
        path = _array_path(prepared, name, field)
        try:
            with open(path, "rb") as fh:
                array = np.load(fh, allow_pickle=False)
        except FileNotFoundError:
            raise DataError("%s is missing: run prepare again to write it" % path) from None
        except (ValueError, EOFError) as err:
            raise DataError("%s is not a readable array: %s" % (path, err)) from None
        if not isinstance(array, np.ndarray):
            raise DataError("%s is not a .npy array" % path)
        if array.dtype != dtype or array.ndim != ndim:
            raise DataError("%s holds a %d-D %s array, not %d-D %s"
                            % (path, array.ndim, array.dtype, ndim, np.dtype(dtype)))
        columns[field] = array
    try:
        return kind(**columns)
    except ValueError as err:
        raise DataError("%s: %s" % (_array_path(prepared, name, "*"), err)) from None


def _fold_histograms(split):
    """Trainable users, ascending, and a builder of their preference histograms.

    ``histograms(cols)`` is the n x k stack of the k users in the slice
    ``cols`` of that list, one column each: a user's histogram is over
    the fold's interacted items, scaled to mass 1 (the solvers validate
    every column).  Any column range equals the same columns of the
    whole range bit for bit, so the stack can be built one block of
    users at a time.  Users whose every interaction fell on cold items
    have no training signal and are left out.
    """
    users, column = _unique_inverse(split.train.user_ids)
    interacted = np.asarray(split.interacted_items, dtype=np.int64)
    item = np.searchsorted(interacted, split.train.item_ids)
    ratings = split.train.ratings

    def histograms(cols):
        start, stop, _ = cols.indices(users.size)
        rows = (column >= start) & (column < stop)
        H = np.zeros((stop - start, interacted.size))
        H[column[rows] - start, item[rows]] = ratings[rows]
        H /= H.sum(axis=1, keepdims=True)
        return H.T

    return users.tolist(), histograms


def _lookup(field, values):
    """A column of ``_write_table``: row r shows ``field % values[r]``.

    Each distinct value is formatted once, and values are told apart by
    their bits, so -0.0 and 0.0 keep their own texts (``np.unique`` of
    the floats would merge them).
    """
    values = np.ravel(values)
    bits, index = _unique_inverse(values.view(np.int64))
    texts = np.array([field % v for v in bits.view(values.dtype).tolist()], dtype=object)
    return lambda rows: texts[index[rows]]


def _formatted(field, values):
    """A column of ``_write_table``: row r shows ``field % values(r)``, formatted per block."""
    return lambda rows: list(map(field.__mod__, values(rows).tolist()))


def _write_table(path, header, size, *columns) -> None:
    """Write ``header``, then rows 0 to ``size - 1``, each its columns' texts joined.

    A column is a function from an array of row numbers to the texts of
    those rows, each text ending in its separator or newline.  The
    writer asks every column for one block of WRITE_BLOCK rows at a
    time, gathers the texts into an object array and writes the block
    with one ``"".join``, so a write holds one block beside what its
    columns hold.
    """
    cells = np.empty((WRITE_BLOCK, len(columns)), dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for start in range(0, size, WRITE_BLOCK):
            rows = np.arange(start, min(start + WRITE_BLOCK, size))
            for j, column in enumerate(columns):
                cells[:rows.size, j] = column(rows)
            fh.write("".join(cells[:rows.size].ravel().tolist()))


def cmd_train(args) -> int:
    from .transport import GibbsKernel
    from .wcf import _clean_histogram, save_model, train_wcf
    from .wfilter import INFER_BLOCK, infer_cold, rank_order

    out = args.out
    table = _load_prepared(out / "prepared", "interactions")
    genome = _load_prepared(out / "prepared", "genome")

    splits = cold_start_split(table, ratio=args.ratio, folds=args.folds, seed=args.seed)
    del table  # each split holds its own train and test rows
    (out / "splits").mkdir(parents=True, exist_ok=True)
    write_split_manifest(splits, out / "splits" / "manifest.json")

    for split in splits:
        run_dir = out / "runs" / args.algorithm / ("fold%d" % split.fold)
        run_dir.mkdir(parents=True, exist_ok=True)

        users, histograms = _fold_histograms(split)
        dropped = np.count_nonzero(np.isin(split.test.users, users, assume_unique=True,
                                           invert=True))
        if dropped:
            print("fold %d: skipping %d user(s) with no training interactions"
                  % (split.fold, dropped), file=sys.stderr)

        cost = build_cost_matrix(genome, split.interacted_items, split.cold_items)
        if split is splits[-1]:
            del genome  # no later fold builds a cost from it
        s, n, m = len(split.cold_items), len(split.interacted_items), len(users)
        # user blocks at multiples of INFER_BLOCK, the products infer_cold runs
        blocks = [slice(start, start + INFER_BLOCK) for start in range(0, m, INFER_BLOCK)]
        if args.algorithm == "wf":
            kernel = GibbsKernel(cost, args.gamma)
            Q = np.empty((s, m))
            for cols in blocks:
                Q[:, cols] = infer_cold(histograms(cols), kernel)
            del kernel
        else:
            k = min(args.latent_dim, s, n, m)
            if k < args.latent_dim:
                print("fold %d: latent dim clamped to %d (%d cold items, "
                      "%d interacted items, %d users)"
                      % (split.fold, k, s, n, m), file=sys.stderr)
            model = train_wcf(histograms(slice(None)).T, cost, k=k, gamma=args.gamma,
                              tol=args.tol, max_outer=args.max_outer, seed=args.seed,
                              user_ids=users, item_ids=split.cold_items)
            save_model(model, run_dir / "model")
            trace = model.objective_trace
            print("fold %d: objective %.6g -> %.6g over %d half-steps"
                  % (split.fold, trace[0], trace[-1], len(trace)))
            Q = _clean_histogram(model.dictionary @ model.loadings)
        del histograms, cost  # not held while the predictions are ranked and written

        # row u: user u's cold items by rank, best first, as rows of Q; raveled,
        # row r is user r // s's rank r % s + 1, and ranked[r] its item's row of Q
        ranked = np.empty((m, s), dtype=np.intp)
        for cols in blocks:
            ranked[cols] = rank_order(Q[:, cols], split.cold_items).T
        ranked = ranked.ravel()
        user, rank, item = (_lookup("%d\t", ids)
                            for ids in (users, np.arange(1, s + 1), split.cold_items))
        _write_table(run_dir / "predictions.tsv", PREDICTION_HEADER + "\n", ranked.size,
                     lambda r: user(r // s), lambda r: rank(r % s), lambda r: item(ranked[r]),
                     _formatted("%.17g\n", lambda r: Q[ranked[r], r // s]))
        print("fold %d: wrote %d rankings -> %s"
              % (split.fold, m, run_dir / "predictions.tsv"))
        del Q, ranked  # not held through the next fold's solve
    return 0


def _read_predictions(path, cold):
    """Parse a predictions file: its users, ascending, and their rankings.

    Row u of the users x s item matrix holds user u's item ids in rank
    order; every user must rank exactly the s items of ``cold``, and
    every score must be a finite number.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != PREDICTION_HEADER:
            raise DataError("%s: unexpected header %r" % (path, header))
        start, last = fh.tell(), "\n"
        for chunk in iter(lambda: fh.read(1 << 20), ""):
            if "\n\n" in last + chunk:  # np.loadtxt would skip blank lines
                raise DataError("%s: blank line" % path)
            last = chunk[-1]
        if fh.tell() == start:
            raise DataError("%s contains no predictions" % path)
        fh.seek(start)
        try:
            rows = np.loadtxt(fh, delimiter="\t", comments=None, ndmin=1, dtype=[
                ("user", np.int64), ("rank", np.int64), ("item", np.int64), ("score", float)])
        except ValueError as err:
            raise DataError("%s: malformed row: %s" % (path, err)) from None
    user, rank = rows["user"], rows["rank"]
    # train writes (user, rank) order; sort only a file that is out of it
    if np.any((user[1:] < user[:-1]) | ((user[1:] == user[:-1]) & (rank[1:] < rank[:-1]))):
        rows = rows[np.lexsort((rank, user))]
        user, rank = rows["user"], rows["rank"]
    finite = np.isfinite(rows["score"])
    if not finite.all():
        raise DataError("%s: user %d has a non-finite score" % (path, user[finite.argmin()]))
    opens = np.ones(rows.size, dtype=bool)  # a user's first row
    np.not_equal(user[1:], user[:-1], out=opens[1:])
    first = np.flatnonzero(opens)
    users, counts = user[first], np.diff(first, append=rows.size)
    # a user's ranks run 1, 2, ...: each row one above the row before
    gaps = np.ones(rows.size, dtype=bool)
    np.not_equal(rank[1:] - rank[:-1], 1, out=gaps[1:])
    gaps[first] = rank[first] != 1
    if gaps.any():
        raise DataError("%s: user %d has non-contiguous ranks" % (path, user[gaps.argmax()]))
    cold = _sorted_unique(np.asarray(cold, dtype=np.int64))
    full = counts == cold.size
    ranked = rows["item"][np.repeat(full, counts)].reshape(np.count_nonzero(full), cold.size)
    del rows, user, rank  # the parsed rows are not held through the sort below
    wrong = ~full
    wrong[full] = (np.sort(ranked, axis=1) != cold).any(axis=1)
    if wrong.any():
        raise DataError("%s: user %d does not rank exactly the fold's %d cold items"
                        % (path, users[wrong.argmax()], cold.size))
    return users, ranked


def cmd_evaluate(args) -> int:
    from .metrics import evaluate_run, write_report_files

    out = args.out
    manifest_path = out / "splits" / "manifest.json"
    manifest = read_split_manifest(manifest_path)
    folds = sorted("fold%d" % f["fold"] for f in manifest["folds"])
    table = _load_prepared(out / "prepared", "interactions")

    runs_dir = out / "runs"
    algorithms = ([args.algorithm] if args.algorithm
                  else sorted(d.name for d in runs_dir.glob("*") if d.is_dir()))
    if not algorithms:
        raise DataError("no runs found under %s" % runs_dir)
    # a later train into the same --out rewrites the manifest
    for algo in algorithms:
        found = sorted(d.name for d in (runs_dir / algo).glob("fold*") if d.is_dir())
        if found != folds:
            raise DataError("%s holds %s, but the split manifest %s lists %s"
                            % (runs_dir / algo, found, manifest_path, folds))

    summary_rows = []
    for algo in algorithms:
        reports, rows = [], []
        for fold_info in manifest["folds"]:
            fold = fold_info["fold"]
            pred_path = runs_dir / algo / ("fold%d" % fold) / "predictions.tsv"
            users, ranked = _read_predictions(pred_path, fold_info["cold"])
            test = table.restrict_items(fold_info["cold"])
            dropped = np.count_nonzero(np.isin(test.users, users, assume_unique=True,
                                               invert=True))
            if dropped:
                print("%s fold %d: %d evaluable user(s) had no predictions"
                      % (algo, fold, dropped), file=sys.stderr)
            r = evaluate_run(dict(zip(users.tolist(), ranked)), test.restrict_users(users),
                             scope=args.scope, fold=fold)
            reports.append(r)
            rows.append((algo, str(fold), args.scope, r.evaluated_user_count,
                         r.excluded_user_count, dropped, r.mean_ap, r.mean_ndcg, r.mean_recall))

        rep_dir = out / "reports" / algo
        rep_dir.mkdir(parents=True, exist_ok=True)
        write_report_files(reports, rep_dir / "per_user.tsv", rep_dir / "summary.tsv")
        cols, n = list(zip(*rows)), len(rows)
        mean = (algo, "mean", args.scope, *map(sum, cols[3:6]), *(sum(c) / n for c in cols[6:]))
        summary_rows += rows + [mean]
        print("%s: MAP %.4f  NDCG@%d %.4f  Recall@%d %.4f (mean over %d folds)"
              % (algo, mean[6], args.scope, mean[7], args.scope, mean[8], n))

    # one comparative table: per-fold rows plus a mean row per algorithm
    # (metric columns are unweighted fold means, count columns are totals)
    with open(out / "reports" / "summary.tsv", "w", encoding="utf-8") as fh:
        fh.write("algorithm\tfold\tscope\tevaluated_users\texcluded_users"
                 "\tdropped_users\tmap\tndcg\trecall\n")
        for row in summary_rows:
            fh.write("%s\t%s\t%d\t%d\t%d\t%d\t%.17g\t%.17g\t%.17g\n" % row)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train" and (args.folds or 0) > RATIOS[args.ratio][0]:
            args.subparser.error("argument --folds: must be in 1..%d for ratio %s"
                                 % (RATIOS[args.ratio][0], args.ratio))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    args.out = Path(args.out or os.environ.get(OUT_ENV) or DEFAULT_OUT)
    try:
        return args.func(args)
    except SolverError as err:
        print("solver failure: %s" % err, file=sys.stderr)
        return 3
    except (DataError, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    app()
