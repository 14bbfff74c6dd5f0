"""Command-line pipeline: prepare a catalog, train per fold, evaluate.

Three subcommands share one output directory (flag --out, falling back
to the WASSREC_OUT environment variable, then ./wassrec-out):

* prepare: parse ratings and tag-relevance files, binarize, drop items
  without content vectors, and write the filtered tables plus a stats
  record under <out>/prepared/.
* train: build the cold-start splits, fit wf or wcf per fold, and write
  ranked predictions (and wcf model directories) under <out>/runs/:
  each user's cold items by score descending, ties to the smaller id.
* evaluate: score every run against the held-out cold interactions and
  write per-user and summary tables under <out>/reports/.  Each run
  must hold exactly the split manifest's folds, and each user in a
  prediction file must rank exactly the fold's cold items.

Each flag value is checked once, by its argparse type, before any file
is read or written; ``main`` then checks --folds against the --ratio's
subset count, also as a usage error.  ``main`` resolves the output
directory to a Path on the parsed namespace and hands that namespace to
the stage's ``cmd_*`` function.

Every file the pipeline writes is deterministic for fixed flags, seed
and BLAS thread count: reruns are byte-identical.  Exit codes: 0
success, 1 usage error, 2 data error, 3 solver failure.
"""

import argparse
import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .dataio import (
    FORMATS,
    RATIOS,
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
from .metrics import evaluate_run, write_report_files
from .wcf import _clean_histogram, save_model, train_wcf
from .wfilter import infer_cold, rank_order

__all__ = ["main", "app", "build_parser"]

OUT_ENV = "WASSREC_OUT"
DEFAULT_OUT = "wassrec-out"
PREDICTION_HEADER = "user\trank\titem\tscore"
WRITE_BLOCK = 1 << 10  # rows formatted per write; larger blocks raise train's peak RSS


def _finite(kind, low=0):
    """An argparse type: the text as a finite ``kind`` above ``low``."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not a number" % text) from None
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

    order = np.lexsort((table.timestamps, table.item_ids, table.user_ids))
    _write_table(prepared / "interactions.tsv", "", "%d\t%d\t%.17g\t%d\n",
                 *(col[order] for col in (table.user_ids, table.item_ids,
                                          table.ratings, table.timestamps)))
    # %r of a float is its shortest text that reads back to the same value
    _write_table(prepared / "genome.csv", "movieId,tagId,relevance\n", "%d,%d,%r\n",
                 np.repeat(genome.item_ids, genome.tag_ids.size),
                 np.tile(genome.tag_ids, genome.item_ids.size), genome.relevance.ravel())

    n_users = int(table.users.size)
    n_items = int(table.items.size)
    stats = {
        "users": n_users,
        "items": n_items,
        "interactions": len(table),
        "density": len(table) / (n_users * n_items),
    }
    with open(prepared / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print("prepared %d interactions (%d users, %d items) -> %s"
          % (len(table), n_users, n_items, prepared))
    return 0


def _fold_histograms(split):
    """Trainable users, ascending, and their preference histograms as columns.

    Histograms are over the fold's interacted items, scaled to mass 1
    (the solvers validate every column).  Users whose every interaction
    fell on cold items have no training signal and are left out.
    """
    users, column = np.unique(split.train.user_ids, return_inverse=True)
    interacted = np.asarray(split.interacted_items, dtype=np.int64)
    H = np.zeros((users.size, interacted.size))
    H[column, np.searchsorted(interacted, split.train.item_ids)] = split.train.ratings
    H /= H.sum(axis=1, keepdims=True)
    return users.tolist(), H.T


def _write_table(path, header, fmt, *columns) -> None:
    """Write ``header``, then aligned columns as lines of ``fmt``, one % per WRITE_BLOCK rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for start in range(0, len(columns[0]), WRITE_BLOCK):
            rows = list(zip(*(col[start:start + WRITE_BLOCK].tolist() for col in columns)))
            fh.write(fmt * len(rows) % tuple(chain.from_iterable(rows)))


def cmd_train(args) -> int:
    out = args.out
    table = load_interactions(out / "prepared" / "interactions.tsv")
    genome = load_genome(out / "prepared" / "genome.csv")

    splits = cold_start_split(table, ratio=args.ratio, folds=args.folds, seed=args.seed)
    (out / "splits").mkdir(parents=True, exist_ok=True)
    write_split_manifest(splits, out / "splits" / "manifest.json")

    for split in splits:
        run_dir = out / "runs" / args.algorithm / ("fold%d" % split.fold)
        run_dir.mkdir(parents=True, exist_ok=True)

        users, P = _fold_histograms(split)
        dropped = sorted(set(int(u) for u in split.test.users) - set(users))
        if dropped:
            print("fold %d: skipping %d user(s) with no training interactions"
                  % (split.fold, len(dropped)), file=sys.stderr)

        cost = build_cost_matrix(genome, split.interacted_items, split.cold_items)
        s, n = len(split.cold_items), len(split.interacted_items)
        if args.algorithm == "wf":
            Q = infer_cold(P, cost, args.gamma)
        else:
            k = min(args.latent_dim, s, n, len(users))
            if k < args.latent_dim:
                print("fold %d: latent dim clamped to %d (%d cold items, "
                      "%d interacted items, %d users)"
                      % (split.fold, k, s, n, len(users)), file=sys.stderr)
            model = train_wcf(P.T, cost, k=k, gamma=args.gamma, tol=args.tol,
                              max_outer=args.max_outer, seed=args.seed, user_ids=users,
                              item_ids=split.cold_items)
            save_model(model, run_dir / "model")
            trace = model.objective_trace
            print("fold %d: objective %.6g -> %.6g over %d half-steps"
                  % (split.fold, trace[0], trace[-1], len(trace) - 1))
            Q = _clean_histogram(model.dictionary @ model.loadings)

        # one block per user, ascending: every cold item by rank, best first
        order = rank_order(Q, split.cold_items)
        _write_table(run_dir / "predictions.tsv", PREDICTION_HEADER + "\n",
                     "%d\t%d\t%d\t%.17g\n", np.repeat(users, s),
                     np.tile(np.arange(1, s + 1), len(users)),
                     np.asarray(split.cold_items)[order.T].ravel(),
                     np.take_along_axis(Q, order, axis=0).T.ravel())
        print("fold %d: wrote %d rankings -> %s"
              % (split.fold, len(users), run_dir / "predictions.tsv"))
        del Q, order  # not held through the next fold's solve
    return 0


def _read_predictions(path, cold):
    """Parse a predictions file: its users, ascending, and their rankings.

    Row u of the users x s item matrix holds user u's item ids in rank
    order; every user must rank exactly the s items of ``cold``.
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
    rows = rows[np.lexsort((rows["rank"], rows["user"]))]
    users, first, counts = np.unique(rows["user"], return_index=True, return_counts=True)
    gaps = rows["rank"] != np.arange(rows.size) - np.repeat(first, counts) + 1
    if gaps.any():
        raise DataError("%s: user %d has non-contiguous ranks"
                        % (path, rows["user"][gaps.argmax()]))
    cold = np.unique(np.asarray(cold, dtype=np.int64))
    full = counts == cold.size
    ranked = rows["item"][np.repeat(full, counts)].reshape(np.count_nonzero(full), cold.size)
    wrong = ~full
    wrong[full] = (np.sort(ranked, axis=1) != cold).any(axis=1)
    if wrong.any():
        raise DataError("%s: user %d does not rank exactly the fold's %d cold items"
                        % (path, users[wrong.argmax()], cold.size))
    return users, ranked


def cmd_evaluate(args) -> int:
    out = args.out
    manifest_path = out / "splits" / "manifest.json"
    manifest = read_split_manifest(manifest_path)
    folds = sorted("fold%d" % f["fold"] for f in manifest["folds"])
    table = load_interactions(out / "prepared" / "interactions.tsv")

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
            dropped = np.setdiff1d(test.user_ids, users).size
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
