"""Output checks for one prepare -> train -> evaluate output directory.

Each check returns ``(name, stage, ok, detail)``; ``stage`` names the
CLI stage whose output it judges, so a failed check counts against
that stage's invocation.  The checks recompute what they can through
``wassrec``'s public API rather than trusting the files:

* prepare: ``stats.json`` agrees with the prepared interactions.
* train, per fold: every trainable user has a full, non-increasing
  ranking of the fold's cold items; wf scores for a seeded sample of users equal
  ``infer_cold`` to 1e-12; the wcf objective trace never rises by more
  than 1e-6 (acceptance test 6's bound).
* evaluate: the summary's mean row equals ``evaluate_run`` on the
  predictions, and its MAP beats a seeded random ranking.
"""

import json

import numpy as np

from wassrec import (
    GibbsKernel,
    UserInteractions,
    build_cost_matrix,
    estimate_preference,
    evaluate_run,
    infer_cold,
    load_genome,
    load_interactions,
)

HEADER = "user\trank\titem\tscore"
WF_SAMPLE = 16
WF_TOL = 1e-12
TRACE_RISE_TOL = 1e-6
SUMMARY_TOL = 1e-12


def check_prepare(out):
    table = load_interactions(out / "prepared" / "interactions.tsv")
    stats = json.loads((out / "prepared" / "stats.json").read_text())
    want = {"users": int(table.users.size), "items": int(table.items.size),
            "interactions": len(table)}
    got = {k: stats.get(k) for k in want}
    return [("prepared_stats", "prepare", got == want, "stats %s, table %s" % (got, want))]


def _read_predictions(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = np.array(fh.read().split(), dtype=np.float64).reshape(-1, 4)
    return header, rows


def check_train_evaluate(out, algorithm, gamma, seed):
    """Checks on the train outputs of every fold and on the evaluate summary."""
    table = load_interactions(out / "prepared" / "interactions.tsv")
    manifest = json.loads((out / "splits" / "manifest.json").read_text())
    rng = np.random.default_rng(seed)
    genome = load_genome(out / "prepared" / "genome.csv") if algorithm == "wf" else None
    results, reports, baselines = [], [], []
    for fold in manifest["folds"]:
        found, report, baseline = _check_fold(out, table, fold, algorithm, gamma, genome, rng)
        results += found
        if report is None:
            return results
        reports.append(report)
        baselines.append(baseline)

    # the summary's mean row is the unweighted mean of the fold means
    n = len(reports)
    want = {"map": sum(r.mean_ap for r in reports) / n,
            "ndcg": sum(r.mean_ndcg for r in reports) / n,
            "recall": sum(r.mean_recall for r in reports) / n}
    summary = summary_mean(out, algorithm)
    gap = max(abs(summary[k] - v) for k, v in want.items())
    results.append(("summary_matches_metrics", "evaluate", gap <= SUMMARY_TOL,
                    "largest gap %.3g over %d folds" % (gap, n)))
    baseline = sum(baselines) / n
    results.append(("map_beats_random", "evaluate", summary["map"] > baseline,
                    "MAP %.4f vs random %.4f" % (summary["map"], baseline)))
    return results


def _check_fold(out, table, fold, algorithm, gamma, genome, rng):
    """Checks on one fold's predictions; its report and a random-ranking MAP."""
    f = fold["fold"]
    interacted = np.array(fold["interacted"], dtype=np.int64)
    cold = np.array(fold["cold"], dtype=np.int64)
    run_dir = out / "runs" / algorithm / ("fold%d" % f)
    train = table.restrict_items(interacted)
    trainable = train.users
    header, rows = _read_predictions(run_dir / "predictions.tsv")

    s = cold.size
    ok = header == HEADER and rows.shape[0] == trainable.size * s
    detail = "fold %d: header %r, %d rows for %d users x %d cold items" % (
        f, header, rows.shape[0], trainable.size, s)
    if ok:
        blocks = rows.reshape(trainable.size, s, 4)
        users = blocks[:, 0, 0].astype(np.int64)
        ok = (np.array_equal(users, trainable)
              and np.all(blocks[:, :, 0] == blocks[:, :1, 0])
              and np.all(blocks[:, :, 1] == np.arange(1, s + 1))
              and np.array_equal(np.sort(blocks[:, :, 2], axis=1),
                                 np.broadcast_to(cold, (users.size, s)))
              and np.all(np.isfinite(blocks[:, :, 3]))
              and np.all(np.diff(blocks[:, :, 3], axis=1) <= 0))
        detail = "fold %d: %d users, each ranking %d cold items" % (f, users.size, s)
    results = [("full_rankings", "train", bool(ok), detail)]
    if not ok:
        return results, None, None

    if algorithm == "wf":
        kernel = GibbsKernel.from_cost(build_cost_matrix(genome, interacted, cold), gamma)
        sample = rng.choice(trainable, size=min(WF_SAMPLE, trainable.size), replace=False)
        worst = 0.0
        for user, (items, vals) in train.restrict_users(sample).by_user().items():
            ui = UserInteractions(user_id=user, item_indices=np.searchsorted(interacted, items),
                                  values=vals)
            q = infer_cold(estimate_preference(ui, interacted.size), kernel)
            block = blocks[np.searchsorted(users, user)]
            got = np.empty(s)
            got[np.searchsorted(cold, block[:, 2].astype(np.int64))] = block[:, 3]
            worst = max(worst, float(np.abs(got - q).max()))
        results.append(("wf_matches_infer_cold", "train", worst <= WF_TOL,
                        "fold %d: max |score - infer_cold| %.3g over %d users"
                        % (f, worst, sample.size)))
    else:
        model = json.loads((run_dir / "model" / "manifest.json").read_text())
        trace = np.array(model["objective_trace"])
        rise = float(np.diff(trace).max()) if trace.size > 1 else 0.0
        results.append(("wcf_trace_nonincreasing", "train", rise <= TRACE_RISE_TOL,
                        "fold %d: largest rise %.3g over %d entries" % (f, rise, trace.size)))

    predictions = {int(u): tuple(int(i) for i in b[:, 2]) for u, b in zip(users, blocks)}
    test = table.restrict_items(cold).restrict_users(sorted(predictions))
    report = evaluate_run(predictions, test, scope=20, fold=f)
    shuffled = {u: tuple(rng.permutation(cold).tolist()) for u in predictions}
    baseline = evaluate_run(shuffled, test, scope=20, fold=f).mean_ap
    return results, report, baseline


def summary_mean(out, algorithm):
    """MAP, NDCG and recall from the mean row of reports/summary.tsv."""
    path = out / "reports" / "summary.tsv"
    lines = path.read_text().splitlines()
    names = lines[0].split("\t")
    for line in lines[1:]:
        row = dict(zip(names, line.split("\t")))
        if row["algorithm"] == algorithm and row["fold"] == "mean":
            return {k: float(row[k]) for k in ("map", "ndcg", "recall")}
    raise ValueError("%s has no mean row for %s" % (path, algorithm))
