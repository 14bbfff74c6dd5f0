"""End-to-end benchmark of the wassrec prepare -> train -> evaluate pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload wf-ml100k --seed 1 --seconds 60 --trace 0

Each run generates the workload's synthetic catalog (``catalog.py``,
always from CATALOG_SEED) and runs the real CLI stages
(``python -m wassrec.cli prepare|train|evaluate``) as child processes,
one at a time, each repetition in a fresh ``--out`` directory.  Every child is timed from outside and reaped with
``os.wait4``, which also yields its own peak RSS.  After two to
``reps`` repetitions, extra ``prepare`` and ``evaluate`` samples are
taken in turn while another pair fits in ``--seconds``.  The fixed
``reference.py`` task runs after every stage, and each stage sample is
scaled to the reference speed by the reference runs near it (see
``REFERENCE_S``).  Times are medians over a stage's samples, and a
failed stage's time is never used.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the pipeline once untraced and once through
``traced_stage.py`` (the same stages in-process with ``tracer.py``
installed) and prints the per-layer metrics, including the tracing
overhead on ``train``.  Workloads not listed in ``BENCHMARK.json`` are
probes: they also print ``failed_frac``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (environment, input
digests, every stage sample, every check) is written under
``.perfbench-work/records/``.  Exit code 2, without a result line, when
the package sources are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# one BLAS thread per stage process: the stages are mostly single-threaded
# Python, and on a small shared host more threads only add timing noise
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every child is killed once the run is this old, so a run ends within
# 180 s even when a stage hangs
DEADLINE_S = 165.0
# On a shared host a process's speed swings by up to a factor of two
# within seconds and drifts over minutes.  ``reference.py`` runs right
# before and after every stage, and each stage sample is reported at the
# reference speed: its wall time times REFERENCE_S (about the reference
# task's time on an idle 2-core x86_64 host) over the mean time of the
# reference runs within one sample length before and after it, so a long
# ``train`` is set against the host's speed over a span as long as its own.
REFERENCE = HERE / "reference.py"
REFERENCE_S = 0.4
# Every run of a workload uses the same catalog, as the paper's experiment
# uses one dataset, and ``--seed`` picks the cold-start split and the init:
# the work of a wcf ``train`` differs by a quarter from one catalog to the
# next, more than the benchmark's bounds could hold.
CATALOG_SEED = 1

# ``train`` holds the train flags besides --ratio 3:1 and --seed.  A run
# takes two to ``reps`` full pipelines (the first is checked, the later
# ones are same-seed reruns), then extra ``prepare`` and ``evaluate``
# samples in turn while another pair fits in ``--seconds``.
WORKLOADS = {
    "wf-ml100k": {"shape": "ml100k", "algorithm": "wf", "gamma": 0.05,
                  "train": ["--folds", "1"], "reps": 3},
    # one outer pass per fold: uncapped, wcf's pass count varies by
    # catalog, and with it train time, by a third from one seed to the
    # next; two folds average the ranking quality over half the items
    "wcf-small": {"shape": "small", "algorithm": "wcf", "gamma": 0.05,
                  "train": ["--latent-dim", "10", "--folds", "2", "--max-outer", "1"],
                  "reps": 3},
    # a probe, not in BENCHMARK.json: slow, and it may exit 2 on the wcf
    # unit-mass check (ROADMAP items 3 and 4)
    "wcf-sharp": {"shape": "sharp", "algorithm": "wcf", "gamma": 0.005,
                  "train": ["--latent-dim", "10", "--folds", "1"], "reps": 1},
}
STAGES = ("prepare", "train", "evaluate")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env.pop("WASSREC_OUT", None)
    return env


def run_child(argv, log_path, limit_s) -> dict:
    """Run argv to completion; wall time, exit code and the child's peak RSS."""
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)

        def kill():
            with lock:
                if not state["reaped"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(max(limit_s, 0.0), kill)
        timer.start()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["reaped"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0, "killed": state["killed"]}


class Run:
    """One benchmark invocation: its inputs, stage samples and checks."""

    def __init__(self, workload, seed, work):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.t0 = time.perf_counter()
        self.measured_s = None
        self.samples = []
        self.checks = []

    def stage_argv(self, stage, out):
        spec, inputs = self.spec, self.work / "input"
        if stage == "prepare":
            return ["prepare", "--ratings", str(inputs / "u.data"),
                    "--genome", str(inputs / "genome.csv"), "--out", str(out)]
        if stage == "train":
            return ["train", "--algorithm", spec["algorithm"], "--gamma", repr(spec["gamma"]),
                    "--ratio", "3:1", "--seed", str(self.seed), *spec["train"],
                    "--out", str(out)]
        return ["evaluate", "--out", str(out)]

    def child(self, cmd, log_path, **fields):
        began = time.perf_counter() - self.t0
        sample = run_child(cmd, log_path, DEADLINE_S - began)
        sample.update(fields, start_s=began)
        self.samples.append(sample)
        return sample

    def reference(self):
        """Time the reference task once; it must succeed."""
        sample = self.child([sys.executable, str(REFERENCE)], self.work / "reference.log",
                            stage="reference")
        if sample["exit"] != 0:
            raise RuntimeError("reference task exited %d" % sample["exit"])

    def pipeline(self, out, label, traced=False, stages=STAGES, referenced=False):
        """prepare -> train -> evaluate into a fresh ``out``; stop at a failure.

        With ``referenced``, the reference task runs after every stage.
        """
        out.mkdir(parents=True, exist_ok=True)
        done = []
        for stage in stages:
            argv = self.stage_argv(stage, out)
            if traced:
                cmd = [sys.executable, str(HERE / "traced_stage.py"),
                       str(out / ("spans-%s.json" % stage)), *argv]
            else:
                cmd = [sys.executable, "-m", "wassrec.cli", *argv]
            log = out / ("%s.log" % stage)
            sample = self.child(cmd, log, stage=stage, rep=label, traced=traced)
            if referenced:
                self.reference()
            if sample["exit"] != 0:
                sample["log_tail"] = log.read_text(errors="replace")[-400:]
                break
            done.append(stage)
        return done

    @staticmethod
    def output_digests(out):
        paths = [out / "prepared" / "interactions.tsv", out / "prepared" / "genome.csv",
                 *sorted(out.glob("runs/*/fold*/predictions.tsv")),
                 out / "reports" / "summary.tsv"]
        return {p.relative_to(out).as_posix(): sha256(p) for p in paths if p.is_file()}

    def check(self, out, done, label):
        import checks
        found = []
        if "prepare" in done:
            found += checks.check_prepare(out)
        if "evaluate" in done:
            found += checks.check_train_evaluate(out, self.spec["algorithm"],
                                                 self.spec["gamma"], self.seed)
        self.checks += [{"name": n, "stage": s, "rep": label, "ok": bool(ok), "detail": d}
                        for n, s, ok, d in found]

    def check_same(self, name, stage, label, reference, digests):
        """Files present in both digest maps must be byte-identical."""
        common = sorted(set(reference) & set(digests))
        differ = [n for n in common if reference[n] != digests[n]]
        self.checks.append({"name": name, "stage": stage, "rep": label, "ok": not differ,
                            "detail": "differ: %s" % differ if differ else
                            "%d files identical" % len(common)})

    def failed(self, sample) -> bool:
        """Non-zero exit, or a failed check on this invocation's output."""
        return sample["exit"] != 0 or any(
            not c["ok"] and (c["rep"], c["stage"]) == (sample["rep"], sample["stage"])
            for c in self.checks)

    def stage_samples(self):
        return [s for s in self.samples if s["stage"] != "reference"]

    def counts(self):
        stages = self.stage_samples()
        return len(stages), sum(map(self.failed, stages))

    def scale(self):
        """Give each stage sample ``ref_s``, the mean time of the reference
        runs that overlap the span from one sample length before it to one
        after it, and ``scaled_s``, its wall time at the reference speed."""
        refs = [s for s in self.samples if s["stage"] == "reference"]
        for s in self.stage_samples():
            begin, end = s["start_s"] - s["wall_s"], s["start_s"] + 2 * s["wall_s"]
            near = [r["wall_s"] for r in refs
                    if r["start_s"] + r["wall_s"] >= begin and r["start_s"] <= end]
            if near:
                s["ref_s"] = statistics.fmean(near)
                s["scaled_s"] = s["wall_s"] * REFERENCE_S / s["ref_s"]

    def scaled_walls(self, stage):
        return [s["scaled_s"] for s in self.samples
                if s["stage"] == stage and "scaled_s" in s and not self.failed(s)]


def measure(run, seconds):
    """Full pipelines, then extra ``prepare`` and ``evaluate`` samples.

    Each repetition is prepare -> train -> evaluate into a fresh ``out``;
    the later ones are same-seed reruns, checked byte for byte against
    the first.  Two repetitions always run (one for a probe), and more,
    up to the workload's ``reps``, while another fits in ``seconds``
    counted from the start of the run.  Then extra ``prepare`` (into a
    throw-away directory) and ``evaluate`` (on the first repetition)
    samples are taken in turn while another pair fits.  A repetition or
    pair is taken to last as long as the slowest of its kind so far.  The
    reference task runs first and after every stage.
    """
    spec = run.spec
    start = time.perf_counter()
    first = run.work / "rep0"

    def fits(longest):
        return time.perf_counter() - run.t0 + longest <= min(seconds, DEADLINE_S)

    run.reference()
    rep, longest = 0, 0.0
    while rep < min(2, spec["reps"]) or (rep < spec["reps"] and fits(longest)):
        began = time.perf_counter()
        out = run.work / ("rep%d" % rep)
        done = run.pipeline(out, rep, referenced=True)
        if rep == 0:
            first_done, expected = done, run.output_digests(out)
        else:
            run.check_same("rerun_identical", "train", rep, expected, run.output_digests(out))
            shutil.rmtree(out)
        rep += 1
        longest = max(longest, time.perf_counter() - began)
    extra, longest = 0, 0.0
    while fits(longest):
        began = time.perf_counter()
        label, setup = "x%d" % extra, run.work / "setup"
        if run.pipeline(setup, label, stages=("prepare",), referenced=True):
            run.check_same("rerun_identical", "prepare", label, expected,
                           run.output_digests(setup))
        shutil.rmtree(setup)
        if "evaluate" in first_done:
            run.pipeline(first, label, stages=("evaluate",), referenced=True)
        extra += 1
        longest = max(longest, time.perf_counter() - began)
    run.measured_s = time.perf_counter() - start
    run.scale()
    run.check(first, first_done, 0)

    metrics = {}
    for stage, key in zip(STAGES, ("setup_s", "train_s", "evaluate_s")):
        walls = run.scaled_walls(stage)
        if walls:
            metrics[key] = statistics.median(walls)
    metrics["peak_rss_mb"] = max(s["maxrss_mb"] for s in run.stage_samples())
    if (first / "reports" / "summary.tsv").is_file():
        import checks
        quality = checks.summary_mean(first, run.spec["algorithm"])
        metrics.update(map=quality["map"], ndcg_at_20=quality["ndcg"],
                       recall_at_20=quality["recall"])
    return metrics


def trace_layers(run, names):
    """One untraced and one traced pipeline; per-layer metrics from the spans."""
    plain, traced = run.work / "plain", run.work / "traced"
    run.pipeline(plain, "plain")
    done = run.pipeline(traced, "traced", traced=True)
    import tracer
    run.check(traced, done, "traced")
    run.check_same("traced_identical", "train", "traced",
                   run.output_digests(plain), run.output_digests(traced))

    spans, iterations, train_cost = [], {}, 0.0
    for stage in STAGES:
        path = traced / ("spans-%s.json" % stage)
        if not path.is_file():
            continue
        data = json.loads(path.read_text())
        offset = len(spans)
        spans += [[n, a, b, p + offset if p >= 0 else -1] for n, a, b, p in data["spans"]]
        for k, v in data["iterations"].items():
            iterations[k] = iterations.get(k, 0) + v
        if stage == "train":
            train_cost = len(data["spans"]) * data["span_cost_s"]
    summary = tracer.summarize(spans)

    # the tracer's own cost on train: spans recorded times the measured
    # cost of one span; the wall-time difference is kept as a cross-check,
    # though a shared host's noise is larger than the overhead
    extras = {"transport.sinkhorn.iterations": iterations.get("transport.sinkhorn", 0),
              "wcf.half_steps": 0, "wcf.objective": 0.0, "trace.overhead_s": train_cost}
    walls = {s["traced"]: s["wall_s"] for s in run.samples if s["stage"] == "train"}
    if True in walls and False in walls:
        extras["trace.wall_overhead_s"] = walls[True] - walls[False]
    traces = [json.loads(p.read_text())["objective_trace"]
              for p in sorted(traced.glob("runs/wcf/fold*/model/manifest.json"))]
    if traces:
        extras.update({"wcf.half_steps": sum(len(t) - 1 for t in traces),
                       "wcf.objective": statistics.fmean(t[-1] for t in traces)})

    metrics = {}
    for name in names:
        if name in extras:
            metrics[name] = extras[name]
            continue
        span, _, field = name.rpartition(".")
        metrics[name] = summary.get(span, {}).get(field, 0)
    return metrics, summary


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wassrec pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wassrec" / "cli.py").is_file():
        print("error: no wassrec sources under %s" % SRC, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    # numpy and wassrec are imported here only after the last stage has run:
    # a child's ru_maxrss starts at this process's peak RSS, so the inputs
    # are generated in a child process and the checks run at the end
    sys.path[:0] = [str(SRC), str(HERE)]

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    work = WORK / ("%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    if work.exists():
        shutil.rmtree(work)
    run = Run(args.workload, args.seed, work)
    try:
        gen = subprocess.run([sys.executable, str(HERE / "catalog.py"), "--shape",
                              run.spec["shape"], "--seed", str(CATALOG_SEED),
                              "--out", str(work / "input")],
                             capture_output=True, text=True, check=True, timeout=120)
        digests = {name: digest for digest, name in map(str.split, gen.stdout.splitlines())}
        if args.trace:
            names = [m["name"] for m in bench["per_layer"]]
            metrics, summary = trace_layers(run, names)
        else:
            metrics, summary = measure(run, args.seconds), None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import catalog

    attempted, failed = run.counts()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    probe = args.workload not in {w["name"] for w in bench["workloads"]}
    if probe:
        metrics["failed_frac"] = failed / attempted
        units["failed_frac"] = "1"
    result = {
        "correct": all(c["ok"] for c in run.checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "catalog_seed": CATALOG_SEED,
        "seconds": args.seconds,
        "trace": args.trace, "probe": probe,
        "shape": vars(catalog.SHAPES[run.spec["shape"]]), "flags": run.spec,
        "environment": environment(), "inputs_sha256": digests,
        "samples": run.samples, "checks": run.checks, "spans": summary, "result": result,
        "started": started, "measured_s": run.measured_s,
        "total_s": time.perf_counter() - run.t0,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / (work.name + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    for c in run.checks:
        print("check %-24s %-8s rep %-6s %s  %s" % (c["name"], c["stage"], c["rep"],
              "ok  " if c["ok"] else "FAIL", c["detail"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
