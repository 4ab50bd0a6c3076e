"""Benchmark for the dualradio package: pinned `dualradio run` workloads.

Run from the root of a source checkout (the package is imported from its
`src/`, never from an installed copy):

    python3 bench/run.py --workload star-short --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload gap-long --seed 1 --trace 1
    python3 bench/run.py --seed 1           # every workload, untraced then traced

Each workload is a `dualradio run` config in `bench/workloads/`, headed by
the reason it was chosen.  The runner is a closed loop with one client:
it launches `python -m dualradio.cli run <config> --seed S --jobs 1` as a
subprocess, waits for it to exit, and repeats.  S is derived from the
benchmark seed (seed * 10^9, plus 10^5 per later run), so runs and seeds
share no trial.  `DUALRADIO_JOBS` is removed from the child environment.

`--trace 0` repeats, for `--seconds` seconds and at least three times, a
host-speed probe (`bench/calibrate.py`), a set-up timed in a fresh process
and one run, and reports the end-to-end metrics scaled to a nominal host
speed (see `measure`).  `--trace 1` runs the config untraced three times,
then twice under `bench/trace.py`, which wraps the package's layer entry
points from outside and reports the per-layer split in raw times.  Both modes gate every CSV and print, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics.  `attempted` counts sweep points times runs; `failed`
counts those that exited non-zero, wrote a missing or malformed row,
differed from another run of the same seed, or whose pooled statistics fell
outside `bench/reference.json` (see `check_stats`).  Per-run records, CSVs
and traces go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
# gap-long is left out of BENCHMARK.json: on a shared 2-vCPU host its
# run-to-run spread stayed above a third of the bounds.  It still runs here.
WORKLOADS = ("star-short", "gap-long", "walk-extreme", "chained-global")
SEED_STRIDE = 10 ** 9   # benchmark seed -> package seed
REP_STRIDE = 10 ** 5    # trial-seed block of each later run (trials < 10^5)
MIN_REPS = 3
TRACE_BASE_REPS = 3
TRACE_RUNS = 2
RUN_DEADLINE_S = 170.0
HOST_PROBE_NOMINAL_S = 0.15  # bench/calibrate.py on the baseline machine when quiet
CSV_HEADER = ("trial_id,seed,problem,algo,engine,delta_log2,tau,adversary,"
              "completed,completion_round,rounds_executed")

END_TO_END = (  # name, unit
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

# Per-layer metric -> (unit, end-to-end metric it should move,
# workload where it should move it most, workload where least).
# LAYER_METRICS make up the `--trace 1` JSON result.  REPORT_ONLY metrics
# are printed and recorded but left out of it: their times read 0 on
# workloads that never call the layer, and their counts are fixed by the
# config.
LAYER_METRICS = {
    "engine.trial_rngs.us": ("us", "trials_per_s", "star-short", "walk-extreme"),
    "adversary.make_policy.us": ("us", "trials_per_s", "star-short", "walk-extreme"),
    "adversary.change_log.entries_per_trial":
        ("count", "trials_per_s", "star-short", "walk-extreme"),
    "engine.rounds_used_share": ("share", "trials_per_s", "star-short", "walk-extreme"),
    "adversary.draw.us_per_round":
        ("us", "rounds_per_s", "gap-long, walk-extreme", "star-short"),
    "adversary.degrees.rounds":
        ("count", "rounds_per_s", "gap-long, walk-extreme", "chained-global"),
    "adversary.degrees.calls":
        ("count", "rounds_per_s", "gap-long, walk-extreme", "chained-global"),
    "adversary.sample_edges.calls":
        ("count", "rounds_per_s", "chained-global", "the analytic three"),
    "adversary.sample_edges.edges_per_call":
        ("count", "rounds_per_s", "chained-global", "the analytic three"),
    "adversary.pre_round.calls":
        ("count", "rounds_per_s", "chained-global", "the analytic three"),
    "engine.round_counts.calls": ("count", "rounds_per_s", "chained-global", "-"),
    "engine.loop.self_us_per_round": ("us", "rounds_per_s", "chained-global", "-"),
    "engine.run_trial.us_p50": ("us", "trials_per_s", "every workload", "-"),
    "engine.run_trial.us_tail": ("us", "trials_per_s", "every workload", "-"),
    "oracle.exact_success_logprob.calls":
        ("count", "rounds_per_s", "walk-extreme", "the other three"),
    "gadgets.build_gadget.ms": ("ms", "setup_s", "gap-long", "the other three"),
    "schedules.build_schedule.ms": ("ms", "setup_s", "gap-long", "the other three"),
    "cli.build_trial_config.ms": ("ms", "setup_s", "gap-long", "the other three"),
    "engine.aggregate.ms": ("ms", "wall_s, peak_rss_mib", "star-short", "walk-extreme"),
    "engine.trial_csv_row.us": ("us", "wall_s, peak_rss_mib", "star-short", "walk-extreme"),
    "cli.cmd_run.self_ms": ("ms", "wall_s, peak_rss_mib", "star-short", "walk-extreme"),
    "layer.cli.self_ms": ("ms", "wall_s", "star-short", "walk-extreme"),
    "layer.engine.self_ms": ("ms", "wall_s", "-", "-"),
    "layer.adversary.self_ms": ("ms", "wall_s", "-", "-"),
    "layer.schedules.self_ms": ("ms", "setup_s", "-", "-"),
    "layer.gadgets.self_ms": ("ms", "setup_s", "gap-long", "the other three"),
    "trace.overhead_share": ("share", "-", "-", "-"),
}
REPORT_ONLY = {
    "adversary.degrees.us_per_round":
        ("us", "rounds_per_s", "gap-long, walk-extreme", "chained-global"),
    "adversary.sample_edges.us": ("us", "rounds_per_s", "chained-global", "the analytic three"),
    "adversary.pre_round.us": ("us", "rounds_per_s", "chained-global", "the analytic three"),
    "engine.round_counts.us": ("us", "rounds_per_s", "chained-global", "-"),
    "oracle.exact_success_logprob.us":
        ("us", "rounds_per_s", "walk-extreme", "the other three"),
    "layer.oracle.self_ms": ("ms", "rounds_per_s", "walk-extreme", "the other three"),
    "engine.run_trial.tail_pct": ("%", "-", "-", "-"),
    "engine.run_trial.samples": ("count", "-", "-", "-"),
    "engine.trials": ("count", "-", "-", "-"),
    "engine.rounds_executed": ("count", "-", "-", "-"),
}
ALL_LAYER = {**LAYER_METRICS, **REPORT_ONLY}
# Layers a workload must reach in the traced run, beyond the engine-wide
# rules in `trace_expectations`.
TRACE_NONZERO = {
    "gap-long": ("adversary.pre_round.calls",),
    "walk-extreme": ("adversary.pre_round.calls",),
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong program output)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DUALRADIO_JOBS", None)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list, log_path: str, deadline: float):
    """Run one subprocess to exit: (exit code, wall seconds, peak RSS MiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    raise BenchError(f"{' '.join(argv[1:3])} ran past the deadline")
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            _, status = os.waitpid(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def log_tail(path: str, lines: int = 5) -> str:
    with open(path, errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def config_path(workload: str) -> str:
    return os.path.join(BENCH, "workloads", f"{workload}.yaml")


def workload_why(workload: str) -> str:
    with open(config_path(workload)) as fh:
        return fh.readline().removeprefix("# why:").strip()


def run_probe(workload: str, name: str, argv: list, deadline: float) -> str:
    """Run a probe script in a fresh process; returns its last output line."""
    log = os.path.join(OUT, workload, f"{name}.log")
    code, _, _ = run_child(argv, log, deadline)
    if code != 0:
        raise BenchError(f"{name} probe failed:\n{log_tail(log)}")
    with open(log) as fh:
        return fh.read().strip().splitlines()[-1]


def probe_setup(workload: str, base_seed: int, deadline: float) -> dict:
    """One fresh-process set-up: returns the probe's JSON record."""
    argv = [sys.executable, os.path.join(BENCH, "setup_probe.py"),
            config_path(workload), str(base_seed)]
    record = json.loads(run_probe(workload, "setup", argv, deadline))
    if not os.path.abspath(record["module"]).startswith(SRC + os.sep):
        raise BenchError(f"dualradio imported from {record['module']}, not {SRC}")
    return record


def probe_host(workload: str, deadline: float) -> float:
    """Seconds the fixed host-speed probe took, in a fresh process."""
    argv = [sys.executable, os.path.join(BENCH, "calibrate.py")]
    return float(run_probe(workload, "host", argv, deadline))


def run_dualradio(workload: str, base_seed: int, csv_path: str, deadline: float):
    argv = [sys.executable, "-m", "dualradio.cli", "run", config_path(workload),
            "--seed", str(base_seed), "--jobs", "1", "--out", csv_path]
    return run_child(argv, csv_path + ".log", deadline)


# ---------------------------------------------------------------------------
# correctness gate


def split_points(data: bytes, points: list) -> list | None:
    """CSV bytes -> per-point lists of rows (None if the layout is wrong)."""
    lines = data.decode("ascii", errors="replace").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    rows = lines[1:]
    if len(rows) != sum(p["trials"] for p in points):
        return None
    out, pos = [], 0
    for p in points:
        out.append(rows[pos:pos + p["trials"]])
        pos += p["trials"]
    return out


def parse_rows(rows: list, point: dict, base_seed: int, offset: int):
    """Validate one point's rows; returns (error or None, completion rounds
    with None for unfinished trials, rounds executed)."""
    completions, rounds = [], []
    for i, line in enumerate(rows):
        f = line.split(",")
        if len(f) != 11:
            return f"row {offset + i}: {len(f)} fields", None, None
        expected = [str(offset + i), str(base_seed + i), point["problem"], point["algo"],
                    point["engine"], None, point["tau"], point["adversary"]]
        if any(e is not None and e != got for e, got in zip(expected, f)):
            return f"row {offset + i}: unexpected identity columns {f[:8]}", None, None
        try:
            float(f[5])
            executed = int(f[10])
            done = {"1": True, "0": False}[f[8]]
            comp = int(f[9]) if done else None
        except (KeyError, ValueError):
            return f"row {offset + i}: malformed {line!r}", None, None
        if not 1 <= executed <= point["max_rounds"]:
            return f"row {offset + i}: rounds_executed {executed} out of range", None, None
        if done and comp != executed:
            return f"row {offset + i}: completion {comp} != rounds {executed}", None, None
        if not done and (f[9] != "" or (point["problem"] == "local"
                                          and executed != point["max_rounds"])):
            return f"row {offset + i}: unfinished trial stopped early", None, None
        completions.append(comp)
        rounds.append(executed)
    return None, completions, rounds


def point_stats(completions: list, checkpoint: int | None):
    n = len(completions)
    success = sum(c is not None for c in completions) / n
    cdf = None
    if checkpoint is not None:
        cdf = sum(c is not None and c <= checkpoint for c in completions) / n
    return success, cdf


def within_tolerance(observed: float, expected: float, n: int, pooled: int, z: float) -> bool:
    """Two-sample binomial check: |observed - expected| within z standard
    errors (reference error included, variance floored at 1/n) plus 1/n."""
    var = max(expected * (1.0 - expected), 1.0 / n) * (1.0 / n + 1.0 / pooled)
    return abs(observed - expected) <= z * math.sqrt(var) + 1.0 / n


def check_stats(completions: list, point: dict, ref, z: float) -> list:
    """Errors for one point's pooled completions against the reference."""
    if ref is None:
        return ["no reference statistics for this point"]
    label = (ref["algo"], ref["tau"], ref["adversary"], ref["max_rounds"])
    if label != (point["algo"], point["tau"], point["adversary"], point["max_rounds"]):
        return [f"reference is for {label}"]
    errors = []
    success, cdf = point_stats(completions, ref["checkpoint_round"])
    n, pooled = len(completions), ref["trials_pooled"]
    if not within_tolerance(success, ref["success_rate"], n, pooled, z):
        errors.append(f"success rate {success:.4f} over {n} trials vs reference "
                      f"{ref['success_rate']:.4f}")
    if cdf is not None and not within_tolerance(cdf, ref["cdf_at_checkpoint"], n, pooled, z):
        errors.append(f"P(completion <= {ref['checkpoint_round']}) {cdf:.4f} over {n} "
                      f"trials vs reference {ref['cdf_at_checkpoint']:.4f}")
    return errors


def load_reference(workload: str):
    path = os.path.join(BENCH, "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    return ref["workloads"].get(workload, []), ref["z"]


def check_csv(data, same_seed, points, base_seed):
    """Layout check of one run's CSV: (per-point error lists, per-point
    completions, total rounds executed).  `same_seed` is an earlier CSV of
    the same seed, which this one must match byte for byte."""
    split = split_points(data, points) if data is not None else None
    if split is None:
        return [["missing CSV or wrong row layout"]] * len(points), None, None
    errors, completions, rounds, offset = [], [], 0, 0
    for rows, point in zip(split, points):
        err, comps, executed = parse_rows(rows, point, base_seed, offset)
        errors.append([err] if err else [])
        completions.append(comps or [])
        rounds += sum(executed or [])
        offset += point["trials"]
    if same_seed is not None and data != same_seed:
        for j, (a, b) in enumerate(zip(split, split_points(same_seed, points))):
            if a != b:
                errors[j].append("rows differ from an earlier run with this seed")
    return errors, completions, rounds


# ---------------------------------------------------------------------------
# measurement


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values: list, unit: str) -> dict:
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "dualradio", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_context(run, trace: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": run.probe["python"],
        "numpy": run.probe["numpy"],
        "seed": run.seed,
        "dualradio_seed": run.base_seed,
        "trials_per_point": [p["trials"] for p in run.points],
        "runs": len(run.labels),
        "distinct_seeds": len(run.csv_by_seed),
        "load1_at_start": run.load1,
        "loaded": run.load1 > nproc,
    }


class Run:
    """State of one benchmark invocation on one workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.base_seed = seed * SEED_STRIDE
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.load1 = os.getloadavg()[0]
        self.dir = os.path.join(OUT, workload)
        os.makedirs(self.dir, exist_ok=True)
        self.refs, self.z = load_reference(workload)
        # the first probe also warms bytecode and the page cache
        self.probe = probe_setup(workload, self.base_seed, self.deadline)
        self.points = self.probe["points"]
        self.csv_by_seed: dict = {}
        self.pooled = [[] for _ in self.points]  # completions over distinct seeds
        self.labels: list = []
        self.failures: list = []  # (run label, point index or -1, message)

    def check(self, label: str, seed: int, code: int, data, log: str):
        """Gate one finished run; returns its rounds executed (None if unusable)."""
        self.labels.append(label)
        if code != 0:
            msg = f"exit {code}: {log_tail(log).strip()}"
            self.failures += [(label, j, msg) for j in range(len(self.points))]
            return None
        errors, completions, rounds = check_csv(data, self.csv_by_seed.get(seed),
                                                self.points, seed)
        for j, errs in enumerate(errors):
            self.failures += [(label, j, e) for e in errs]
        if seed not in self.csv_by_seed and completions is not None:
            self.csv_by_seed[seed] = data
            for pooled, comps in zip(self.pooled, completions):
                pooled += comps
        return rounds

    def untraced(self, label: str, seed: int):
        """One `dualradio run`: (wall s, peak RSS MiB, rounds executed)."""
        csv_path = os.path.join(self.dir, "run.csv")
        if os.path.exists(csv_path):
            os.remove(csv_path)
        code, wall, rss = run_dualradio(self.workload, seed, csv_path, self.deadline)
        data = None
        if code == 0 and os.path.exists(csv_path):
            with open(csv_path, "rb") as fh:
                data = fh.read()
        return wall, rss, self.check(label, seed, code, data, csv_path + ".log")

    def check_pooled(self) -> None:
        """Statistics of every point over all distinct seeds; a failure
        fails the point in every run."""
        for j, (comps, point) in enumerate(zip(self.pooled, self.points)):
            if not comps:
                continue
            ref = self.refs[j] if j < len(self.refs) else None
            for err in check_stats(comps, point, ref, self.z):
                self.failures += [(label, j, err) for label in self.labels]

    def attempted(self) -> int:
        return len(self.points) * len(self.labels)

    def failed(self) -> int:
        if any(j < 0 for _, j, _ in self.failures):  # a trace check fails every point
            return self.attempted()
        return len({(label, j) for label, j, _ in self.failures})


def measure(workload: str, seed: int, seconds: int) -> dict:
    """Untraced end-to-end metrics (`--trace 0`).

    Each step runs the host-speed probe, times one set-up in a fresh
    process, then times one run.  The shared machine's speed drifts by a
    quarter or more over minutes, so each step's times are scaled by
    HOST_PROBE_NOMINAL_S / (that step's probe time): the reported seconds are
    seconds on a machine where the probe takes its nominal time.  Raw times
    are kept in the record.  Run 0 and run 1 share a seed (the
    reproducibility check); every later run takes the next block of trial
    seeds, so the medians average over inputs as well as machine noise.
    Throughput divides by median wall_s minus median setup_s; its quartiles
    are those of the per-step quotients."""
    run = Run(workload, seed)
    trials = sum(p["trials"] for p in run.points)
    probes, setups, walls, rss, rounds, steps = [], [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or (
            time.perf_counter() - start + statistics.median(steps) <= seconds):
        step_start = time.perf_counter()
        k = len(walls)
        probes.append(probe_host(workload, run.deadline))
        setups.append(probe_setup(workload, run.base_seed, run.deadline)["setup_s"])
        rep_seed = run.base_seed + max(0, k - 1) * REP_STRIDE
        wall, peak, executed = run.untraced(f"run{k}", rep_seed)
        walls.append(wall)
        rss.append(peak)
        rounds.append(executed or 0)
        steps.append(time.perf_counter() - step_start)
    run.check_pooled()

    scale = [HOST_PROBE_NOMINAL_S / p for p in probes]
    wall_n = [w * f for w, f in zip(walls, scale)]
    setup_n = [s * f for s, f in zip(setups, scale)]
    busy = statistics.median(wall_n) - statistics.median(setup_n)

    def rate(work: list) -> dict:
        per_step = summarize([x / (w - s) for x, w, s in zip(work, wall_n, setup_n)], "1/s")
        return dict(per_step, value=statistics.median(work) / busy)

    metrics = {
        "wall_s": summarize(wall_n, "s"),
        "setup_s": summarize(setup_n, "s"),
        "trials_per_s": rate([trials] * len(walls)),
        "rounds_per_s": rate(rounds),
        "peak_rss_mib": summarize(rss, "MiB"),
    }
    raw = {"host_probe_s": summarize(probes, "s"), "wall_s": summarize(walls, "s"),
           "setup_s": summarize(setups, "s")}
    return finish(run, metrics, trace=0, raw=raw)


def trace_expectations(workload: str, counts: dict, points: list, rounds: int) -> list:
    """Each wrapper must have fired where this workload calls it."""
    n_points = len(points)
    trials = sum(p["trials"] for p in points)
    exact = {"cli.cmd_run.calls": 1, "engine.rounds_executed": rounds,
             "engine.trials": trials}
    for name in ("cli.build_trial_config", "gadgets.build_gadget",
                 "schedules.build_schedule", "engine.run_trials", "engine.aggregate"):
        exact[f"{name}.calls"] = n_points
    for name in ("engine.run_trial", "engine.trial_rngs", "adversary.make_policy",
                 "engine.trial_csv_row"):
        exact[f"{name}.calls"] = trials
    nonzero = list(TRACE_NONZERO.get(workload, ()))
    if all(p["engine"] == "analytic_star" for p in points):
        nonzero.append("adversary.degrees.calls")
        exact["engine.round_counts.calls"] = 0
        exact["adversary.sample_edges.calls"] = 0
    else:
        nonzero += ["engine.round_counts.calls", "adversary.pre_round.calls"]
        exact["adversary.sample_edges.calls"] = rounds
        exact["adversary.degrees.calls"] = 0
    problems = [f"{k} = {counts[k]}, expected {v}" for k, v in exact.items()
                if counts[k] != v]
    problems += [f"{k} = 0, expected > 0" for k in nonzero if counts[k] == 0]
    return problems


def measure_trace(workload: str, seed: int) -> dict:
    """Per-layer metrics from a traced run (`--trace 1`); every run here
    uses the same seed, so traced and untraced CSVs must match."""
    run = Run(workload, seed)
    trace_seed = run.base_seed
    base = [run.untraced(f"run{i}", trace_seed) for i in range(TRACE_BASE_REPS)]
    rounds = base[0][2] or 0

    summaries, traced_walls = [], []
    for i in range(TRACE_RUNS):
        label = f"trace{i}"
        stem = os.path.join(run.dir, label)
        for suffix in (".csv", ".json"):
            if os.path.exists(stem + suffix):
                os.remove(stem + suffix)
        argv = [sys.executable, os.path.join(BENCH, "trace.py"), config_path(workload),
                str(trace_seed), stem + ".csv", stem + ".json", stem + ".spans.csv"]
        code, wall, _ = run_child(argv, stem + ".log", run.deadline)
        data = None
        if code == 0:
            with open(stem + ".csv", "rb") as fh:
                data = fh.read()
        run.check(label, trace_seed, code, data, stem + ".log")
        if code != 0:
            continue
        with open(stem + ".json") as fh:
            summary = json.load(fh)
        traced_walls.append(wall - summary["write_s"])
        summaries.append(summary)
        for problem in trace_expectations(workload, summary["counts"], run.points, rounds):
            run.failures.append((label, -1, problem))
    if len(summaries) == TRACE_RUNS and summaries[0]["counts"] != summaries[1]["counts"]:
        diff = sorted(k for k in summaries[0]["counts"]
                      if summaries[0]["counts"][k] != summaries[1]["counts"].get(k))
        run.failures.append(("trace1", -1, f"counts differ between traced runs: {diff}"))
    run.check_pooled()

    metrics = {}
    if summaries:
        untraced_wall = statistics.median(w for w, _, _ in base)
        for name, (unit, *_) in ALL_LAYER.items():
            if name == "trace.overhead_share":
                values = [(w - untraced_wall) / untraced_wall for w in traced_walls]
            elif name in summaries[0]["counts"]:
                values = [s["counts"][name] for s in summaries]
            else:
                values = [s["timings"][name] for s in summaries]
            metrics[name] = summarize(values, unit)
    return finish(run, metrics, trace=1)


def finish(run: Run, metrics: dict, trace: int, raw: dict | None = None) -> dict:
    record = {
        "workload": run.workload,
        "why": workload_why(run.workload),
        "trace": trace,
        "context": run_context(run, trace),
        "correct": not run.failures and bool(metrics),
        "attempted": max(run.attempted(), 1),
        "failed": run.failed(),
        "failures": [f"{label} point {j}: {msg}" for label, j, msg in run.failures],
        "metrics": metrics,
        "raw": raw or {},
    }
    path = os.path.join(OUT, f"{run.workload}-seed{run.seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


# ---------------------------------------------------------------------------
# report


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(record: dict) -> None:
    w = record["workload"]
    print(f"== {w} (trace {record['trace']}): {record['why']}")
    ctx = record["context"]
    print(f"   context: {json.dumps(ctx)}")
    if ctx["loaded"]:
        print(f"   WARNING: 1-minute load {ctx['load1_at_start']:.2f} > nproc {ctx['nproc']}")
    share = record["failed"] / record["attempted"]
    print(f"   failed_share {share:.6g} ({record['failed']}/{record['attempted']} point runs)")
    for line in record["failures"]:
        print(f"   FAIL {line}")
    for name, m in record["raw"].items():
        print(f"   raw {name:36s} {fmt(m['value']):>12s} {m['unit']:6s} "
              f"q1 {fmt(m['q1'])} q3 {fmt(m['q3'])} n={m['n']}")
    for name, m in record["metrics"].items():
        moves = ALL_LAYER.get(name)
        where = f"  -> {moves[1]}; most {moves[2]}; least {moves[3]}" if moves else ""
        print(f"   {name:40s} {fmt(m['value']):>12s} {m['unit']:6s} "
              f"q1 {fmt(m['q1'])} q3 {fmt(m['q3'])} n={m['n']}{where}")


def result_line(records: list, prefix: bool) -> dict:
    metrics = {}
    for rec in records:
        wanted = (dict(END_TO_END) if rec["trace"] == 0 else
                  {k: v[0] for k, v in LAYER_METRICS.items()})
        for name, unit in wanted.items():
            if name in rec["metrics"]:  # absent only when the run already failed
                key = f"{rec['workload']}.{name}" if prefix else name
                metrics[key] = {"value": rec["metrics"][name]["value"], "unit": unit}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "dualradio", "cli.py")):
        print(f"error: no dualradio sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (args.trace,) if args.trace is not None else (
        (0, 1) if args.workload == "all" else (0,))
    records = []
    try:
        for w in workloads:
            for mode in modes:
                rec = measure(w, args.seed, args.seconds) if mode == 0 else \
                    measure_trace(w, args.seed)
                print_report(rec)
                records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = result_line(records, prefix=len(records) > 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
