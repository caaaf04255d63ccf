"""braidkit benchmark: four seeded closed-loop workloads, one client each.

Gated runs (the contract in BENCHMARK.json)::

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

prints each end-to-end metric with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1``
reports the per-layer metrics instead: each job then runs twice, plain and
traced (alternating which goes first), so the tracing overhead is measured
on the same inputs.

Other modes::

    python3 perfbench/run.py ... --out results.jsonl   # also append the record
    python3 perfbench/run.py --compare A.jsonl B.jsonl  # per-metric verdicts
    python3 perfbench/run.py --sweep [--out sweep.json] # scaling table
    python3 -m pytest perfbench/smoke.py                # tiny-size smoke test

Everything runs in this one process, single-threaded, with BLAS pinned to
one thread; only the ``cli`` workload, the set-up measurement and their
host-speed probe start child interpreters, one at a time.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import NullRecorder, Recorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(HERE, "out")

WORKLOADS = ("algebra", "invariants", "mixing", "cli")
# Tail percentile per workload, fixed so runs stay comparable.  Each leaves
# at least ten jobs beyond it even when the host runs 1.5 times slower than the
# reference (fewer rounds fit in a run), and sits inside a group of jobs of
# one size rather than between two.  A run with too few jobs falls back down
# the ladder and says so.
TAIL_PCT = {"algebra": 95.0, "invariants": 80.0, "mixing": 80.0, "cli": 55.0}
TAIL_LADDER = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 55.0, 50.0)
SETUP_REPS = 7
SPIN_REF_S = 0.010  # time of spin() on the reference host at full speed
PROC_REF_S = 0.10  # time of a fresh "import numpy" interpreter, likewise
WINDOW_S = 0.3  # a job's slowdown is the median of the samples this close to it

SPAN_METRICS = (
    "braids.compact", "braids.equals", "braids.dedupe", "action.loopcoords",
    "action.act_with_matrix", "action.cycle", "linalg.charpoly", "linalg.spectral_radius",
    "entropy.entropy", "entropy.complexity", "burau.burau", "burau.burau_eval",
    "burau.alexander", "trajectories.closure", "trajectories.databraid_from_data",
    "trajectories.db_compact", "trajectories.ftbe", "render.render_braid",
)


def import_braidkit():
    """Import braidkit from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import braidkit

    if not os.path.abspath(braidkit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"braidkit imported from {braidkit.__file__}, not {SRC}")
    return braidkit


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ------------------------------------------------------------ host speed


def spin():
    """Fixed pure-Python work (big-int arithmetic, comparisons, list and tuple
    traffic, as in the exact loop action) that never touches braidkit."""
    a = [3**40 + k for k in range(16)]
    acc = 0
    for r in range(4000):
        for j in range(15):
            x, y = a[j], a[j + 1]
            a[j] = (x - y if x > y else y - x) + (r & 7)
        acc += len(tuple(a))
    return acc


def start_child():
    """A fresh interpreter importing numpy but not braidkit: process start,
    module loading and shared-library set-up, as in the cli and set-up."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT, check=True)


class HostSpeed:
    """How much slower than the reference the host runs, over time.

    The benchmark shares its host, whose speed drifts by a third within
    minutes, so every job and set-up time is divided by the host's slowdown
    around it: the median of the samples taken within ``WINDOW_S`` of the
    job.  A sample is the time of a fixed probe that never touches braidkit
    over its time at the reference speed; the harness takes one before and
    after each job unless the last is younger than ``every`` seconds.
    In-process jobs use ``spin()``; jobs that start interpreters (the cli
    workload and ``setup_s``) use ``start_child()``, since the two kinds of
    work slow down differently.  Times are therefore seconds at the
    reference speed; raw times are kept too.
    """

    def __init__(self, probe, ref_s, every):
        self.probe, self.ref_s, self.every = probe, ref_s, every
        self.times, self.values = [], []  # sample midpoints and slowdowns

    @classmethod
    def in_process(cls):
        return cls(spin, SPIN_REF_S, every=0.1)

    @classmethod
    def child_process(cls):
        return cls(start_child, PROC_REF_S, every=0.3)

    def tick(self):
        if self.times and perf_counter() - self.times[-1] <= self.every:
            return
        t0 = perf_counter()
        self.probe()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.values.append((t1 - t0) / self.ref_s)

    def around(self, t0, t1):
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.values[lo:hi] or self.values[max(0, lo - 1) : lo + 1]
        return statistics.median(near)

    def median(self):
        return statistics.median(self.values) if self.values else 1.0


# ------------------------------------------------------------------ stats


def percentile(sorted_vals, pct):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail(sorted_vals, pct):
    """``(pct, value, jobs beyond)`` at ``pct`` or the highest rung below it
    that leaves at least ten jobs beyond."""
    n = len(sorted_vals)
    for p in [q for q in TAIL_LADDER if q <= pct]:
        beyond = n - max(1, math.ceil(p / 100 * n))
        if beyond >= 10:
            return p, percentile(sorted_vals, p), beyond
    return 50.0, percentile(sorted_vals, 50.0), n - math.ceil(n / 2)


def setup_seconds(speed, reps=SETUP_REPS):
    """Median wall time of a fresh interpreter running ``import braidkit``,
    at the reference host speed."""
    cmd = [sys.executable, "-c", "import braidkit"]
    env = child_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    spans = []
    for _ in range(reps):
        speed.tick()
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        spans.append((t0, perf_counter()))
    speed.tick()
    return statistics.median((t1 - t0) / speed.around(t0, t1) for t0, t1 in spans)


def environment():
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from ``.git`` directly ("unknown" outside git)."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------------- runs


class Outcome:
    """Latencies and verdict counts of one recorder's jobs."""

    def __init__(self):
        self.spans = []  # (start, end) of each job
        self.latencies = []  # seconds at the reference host speed, once normalized
        self.verdicts = Counter()
        self.reasons = []

    def add(self, t0, t1, verdict, why=None):
        self.spans.append((t0, t1))
        self.verdicts[verdict] += 1
        if why and len(self.reasons) < 20:
            self.reasons.append(why)

    def normalize(self, speed):
        self.latencies = [(t1 - t0) / speed.around(t0, t1) for t0, t1 in self.spans]

    @property
    def raw(self):
        return [t1 - t0 for t0, t1 in self.spans]

    @property
    def attempted(self):
        return len(self.spans)

    @property
    def failed(self):
        return self.attempted - self.verdicts["ok"]


def run_job(bk, kind, data, rec, job_id):
    """Run one job; returns ``(start, end, output or None, exception or None)``."""
    fn = workloads.KINDS[kind][0]
    t0 = perf_counter()
    try:
        if rec.enabled:
            rec.job = job_id
            out = rec.call(f"job.{kind}", fn, bk, rec, data)
        else:
            out = fn(bk, rec, data)
        err = None
    except Exception as exc:  # a failed job is counted, never fatal
        out, err = None, exc
    return t0, perf_counter(), out, err


def judge(bk, kind, data, out, err):
    if err is not None:
        return "error", f"{kind}: {type(err).__name__}: {err}"
    try:
        verdict = workloads.KINDS[kind][1](bk, data, out)
    except Exception as exc:  # a malformed output is a wrong answer
        verdict = ("wrong", f"check raised {type(exc).__name__}: {exc}")
    if verdict is None:
        return "ok", None
    return verdict[0], f"{kind}: {verdict[1]}"


def measure(bk, workload, seed, seconds, trace, speed, round_fn=None):
    """Closed loop, one client: rounds of jobs until ``seconds`` have passed.

    Returns ``(plain, traced, recorder)``; ``traced`` and ``recorder`` are
    ``None`` unless tracing.
    """
    if workload == "cli":
        workloads.CLI = workloads.CliContext(ROOT, child_env(), OUTDIR)
    make_round = round_fn or workloads.ROUNDS[workload]
    rng = np.random.default_rng(seed)
    null = NullRecorder()
    rec = Recorder() if trace else None
    plain, traced = Outcome(), (Outcome() if trace else None)
    job_id = 0
    start = perf_counter()
    rnd = 0
    while rnd == 0 or perf_counter() - start < seconds:
        for kind, data in make_round(rng):
            order = [(null, plain)] if not trace else [(null, plain), (rec, traced)][:: 1 if rnd % 2 == 0 else -1]
            for recorder, outcome in order:
                speed.tick()
                t0, t1, out, err = run_job(bk, kind, data, recorder, job_id)
                speed.tick()
                if trace and recorder is null:
                    outcome.add(t0, t1, "ok" if err is None else "error", err and f"{kind}: {err}")
                    continue
                verdict, why = judge(bk, kind, data, out, err)
                outcome.add(t0, t1, verdict, why)
                if trace and err is None and workloads.KINDS[kind][2]:
                    workloads.KINDS[kind][2](bk, data, out, rec)
            job_id += 1
        rnd += 1
    for outcome in (plain, traced):
        if outcome:
            outcome.normalize(speed)
    return plain, traced, rec


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, plain, rss, setup):
    lat = sorted(plain.latencies)
    pct, tail_val, beyond = tail(lat, TAIL_PCT[workload])
    metrics = {
        "jobs_per_s": (plain.attempted / sum(lat), "1/s"),
        "job_p50_s": (percentile(lat, 50.0), "s"),
        "job_tail_s": (tail_val, "s"),
        "ok_frac": ((plain.attempted - plain.failed) / plain.attempted, "frac"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup, "s"),
    }
    info = {"tail_pct": pct, "tail_jobs_beyond": beyond, "jobs": plain.attempted,
            "failed_frac": plain.failed / plain.attempted}
    return metrics, info


def per_layer(rec, plain, traced):
    """Per-layer metrics from the traced jobs' spans and counters."""
    busy, calls = rec.busy()
    self_t = rec.self_times()
    c, peaks = rec.counts, rec.peaks

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.s"] = (busy.get(name, 0.0), "s")
    m["braids.equals.calls"] = (calls.get("braids.equals", 0), "count")
    m["braids.compact.len_ratio"] = (ratio(c["compact.len_out"], c["compact.len_in"]), "ratio")
    m["braids.dedupe.unique_frac"] = (ratio(c["dedupe.unique"], c["dedupe.total"]), "frac")
    m["action.loopcoords.gens"] = (c["action.loopcoords.gens"], "count")
    m["action.loopcoords.max_bits"] = (peaks["action.loopcoords.max_bits"], "bits")
    m["action.act_with_matrix.gens"] = (c["action.act_with_matrix.gens"], "count")
    m["action.cycle.iterates"] = (c["action.cycle.iterates"], "count")
    m["linalg.max_bits"] = (peaks["linalg.max_bits"], "bits")
    m["entropy.entropy.iterations"] = (c["entropy.entropy.iterations"], "count")
    m["entropy.entropy.converged_frac"] = (ratio(c["entropy.entropy.converged"], c["entropy.entropy.runs"]), "frac")
    m["entropy.entropy.wrong"] = (c["entropy.entropy.wrong"], "count")
    alex_self = 0.0
    for spans in rec.by_job().values():
        if "burau.alexander" in spans and "burau.burau" in spans:
            alex_self += spans["burau.alexander"] - spans["burau.burau"]
    m["burau.alexander.self_s"] = (alex_self, "s")
    m["trajectories.crossings"] = (c["trajectories.crossings"], "count")
    m["trajectories.samples"] = (c["trajectories.samples"], "count")
    m["trajectories.db_compact.len_ratio"] = (ratio(c["db_compact.len_out"], c["db_compact.len_in"]), "ratio")
    for cmd in workloads.CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = (busy.get(f"cli.{cmd}", 0.0), "s")
    m["job.self_s"] = (sum(v for k, v in self_t.items() if k.startswith("job.")), "s")
    plain_jps = plain.attempted / sum(plain.latencies)
    traced_jps = traced.attempted / sum(traced.latencies)
    m["trace.jobs_per_s_delta"] = (plain_jps - traced_jps, "1/s")
    m["trace.overhead_frac"] = (sum(traced.latencies) / sum(plain.latencies) - 1.0, "frac")
    return m


def run(args):
    bk = import_braidkit()
    speed = HostSpeed.child_process() if args.workload == "cli" else HostSpeed.in_process()
    plain, traced, rec = measure(bk, args.workload, args.seed, args.seconds, bool(args.trace), speed)
    judged = traced if args.trace else plain
    if args.trace:
        os.makedirs(OUTDIR, exist_ok=True)
        rec.dump(os.path.join(OUTDIR, f"spans-{args.workload}-{args.seed}.json"))
        metrics, info = per_layer(rec, plain, traced), {"jobs": traced.attempted}
    else:
        rss = peak_rss_mb(args.workload)
        metrics, info = end_to_end(args.workload, plain, rss, setup_seconds(HostSpeed.child_process()))
        info["raw_jobs_per_s"] = plain.attempted / sum(plain.raw)
    correct = judged.verdicts["wrong"] == 0
    info["failed_frac"] = judged.failed / judged.attempted
    info["host_slowdown"] = speed.median()
    info["failures"] = judged.reasons[:5]
    info["verdicts"] = dict(judged.verdicts)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for key, value in info.items():
        print(f"  {key:40s} {value}")
    record = {
        "correct": correct,
        "attempted": judged.attempted,
        "failed": judged.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        full = dict(record, workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, info=info, env=environment())
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(full) + "\n")
    print(json.dumps(record))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record (JSON line) to this file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result files")
    ap.add_argument("--sweep", action="store_true", help="run the scaling sweep")
    args = ap.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))
    if args.sweep:
        import sweep

        return sweep.main(import_braidkit(), args.out, environment(), child_env(), ROOT)
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
