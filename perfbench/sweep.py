"""Scaling sweep: the baseline table, at least three sizes per path.

Separate from the gated workloads.  Each path is timed at three sizes (median of several calls when a call is short) and the table gives
the log-log slope of time against size, so growth order shows and not only
a constant.  The last row is the entropy overflow: a word whose exact growth
passes the ~709-nat range of a double in one application.

    python3 perfbench/run.py --sweep [--out sweep.json]
"""
from __future__ import annotations

import json
import subprocess
import sys
import warnings
from time import perf_counter

import numpy as np

import gen
import refs

SEED = 1
MIN_TIME = 0.2  # repeat a call until this much time has passed (at most 5 calls)


def _time(fn):
    times = []
    while len(times) < 5 and sum(times) < MIN_TIME:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return float(np.median(times))


def _paths(bk, env, root):
    """``(path, size variable, [(size, call)])``.  Each call builds its
    braidkit objects from plain data, so nothing cached on an object from an
    earlier call is reused."""
    rng = np.random.default_rng(SEED)

    def on_word(fn, n, L):
        w = gen.random_word(rng, n, L)
        return lambda: fn(bk.make_braid(w, n))

    def cli(L):
        word = " ".join(map(str, gen.penner_word(rng, 4, L)))
        argv = [sys.executable, "-m", "braidkit.cli", "entropy", word]
        return lambda: subprocess.run(argv, env=env, cwd=root, check=True, capture_output=True)

    def data(P):
        times, pos = gen.stirring(rng, P)
        return lambda: bk.databraid_from_data(bk.TrajectorySet(times=times, positions=pos))

    def ftbe(L):
        w = gen.random_word(rng, 10, L)
        return lambda: bk.ftbe(bk.DataBraid(bk.make_braid(w, 10), tuple(range(L))))

    def dedupe(count):
        words = [gen.random_word(rng, 4, 12) for _ in range(count)]
        return lambda: len({bk.make_braid(w, 4) for w in words})

    def apply_gen(n):
        return lambda: bk.apply_generator(bk.canonical_loop(n), n // 2)

    yield "cli entropy end to end", "L", [(L, cli(L)) for L in (10, 100, 1000)]
    yield "apply_generator", "n", [(n, apply_gen(n)) for n in (10, 100, 1000)]
    yield "loopcoords n=10", "L", [(L, on_word(bk.loopcoords, 10, L)) for L in (1000, 10_000, 100_000)]
    yield "act_with_matrix L=1e3", "n", [
        (n, on_word(lambda b: bk.act_with_matrix(b, bk.canonical_loop(b.n)), n, 1000)) for n in (10, 20, 30)
    ]
    yield "entropy n=10", "L", [(L, on_word(bk.entropy, 10, L)) for L in (300, 1000, 3000)]
    yield "cycle n=4", "L", [(L, on_word(bk.cycle, 4, L)) for L in (300, 1000, 3000)]
    yield "alexander L=200", "n", [(n, on_word(bk.alexander, n, 200)) for n in (6, 7, 8)]
    yield "compact n=5", "L", [(L, on_word(bk.compact, 5, L)) for L in (500, 1000, 2000)]
    yield "databraid_from_data T=2000", "P", [(P, data(P)) for P in (75, 150, 300)]
    yield "ftbe n=10", "L", [(L, ftbe(L)) for L in (1000, 3000, 10_000)]
    yield "render_braid n=10", "L", [(L, on_word(bk.render_braid, 10, L)) for L in (1000, 3000, 10_000)]
    yield "len(set) n=4 L=12", "count", [(c, dedupe(c)) for c in (100, 200, 400)]


def main(bk, out, env_info, env, root):
    warnings.simplefilter("ignore")
    rows = []
    print(f"{'path':30s} {'size':>14s} {'times (s)':>34s} {'slope':>6s}")
    for name, var, cases in _paths(bk, env, root):
        sizes = [s for s, _ in cases]
        times = [_time(fn) for _, fn in cases]
        slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        rows.append({"path": name, "var": var, "sizes": sizes, "seconds": times, "slope": slope})
        size_txt = f"{var}=" + "/".join(f"{s:g}" for s in sizes)
        print(f"{name:30s} {size_txt:>14s} {' / '.join(f'{t:.3g}' for t in times):>34s} {slope:6.2f}")
    rng = np.random.default_rng(SEED)
    b = bk.make_braid(gen.random_word(rng, 4, 7000), 4)
    t0 = perf_counter()
    res = bk.entropy(b)
    dt = perf_counter() - t0
    growth, _ = refs.exact_growth(bk, b)
    overflow = {"path": "entropy overflow n=4 L=7000", "seconds": dt, "value": res.value,
                "converged": res.converged, "iterations": res.iterations, "exact_growth": growth}
    print(f"{overflow['path']:30s} {dt:.3g} s, returns {res.value} (converged={res.converged}); "
          f"exact growth {growth:.1f} nats")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"env": env_info, "seed": SEED, "rows": rows, "overflow": overflow}, fh, indent=1)
    return 0
