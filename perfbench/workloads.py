"""The four gated workloads: job generation, execution and checks.

A workload builds its jobs one round at a time from the seeded generator
(its ``ROUNDS`` function), outside the timed region.  A job is a kind name
plus plain data (words as int tuples, trajectories as arrays): braidkit
objects are built inside the timed region, so no job reuses an object, or
anything cached on one, from an earlier job.  For each kind:

* ``run(bk, rec, data)`` is the timed work; every call into a braidkit module
  goes through ``rec.call("<module>.<function>", ...)``;
* ``check(bk, data, out)`` compares the output with a reference and returns
  ``None``, ``("wrong", why)`` for an answer the program presents as valid
  but which disagrees with the reference, or ``("flagged", why)`` for an
  answer the program itself marks as unreliable (an unconverged entropy);
* ``observe(bk, data, out, rec)`` adds the per-layer counters (traced run
  only).

Checks and counters run outside the timed region.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np

import gen
import refs

# The float-limit member of the invariants sweep: 866 nats per application,
# past the ~709-nat range of a double.  It is the same braid at every seed,
# so its cost and the way it fails do not vary from run to run.
OVERFLOW_WORD = (1, -2) * 900
ENTROPY_MAX_P = 30  # mixing jobs run entropy of the closed braid up to this P


def _grid(k, lo, hi):
    """``k`` log-spaced integer sizes from ``lo`` to ``hi``."""
    return [int(round(lo * (hi / lo) ** (j / (k - 1)))) for j in range(k)]


def _braid(bk, data, key="word"):
    return bk.make_braid(data[key], data["n"])


# ----------------------------------------------------------------- algebra


def algebra_round(rng):
    """Every size is fixed; only the words are drawn, so each round costs about
    the same at every seed."""
    jobs = []
    for n, L in zip((3, 4, 6, 8), _grid(4, 100, 700)):
        jobs.append(("compact", {"n": n, "word": gen.random_word(rng, n, L)}))
    for truth in (True, False):
        for n, L in zip((3, 4, 6, 10, 14, 20), _grid(6, 100, 10_000)):
            a = gen.random_word(rng, n, L)
            b = gen.scramble(rng, a, n, max(1, L // 20))
            if not truth:
                b = gen.flip_one(rng, b)
            jobs.append(("equals", {"n": n, "word": a, "other": b, "truth": truth}))
    bases = gen.distinct_writhe_words(rng, 4, 24, 13)
    words = bases + [gen.scramble(rng, w, 4, 2) for w in bases for _ in range(2)]
    jobs.append(("dedupe", {"n": 4, "words": [words[k] for k in rng.permutation(len(words))]}))
    for n, L in zip((4, 10, 20), _grid(3, 1000, 10_000)):
        jobs.append(("loopcoords", {"n": n, "word": gen.random_word(rng, n, L)}))
    for n, L in zip((4, 10, 20), _grid(3, 300, 3000)):
        coords = [0] * (2 * (n - 2))
        while not any(coords):
            coords = [int(x) for x in rng.integers(-3, 4, size=2 * (n - 2))]
        jobs.append(("act_with_matrix", {"n": n, "word": gen.random_word(rng, n, L), "coords": coords}))
    for n, L in ((5, 300), (15, 3000), (15, 3000)):  # the slowest jobs: two put p95 between them
        jobs.append(("render", {"n": n, "word": gen.random_word(rng, n, L)}))
    return [jobs[k] for k in rng.permutation(len(jobs))]


def run_compact(bk, rec, d):
    return rec.call("braids.compact", bk.compact, _braid(bk, d))


def check_compact(bk, d, out):
    if len(out.word) > len(d["word"]):
        return ("wrong", "compact lengthened the word")
    if not bk.equals(out, _braid(bk, d)):
        return ("wrong", "compact changed the braid")


def observe_compact(bk, d, out, rec):
    rec.count("compact.len_in", len(d["word"]))
    rec.count("compact.len_out", len(out.word))


def run_equals(bk, rec, d):
    return rec.call("braids.equals", bk.equals, _braid(bk, d), _braid(bk, d, "other"))


def check_equals(bk, d, out):
    if out is not d["truth"]:
        return ("wrong", f"equals returned {out!r}, truth is {d['truth']}")


def run_dedupe(bk, rec, d):
    braids = [bk.make_braid(w, d["n"]) for w in d["words"]]
    return rec.call("braids.dedupe", lambda: len(set(braids)))


def _dedupe_ref(d):
    """Distinct braids, told apart by their exact Burau matrices at t = 2
    (different matrices prove different braids; the bases are also distinct
    by writhe, and the planted copies equal their base by construction)."""
    return len({tuple(map(tuple, refs.burau_at(w, d["n"]))) for w in d["words"]})


def check_dedupe(bk, d, out):
    ref = _dedupe_ref(d)
    if out != ref:
        return ("wrong", f"set() kept {out} braids, {ref} are distinct")


def observe_dedupe(bk, d, out, rec):
    rec.count("dedupe.unique", out)
    rec.count("dedupe.total", len(d["words"]))


def run_loopcoords(bk, rec, d):
    return rec.call("action.loopcoords", bk.loopcoords, _braid(bk, d))


def check_loopcoords(bk, d, out):
    back = bk.act(bk.inverse(_braid(bk, d)), out)
    if back.coords != bk.canonical_loop(d["n"], basepoint=True).coords:
        return ("wrong", "inverse braid does not return loopcoords to the basepoint loop")


def observe_loopcoords(bk, d, out, rec):
    rec.count("action.loopcoords.gens", len(d["word"]))
    rec.peak("action.loopcoords.max_bits", refs.max_bits(out.coords))


def run_act_with_matrix(bk, rec, d):
    return rec.call("action.act_with_matrix", bk.act_with_matrix, _braid(bk, d), bk.make_loop(d["coords"]))


def check_act_with_matrix(bk, d, out):
    image, M = out
    if refs.mat_vec(M.entries, d["coords"]) != image.coords:
        return ("wrong", "matrix times loop differs from the image loop")
    if bk.act(_braid(bk, d), bk.make_loop(d["coords"])).coords != image.coords:
        return ("wrong", "image differs from act()")


def observe_act_with_matrix(bk, d, out, rec):
    rec.count("action.act_with_matrix.gens", len(d["word"]))


def run_render(bk, rec, d):
    return rec.call("render.render_braid", bk.render_braid, _braid(bk, d))


def check_render(bk, d, out):
    signs, slots = refs.svg_crossings(out)
    if slots != list(range(len(d["word"]))) or signs != tuple(1 if w > 0 else -1 for w in d["word"]):
        return ("wrong", "SVG crossing markers do not match the word")


# -------------------------------------------------------------- invariants

# Burau/Alexander jobs per round as (n, L, count).  Alexander via cofactor
# expansion grows factorially with n once the Burau matrix fills in, so long
# words stay on the smaller strand counts.  Its cost varies with the word's
# zero pattern at n = 8, 9 and much less at n = 7 or small n.  The groups of
# one size place the percentiles inside a group rather than on the edge
# between two sizes: eight at n = 7, L = 100 (the slowest burau job) hold
# p80, six at n = 4, L = 160 hold p50.
BURAU_JOBS = (
    (3, 200, 1), (4, 160, 6), (4, 200, 1), (5, 160, 1), (6, 120, 1), (7, 100, 8), (8, 40, 1), (9, 20, 1),
)


def invariants_round(rng):
    """Per round: the ``BURAU_JOBS``; the growth sweep at each n = 3..9 on one
    word whose length grows with n from 100 to 1500; and the sweep on
    ``OVERFLOW_WORD``."""
    jobs = []
    for n, L, count in BURAU_JOBS:
        for _ in range(count):
            jobs.append(("burau", {"n": n, "word": gen.random_word(rng, n, L)}))
    words = [(n, gen.random_word(rng, n, int(100 * 15 ** ((n - 3) / 6)))) for n in range(3, 10)]
    words.append((3, OVERFLOW_WORD))
    for n, w in words:
        jobs.append(("growth", {"n": n, "word": w}))
        jobs.append(("spectrum", {"n": n, "word": w}))
    return [jobs[k] for k in rng.permutation(len(jobs))]


def run_burau(bk, rec, d):
    b = _braid(bk, d)
    sym = rec.call("burau.burau", bk.burau, b)
    ev = rec.call("burau.burau_eval", bk.burau, b, refs.T0)
    alex = rec.call("burau.alexander", bk.alexander, b)
    return sym, ev, alex


def check_burau(bk, d, out):
    sym, ev, alex = out
    ref = refs.burau_at(d["word"], d["n"])
    if [[Fraction(x) for x in row] for row in ev.entries] != ref:
        return ("wrong", "evaluated Burau differs from the reference")
    if [[p.eval_at(refs.T0) for p in row] for row in sym.entries] != ref:
        return ("wrong", "symbolic Burau at t0 differs from the reference")
    if alex.eval_at(refs.T0) != refs.alexander_at(d["word"], d["n"], ref):
        return ("wrong", "Alexander polynomial at t0 differs from det(I - B(t0))")


def _entropy_verdict(res, growth):
    g = growth[0]
    if not res.converged and g < refs.ZERO_GROWTH:
        return None  # the documented result for finite-order and very low entropy braids
    if not res.converged:
        return ("flagged", f"entropy unconverged after {res.iterations} iterations (exact growth {g:.4g})")
    if not refs.growth_close(res.value, growth, refs.ENTROPY_RTOL):
        return ("wrong", f"entropy {res.value!r} vs exact growth {growth!r}")


def run_growth(bk, rec, d):
    b = _braid(bk, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ent = rec.call("entropy.entropy", bk.entropy, b)
    return ent, rec.call("entropy.complexity", bk.complexity, b)


def check_growth(bk, d, out):
    ent, cx = out
    b = _braid(bk, d)
    image = bk.act(b, bk.canonical_loop(d["n"], basepoint=True))
    if not refs.close(cx, math.log2((bk.intaxis(image) - 2 * (d["n"] - 2)) // 2), 1e-12):
        return ("wrong", "complexity differs from its definition")
    d["growth"] = refs.exact_growth(bk, b)
    return _entropy_verdict(ent, d["growth"])


def observe_entropy(rec, d, ent):
    rec.count("entropy.entropy.iterations", ent.iterations)
    rec.count("entropy.entropy.converged", int(ent.converged))
    rec.count("entropy.entropy.runs")
    if "growth" in d and _entropy_verdict(ent, d["growth"]) is not None:
        rec.count("entropy.entropy.wrong")


def observe_growth(bk, d, out, rec):
    observe_entropy(rec, d, out[0])


def run_spectrum(bk, rec, d):
    cyc = rec.call("action.cycle", bk.cycle, _braid(bk, d))
    M = cyc.product()
    cp = rec.call("linalg.charpoly", bk.charpoly, M)
    rho = rec.call("linalg.spectral_radius", bk.spectral_radius, M)
    return cyc, M, cp, rho


def check_spectrum(bk, d, out):
    cyc, M, cp, rho = out
    growth = refs.exact_growth(bk, _braid(bk, d))
    if not refs.growth_close(math.log(rho) / cyc.period, growth, refs.SPECTRAL_RTOL):
        return ("wrong", "log spectral radius of the cycle differs from the exact growth")
    if not refs.charpoly_ok(cp, M.entries):
        return ("wrong", "charpoly fails the trace/determinant check")


def observe_spectrum(bk, d, out, rec):
    cyc, M, cp, rho = out
    rec.count("action.cycle.iterates", cyc.preperiod + 2 * cyc.period)
    rec.peak("linalg.max_bits", refs.max_bits(x for row in M.entries for x in row))


# ------------------------------------------------------------------ mixing


def mixing_round(rng):
    jobs = []
    # groups of one size hold the percentiles: six sets at P = 100 hold p50
    # and six at P = 300 hold p80
    for k, P in enumerate(_grid(12, 10, 200) + [100] * 6 + [300] * 6):
        times, pos = gen.stirring(rng, P)
        jobs.append(("mix", {"times": times, "pos": pos, "closure": ("default", "mindist")[k % 2]}))
    return [jobs[k] for k in rng.permutation(len(jobs))]


def run_mix(bk, rec, d):
    ts = bk.TrajectorySet(times=d["times"], positions=d["pos"])
    closed = rec.call("trajectories.closure", bk.closure, ts, d["closure"])
    db = rec.call("trajectories.databraid_from_data", bk.databraid_from_data, closed)
    dc = rec.call("trajectories.db_compact", bk.db_compact, db)
    f = rec.call("trajectories.ftbe", bk.ftbe, dc, float(closed.times[-1] - closed.times[0]))
    ent = None
    if ts.nparticles <= ENTROPY_MAX_P:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ent = rec.call("entropy.entropy", bk.entropy, dc.braid)
    return closed, db, dc, f, ent


def check_mix(bk, d, out):
    closed, db, dc, f, ent = out
    pos = d["pos"]
    last = closed.positions[-1]
    if not np.array_equal(closed.positions[:-1], pos) or sorted(map(tuple, last)) != sorted(map(tuple, pos[0])):
        return ("wrong", "closure did not append one sample onto the initial points")
    if bk.perm(db.braid) != refs.data_perm(pos[0], last):
        return ("wrong", "perm of the data braid differs from the final rank order")
    pairs = iter(zip(db.braid.word, db.tcross))
    if len(dc.braid.word) > len(db.braid.word) or not all(p in pairs for p in zip(dc.braid.word, dc.tcross)):
        return ("wrong", "db_compact did more than delete generators")
    if not bk.equals(dc.braid, db.braid):
        return ("wrong", "db_compact changed the braid")
    base = bk.canonical_loop(dc.braid.n, basepoint=True)
    ref = (math.log(bk.intaxis(bk.act(dc.braid, base))) - math.log(bk.intaxis(base))) / (
        d["times"][-1] - d["times"][0] + (d["times"][-1] - d["times"][0]) / (len(d["times"]) - 1)
    )
    if not refs.close(f, ref, 1e-9):
        return ("wrong", "ftbe differs from its definition")
    if ent is not None:
        d["growth"] = refs.exact_growth(bk, dc.braid)
        return _entropy_verdict(ent, d["growth"])


def observe_mix(bk, d, out, rec):
    closed, db, dc, f, ent = out
    rec.count("trajectories.crossings", len(db.braid.word))
    rec.count("trajectories.samples", closed.nsamples * closed.nparticles)
    rec.count("db_compact.len_in", len(db.braid.word))
    rec.count("db_compact.len_out", len(dc.braid.word))
    if ent is not None:
        observe_entropy(rec, d, ent)


# --------------------------------------------------------------------- cli

CLI_COMMANDS = (
    "braid_compact", "braid_equals", "loopcoords", "act", "cycle", "charpoly",
    "entropy", "burau", "alexander", "fromdata", "ftbe", "render",
)


class CliContext:
    """The checkout the cli children run in, their environment, and where
    the cli workload writes its input files."""

    def __init__(self, root, env, outdir):
        self.root, self.env, self.outdir = root, env, outdir


CLI = None  # set by the harness before the cli workload runs


def _wstr(word):
    return " ".join(str(w) for w in word)


def cli_round(rng):
    os.makedirs(CLI.outdir, exist_ok=True)
    jobs = []
    for cmd in CLI_COMMANDS:
        d = {"cmd": cmd}
        n = int(rng.integers(3, 6))
        d["n"] = n
        if cmd in ("cycle", "charpoly", "entropy"):  # pseudo-Anosov, so the growth settles fast
            d["word"] = gen.penner_word(rng, n, 24)
        else:
            d["word"] = gen.random_word(rng, n, {"braid_compact": 60, "loopcoords": 300, "act": 200,
                                                 "burau": 30, "alexander": 30, "render": 40}.get(cmd, 24))
        if cmd == "braid_equals":
            d["other"] = gen.scramble(rng, d["word"], n, 3)
            d["truth"] = bool(rng.integers(0, 2))
            if not d["truth"]:
                d["other"] = gen.flip_one(rng, d["other"])
        if cmd == "act":
            d["coords"] = [int(x) for x in rng.integers(1, 4, size=2 * (n - 2))]
        if cmd in ("fromdata", "ftbe"):
            times, pos = gen.stirring(rng, 8, 200)
            d["times"], d["pos"] = times, pos
            d["file"] = os.path.join(CLI.outdir, f"tracks-{cmd}.csv")
            _write_csv(d["file"], times, pos)
        if cmd == "render":
            d["file"] = os.path.join(CLI.outdir, "braid.svg")
        jobs.append(("cli", d))
    return jobs


def _write_csv(path, times, pos):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,id,x,y\n")
        for k, t in enumerate(times):
            for p in range(pos.shape[1]):
                fh.write(f"{float(t)!r},{p + 1},{float(pos[k, p, 0])!r},{float(pos[k, p, 1])!r}\n")


def _cli_argv(d):
    cmd, w, n = d["cmd"], _wstr(d["word"]), ["--n", str(d["n"])]
    if cmd == "braid_compact":
        return ["braid", "compact", w, *n]
    if cmd == "braid_equals":
        return ["braid", "equals", w, _wstr(d["other"]), *n]
    if cmd == "act":
        return ["act", w, _wstr(d["coords"]), "--matrix", *n]
    if cmd == "burau":
        return ["burau", w, "--at", str(refs.T0), *n]
    if cmd == "fromdata":
        return ["fromdata", d["file"], "--closure", "default", "--databraid"]
    if cmd == "ftbe":
        return ["ftbe", d["file"], "--closure", "mindist"]
    if cmd == "render":
        return ["render", "braid", w, "--out", d["file"], *n]
    return [cmd, w, *n]  # loopcoords, cycle, charpoly, entropy, alexander


def run_cli(bk, rec, d):
    argv = [sys.executable, "-m", "braidkit.cli", "--json", *_cli_argv(d)]
    proc = rec.call(
        f"cli.{d['cmd']}", subprocess.run, argv, env=CLI.env, cwd=CLI.root,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return json.loads(proc.stdout) if d["cmd"] != "render" else proc.stdout


def check_cli(bk, d, out):
    cmd, n = d["cmd"], d["n"]
    b = _braid(bk, d)
    if cmd == "braid_compact":
        c = bk.make_braid(out["word"], out["n"])
        return check_compact(bk, d, c)
    if cmd == "braid_equals":
        return check_equals(bk, d, out["equal"])
    if cmd == "loopcoords":
        return check_loopcoords(bk, d, bk.make_loop(out["coords"], out["basepoint"]))
    if cmd == "act":
        M = bk.LinearAction(tuple(tuple(r) for r in out["matrix"]["entries"]))
        return check_act_with_matrix(bk, d, (bk.make_loop(out["loop"]["coords"]), M))
    if cmd in ("cycle", "charpoly", "entropy"):
        growth = refs.exact_growth(bk, b)
        if cmd == "cycle":
            M = out["matrices"][0]["entries"]
            rho = bk.spectral_radius(M)
            if not refs.growth_close(math.log(rho) / out["period"], growth, refs.SPECTRAL_RTOL):
                return ("wrong", "cycle product spectral radius differs from the exact growth")
        elif cmd == "charpoly":
            if out["coeffs"] != list(bk.charpoly(bk.cycle(b).product())):
                return ("wrong", "charpoly differs from the in-process result")
        else:
            res = bk.EntropyResult(out["entropy"], out["converged"], out["iterations"])
            return _entropy_verdict(res, growth)
        return None
    if cmd == "burau":
        ref = refs.burau_at(d["word"], n)
        if not all(math.isclose(x, float(r), rel_tol=1e-12) for row, rr in zip(out["entries"], ref) for x, r in zip(row, rr)):
            return ("wrong", "burau --at differs from the reference")
        return None
    if cmd == "alexander":
        poly = bk.laurent_from_json(out)
        if poly.eval_at(refs.T0) != refs.alexander_at(d["word"], n):
            return ("wrong", "alexander at t0 differs from det(I - B(t0))")
        return None
    if cmd == "fromdata":
        # the default closure keeps the final X order
        expected = refs.data_perm(d["pos"][0], d["pos"][-1])
        if bk.perm(bk.make_braid(out["word"], out["n"])) != expected:
            return ("wrong", "perm of the data braid differs from the final rank order")
        return None
    if cmd == "ftbe":
        ts = bk.load_trajectories(d["file"])
        ref = bk.ftbe(bk.databraid_from_data(bk.closure(ts, "mindist")))
        if not refs.close(out["ftbe"], ref, 1e-9):
            return ("wrong", "ftbe differs from the in-process result")
        return None
    if cmd == "render":
        with open(d["file"], encoding="utf-8") as fh:
            return check_render(bk, d, fh.read())


# ---------------------------------------------------------------- registry

KINDS = {
    "compact": (run_compact, check_compact, observe_compact),
    "equals": (run_equals, check_equals, None),
    "dedupe": (run_dedupe, check_dedupe, observe_dedupe),
    "loopcoords": (run_loopcoords, check_loopcoords, observe_loopcoords),
    "act_with_matrix": (run_act_with_matrix, check_act_with_matrix, observe_act_with_matrix),
    "render": (run_render, check_render, None),
    "burau": (run_burau, check_burau, None),
    "growth": (run_growth, check_growth, observe_growth),
    "spectrum": (run_spectrum, check_spectrum, observe_spectrum),
    "mix": (run_mix, check_mix, observe_mix),
    "cli": (run_cli, check_cli, None),
}

ROUNDS = {
    "algebra": algebra_round,
    "invariants": invariants_round,
    "mixing": mixing_round,
    "cli": cli_round,
}
