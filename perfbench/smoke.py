"""Smoke test of the benchmark at tiny sizes.

Named so that a bare ``python -m pytest`` from the repository root does not
collect it; run it explicitly::

    python3 -m pytest perfbench/smoke.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

bk = run.import_braidkit()

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny_round(workload):
    """One job of every kind the workload runs, at tiny sizes."""
    rng = np.random.default_rng(0)
    w = gen.random_word(rng, 4, 12)
    rounds = {
        "algebra": [
            ("compact", {"n": 4, "word": w}),
            ("equals", {"n": 4, "word": w, "other": gen.scramble(rng, w, 4, 2), "truth": True}),
            ("equals", {"n": 4, "word": w, "other": gen.flip_one(rng, w), "truth": False}),
            ("dedupe", {"n": 4, "words": gen.distinct_writhe_words(rng, 4, 8, 3) * 2}),
            ("loopcoords", {"n": 4, "word": w}),
            ("act_with_matrix", {"n": 4, "word": w, "coords": [1, -2, 0, 3]}),
            ("render", {"n": 4, "word": w}),
        ],
        "invariants": [
            ("burau", {"n": 4, "word": w}),
            ("growth", {"n": 3, "word": gen.penner_word(rng, 3, 20)}),
            ("spectrum", {"n": 3, "word": gen.penner_word(rng, 3, 20)}),
        ],
        "mixing": [],
        "cli": [],
    }
    for method in ("default", "mindist"):
        times, pos = gen.stirring(rng, 6, 200)
        rounds["mixing"].append(("mix", {"times": times, "pos": pos, "closure": method}))

    def make(rng):
        if workload == "cli":  # cli_round writes its files where measure() says
            return [j for j in workloads.cli_round(rng) if j[1]["cmd"] in ("braid_equals", "fromdata")]
        return rounds[workload]

    return make


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted(workload):
    plain, traced, rec = run.measure(bk, workload, 0, 1e-9, True, run.HostSpeed.in_process(), round_fn=tiny_round(workload))
    assert plain.attempted == traced.attempted >= 2
    assert traced.failed == 0, traced.reasons
    layer = run.per_layer(rec, plain, traced)
    assert sorted(layer) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e, info = run.end_to_end(workload, plain, run.peak_rss_mb(workload), 0.5)
    assert sorted(e2e) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        value, unit = (e2e if m in SPEC["end_to_end"] else layer)[m["name"]]
        assert unit == m["unit"] and np.isfinite(value)


class PlantedWrongCompact:
    """braidkit, except that ``compact`` appends a generator."""

    def __getattr__(self, name):
        return getattr(bk, name)

    @staticmethod
    def compact(b):
        return bk.make_braid(b.word + (1,), b.n)


def test_planted_wrong_answer_is_counted():
    plain, _, _ = run.measure(PlantedWrongCompact(), "algebra", 0, 1e-9, False, run.HostSpeed.in_process(), round_fn=tiny_round("algebra"))
    assert plain.verdicts["wrong"] == 1 and plain.failed == 1
    e2e, info = run.end_to_end("algebra", plain, 1.0, 0.5)
    assert info["failed_frac"] == pytest.approx(1 / plain.attempted)
    assert e2e["ok_frac"][0] == pytest.approx(1 - 1 / plain.attempted)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
