"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its assertions hold; a failure shows up
as the usual pytest failure for that criterion.  Run with ``pytest -s`` to
see the lines.
"""
import math
import random
import warnings

import pytest

import braidkit as bk
from braidkit.entropy import NONCONVERGENCE_WARNING, complexity, entropy, entropy_fixed_iterates
from braidkit.burau import alexander, burau, FractionalPowersError
from braidkit.laurent import LaurentPoly
from braidkit.linalg import det_exact
from braidkit.trajectories import (
    CoincidentProjectionError,
    DataBraid,
    TrajectorySet,
    braid_from_data,
    closure,
    databraid_from_data,
    db_compact,
    db_mul,
    ftbe,
    trajectories_from_braid,
)

import numpy as np
from test_burau import burau_det_matches_writhe


def report(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def rand_word(rng, n, kmax):
    return [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, kmax))]


def test_criterion_01_action_fixtures_exact():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    assert bk.act(bk.make_braid([-1], 5), l).coords == (-1, 1, -2, 1, -1, 0)

    b = bk.make_braid([1, -2])
    image, M = bk.act_with_matrix(b, bk.make_loop([0, -1]))
    assert image.coords == (1, -1)
    assert M.entries == ((1, -1), (0, 1))

    batch = bk.act(b, bk.make_loop([[-1, 1, -2, 0], [1, -2, 3, 4]]))
    assert batch[0].coords == (2, 1, -2, 1)
    assert batch[1].coords == (5, -2, -3, 11)

    _, M4 = bk.act_with_matrix(b, bk.canonical_loop(3, basepoint=True))
    assert M4.entries == ((0, 0, -1, 0), (0, 1, 0, 1), (0, 1, 1, 1), (1, -1, -1, 0))
    report(1, "generator/word/batch action values and both matrices exact")


def test_criterion_02_normal_form():
    assert str(bk.loopcoords(bk.make_braid([1, 2, 3, -4]))) == "(( 0 0 3 -1 -1 -1 -4 3 ))*"
    a = bk.make_braid([1, -2])
    b = bk.make_braid([1, -2, 2, 1, 2, -1, -2, -1])
    assert bk.equals(a, b)
    assert bk.istrivial(bk.mul(a, bk.inverse(a)))
    report(2, "loop-coordinate normal form, word equality, triviality")


def test_criterion_03_entropy():
    pins = [
        ([1, 2, -3], 0.8314),
        ([1, -2], 0.9624),
        ([1, 2, 3, -4], 0.7672),
        ([-2, 1, 1, -2], 1.7627),       # taffy3
        ([1, 3, 2, 2, 1, 3], 1.7627),   # taffy4
        ([3, 2, 1, 2, 4, 5, 4, 3, 3, 2, 1, 2, 5, 4, 5, 3], 2.6339),  # taffy6
    ]
    for word, expected in pins:
        r = entropy(bk.make_braid(word))
        assert r.converged and abs(r.value - expected) <= 1e-3, (word, r.value)
    r = entropy(bk.make_annular_braid([1, -2]))
    assert r.converged and abs(r.value - 1.7627) <= 1e-3
    r = entropy(bk.power(bk.make_braid([1, 2, -3]), 4))
    assert r.converged and abs(r.value - 3.3258) <= 1e-3
    for word in ([1, 2], [1, -2, 1, -2, 1, 2]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = entropy(bk.make_braid(word))
        assert r.value == 0.0 and not r.converged
        assert any(NONCONVERGENCE_WARNING in str(w.message) for w in caught)
    report(3, "eight entropy pins within 1e-3, two non-convergent cases return (0, not converged)")


def test_criterion_04_fixed_iterate_estimate():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    v = entropy_fixed_iterates(bk.make_braid([1, 2, 3, -4]), l, 100)
    assert abs(v - 0.7637) <= 1e-4
    report(4, f"100-iterate estimate {v:.4f} within 1e-4 of 0.7637")


def test_criterion_05_complexity():
    c1 = complexity(bk.make_braid([1, -2]))
    c2 = complexity(bk.make_braid([1, 2]))
    assert abs(c1 - 2.0) <= 1e-4
    assert abs(c2 - 1.5850) <= 1e-4
    report(5, f"complexity {c1:.4f} / {c2:.4f} within 1e-4 of 2.0000 / 1.5850")


def test_criterion_06_cycles():
    assert bk.cycle(bk.make_braid([1, 2, 3])).period == 4

    r = bk.cycle(bk.make_braid([1, -2]), l0=bk.make_loop([1, 1]))
    assert r.period == 1
    assert r.matrices[0].entries == ((2, -1), (-1, 1))

    r2 = bk.cycle(bk.make_braid([-1, -2, -3, 4]), l0=bk.canonical_loop(5, basepoint=False))
    assert r2.period == 2
    assert r2.matrices[0].entries == (
        (-1, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (0, 0, 2, -1, -1, 1),
        (0, 0, 0, 0, 1, 0),
        (-1, 0, 1, -1, -1, 1),
        (0, 0, 1, 0, 0, 1),
    )
    assert r2.matrices[1].entries == (
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (0, 0, 2, -1, -1, 1),
        (-1, 1, 0, -1, 1, 0),
        (0, -1, 1, 0, -1, 1),
        (0, 0, 1, 0, 0, 1),
    )

    for word in ([1, -2], [1, 2, -3]):
        b = bk.make_braid(word)
        rc = bk.cycle(b)
        rate = math.log(bk.spectral_radius(rc.product())) / rc.period
        assert abs(rate - entropy(b).value) <= 1e-4
    report(6, "periods 4/1/2, fixed-point and period-2 matrices exact, log-radius matches entropy")


def test_criterion_07_loop_functionals():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    inums = bk.intersec(l)
    assert inums.mu == (2, 0, 1, 3, 4, 0)
    assert inums.nu == (2, 2, 4, 4)
    assert bk.minlength(l) == 12
    assert bk.minlength(bk.make_loop([-1, 1, -2, 0])) == 14
    assert bk.minlength(bk.make_loop([1, -2, 3, 4])) == 34
    assert bk.intaxis(l) == 12
    report(7, "intersection numbers and minlength 12/14/34, intaxis 12, all exact")


def test_criterion_08_polynomials():
    assert burau(bk.make_braid([1, -2]), -1).entries == ((1, -1), (-1, 2))
    B = burau(bk.make_braid([1, -2]))
    t = LaurentPoly.var()
    one = LaurentPoly.const(1)
    assert B.entries == (
        (-t, t),
        (-one, one - LaurentPoly.term(1, -1)),
    )
    assert alexander(bk.make_braid([1, 1, 1])) == LaurentPoly(0, (1, -1, 1))
    assert alexander(bk.make_braid([1, -2, 1, -2])) == LaurentPoly(-2, (-1, 3, -1))
    assert alexander(bk.make_braid([1, -2, 1, -2]), centered=True) == LaurentPoly(-1, (-1, 3, -1))
    assert alexander(bk.make_braid([1, 1])) == LaurentPoly(0, (1, -1))
    with pytest.raises(FractionalPowersError) as err:
        alexander(bk.make_braid([1, 1]), centered=True)
    assert "Polynomial with fractional powers." in str(err.value)
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(2, 5)
        assert burau_det_matches_writhe(bk.make_braid(rand_word(rng, n, 8), n))
    report(8, "Burau pins, Alexander pins with centered error, det == (-t)^writhe on 100 braids")


def test_criterion_09_structure_ops():
    a = bk.make_braid([1, 2, -3])
    assert str(bk.subbraid(a, [1, 2, 4])) == "< 1 -2 >"
    b2 = bk.subbraid(bk.power(a, 4), [1, 2, 4])
    assert str(b2) == "< 1 -2 1 -2 1 2 >"
    assert str(bk.tensor(a, bk.make_braid([1, -2]))) == "< 1 2 -3 5 -6 >"
    assert bk.perm(a) == (2, 3, 4, 1)
    assert bk.perm(bk.power(a, 4)) == (1, 2, 3, 4)
    assert bk.writhe(a) == 1
    assert str(bk.halftwist(5)) == "< 4 3 2 1 4 3 2 4 3 4 >"
    c = bk.make_braid([2, -1], 3)
    conj = bk.mul(bk.mul(c, b2), bk.inverse(c))
    assert bk.equals(conj, bk.make_braid([1, 1], 3))
    report(9, "subbraid/tensor/perm/writhe/halftwist fixtures and the conjugation identity")


def test_criterion_10_property_suites():
    rng = random.Random(99)
    # braid relations and inverse-identity as exact loop actions, 1000 cases
    for _ in range(1000):
        n = rng.randint(3, 8)
        l = bk.make_loop([rng.randint(-10, 10) for _ in range(2 * (n - 2))])
        N = l.totaln
        i = rng.randint(1, N - 2)
        lhs = bk.apply_generator(bk.apply_generator(bk.apply_generator(l, i, 1), i + 1, 1), i, 1)
        rhs = bk.apply_generator(bk.apply_generator(bk.apply_generator(l, i + 1, 1), i, 1), i + 1, 1)
        assert lhs == rhs
        far = [(p, q) for p in range(1, N) for q in range(1, N) if abs(p - q) > 1]
        if far:
            p, q = rng.choice(far)
            assert bk.apply_generator(bk.apply_generator(l, p, 1), q, 1) == bk.apply_generator(
                bk.apply_generator(l, q, 1), p, 1
            )
        j = rng.randint(1, N - 1)
        assert bk.apply_generator(bk.apply_generator(l, j, 1), j, -1) == l

    # act/matrix consistency on boundary-rich loops, 1000 cases
    for _ in range(1000):
        n = rng.randint(2, 8)
        b = bk.make_braid(rand_word(rng, n, 10), n)
        l = bk.make_loop([rng.randint(-10, 10) for _ in range(2 * rng.randint(max(1, n - 2), n))])
        image, M = bk.act_with_matrix(b, l)
        assert M.apply(l.coords) == image.coords

    # unimodularity on generic loops (inside open linear regions)
    for _ in range(300):
        n = rng.randint(2, 8)
        b = bk.make_braid(rand_word(rng, n, 10), n)
        l = bk.make_loop(
            [rng.randint(-10**6, 10**6) for _ in range(2 * rng.randint(max(1, n - 2), n))]
        )
        _, M = bk.act_with_matrix(b, l)
        assert abs(det_exact(M.entries)) == 1

    # homomorphism laws
    def compose(p, q):
        return tuple(p[q[j] - 1] for j in range(len(p)))

    for _ in range(200):
        n = rng.randint(2, 6)
        a = bk.make_braid(rand_word(rng, n, 8), n)
        b = bk.make_braid(rand_word(rng, n, 8), n)
        assert bk.perm(bk.mul(a, b)) == compose(bk.perm(a), bk.perm(b))
        assert bk.writhe(bk.mul(a, b)) == bk.writhe(a) + bk.writhe(b)

    # entropy invariance under conjugation, powers, inverse
    base = {w: entropy(bk.make_braid(list(w))).value for w in ((1, 2, -3), (1, -2))}
    for w, val in base.items():
        b = bk.make_braid(list(w))
        assert abs(entropy(bk.inverse(b)).value - val) <= 2e-3
        for k in (2, 3, 4):
            assert abs(entropy(bk.power(b, k)).value - k * val) <= 2e-3 * k
        for _ in range(3):
            c = bk.make_braid(rand_word(rng, b.n, 4) or [1], b.n)
            conj = bk.mul(bk.mul(c, b), bk.inverse(c))
            assert abs(entropy(conj).value - val) <= 2e-3
    report(10, "relations/inverse actions (1000), act-matrix exactness (1000), |det M| = 1, "
               "perm/writhe homomorphisms, entropy invariances")


def test_criterion_11_trajectory_pipeline():
    rng = random.Random(123)
    for _ in range(200):
        n = rng.randint(2, 6)
        b = bk.make_braid(rand_word(rng, n, 20), n)
        assert bk.equals(braid_from_data(trajectories_from_braid(b)), b)

    for _ in range(20):
        n = rng.randint(2, 5)
        b = bk.make_braid(rand_word(rng, n, 12), n)
        ts = trajectories_from_braid(b)
        assert bk.lexeq(braid_from_data(closure(ts)), braid_from_data(ts))

    def cycle_type(p):
        seen = [False] * len(p)
        out = []
        for s in range(len(p)):
            if seen[s]:
                continue
            ln, cur = 0, s
            while not seen[cur]:
                seen[cur] = True
                cur = p[cur] - 1
                ln += 1
            out.append(ln)
        return sorted(out)

    for _ in range(10):
        n = rng.randint(2, 5)
        b = bk.make_braid(rand_word(rng, n, 10), n)
        closed = closure(trajectories_from_braid(b))
        bX = braid_from_data(closed, 0.0)
        bA = braid_from_data(closed, 0.35)
        assert bk.writhe(bX) == bk.writhe(bA)
        assert cycle_type(bk.perm(bX)) == cycle_type(bk.perm(bA))

    # perfectly aligned rod pairs break the vertical projection
    t = np.linspace(0, 1, 11)
    th = 2 * np.pi * t
    r, d = 1.0, 3.0
    rods = np.stack(
        [
            np.stack([d + r * np.cos(th), r * np.sin(th)], axis=1),
            np.stack([d - r * np.cos(th), -r * np.sin(th)], axis=1),
            np.stack([-d + r * np.cos(th), r * np.sin(th)], axis=1),
            np.stack([-d - r * np.cos(th), -r * np.sin(th)], axis=1),
        ],
        axis=1,
    )
    ts = TrajectorySet(times=t, positions=rods)
    with pytest.raises(CoincidentProjectionError) as err:
        braid_from_data(ts, angle=np.pi / 2)
    assert "have a coincident projection" in str(err.value)

    base = DataBraid(braid=bk.make_braid([1, -2]), tcross=(0.0, 1.0))
    for s in (2.0, 5.0, 0.25):
        scaled = DataBraid(braid=base.braid, tcross=tuple(s * t for t in base.tcross))
        assert ftbe(scaled) == ftbe(base) / s
    report(11, "200 round trips, closure/angle invariants, coincidence error, FTBE scaling exact")


def test_criterion_12_databraid_laws():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        b = bk.make_braid(rand_word(rng, n, 12), n)
        db = databraid_from_data(trajectories_from_braid(b))
        assert len(db.tcross) == len(db.braid.word)
        out = db_compact(db)
        assert len(out.tcross) == len(out.braid.word)
        assert bk.equals(out.braid, db.braid)
        assert len(out.braid.word) <= len(db.braid.word)
        surviving = set(zip(out.braid.word, out.tcross))
        assert surviving <= set(zip(db.braid.word, db.tcross))

    early = DataBraid(braid=bk.make_braid([1], 3), tcross=(0.8,))
    late = DataBraid(braid=bk.make_braid([2], 3), tcross=(0.2,))
    with pytest.raises(ValueError):
        db_mul(early, late)
    ok = db_mul(late, early)
    assert ok.tcross == (0.2, 0.8)
    report(12, "tcross/word lengths always equal, db_mul time-order error, "
               "db_compact deletion-only semantics preserve equality")
