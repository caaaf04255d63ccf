import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidkit as bk
from braidkit import (
    CoincidentProjectionError,
    DataBraid,
    TrajectorySet,
    UndersampledDataError,
    braid_from_data,
    closure,
    databraid_from_data,
    db_compact,
    db_equals,
    db_mul,
    db_to_braid,
    db_trunc,
    ftbe,
    load_trajectories,
    trajectories_from_braid,
)
from braidkit.trajectories import _assign


def rand_braid(rng, nmax=6, kmax=20):
    n = rng.randint(2, nmax)
    word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, kmax))]
    return bk.make_braid(word, n)


# ------------------------------------------------------------------ loading


def test_load_csv_long_format():
    text = "t,id,x,y\n0,1,0.0,0.0\n0,2,1.0,0.0\n1,1,0.1,0.0\n1,2,1.1,0.0\n2,1,0.2,0.0\n2,2,1.2,0.0\n"
    ts = load_trajectories(io.StringIO(text))
    assert ts.nparticles == 2 and ts.nsamples == 3
    assert ts.positions[1, 1, 0] == 1.1


def test_load_csv_rows_out_of_order():
    text = "t,id,x,y\n1,2,1.1,0\n0,1,0,0\n1,1,0.1,0\n0,2,1,0\n"
    ts = load_trajectories(io.StringIO(text))
    assert ts.nsamples == 2
    assert ts.positions[0, 0, 0] == 0.0


def test_load_csv_duplicate_timestamp_errors():
    text = "t,id,x,y\n0,1,0,0\n0,2,1,0\n0,1,0.5,0\n0,2,1.5,0\n"
    with pytest.raises(ValueError):
        load_trajectories(io.StringIO(text))


def test_load_csv_ragged_errors():
    text = "t,id,x,y\n0,1,0,0\n0,2,1,0\n1,1,0.1,0\n"
    with pytest.raises(ValueError):
        load_trajectories(io.StringIO(text))


_ROWS = "t,id,x,y\n0,1,0,0\n0,2,1,0\n1,1,1,1\n1,2,0,-1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_ROWS + "2,1,0\n2,2,1,0\n", "line 6: not enough values to unpack (expected 4, got 3)"),
        # a fifth field used to be dropped without a word
        ("t,id,x,y\n0,1,0,0,9\n0,2,1,0\n1,1,1,1\n1,2,0,-1\n", "line 2: too many values to unpack (expected 4)"),
        (_ROWS + "\n\n2,1,abc,0\n2,2,1,0\n", "line 8: could not convert string to float: 'abc'"),
        (_ROWS + "2,1.5,0,0\n2,2,1,0\n", "line 6: invalid literal for int() with base 10: '1.5'"),
    ],
    ids=["short", "five-fields", "non-numeric", "fractional-id"],
)
def test_load_csv_malformed_row_names_its_line(text, message):
    with pytest.raises(ValueError) as err:
        load_trajectories(io.StringIO(text))
    assert str(err.value) == message


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    data=st.integers(1, 6).flatmap(
        lambda P: st.tuples(
            st.lists(_finite, min_size=1, max_size=6, unique=True).map(sorted),
            st.lists(st.lists(st.tuples(_finite, _finite), min_size=P, max_size=P), min_size=6, max_size=6),
        )
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_save_then_load_with_shuffled_rows_round_trips(tmp_path_factory, data, seed):
    times, frames = data
    ts = TrajectorySet(times=times, positions=frames[: len(times)])
    path = tmp_path_factory.mktemp("csv") / "tracks.csv"
    bk.save_trajectories_csv(ts, path)
    head, *rows = path.read_text().splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    back = load_trajectories(io.StringIO(head + "".join(rows)))
    for got, want in ((back.times, ts.times), (back.positions, ts.positions)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # -0.0 and subnormals too


def test_load_json():
    data = {"times": [0, 1], "positions": [[[0, 0], [1, 0]], [[0.1, 0], [1.1, 0]]]}
    ts = load_trajectories(io.StringIO(json.dumps(data)))
    assert ts.nparticles == 2
    assert json.loads(json.dumps(ts.to_json()))["times"] == [0.0, 1.0]


def test_trajectory_validation():
    with pytest.raises(ValueError):
        TrajectorySet(times=np.array([0.0, 0.0]), positions=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        TrajectorySet(times=np.array([0.0, 1.0]), positions=np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError):
        TrajectorySet(times=np.array([0.0, 1.0]), positions=np.zeros((3, 2, 2)))


# --------------------------------------------------------------- extraction


@pytest.mark.parametrize("rot", [1, -1])
def test_trajectories_from_braid_contract(rot):
    from braidkit.config import properties

    rng = random.Random(25)
    props = properties()
    props.gen_rot_dir = rot
    try:
        for _ in range(60):
            b = rand_braid(rng)
            ts = trajectories_from_braid(b, rng.choice([0.5, 0.2, 1.5]))
            L = len(b.word)
            assert ts.nsamples == (3 * L + 1 if L else 2) and ts.nparticles == b.n
            # the strands a sample does not move sit at integer positions on y = 0
            moving = np.zeros((ts.nsamples, b.n), dtype=bool)
            order = list(range(b.n))
            for slot, w in enumerate(b.word):
                i = abs(w) - 1
                moving[3 * slot + 1 : 3 * slot + 3, [order[i], order[i + 1]]] = True
                order[i], order[i + 1] = order[i + 1], order[i]
            rest = ts.positions[~moving]
            assert np.array_equal(rest[:, 0], np.round(rest[:, 0])) and not rest[:, 1].any()
            assert sorted(ts.positions[-1, :, 0]) == list(range(1, b.n + 1))
            assert bk.lexeq(braid_from_data(ts), b)
    finally:
        props.gen_rot_dir = 1


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_raises(angle):
    # a NaN angle used to give < e >, and an infinite one "math domain error"
    ts = trajectories_from_braid(bk.make_braid([1, -2, 1, 2]))
    for extract in (braid_from_data, databraid_from_data):
        with pytest.raises(ValueError, match="angle must be finite"):
            extract(ts, angle)


def test_single_swap_left_over():
    ts = trajectories_from_braid(bk.make_braid([1], 2))
    assert braid_from_data(ts).word == (1,)
    db = databraid_from_data(ts)
    assert len(db.tcross) == 1
    assert 0 < db.tcross[0] < 1


def test_double_swap_cancels_under_compact():
    # out and back along the projection without exchanging vertically
    times = [0, 0.3, 0.6, 1.0, 1.3, 1.6, 2.0]
    frames = []
    for t in times:
        s = t if t <= 1.0 else 2.0 - t
        xa, xb = 1 + s, 2 - s
        ya = -0.3 * math.sin(math.pi * min(t, 2 - t))
        frames.append([[xa, ya], [xb, -ya]])
    ts = TrajectorySet(times=np.array(times), positions=np.array(frames))
    b = braid_from_data(ts)
    assert sorted(b.word) == [-1, 1]
    assert str(bk.compact(b)) == "< e >"


def test_round_trip_200_random_braids():
    rng = random.Random(23)
    for _ in range(200):
        b = rand_braid(rng)
        recovered = braid_from_data(trajectories_from_braid(b))
        assert bk.equals(b, recovered)


def test_round_trip_preserves_crossing_count():
    rng = random.Random(24)
    for _ in range(20):
        b = rand_braid(rng, kmax=12)
        db = databraid_from_data(trajectories_from_braid(b))
        assert len(db.tcross) == len(b.word)
        assert all(db.tcross[i] <= db.tcross[i + 1] for i in range(len(db.tcross) - 1))


def test_coincident_projection_error_on_aligned_data():
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
    # a small tilt of the projection line resolves the symmetry
    assert len(braid_from_data(ts, angle=np.pi / 2 + 0.01)) > 0


def test_undersampled_nonadjacent_swap_errors():
    # particles 1 and 3 appear to swap directly because sampling misses the
    # intermediate exchanges
    times = np.array([0.0, 1.0])
    frames = np.array([[[1, 0], [2, 1], [3, 0]], [[3, 0], [2, 1], [1, 0]]], dtype=float)
    ts = TrajectorySet(times=times, positions=frames)
    with pytest.raises((UndersampledDataError, CoincidentProjectionError)):
        braid_from_data(ts)


def test_gen_rot_dir_flips_signs():
    from braidkit.config import properties

    ts = trajectories_from_braid(bk.make_braid([1], 2))
    props = properties()
    props.gen_rot_dir = -1
    try:
        flipped = braid_from_data(ts)
    finally:
        props.gen_rot_dir = 1
    assert flipped.word == (-1,)


# ------------------------------------------------------------------ closure


def test_closure_is_noop_for_closed_data():
    b = bk.make_braid([1, -1], 2)  # ends where it started
    ts = trajectories_from_braid(b)
    closed = closure(ts)
    assert closed.nsamples == ts.nsamples + 1
    assert np.allclose(sorted(closed.positions[-1][:, 0]), sorted(ts.positions[0][:, 0]))
    assert bk.lexeq(braid_from_data(closed), braid_from_data(ts))


def test_closure_leaves_x_braid_unchanged():
    rng = random.Random(31)
    for _ in range(20):
        b = rand_braid(rng, kmax=10)
        ts = trajectories_from_braid(b)
        assert bk.lexeq(braid_from_data(closure(ts)), braid_from_data(ts))


def test_closure_makes_angle_invariants_agree():
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

    rng = random.Random(32)
    for _ in range(10):
        b = rand_braid(rng, nmax=5, kmax=10)
        closed = closure(trajectories_from_braid(b))
        b0 = braid_from_data(closed, 0.0)
        b1 = braid_from_data(closed, 0.35)
        assert bk.writhe(b0) == bk.writhe(b1)
        assert cycle_type(bk.perm(b0)) == cycle_type(bk.perm(b1))


def test_closure_default_pairs_x_ranks_stably_with_ties():
    # the k-th final point in x order (ties by particle index) goes to the
    # k-th initial point in the same order
    rng = np.random.default_rng(5)
    for _ in range(50):
        P = int(rng.integers(2, 9))
        pos = rng.integers(0, 3, size=(3, P, 2)).astype(float)
        init, fin = pos[0], pos[-1]
        by_x = [sorted(range(P), key=lambda p: pts[p][0]) for pts in (init, fin)]
        want = np.empty_like(fin)
        want[by_x[1]] = init[by_x[0]]
        assert np.array_equal(closure(TrajectorySet(times=[0.0, 1.0, 2.0], positions=pos)).positions[-1], want)


def test_closure_mindist_picks_cheaper_pairing():
    init = np.array([[0.0, 0.0], [1.0, 0.0]])
    fin = np.array([[1.2, 0.0], [0.1, 0.0]])
    ts = TrajectorySet(times=np.array([0.0, 1.0]), positions=np.stack([init, fin]))
    swapped_cost = np.linalg.norm(fin[0] - init[1]) + np.linalg.norm(fin[1] - init[0])
    same_cost = np.linalg.norm(fin[0] - init[0]) + np.linalg.norm(fin[1] - init[1])
    assert swapped_cost < same_cost  # brute force over both pairings
    closed = closure(ts, "mindist")
    assert np.allclose(closed.positions[-1], np.array([init[1], init[0]]))


def _lsap_reference(cost):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, np.arange(len(cost)))
    return cols


def _check_assign(cost, same_assignment):
    cols = _assign(cost)
    ref = _lsap_reference(cost)
    n = len(cost)
    assert sorted(cols.tolist()) == list(range(n))  # a permutation
    assert abs(cost[np.arange(n), cols].sum() - cost[np.arange(n), ref].sum()) <= 1e-9
    if same_assignment:
        assert np.array_equal(cols, ref)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), top=st.sampled_from([None, 1, 2, 5]))
def test_assign_matches_scipy(n, seed, top):
    rng = np.random.default_rng(seed)
    if top is None:  # generic floats: the optimum is unique
        _check_assign(rng.random((n, n)) * 10.0**rng.integers(-3, 4), same_assignment=True)
    else:  # small integers: many optimal assignments, one optimal cost
        _check_assign(rng.integers(0, top + 1, (n, n)).astype(float), same_assignment=False)


def _stirred(rng, P, spread):
    """Distances from P points, each turned about a random centre by an
    angle of standard deviation ``spread``, back to the starting points.  A
    spread of 3/P leaves the optimum near the identity, as a stirred fluid's
    closure sees it; 0.3 mixes the points."""
    init = rng.random((P, 2))
    centre = rng.random((P, 2))
    angle = rng.normal(0.0, spread, P)
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    rel = init - centre
    fin = centre + np.hstack([c * rel[:, :1] - s * rel[:, 1:], s * rel[:, :1] + c * rel[:, 1:]])
    return np.linalg.norm(fin[:, None, :] - init[None, :, :], axis=2)


@pytest.mark.parametrize("P", [10, 30, 100, 300])
def test_assign_matches_scipy_on_stirred_points(P):
    rng = np.random.default_rng(P)
    for spread in (3.0 / P, 3.0 / P, 0.3):
        _check_assign(_stirred(rng, P, spread), same_assignment=True)


def test_assign_matches_scipy_on_dense_random():
    _check_assign(np.random.default_rng(7).random((300, 300)), same_assignment=True)


def test_closure_mindist_rejects_distances_past_the_float_range():
    ts = TrajectorySet(times=[0.0, 1.0], positions=[[[0.0, 0.0], [1.0, 0.0]], [[1e200, 0.0], [-1e200, 0.0]]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite distances"):
        closure(ts, "mindist")


def test_closure_none_and_bad_method():
    ts = trajectories_from_braid(bk.make_braid([1], 2))
    assert closure(ts, "none") is ts
    with pytest.raises(ValueError):
        closure(ts, "nearest")


# ---------------------------------------------------------------- databraid


def test_databraid_invariant():
    with pytest.raises(ValueError):
        DataBraid(braid=bk.make_braid([1, 2]), tcross=(0.5,))
    with pytest.raises(ValueError):
        DataBraid(braid=bk.make_braid([1, 2]), tcross=(0.5, 0.1))


def test_db_mul_and_time_order():
    a = DataBraid(braid=bk.make_braid([1], 3), tcross=(0.1,))
    b = DataBraid(braid=bk.make_braid([2], 3), tcross=(0.2,))
    ab = db_mul(a, b)
    assert ab.braid.word == (1, 2) and ab.tcross == (0.1, 0.2)
    with pytest.raises(ValueError):
        db_mul(b, a)
    assert db_to_braid(db_mul(a, b)).word == bk.mul(a.braid, b.braid).word


def test_db_equals_requires_matching_times():
    a = DataBraid(braid=bk.make_braid([1, -2]), tcross=(0.1, 0.4))
    b = DataBraid(braid=bk.make_braid([1, -2]), tcross=(0.1, 0.4))
    c = DataBraid(braid=bk.make_braid([1, -2]), tcross=(0.2, 0.5))
    assert db_equals(a, b)
    assert not db_equals(a, c)


def test_db_trunc():
    db = DataBraid(braid=bk.make_braid([1, -2, 1]), tcross=(0.1, 0.5, 0.9))
    assert db_trunc(db, 0.0, 1.0).braid.word == (1, -2, 1)
    assert db_trunc(db, 0.6, 0.7).braid.word == ()
    mid = db_trunc(db, 0.3, 0.6)
    assert mid.braid.word == (-2,) and mid.tcross == (0.5,)
    with pytest.raises(ValueError):
        db_trunc(db, 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_databraid_refuses_nan_and_infinite_crossing_times(bad):
    # a NaN time passed the nondecreasing check, after which db_mul accepted
    # it in either order and db_trunc dropped its generator
    from braidkit import databraid_from_json, db_mul

    data = {"word": [1, 2], "n": 3, "tcross": [bad, 0.5]}
    with pytest.raises(ValueError, match="crossing times must be finite"):
        databraid_from_json(data)
    late = DataBraid(braid=bk.make_braid([1], 3), tcross=(0.1,))
    for pair in ((data, late), (late, data)):
        with pytest.raises(ValueError, match="crossing times must be finite"):
            db_mul(*(x if isinstance(x, DataBraid) else databraid_from_json(x) for x in pair))
    db = DataBraid(braid=bk.make_braid([1, -2, 1]), tcross=(0.1, 0.5, 0.9))
    with pytest.raises(ValueError, match="crossing times must be finite"):
        DataBraid(braid=db.braid, tcross=(0.1, bad, 0.9))
    # NaN bounds select nothing silently no more
    for t0, t1 in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="t0 <= t1"):
            db_trunc(db, t0, t1)
    assert db_trunc(db, -math.inf, math.inf) == db


def test_db_compact_deletion_only():
    db = DataBraid(braid=bk.make_braid([1, -1], 3), tcross=(0.1, 0.2))
    out = db_compact(db)
    assert out.braid.word == () and out.tcross == ()
    rng = random.Random(40)
    for _ in range(30):
        b = rand_braid(rng, nmax=5, kmax=12)
        times = tuple(sorted(rng.random() for _ in b.word))
        db = DataBraid(braid=b, tcross=times)
        out = db_compact(db)
        assert len(out.braid.word) <= len(b.word)
        assert bk.equals(out.braid, b)
        # survivors keep their original times, in order
        it = iter(zip(db.braid.word, db.tcross))
        for w, t in zip(out.braid.word, out.tcross):
            while True:
                w0, t0 = next(it)
                if w0 == w and t0 == t:
                    break


def test_databraid_powers_and_inverse_unsupported():
    db = DataBraid(braid=bk.make_braid([1]), tcross=(0.5,))
    with pytest.raises(TypeError):
        db ** 2
    with pytest.raises(TypeError):
        db.inverse()


# --------------------------------------------------------------------- ftbe


def test_ftbe_identity_is_zero():
    db = DataBraid(braid=bk.identity_braid(3), tcross=())
    assert ftbe(db, T=2.5) == 0.0


def test_ftbe_scaling_is_exact():
    base = DataBraid(braid=bk.make_braid([1, -2]), tcross=(0.0, 1.0))
    scaled = DataBraid(braid=bk.make_braid([1, -2]), tcross=(0.0, 3.0))
    assert ftbe(scaled) == ftbe(base) / 3.0


def test_ftbe_oracle_value():
    # direct evaluation of the defining quotient with exact integers
    db = DataBraid(braid=bk.make_braid([1, -2]), tcross=(0.0, 1.0))
    base = bk.canonical_loop(3, basepoint=True)
    image = bk.act(db.braid, base)
    expected = math.log(bk.intaxis(image)) - math.log(bk.intaxis(base))
    assert ftbe(db) == pytest.approx(expected, rel=1e-15)
    expected_ml = math.log(bk.minlength(image)) - math.log(bk.minlength(base))
    assert ftbe(db, norm="minlength") == pytest.approx(expected_ml, rel=1e-15)


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
def test_ftbe_duration_must_be_positive_and_finite(T):
    # a NaN duration used to give nan, and an infinite one 0.0
    db = DataBraid(braid=bk.make_braid([1, -2]), tcross=(0.0, 1.0))
    with pytest.raises(ValueError, match="duration must be positive and finite"):
        ftbe(db, T=T)


def test_ftbe_needs_two_crossings_or_T():
    db = DataBraid(braid=bk.make_braid([1]), tcross=(0.5,))
    with pytest.raises(ValueError):
        ftbe(db)
    assert ftbe(db, T=1.0) > 0


def test_db_json_round_trip():
    from braidkit import databraid_from_json

    db = DataBraid(braid=bk.make_braid([1, -2], 4), tcross=(0.25, 0.75))
    data = db.to_json()
    assert data["tcross"] == [0.25, 0.75]
    back = databraid_from_json(data)
    assert db_equals(back, db)


def test_crossings_from_data_records():
    from braidkit import crossings_from_data

    b = bk.make_braid([1, 2, -3])
    events = crossings_from_data(trajectories_from_braid(b))
    assert [(c.pos, c.sign) for c in events] == [(1, 1), (2, 1), (3, -1)]
    assert all(events[i].t <= events[i + 1].t for i in range(len(events) - 1))


# ------------------------------------- crossing sweep vs the pair-loop reference


def _extract_pairwise(ts, angle):
    """Reference crossing detection: every sample argsorted on its own, then
    every particle pair scanned for sign changes of its projected distance."""
    from braidkit.config import properties

    if ts.nparticles < 2 or ts.nsamples < 2:
        return [], [], list(range(ts.nparticles))
    tol = properties().braid_abs_tol
    rot = properties().gen_rot_dir
    c, s = math.cos(angle), math.sin(angle)
    proj = ts.positions[:, :, 0] * c + ts.positions[:, :, 1] * s
    orth = -ts.positions[:, :, 0] * s + ts.positions[:, :, 1] * c
    for k in range(ts.nsamples):
        order = np.argsort(proj[k], kind="stable")
        bad = np.nonzero(np.diff(proj[k][order]) <= tol)[0]
        if bad.size:
            i, j = int(order[bad[0]]) + 1, int(order[bad[0] + 1]) + 1
            raise CoincidentProjectionError(
                f"Paths of particles {j} and {i} have a coincident projection. "
                "Try changing the projection angle."
            )
    events = []
    for i in range(ts.nparticles):
        for j in range(i + 1, ts.nparticles):
            d = proj[:, i] - proj[:, j]
            for k in np.nonzero(d[:-1] * d[1:] < 0)[0]:
                frac = d[k] / (d[k] - d[k + 1])
                tc = ts.times[k] + (ts.times[k + 1] - ts.times[k]) * frac
                oi = orth[k, i] + frac * (orth[k + 1, i] - orth[k, i])
                oj = orth[k, j] + frac * (orth[k + 1, j] - orth[k, j])
                if abs(oi - oj) <= tol:
                    raise CoincidentProjectionError(
                        f"Paths of particles {i + 1} and {j + 1} have a coincident projection. "
                        "Try changing the projection angle."
                    )
                oleft, oright = (oi, oj) if d[k] < 0 else (oj, oi)
                events.append((float(tc), i, j, rot * (1 if oleft > oright else -1)))
    events.sort(key=lambda e: e[0])
    order = list(np.argsort(proj[0], kind="stable"))
    posof = {p: k for k, p in enumerate(order)}
    word, tcross = [], []
    k = 0
    while k < len(events):
        group = [events[k]]
        while k + len(group) < len(events) and events[k + len(group)][0] == group[0][0]:
            group.append(events[k + len(group)])
        touched = [p for (_, i, j, _) in group for p in (i, j)]
        if len(set(touched)) != len(touched):
            raise UndersampledDataError(
                "simultaneous crossings share a strand; the data is undersampled"
            )
        group.sort(key=lambda e: min(posof[e[1]], posof[e[2]]))
        for tc, i, j, sign in group:
            pi, pj = posof[i], posof[j]
            if abs(pi - pj) != 1:
                raise UndersampledDataError(
                    f"particles {i + 1} and {j + 1} swapped while not adjacent in "
                    "projection; the data is undersampled"
                )
            word.append(sign * (min(pi, pj) + 1))
            tcross.append(tc)
            order[pi], order[pj] = order[pj], order[pi]
            posof[order[pi]], posof[order[pj]] = pi, pj
        k += len(group)
    return word, tcross, order


def _outcome(extract, ts, angle):
    try:
        word, tcross, order = extract(ts, angle)
    except (CoincidentProjectionError, UndersampledDataError) as err:
        return type(err), str(err)
    return word, tcross, [int(p) for p in order]


def _assert_sweep_matches(ts, angle=0.0):
    from braidkit.trajectories import _extract

    got, ref = _outcome(_extract, ts, angle), _outcome(_extract_pairwise, ts, angle)
    assert got == ref
    if isinstance(got[1], list):  # crossing times bitwise equal, not merely ==
        assert np.array_equal(np.array(got[1]).view(np.int64), np.array(ref[1]).view(np.int64))
    return got


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    P=st.integers(1, 7),
    T=st.integers(1, 14),
    grid=st.sampled_from([0, 1, 2, 6, None, "ranks"]),
    angle=st.sampled_from([0.0, 0.3, math.pi / 2]),
)
def test_sweep_matches_pair_loop_on_random_walks(seed, P, T, grid, angle):
    rng = np.random.default_rng(seed)
    pos = np.cumsum(rng.normal(size=(T, P, 2)), axis=0)
    if grid == "ranks":
        # every sample a shuffle of 0..P-1, jittered by about an ulp: many
        # crossings meet at one projected point, tied or nearly so in time
        ranks = rng.permuted(np.tile(np.arange(P, dtype=float), (T, 1)), axis=1)
        pos[:, :, 0] = ranks + rng.choice([0.0, 1e-15, 3e-15], size=(T, P)) * rng.normal(size=(T, P))
    elif grid is not None:  # coarse grids make ties, coincidences and wide swaps
        pos = np.round(pos, grid)
    times = np.cumsum(rng.uniform(0.1, 1.0, size=T))
    _assert_sweep_matches(TrajectorySet(times=times, positions=pos), angle)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 6),
    gens=st.lists(st.integers(1, 5), max_size=15),
    signs=st.lists(st.booleans(), min_size=15, max_size=15),
    stride=st.integers(1, 3),
    angle=st.sampled_from([0.0, 0.01, -0.2]),
    close=st.sampled_from(["none", "default", "mindist"]),
)
def test_sweep_matches_pair_loop_on_braid_diagrams(n, gens, signs, stride, angle, close):
    word = [(g % (n - 1) + 1) * (1 if s else -1) for g, s in zip(gens, signs)]
    ts = trajectories_from_braid(bk.make_braid(word, n))
    # a stride above one drops samples, so some exchanges become undersampled
    ts = TrajectorySet(times=ts.times[::stride], positions=ts.positions[::stride])
    got = _assert_sweep_matches(closure(ts, close) if ts.nsamples >= 2 else ts, angle)
    if stride == 1 and angle == 0.0 and close == "none":
        assert got[0] == word


def _linear_tracks(start, end):
    return TrajectorySet(times=np.array([0.0, 1.0]), positions=np.array([start, end], dtype=float))


_C = math.sqrt(0.5)


@pytest.mark.parametrize(
    "positions, scale, angle",
    [
        # two particles swap at x = +-1.5e308: d0 overflows, so unchecked the time reads NaN
        ([[[1.5, 0], [-1.5, 1]], [[-1.5, 0], [1.5, 1]]], 1e308, 0.0),
        # one passes one at rest: only d0 - d1 overflows, so unchecked frac and the time read 0
        ([[[1.5, 1], [0, 0]], [[-1.5, 1], [0, 0]]], 1e308, 0.0),
        # a swap turned by pi/4 and read at that angle: again only d0 - d1 overflows
        ([[[_C, _C], [-2 * _C, 0]], [[-_C, -_C], [0, 2 * _C]]], 0.7e308, math.pi / 4),
    ],
)
def test_crossing_times_past_the_float_range_raise(positions, scale, angle):
    # each crosses at t = 0.5 at unit scale
    def tracks(f):
        return TrajectorySet(times=[0.0, 1.0], positions=np.array(positions) * f)

    assert databraid_from_data(tracks(1.0), angle).tcross == pytest.approx((0.5,))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="rescale the data"):
        databraid_from_data(tracks(scale), angle)


def test_sweep_three_particles_meeting_at_one_projected_point_and_time():
    ts = _linear_tracks([[-1, 1], [0, 0], [1, -1]], [[1, 1], [0, 0], [-1, -1]])
    got = _assert_sweep_matches(ts)
    assert got == (UndersampledDataError, "simultaneous crossings share a strand; the data is undersampled")


def test_sweep_two_disjoint_simultaneous_swaps():
    ts = _linear_tracks([[1, 0], [2, 1], [3, 0], [4, 1]], [[2, 0], [1, 1], [4, 0], [3, 1]])
    word, tcross, order = _assert_sweep_matches(ts)
    assert word == [-1, -3] and tcross == [0.5, 0.5] and order == [1, 0, 3, 2]


def test_sweep_coincident_orthogonal_coordinate_at_a_crossing():
    # particle 3 starts left of particle 1; the message names the lower index first
    ts = _linear_tracks([[1, 0], [5, 3], [0, 0]], [[0, 0], [6, 3], [1, 0]])
    got = _assert_sweep_matches(ts)
    assert got == (
        CoincidentProjectionError,
        "Paths of particles 1 and 3 have a coincident projection. Try changing the projection angle.",
    )


def test_sweep_coincident_projection_at_a_sample():
    ts = _linear_tracks([[0, 0], [1, 0], [2, 0]], [[0, 0], [1, 1], [0, 2]])
    got = _assert_sweep_matches(ts)
    assert got == (
        CoincidentProjectionError,
        "Paths of particles 3 and 1 have a coincident projection. Try changing the projection angle.",
    )


# ------------------------------------------------ db_compact vs the rescan loop


def _db_compact_rescan(word):
    """Reference: delete the first cancelling pair, then rescan from the start.
    Returns the indices of the surviving generators."""
    idx, word = list(range(len(word))), list(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(word)):
            for l in range(k + 1, len(word)):
                if word[l] == -word[k]:
                    del word[l], idx[l], word[k], idx[k]
                    changed = True
                    break
                if abs(abs(word[l]) - abs(word[k])) <= 1:
                    break
            if changed:
                break
    return idx


@settings(max_examples=400, deadline=None)
@given(gens=st.lists(st.integers(-5, 5).filter(bool), max_size=40))
def test_db_compact_matches_rescan_loop(gens):
    n = max([abs(g) for g in gens], default=0) + 1
    db = DataBraid(braid=bk.make_braid(gens, n), tcross=tuple(range(len(gens))))
    keep = _db_compact_rescan(gens)
    out = db_compact(db)
    assert out.tcross == tuple(keep)
    assert out.braid.word == tuple(gens[k] for k in keep)


@pytest.mark.parametrize(
    "module, work",
    [
        ("scipy", "pass"),
        # numpy loads only with trajectories, random_braid and spectral_radius
        ("numpy", "braidkit.entropy(braidkit.make_braid([1, -2]))"),
        # the mindist closure solves its assignment without scipy
        ("scipy", "braidkit.closure(braidkit.trajectories_from_braid(braidkit.make_braid([1, -2, 1])), 'mindist')"),
    ],
    ids=["scipy", "numpy", "scipy-mindist"],
)
def test_import_leaves_module_unloaded(module, work):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = f"import sys, braidkit; {work}; print(sorted(m for m in sys.modules if m.split('.')[0] == {module!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
