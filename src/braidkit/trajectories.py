"""Braids from sampled 2-D particle trajectories.

Particles are projected onto a line at a chosen angle; every exchange of
adjacent projected positions is a crossing, signed by which particle passes
above in the orthogonal direction.  Sorting the crossings by interpolated
time and re-indexing by the current projected order yields the braid word.
A :class:`DataBraid` additionally retains the crossing times, which is what
finite-time braiding exponents are computed from.

Crossings are found by one sorted sweep: every sample is argsorted at once,
and only the particle pairs whose projected order flips between consecutive
samples are interpolated, linearly, for crossing time and sign.  For P
particles, T samples and C crossings this costs O(T P log P + C) rather than
a scan of all P(P-1)/2 pairs.

All particles must share one strictly increasing time grid.  Two particles
whose projections coincide (within ``BraidAbsTol``) at a sample, or whose
orthogonal coordinates coincide at a crossing, leave the braid undefined;
that raises :class:`CoincidentProjectionError` rather than guessing.  The
data must also be adequately sampled: between two samples, the interpolated
crossings must exchange adjacent particles one at a time, so that no two
crossings sharing a particle happen at the same instant.  Otherwise
:class:`UndersampledDataError` is raised; sampling more finely fixes it.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .action import act
from .braids import Braid, _cancel, lexeq, mul
from .config import Record, properties
from .loops import canonical_loop, intaxis, minlength


class CoincidentProjectionError(ValueError):
    pass


class UndersampledDataError(ValueError):
    pass


class TrajectorySet(Record):
    """Sampled tracks: ``times`` of shape (T,), ``positions`` of (T, P, 2)."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float, order="C")
        positions = np.asarray(self.positions, dtype=float, order="C")
        if times.ndim != 1 or positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError("need times (T,) and positions (T, P, 2)")
        if positions.shape[0] != times.shape[0]:
            raise ValueError("times and positions disagree on the sample count")
        if np.any(~np.isfinite(times)) or np.any(~np.isfinite(positions)):
            raise ValueError("times and positions must be finite (no NaNs)")
        if times.size >= 2 and np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        times.setflags(write=False)
        positions.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)

    @property
    def nsamples(self) -> int:
        return self.times.shape[0]

    @property
    def nparticles(self) -> int:
        return self.positions.shape[1]

    def to_json(self) -> dict:
        return {
            "times": self.times.tolist(),
            "positions": self.positions.tolist(),
        }


class Crossing(Record):
    t: float
    pos: int  # 1-based projected position of the left strand
    sign: int


class DataBraid(Record):
    """A braid word together with the sorted crossing times that produced it."""

    braid: Braid
    tcross: tuple

    def __post_init__(self):
        tcross = tuple(float(t) for t in self.tcross)
        if len(tcross) != len(self.braid.word):
            raise ValueError("need exactly one crossing time per generator")
        if any(tcross[i] > tcross[i + 1] for i in range(len(tcross) - 1)):
            raise ValueError("crossing times must be nondecreasing")
        object.__setattr__(self, "tcross", tcross)

    def __str__(self):
        return str(self.braid)

    def __mul__(self, other):
        if isinstance(other, DataBraid):
            return db_mul(self, other)
        return NotImplemented

    def __pow__(self, k):
        raise TypeError("powers of a databraid are not defined (they would break time ordering)")

    def inverse(self):
        raise TypeError("the inverse of a databraid is not defined (it would break time ordering)")

    def to_json(self) -> dict:
        data = self.braid.to_json()
        data["tcross"] = list(self.tcross)
        return data


# -------------------------------------------------------------------- io


def load_trajectories(source) -> TrajectorySet:
    """Read a TrajectorySet from CSV (long format ``t,id,x,y``) or JSON."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return trajectories_from_json(json.loads(text))
    return _parse_csv(text)


def trajectories_from_json(data: dict) -> TrajectorySet:
    return TrajectorySet(times=data["times"], positions=data["positions"])


def _parse_csv(text: str) -> TrajectorySet:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header] != ["t", "id", "x", "y"]:
        raise ValueError("CSV must start with the header 't,id,x,y'")
    rows = []
    for row in filter(None, reader):
        try:
            t, pid, x, y = row
            rows.append((float(t), int(pid), float(x), float(y)))
        except ValueError as exc:  # a row of other than four fields, or one that does not convert
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("no data rows")
    rows.sort(key=lambda r: (r[0], r[1]))
    ids = sorted({r[1] for r in rows})
    P = len(ids)
    if ids != list(range(1, P + 1)):
        raise ValueError("particle ids must be 1-based contiguous integers")
    if len(rows) % P == 0:
        data = np.array(rows).reshape(-1, P, 4)
        # every sample holds one time and the ids 1..P in order
        if (data[:, :, 0] == data[:, :1, 0]).all() and (data[:, :, 1] == ids).all():
            return TrajectorySet(times=data[:, 0, 0], positions=data[:, :, 2:])
    raise ValueError("ragged particle data: a sample is missing some particles")


def save_trajectories_csv(ts: TrajectorySet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "id", "x", "y"])
        frames = zip(ts.times.tolist(), ts.positions.tolist())
        w.writerows([t, p, x, y] for t, frame in frames for p, (x, y) in enumerate(frame, 1))


# -------------------------------------------------------- crossing detection


def _coincident(i, j):
    return CoincidentProjectionError(
        f"Paths of particles {i} and {j} have a coincident projection. "
        "Try changing the projection angle."
    )


def _extract(ts: TrajectorySet, angle: float):
    if not math.isfinite(angle):
        raise ValueError(f"the projection angle must be finite, got {angle!r}")
    if ts.nparticles < 2 or ts.nsamples < 2:
        return [], [], list(range(ts.nparticles))
    tol = properties().braid_abs_tol
    rot = properties().gen_rot_dir
    x, y = ts.positions[:, :, 0], ts.positions[:, :, 1]
    c, s = math.cos(angle), math.sin(angle)
    proj = x * c + y * s
    gap = np.diff(np.sort(proj, axis=1), axis=1) <= tol
    if gap.any():
        k, g = np.argwhere(gap)[0]
        order = np.argsort(proj[k], kind="stable")
        raise _coincident(order[g + 1] + 1, order[g] + 1)
    # Taken in the first sample's order, every sample is nearly sorted, so the
    # merge sort runs in close to linear time; ``rank`` indexes ``first``.
    # Every pair whose projected order flips between samples k and k + 1 is a
    # candidate crossing.  Steps that are disjoint adjacent swaps are the rule;
    # any other step is searched over the window of positions that moved.
    first = np.argsort(proj[0], kind="stable")
    rank = np.argsort(proj[:, first], axis=1, kind="stable")
    steps = np.nonzero((rank[:-1] != rank[1:]).any(axis=1))[0]
    a, b = rank[steps], rank[steps + 1]
    swap = (a[:, :-1] == b[:, 1:]) & (a[:, 1:] == b[:, :-1])
    odd = np.nonzero((a != b).sum(axis=1) != 2 * swap.sum(axis=1))[0]
    swap[odd] = False
    r, p = np.nonzero(swap)
    cands = [(steps[r], a[r, p], a[r, p + 1])]
    for r in odd:
        moved = np.nonzero(a[r] != b[r])[0]
        window = a[r, moved[0] : moved[-1] + 1]
        newpos = np.argsort(b[r])[window]
        u, v = np.nonzero(np.triu(newpos[:, None] > newpos[None, :]))
        cands.append((np.full(u.size, steps[r]), window[u], window[v]))
    k, i, j = (np.concatenate(col) for col in zip(*cands))
    i, j = first[i], first[j]
    i, j = np.minimum(i, j), np.maximum(i, j)
    d0, d1 = proj[k, i] - proj[k, j], proj[k + 1, i] - proj[k + 1, j]
    frac = d0 / (d0 - d1)
    tc = ts.times[k] + (ts.times[k + 1] - ts.times[k]) * frac

    def across(p):  # coordinate orthogonal to the projection at the crossing
        o0, o1 = -x[k, p] * s + y[k, p] * c, -x[k + 1, p] * s + y[k + 1, p] * c
        return o0 + frac * (o1 - o0)

    oi, oj = across(i), across(j)
    # checked on the candidates only: an overflow here would give a NaN or a
    # plausible wrong crossing time (a difference at inf makes frac 0)
    if not np.isfinite([d0, d1, d0 - d1, frac, tc, oi, oj]).all():
        raise ValueError("crossing times leave the float range; rescale the data")
    bad = np.nonzero(np.abs(oi - oj) <= tol)[0]
    if bad.size:
        e = bad[np.lexsort((k[bad], j[bad], i[bad]))[0]]
        raise _coincident(i[e] + 1, j[e] + 1)
    sign = rot * np.where(np.where(d0 < 0, oi > oj, oj > oi), 1, -1)
    # the assembly orders simultaneous crossings itself, so ties need no key
    by_time = np.argsort(tc, kind="stable")
    events = list(zip(*(col[by_time].tolist() for col in (tc, i, j, sign))))
    order = first.tolist()
    posof = {p: k for k, p in enumerate(order)}
    word = []
    tcross = []
    k = 0
    while k < len(events):
        group = [events[k]]
        while k + len(group) < len(events) and events[k + len(group)][0] == group[0][0]:
            group.append(events[k + len(group)])
        if len(group) > 1:
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
            lo = min(pi, pj)
            word.append(sign * (lo + 1))
            tcross.append(tc)
            order[pi], order[pj] = order[pj], order[pi]
            posof[order[pi]], posof[order[pj]] = pi, pj
        k += len(group)
    return word, tcross, order


def braid_from_data(ts: TrajectorySet, angle: float = 0.0) -> Braid:
    """Braid of the trajectory set along the projection line at ``angle``,
    which must be finite: a NaN or infinite angle raises ``ValueError``."""
    word, _, _ = _extract(ts, angle)
    return Braid(word=tuple(word), n=ts.nparticles)


def databraid_from_data(ts: TrajectorySet, angle: float = 0.0) -> DataBraid:
    """Like :func:`braid_from_data` but retaining the crossing times."""
    word, tcross, _ = _extract(ts, angle)
    return DataBraid(braid=Braid(word=tuple(word), n=ts.nparticles), tcross=tuple(tcross))


def crossings_from_data(ts: TrajectorySet, angle: float = 0.0):
    """The crossing events as :class:`Crossing` records, time-sorted."""
    word, tcross, _ = _extract(ts, angle)
    return [Crossing(t=t, pos=abs(w), sign=1 if w > 0 else -1) for w, t in zip(word, tcross)]


# ------------------------------------------------------------------ closure


def _assign(cost):
    """The column of each row in a minimum-cost perfect matching of the
    square matrix ``cost``.

    Shortest augmenting paths with dual variables (Jonker & Volgenant,
    Computing 38, 1987, in the form of Crouse, IEEE TAES 52, 2016).  Column
    reduction starts the duals at ``v = cost.min(axis=0)``, ``u = 0`` and
    gives each row the first column it is the arg-min of.  Every row left
    free then runs one Dijkstra search over reduced costs
    ``cost[i, j] - u[i] - v[j] >= 0`` to the nearest free column, each step
    vectorised over all columns; the duals are updated so the reduced costs
    stay non-negative, and the path is flipped.  O(n^2) per free row.
    """
    if not np.isfinite(cost).all():  # distances past the float range
        raise ValueError("mindist closure needs finite distances")
    n = len(cost)
    u = np.zeros(n)
    v = cost.min(axis=0)
    col4row = np.full(n, -1)
    row4col = np.full(n, -1)
    rows, cols = np.unique(cost.argmin(axis=0), return_index=True)
    col4row[rows], row4col[cols] = cols, rows
    for free in np.flatnonzero(col4row < 0):
        shortest = np.full(n, np.inf)  # path length to each column
        path = np.full(n, -1)  # the row each column is reached from
        todo = np.ones(n, dtype=bool)  # columns not yet scanned
        seen = [free]  # rows on the search tree
        i, dist = free, 0.0
        while True:
            reduced = dist + cost[i] - u[i] - v
            better = todo & (reduced < shortest)
            shortest[better] = reduced[better]
            path[better] = i
            j = int(np.argmin(np.where(todo, shortest, np.inf)))
            dist = shortest[j]
            todo[j] = False
            if row4col[j] < 0:
                break
            i = row4col[j]
            seen.append(i)
        seen = np.array(seen)
        u[seen] += dist - np.where(seen == free, 0.0, shortest[col4row[seen]])
        done = ~todo
        v[done] -= dist - shortest[done]
        while True:  # flip the path back from column j to the free row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == free:
                break
    return col4row


def closure(ts: TrajectorySet, method: str = "default") -> TrajectorySet:
    """Append one sample joining the final points back to the initial ones.

    ``default`` matches final to initial points rank-to-rank in the X
    projection, which creates no new crossings there; ``mindist`` instead
    minimizes the total Euclidean distance with an exact optimal assignment
    (:func:`_assign`, shortest augmenting paths, O(P^3) in the worst case).
    Stirred particles usually end near where some particle started, so most
    rows are matched by the initial column reduction and the few augmenting
    paths left are short.  ``none`` returns the input unchanged.
    """
    if method == "none":
        return ts
    if ts.nparticles < 2:
        raise ValueError("need at least 2 particles to close")
    init = ts.positions[0]
    fin = ts.positions[-1]
    if method == "default":
        target = np.empty_like(fin)  # the k-th final point in x order goes to the k-th initial one
        target[np.argsort(fin[:, 0], kind="stable")] = init[np.argsort(init[:, 0], kind="stable")]
    elif method == "mindist":
        target = init[_assign(np.linalg.norm(fin[:, None, :] - init[None, :, :], axis=2))]
    else:
        raise ValueError(f"unknown closure method {method!r}")
    if ts.nsamples >= 2:
        dt = float(np.mean(np.diff(ts.times)))
    else:
        dt = 1.0
    times = np.concatenate([ts.times, [ts.times[-1] + dt]])
    positions = np.concatenate([ts.positions, target[None, :, :]])
    return TrajectorySet(times=times, positions=positions)


# ------------------------------------------------------------- databraid ops


def db_mul(a: DataBraid, b: DataBraid) -> DataBraid:
    """Concatenate databraids; the first one's crossings must all be earlier."""
    if a.tcross and b.tcross and max(a.tcross) > min(b.tcross):
        raise ValueError(
            "databraid multiplication is only defined if the crossing times of "
            "the first braid are all earlier than the second"
        )
    return DataBraid(braid=mul(a.braid, b.braid), tcross=a.tcross + b.tcross)


def db_equals(a: DataBraid, b: DataBraid) -> bool:
    """Generator-by-generator equality with exactly matching crossing times."""
    return lexeq(a.braid, b.braid) and a.tcross == b.tcross


def db_trunc(db: DataBraid, t0: float, t1: float) -> DataBraid:
    """Keep only the generators with crossing times in ``[t0, t1]``."""
    if t0 > t1:
        raise ValueError("need t0 <= t1")
    keep = [(w, t) for w, t in zip(db.braid.word, db.tcross) if t0 <= t <= t1]
    word = tuple(w for w, _ in keep)
    return DataBraid(braid=Braid(word=word, n=db.braid.n), tcross=tuple(t for _, t in keep))


def db_compact(db: DataBraid) -> DataBraid:
    """Delete canceling generator pairs without reordering the survivors.

    Only deletions are allowed, so crossing times keep their meaning: a pair
    ``w, -w`` is removed when every generator strictly between the two
    commutes with them.  This is the cancellation pass of
    :func:`braidkit.compact`, one left-to-right pass over a stack of
    survivors; ``compact`` adds braid-relation rewrites, which would move
    crossings in time.
    """
    word = db.braid.word
    keep = _cancel(word, db.braid.n)
    return DataBraid(
        braid=Braid(word=tuple(word[m] for m in keep), n=db.braid.n),
        tcross=tuple(db.tcross[m] for m in keep),
    )


def db_to_braid(db: DataBraid) -> Braid:
    return db.braid


# ----------------------------------------------------------------------- ftbe


def ftbe(db: DataBraid, T: float | None = None, norm: str = "intaxis") -> float:
    """Finite-time braiding exponent.

    One application of the braid to the canonical basepoint multiloop, log
    of the chosen length measure's growth, divided by the duration ``T``
    (default: time between the first and last crossing), which must be
    positive and finite: a NaN or infinite ``T`` raises ``ValueError``.
    """
    measures = {"intaxis": intaxis, "minlength": minlength}
    if norm not in measures:
        raise ValueError("norm must be 'intaxis' or 'minlength'")
    if T is None:
        if len(db.tcross) < 2:
            raise ValueError("need at least 2 crossings to default the duration")
        T = db.tcross[-1] - db.tcross[0]
    if not 0 < T < math.inf:
        raise ValueError("duration must be positive and finite")
    measure = measures[norm]
    base = canonical_loop(db.braid.n, basepoint=True)
    image = act(db.braid, base)
    return (math.log(measure(image)) - math.log(measure(base))) / T


# ------------------------------------------------------- synthetic diagrams


def trajectories_from_braid(b: Braid, height: float = 0.5) -> TrajectorySet:
    """Trajectories that realize a braid word as a diagram.

    Strands sit at unit-spaced positions; each word entry occupies one unit
    of time in which the two strands exchange positions linearly, the one
    passing above given a triangular bump of the given height.  Extracting a
    braid from the result at angle 0 recovers the input braid.
    """
    P, word = b.n, b.word
    rot = properties().gen_rot_dir
    bumps = ((0.0, 0.0), (0.4, 0.8 * height), (0.7, 0.6 * height))  # (time offset, height) of each sample
    where = list(range(P))  # particle at each position
    ranks = np.arange(1.0, P + 1)
    pos = np.zeros((3 * len(word) + 1, P, 2))
    for slot, w in enumerate(word):
        i = abs(w) - 1
        left, right = where[i], where[i + 1]
        up_is_left = (w > 0) == (rot > 0)
        frames = pos[3 * slot : 3 * slot + 3]
        frames[:, where, 0] = ranks  # the rest frame, copied to each sample
        for frame, (off, h) in zip(frames, bumps):
            frame[left] = i + 1 + off, h if up_is_left else -h
            frame[right] = i + 2 - off, -h if up_is_left else h
        where[i], where[i + 1] = right, left
    pos[-1, where, 0] = ranks
    if not word:  # the identity braid stays at rest for one unit of time
        return TrajectorySet(times=[0.0, 1.0], positions=[pos[0], pos[0]])
    times = [slot + off for slot in range(len(word)) for off, _ in bumps] + [float(len(word))]
    return TrajectorySet(times=times, positions=pos)


def databraid_from_json(data: dict) -> DataBraid:
    return DataBraid(
        braid=Braid(word=tuple(data["word"]), n=data["n"]),
        tcross=tuple(data["tcross"]),
    )
