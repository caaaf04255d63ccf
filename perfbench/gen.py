"""Seeded input generation.

Every input comes from the caller's ``numpy.random.Generator``; nothing here
calls into braidkit, so a library change cannot change the inputs.
"""
from __future__ import annotations

import math

import numpy as np


def random_word(rng, n: int, L: int):
    """Uniform word over the ``2(n-1)`` signed generators."""
    idx = rng.integers(1, n, size=L)
    sgn = rng.integers(0, 2, size=L) * 2 - 1
    return tuple(int(i * s) for i, s in zip(idx, sgn))


def penner_word(rng, n: int, L: int):
    """Word in ``sigma_i`` (i odd) and ``sigma_j^-1`` (j even), each used.

    Such braids are pseudo-Anosov (Penner's construction) and grow by about
    0.3-0.4 nats per generator, so a few thousand generators pass the
    ~709-nat range of a double in one application.
    """
    idx = rng.integers(1, n, size=L)
    idx[: n - 1] = np.arange(1, n)
    idx = rng.permutation(idx)
    return tuple(int(i if i % 2 else -i) for i in idx)


def _identity_word(rng, n: int):
    """A short word that is trivial in B_n by one defining relation."""
    kind = int(rng.integers(0, 3))
    x = int(rng.integers(1, n)) * int(rng.choice([-1, 1]))
    if kind == 0 or n < 3:  # free pair
        return [x, -x]
    i = int(rng.integers(1, n - 1))
    far = [j for j in range(1, n) if abs(j - abs(x)) >= 2]
    if kind == 1 and far:  # commutation: [s_x, s_y] with |x|-|y| >= 2
        y = int(rng.choice(far)) * int(rng.choice([-1, 1]))
        return [x, y, -x, -y]
    # braid relation s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}, as a trivial word
    e = int(rng.choice([-1, 1]))
    a, b = e * i, e * (i + 1)
    return [a, b, a, -b, -a, -b]


def scramble(rng, word, n: int, inserts: int):
    """A different word for the same braid: trivial words inserted at random
    places, then commuting neighbours swapped."""
    w = list(word)
    for _ in range(inserts):
        k = int(rng.integers(0, len(w) + 1))
        w[k:k] = _identity_word(rng, n)
    for k in rng.integers(0, max(len(w) - 1, 1), size=inserts):
        k = int(k)
        if k + 1 < len(w) and abs(abs(w[k]) - abs(w[k + 1])) >= 2:
            w[k], w[k + 1] = w[k + 1], w[k]
    return tuple(w)


def flip_one(rng, word):
    """Negate one generator: the result is a different braid, since the two
    words differ by a conjugate of ``sigma_i^{+-2}``, which is never trivial."""
    w = list(word)
    k = int(rng.integers(0, len(w)))
    w[k] = -w[k]
    return tuple(w)


def distinct_writhe_words(rng, n: int, L: int, count: int):
    """``count`` random words of length ``L`` whose writhes all differ, so they
    are distinct braids by construction (writhe is a braid invariant)."""
    positives = rng.choice(L + 1, size=count, replace=False)
    words = []
    for p in positives:
        signs = np.array([1] * int(p) + [-1] * (L - int(p)))
        signs = rng.permutation(signs)
        idx = rng.integers(1, n, size=L)
        words.append(tuple(int(i * s) for i, s in zip(idx, signs)))
    return words


# ------------------------------------------------------------- trajectories


def _orbits(rng, P: int, T: int, frac: float):
    centers = rng.uniform(-1.0, 1.0, size=(P, 2))
    radius = rng.uniform(0.2, 1.0, size=P)
    phase = rng.uniform(0.0, 2 * math.pi, size=P)
    omega = rng.choice([-1.0, 1.0], size=P) * rng.uniform(0.5, 1.0, size=P) * 2 * math.pi * frac
    times = np.linspace(0.0, 1.0, T)
    ang = phase[None, :] + omega[None, :] * times[:, None]
    pos = np.stack(
        [
            centers[None, :, 0] + radius[None, :] * np.cos(ang),
            centers[None, :, 1] + radius[None, :] * np.sin(ang),
        ],
        axis=2,
    )
    return times, pos


def crossing_count(pos, tol: float = 1e-8):
    """Number of crossings in the X projection, or ``None`` unless the data
    is adequately sampled: no two particles coincide at a sample and every
    step only swaps disjoint adjacent pairs (no particle moves more than one
    rank), so the sampled braid is the braid of the smooth motion."""
    x = pos[:, :, 0]
    order = np.argsort(x, axis=1)
    if np.any(np.diff(np.take_along_axis(x, order, axis=1), axis=1) <= tol):
        return None
    moves = np.abs(np.diff(np.argsort(order, axis=1), axis=0))
    if np.any(moves > 1):
        return None
    return int(moves.sum()) // 2


MIN_CROSSINGS = 20


def stirring(rng, P: int, T: int = 2000):
    """Particles on random circular orbits, ``T`` samples, adequately sampled
    and with at least ``MIN_CROSSINGS`` crossings.

    The swept angle shrinks like ``1/P^2`` so that large sets stay adequately
    sampled; draws that fail are redrawn from the same generator, so a seed
    always gives the same accepted set.
    """
    frac = min(1.0, 0.3 * (30.0 / P) ** 2)
    while True:
        times, pos = _orbits(rng, P, T, frac)
        count = crossing_count(pos)
        if count is not None and count >= MIN_CROSSINGS:
            return times, pos
