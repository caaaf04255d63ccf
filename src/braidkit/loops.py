"""Equivalence classes of essential simple closed multiloops on the punctured disk.

A multiloop on a disk with ``N`` punctures lined up on the real axis is
encoded by an integer vector ``(a_1..a_m, b_1..b_m)`` with ``m = N - 2``.
The ``a_i`` measure the imbalance of strands passing below versus above
puncture ``i+1``; the ``b_i`` measure the imbalance of crossings of the
vertical lines just left and right of that puncture.  The map is a bijection
between nonzero integer vectors and multiloops, which is what makes exact
braid equality testing possible.

Coordinates are plain Python integers, so iterated braid action can grow
them without overflow.  A loop may carry a ``basepoint`` flag meaning that
its rightmost puncture is a fixed anchor representing the disk boundary; the
anchor is excluded from the user-visible puncture count ``n`` but included
in ``totaln``.
"""
from __future__ import annotations

from typing import Sequence

from .config import Record


class Loop(Record):
    """A multiloop in coordinate form.

    ``a`` and ``b`` have equal length ``m >= 1``; the underlying disk has
    ``totaln = m + 2`` punctures.
    """

    a: tuple
    b: tuple
    basepoint: bool = False

    def __post_init__(self):
        if len(self.a) != len(self.b) or len(self.a) < 1:
            raise ValueError("coordinate halves must be nonempty and equal length")

    @property
    def totaln(self) -> int:
        """Total number of punctures, including the basepoint if present."""
        return len(self.a) + 2

    @property
    def n(self) -> int:
        """Number of punctures, excluding the basepoint anchor."""
        return self.totaln - 1 if self.basepoint else self.totaln

    @property
    def coords(self) -> tuple:
        return tuple(self.a) + tuple(self.b)

    @property
    def ab(self) -> tuple:
        return tuple(self.a), tuple(self.b)

    def __str__(self):
        inner = " ".join(str(c) for c in self.coords)
        return f"(( {inner} ))" + ("*" if self.basepoint else "")

    def to_json(self) -> dict:
        return {"coords": list(self.coords), "basepoint": self.basepoint}


class IntersectionNumbers(Record):
    """Minimal crossing counts with the standard vertical reference lines.

    ``mu`` has ``2m`` entries: ``mu[2i-2]``/``mu[2i-1]`` (1-based ``mu_{2i-1}``,
    ``mu_{2i}``) count crossings with the rays going up/down from interior
    puncture ``i+1``.  ``nu`` has ``N-1`` entries, one per gap between
    consecutive punctures.
    """

    mu: tuple
    nu: tuple


def make_loop(coords, basepoint: bool = False):
    """Build a Loop from a flat even-length coordinate vector.

    A sequence of rows (nested sequences) builds a list of loops, one per row.
    """
    coords = list(coords)
    if coords and isinstance(coords[0], (list, tuple)):
        return [make_loop(row, basepoint) for row in coords]
    if len(coords) < 2 or len(coords) % 2 != 0:
        raise ValueError("coordinate vector must have positive even length")
    m = len(coords) // 2
    return Loop(a=tuple(coords[:m]), b=tuple(coords[m:]), basepoint=basepoint)


def canonical_loop(n: int, basepoint: bool = True) -> Loop:
    """The canonical multiloop for ``n`` punctures.

    With a basepoint this is the nested family of curves that generates the
    fundamental group of the ``n``-punctured disk (one curve around each
    suffix of punctures together with the anchor); acting on it gives a
    normal form for braids.  Without a basepoint the same nested pattern is
    built on the ``n`` punctures alone.
    """
    if basepoint:
        if n < 2:
            raise ValueError("need n >= 2 with a basepoint")
        m = n - 1
    else:
        if n < 3:
            raise ValueError("need n >= 3 without a basepoint")
        m = n - 2
    return Loop(a=(0,) * m, b=(-1,) * m, basepoint=basepoint)


def _pos(x):
    return x if x > 0 else 0


def _caps(a: Sequence, b: Sequence):
    """Arc counts beyond the leftmost/rightmost punctures.

    Returns ``(b0, bend)`` where ``-b0`` is the number of taut arcs wrapping
    the first puncture and ``bend`` the number wrapping the last one.
    """
    best = 0
    run = 0
    for ai, bi in zip(a, b):
        cand = abs(ai) + _pos(bi) + run
        if cand > best:
            best = cand
        run += bi
    b0 = -best
    bend = -b0 - sum(b)
    return b0, bend


def intersec(l: Loop) -> IntersectionNumbers:
    """Convert loop coordinates to intersection numbers.

    Inverts the defining relations ``a_i = (mu_{2i} - mu_{2i-1}) / 2`` and
    ``b_i = (nu_i - nu_{i+1}) / 2`` on the minimal-position representative.
    """
    a, b = l.a, l.b
    m = len(a)
    b0, _ = _caps(a, b)
    nu = [-2 * b0]
    for bi in b:
        nu.append(nu[-1] - 2 * bi)
    mu = []
    for i in range(m):
        through = nu[i] - 2 * _pos(b[i])
        mu.append(through // 2 - a[i] + abs(b[i]))
        mu.append(through // 2 + a[i] + abs(b[i]))
    return IntersectionNumbers(mu=tuple(mu), nu=tuple(nu))


def minlength(l: Loop):
    """Minimal taut length with unit-spaced, zero-size punctures.

    Equals the total number of crossings with the vertical lines between
    consecutive punctures, since every unit of length runs along one gap.
    """
    return sum(intersec(l).nu)


def _intaxis_from_ab(a: Sequence, b: Sequence):
    b0, bend = _caps(a, b)
    total = abs(b0) + abs(bend)
    for bi in b:
        total += abs(bi)
    prev = 0
    for ai in a:
        total += abs(ai - prev)
        prev = ai
    total += abs(prev)
    return total


def intaxis(l: Loop):
    """Minimal number of intersections of the loop with the real axis."""
    return _intaxis_from_ab(l.a, l.b)


def loop_from_json(data: dict) -> Loop:
    return make_loop(data["coords"], bool(data.get("basepoint", False)))
