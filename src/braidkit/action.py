"""Piecewise-linear action of braid generators on loop coordinates.

Each generator updates at most two of the ``(a_i, b_i)`` coordinate pairs
through expressions built from ``max(., 0)`` / ``min(., 0)``.  Once the
max/min branches are resolved by the actual coordinate values, the update is
linear.  The update is written once, in :func:`_apply_gen`, over ints; for
:func:`act_with_matrix` each coordinate also carries its matrix row (a
``_Form``), so the same update yields both the image and the integer matrix
that realizes the action at that particular loop.  Iterating a braid makes
this matrix sequence eventually periodic; :func:`cycle` detects the limit
cycle.

Conventions, fixed once here and relied on everywhere else:

* words act left-to-right by default (first entry acts first); the global
  ``GenLoopActDir`` property can reverse this;
* matrices act on column vectors ``(a_1..a_m, b_1..b_m)``, so composing an
  action appends new matrices on the left (latest applied leftmost);
* an inverse generator is the conjugate of the positive one by the
  reflection that negates the ``a`` half of the coordinates.
"""
from __future__ import annotations

import dataclasses
import operator

from . import braids
from .config import properties
from .linalg import mat_mul, mat_vec
from .loops import Loop, canonical_loop


class CycleNotFoundError(RuntimeError):
    """Raised when no limit cycle appears within the iteration budget."""


@dataclasses.dataclass(frozen=True)
class LinearAction:
    """One resolved linear branch of the piecewise-linear action."""

    entries: tuple  # rows, as tuples of ints

    @property
    def dim(self) -> int:
        return len(self.entries)

    def apply(self, vec):
        return mat_vec(self.entries, vec)

    def __mul__(self, other: "LinearAction") -> "LinearAction":
        return LinearAction(mat_mul(self.entries, other.entries))

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": [list(r) for r in self.entries]}


@dataclasses.dataclass(frozen=True)
class CycleResult:
    """Limit cycle of the per-iterate effective linear actions."""

    preperiod: int
    period: int
    matrices: tuple  # LinearAction per iterate of one period, cycle start first

    def product(self) -> LinearAction:
        """Ordered product over one period, latest-applied leftmost."""
        prod = self.matrices[-1]
        for M in reversed(self.matrices[:-1]):
            prod = prod * M
        return prod


class _Form(list):
    """A coordinate that carries its matrix row: ``[value, *row]``, where
    ``value`` is ``row`` applied to the start.  ``+`` and ``-`` act entrywise,
    comparisons read the value, and the int 0 of an unresolved max/min branch
    (falsy, unlike any form) is the identity."""

    __slots__ = ()

    def __add__(self, other):
        if not other:
            return self
        return _Form(map(operator.add, self, other))

    __radd__ = __add__

    def __sub__(self, other):
        if not other:
            return self
        return _Form(map(operator.sub, self, other))

    def __rsub__(self, other):
        return -self

    def __neg__(self):
        return _Form(map(operator.neg, self))

    def __gt__(self, other):
        return self[0] > other

    def __lt__(self, other):
        return self[0] < other


def _apply_gen(a, b, k: int):
    """Apply signed generator k in place to int or :class:`_Form` coordinates."""
    m = len(a)
    N = m + 2
    i = abs(k)
    if i < 1 or i > N - 1:
        raise ValueError(f"generator index {k} out of range for {N} punctures")
    if k < 0:
        # the reflection matters only on the a-coordinates sigma_i reads
        lo, hi = max(i - 2, 0), min(i, m)
        for j in range(lo, hi):
            a[j] = -a[j]
        _apply_gen(a, b, i)
        for j in range(lo, hi):
            a[j] = -a[j]
        return

    if i == 1:
        a0, b0 = a[0], b[0]
        bn = a0 + (b0 if b0 > 0 else 0)
        an = -b0 + (bn if bn > 0 else 0)
        a[0], b[0] = an, bn
        return

    if i == N - 1:
        a0, b0 = a[m - 1], b[m - 1]
        bn = a0 + (b0 if b0 < 0 else 0)
        an = -b0 + (bn if bn < 0 else 0)
        a[m - 1], b[m - 1] = an, bn
        return

    j1, j2 = i - 2, i - 1
    a1, a2, b1, b2 = a[j1], a[j2], b[j1], b[j2]
    pb2 = b2 if b2 > 0 else 0
    nb1 = b1 if b1 < 0 else 0
    c = a1 - a2 - pb2 + nb1
    pb1 = b1 if b1 > 0 else 0
    t = pb2 + c
    pt = t if t > 0 else 0
    nc = c if c < 0 else 0
    nb2 = b2 if b2 < 0 else 0
    u = nb1 - c
    nu = u if u < 0 else 0
    na1 = a1 - pb1 - pt
    nb_1 = b2 + nc
    na2 = a2 - nb2 - nu
    nb_2 = b1 - nc
    a[j1], a[j2], b[j1], b[j2] = na1, na2, nb_1, nb_2


def apply_generator(l: Loop, i: int, sign: int = 1) -> Loop:
    """Act on a loop with a single generator (``sign`` +1 or -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a, b = list(l.a), list(l.b)
    _apply_gen(a, b, sign * i)
    return Loop(a=tuple(a), b=tuple(b), basepoint=l.basepoint)


def _word_order(word):
    if properties().gen_loop_act_dir == "rl":
        return tuple(reversed(word))
    return tuple(word)


def _check_compat(n: int, l: Loop):
    if l.basepoint:
        if n > l.n:
            raise ValueError(
                f"braid on {n} strands cannot act on a basepoint loop with {l.n} punctures"
            )
    elif n > l.totaln:
        raise ValueError(
            f"braid on {n} strands cannot act on a loop with {l.totaln} punctures"
        )


def act(b, l):
    """Act on loop ``l`` (or a list of loops) with braid ``b``.

    Word entries are applied sequentially, first entry first under the
    default left-to-right convention.
    """
    if isinstance(l, (list, tuple)):
        return [act(b, li) for li in l]
    b = braids._as_braid(b)
    _check_compat(b.n, l)
    a, bb = list(l.a), list(l.b)
    for k in _word_order(b.word):
        _apply_gen(a, bb, k)
    return Loop(a=tuple(a), b=tuple(bb), basepoint=l.basepoint)


def act_with_matrix(b, l: Loop):
    """Act on a loop and also return the effective linear action there.

    The matrix satisfies ``entries @ coords(l) == coords(act(b, l))``
    exactly; it is valid only at loops sharing the same resolved branches.
    """
    b = braids._as_braid(b)
    _check_compat(b.n, l)
    d = len(l.coords)
    forms = [_Form([x] + [int(i == j) for j in range(d)]) for i, x in enumerate(l.coords)]
    a, bb = forms[: d // 2], forms[d // 2 :]
    for k in _word_order(b.word):
        _apply_gen(a, bb, k)
    image = Loop(a=tuple(f[0] for f in a), b=tuple(f[0] for f in bb), basepoint=l.basepoint)
    return image, LinearAction(tuple(tuple(f[1:]) for f in a + bb))


def loopcoords(b) -> Loop:
    """Canonical loop coordinates of a braid: its action on the basepoint
    multiloop.  Two braids are equal exactly when these agree."""
    b = braids._as_braid(b)
    a, bb = _canonical_image(_word_order(b.word), b.n)
    return Loop(a=a, b=bb, basepoint=True)


def _canonical_image(gens, n: int):
    """Coordinates ``(a, b)`` of the canonical basepoint loop after applying
    ``gens`` in the order given."""
    l = canonical_loop(n, basepoint=True)
    a, bb = list(l.a), list(l.b)
    for k in gens:
        _apply_gen(a, bb, k)
    return tuple(a), tuple(bb)


def cycle(b, l0: Loop | None = None, maxit: int = 1000) -> CycleResult:
    """Iterate ``l <- b * l`` until the per-iterate matrices become periodic.

    Periodicity is declared only after two consecutive identical periods;
    exact integer coordinates rule out spurious cycles from rounding.  The
    result depends on the starting loop ``l0`` (default: the canonical
    basepoint loop), which is part of the contract: away from the
    pseudo-Anosov case different starting loops may give different cycles.
    """
    b = braids._as_braid(b)
    if l0 is None:
        l0 = canonical_loop(b.n, basepoint=True)
    _check_compat(b.n, l0)
    l = l0
    mats = []
    for _ in range(maxit):
        l, M = act_with_matrix(b, l)
        mats.append(M.entries)
        t = len(mats)
        for p in range(1, t // 2 + 1):
            if mats[t - p:] == mats[t - 2 * p : t - p]:
                k = t - 2 * p
                while k > 0 and mats[k - 1] == mats[k - 1 + p]:
                    k -= 1
                return CycleResult(
                    preperiod=k,
                    period=p,
                    matrices=tuple(LinearAction(e) for e in mats[k : k + p]),
                )
    raise CycleNotFoundError(
        f"no limit cycle of the effective linear action within {maxit} iterations"
    )
