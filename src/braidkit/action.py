"""Piecewise-linear action of braid generators on loop coordinates.

Each generator updates at most two of the ``(a_i, b_i)`` coordinate pairs
through expressions built from ``max(., 0)`` / ``min(., 0)``.  Once the
max/min branches are resolved by the actual coordinate values, the update is
linear.  One kernel, :func:`_apply_word`, runs a whole word with the update
written once, and every exact path calls it.

For :func:`act_with_matrix` each coordinate is a ``_Form``, the tuple
``(value, packed, bound)``: ``packed`` holds the coordinate's matrix row,
entry ``j`` in the ``j``-th balanced ``K``-bit slot (Kronecker substitution,
with the slot codec of :mod:`.linalg`), and ``bound`` is an l1 bound on the
row.  So the same update yields the image, the integer matrix that realizes
the action at that particular loop, and the bounds, by the triangle
inequality.  The slots are exact while every bound is below ``2**(K - 1)``.
One generator multiplies a bound by at most 7 < 2**3, so before each chunk
of ``_CHUNK`` generators that could break this, the rows are decoded and
re-packed at a wider ``K``.  Iterating a braid makes the matrix sequence
eventually periodic; :func:`cycle` detects the limit cycle.

Conventions, fixed once here and relied on everywhere else:

* words act left-to-right by default (first entry acts first); the global
  ``GenLoopActDir`` property can reverse this;
* matrices act on column vectors ``(a_1..a_m, b_1..b_m)``, so composing an
  action appends new matrices on the left (latest applied leftmost);
* an inverse generator is the conjugate of the positive one by the
  reflection that negates the ``a`` half of the coordinates; the kernel
  negates only the ``a`` coordinates the generator reads and writes.
"""
from __future__ import annotations

import dataclasses

from . import braids
from .config import properties
from .linalg import _pack, _slot_bits, _unpack, mat_mul, mat_vec
from .loops import Loop, canonical_loop

# A chunk of _CHUNK generators adds at most 3 * _CHUNK bits to a row's bound.
_CHUNK = 32


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


class _Form(tuple):
    """A coordinate that carries its matrix row, ``(value, packed, bound)``
    as in the module docstring.  ``+`` and ``-`` act componentwise except
    that bounds always add, comparisons read the value, and the int 0 of an
    unresolved max/min branch (falsy, unlike any form) is the identity."""

    __slots__ = ()

    def __add__(self, other):
        if not other:
            return self
        return _Form((self[0] + other[0], self[1] + other[1], self[2] + other[2]))

    __radd__ = __add__

    def __sub__(self, other):
        if not other:
            return self
        return _Form((self[0] - other[0], self[1] - other[1], self[2] + other[2]))

    def __rsub__(self, other):
        return -self

    def __neg__(self):
        return _Form((-self[0], -self[1], self[2]))

    def __gt__(self, other):
        return self[0] > other

    def __lt__(self, other):
        return self[0] < other


def _apply_word(a, b, word):
    """Apply the signed generators of ``word`` in order, in place, to int or
    :class:`_Form` coordinates."""
    m = len(a)
    last = m + 1
    if min(map(abs, word), default=1) < 1 or max(map(abs, word), default=0) > last:
        k = next(k for k in word if not 1 <= abs(k) <= last)
        raise ValueError(f"generator index {k} out of range for {m + 2} punctures")
    for k in word:
        # an inverse is the positive generator conjugated by the reflection
        # that negates the a-coordinates: negate the ones read and written
        inv = k < 0
        i = -k if inv else k
        if i == 1:
            a0, b0 = a[0], b[0]
            if inv:
                a0 = -a0
            bn = a0 + (b0 if b0 > 0 else 0)
            an = -b0 + (bn if bn > 0 else 0)
            a[0], b[0] = -an if inv else an, bn
        elif i == last:
            a0, b0 = a[m - 1], b[m - 1]
            if inv:
                a0 = -a0
            bn = a0 + (b0 if b0 < 0 else 0)
            an = -b0 + (bn if bn < 0 else 0)
            a[m - 1], b[m - 1] = -an if inv else an, bn
        else:
            j1, j2 = i - 2, i - 1
            a1, a2, b1, b2 = a[j1], a[j2], b[j1], b[j2]
            if inv:
                a1, a2 = -a1, -a2
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
            na2 = a2 - nb2 - nu
            if inv:
                na1, na2 = -na1, -na2
            a[j1], a[j2], b[j1], b[j2] = na1, na2, b2 + nc, b1 - nc


def apply_generator(l: Loop, i: int, sign: int = 1) -> Loop:
    """Act on a loop with a single generator (``sign`` +1 or -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a, b = list(l.a), list(l.b)
    _apply_word(a, b, (sign * i,))
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
    _apply_word(a, bb, _word_order(b.word))
    return Loop(a=tuple(a), b=tuple(bb), basepoint=l.basepoint)


def act_with_matrix(b, l: Loop):
    """Act on a loop and also return the effective linear action there.

    The matrix satisfies ``entries @ coords(l) == coords(act(b, l))``
    exactly; it is valid only at loops sharing the same resolved branches.
    """
    b = braids._as_braid(b)
    _check_compat(b.n, l)
    word = _word_order(b.word)
    d = len(l.coords)

    def row(packed, K):
        z, coeffs = _unpack(packed, K)
        return (0,) * z + coeffs + (0,) * (d - z - len(coeffs))

    # room for one chunk's growth keeps |entry| <= bound < 2**(K - 1)
    room = 3 * _CHUNK
    K = _slot_bits(1 + room)
    forms = [_Form((x, 1 << (K * i), 1)) for i, x in enumerate(l.coords)]
    a, bb = forms[: d // 2], forms[d // 2 :]
    for s in range(0, len(word), _CHUNK):
        need = _slot_bits(max(f[2] for f in a + bb).bit_length() + room)
        if need > K:
            wide = max(2 * K, need)
            a, bb = ([_Form((v, _pack(row(p, K), wide), e)) for v, p, e in h] for h in (a, bb))
            K = wide
        _apply_word(a, bb, word[s : s + _CHUNK])
    image = Loop(tuple(f[0] for f in a), tuple(f[0] for f in bb), l.basepoint)
    return image, LinearAction(tuple(row(f[1], K) for f in a + bb))


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
    _apply_word(a, bb, gens)
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
