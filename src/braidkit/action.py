"""Piecewise-linear action of braid generators on loop coordinates.

Each generator updates at most two of the ``(a_i, b_i)`` coordinate pairs
through expressions built from ``max(., 0)`` / ``min(., 0)``.  Once the
max/min branches are resolved by the actual coordinate values, the update is
linear.  One kernel, :func:`_apply_word`, runs a whole word with the update
written once, and every exact path calls it.

For :func:`act_with_matrix` each coordinate is a form, the one int
``E = value * 2**S + packed``: ``packed`` holds the coordinate's matrix row,
entry ``j`` in the ``j``-th balanced ``K``-bit slot of ``S = K*d`` bits
(Kronecker substitution, with the slot codec of :mod:`.linalg`).  While every
entry is below ``2**(K-1)`` in size, ``|packed| < H = 2**(S-1)``, so the value
is positive exactly when ``E > H`` and negative exactly when ``E < -H``; the
kernel, comparing against ``H`` and ``-H``, then yields the image and the
integer matrix that realizes the action at that particular loop.  A form
decodes as ``v = (E + H) >> S``, ``packed = E - (v << S)``.  One generator
multiplies the largest entry by at most 5 < 2**3, so before each chunk of
``_CHUNK`` generators that could pass ``2**(K-1)``, one add and one AND per
row test for room (:func:`_fits`); only a failed test decodes the rows and
re-packs them at a wider ``K``.  Iterating a braid makes the matrix sequence
eventually periodic; :func:`cycle` detects the limit cycle.

Conventions, fixed once here and relied on everywhere else:

* words act left-to-right by default (first entry acts first); the global
  ``GenLoopActDir`` property can reverse this;
* matrices act on column vectors ``(a_1..a_m, b_1..b_m)``, so composing an
  action appends new matrices on the left (latest applied leftmost);
* an inverse generator is the conjugate of the positive one by the
  reflection that negates the ``a`` half of the coordinates; the kernel
  reflects only the ``a`` coordinates the generator reads and writes.
"""
from __future__ import annotations

import dataclasses

from . import braids
from .config import properties
from .linalg import _bias, _pack, _slot_bits, _unpack, mat_mul, mat_vec
from .loops import Loop, canonical_loop

# A chunk of _CHUNK generators adds at most 3 * _CHUNK bits to a row entry.
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


def _apply_word(a, b, word, hi=0):
    """Apply the signed generators of ``word`` in order, in place.  A
    coordinate is positive above ``hi`` and negative below ``-hi``: 0 for
    plain ints, ``H`` for forms.  A max/min branch resolved to 0 skips its
    add, so no form is copied by ``x + 0``."""
    m = len(a)
    last = m + 1
    if min(map(abs, word), default=1) < 1 or max(map(abs, word), default=0) > last:
        k = next(k for k in word if not 1 <= abs(k) <= last)
        raise ValueError(f"generator index {k} out of range for {m + 2} punctures")
    lo = -hi
    for k in word:
        # an inverse is the positive generator conjugated by the reflection
        # that negates the a-coordinates read and written (folded into the
        # signs of d and of the a updates for a middle generator)
        inv = k < 0
        i = -k if inv else k
        if i == 1:
            a0, b0 = a[0], b[0]
            if inv:
                a0 = -a0
            bn = a0 + b0 if b0 > hi else a0
            an = bn - b0 if bn > hi else -b0
            a[0], b[0] = -an if inv else an, bn
        elif i == last:
            a0, b0 = a[m - 1], b[m - 1]
            if inv:
                a0 = -a0
            bn = a0 + b0 if b0 < lo else a0
            an = bn - b0 if bn < lo else -b0
            a[m - 1], b[m - 1] = -an if inv else an, bn
        else:
            # with d = a1 - a2 (a-coordinates reflected for an inverse),
            # t = d + min(b1, 0), c = t - max(b2, 0), u = max(b2, 0) - d:
            # a1 -= max(b1, 0) + max(t, 0), a2 -= min(b2, 0) + min(u, 0),
            # and (b1, b2) <- (b2 + min(c, 0), b1 - min(c, 0))
            j1, j2 = i - 2, i - 1
            a1, a2, b1, b2 = a[j1], a[j2], b[j1], b[j2]
            d = a2 - a1 if inv else a1 - a2
            t = d + b1 if b1 < lo else d
            if b1 > hi:
                a1 = a1 + b1 if inv else a1 - b1
            if t > hi:
                a1 = a1 + t if inv else a1 - t
            if b2 > hi:
                c, u = t - b2, b2 - d
                if u < lo:
                    a2 = a2 + u if inv else a2 - u
            else:
                c = t
                if b2 < lo:
                    a2 = a2 + b2 if inv else a2 - b2
                if d > hi:  # u = -d < 0
                    a2 = a2 - d if inv else a2 + d
            if c < lo:
                a[j1], a[j2], b[j1], b[j2] = a1, a2, b2 + c, b1 - c
            else:
                a[j1], a[j2], b[j1], b[j2] = a1, a2, b2, b1


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
    N, kind = (l.n, "a basepoint loop") if l.basepoint else (l.totaln, "a loop")
    if n > N:
        raise ValueError(f"braid on {n} strands cannot act on {kind} with {N} punctures")


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
    values, rows = _act_with_matrix(_word_order(b.word), l.coords)
    m = len(values) // 2
    return Loop(values[:m], values[m:], l.basepoint), LinearAction(rows)


def _fits(forms, K, d, G):
    """Whether every row entry ``c`` of ``forms`` (``d`` slots of ``K`` bits)
    has ``-2**(K-1-G) <= c < 2**(K-1-G)``: with ``2**(K-1-G)`` added to each
    slot, exactly then are the top ``G`` bits of every slot clear."""
    unit = _bias(d, K) >> (K - 1)
    off, mask = unit << (K - 1 - G), unit * ((1 << K) - (1 << (K - G)))
    return not any((E + off) & mask for E in forms)


def _act_with_matrix(word, coords):
    """Image coordinates and matrix rows of ``word`` at ``coords``."""
    d = len(coords)

    def decode(E, K):
        v = (E + (1 << (K * d - 1))) >> (K * d)
        z, coeffs = _unpack(E - (v << (K * d)), K)
        return v, (0,) * z + coeffs + (0,) * (d - z - len(coeffs))

    room = 3 * _CHUNK
    K = _slot_bits(1 + room)
    forms = [(x << (K * d)) + (1 << (K * i)) for i, x in enumerate(coords)]
    bits = 0  # every row entry c has |c| <= 2**bits
    for s in range(0, len(word), _CHUNK):
        chunk = word[s : s + _CHUNK]
        grow = 3 * len(chunk)
        if bits + grow >= K:
            if _fits(forms, K, d, grow):
                bits = K - 1 - grow
            else:
                decoded = [decode(E, K) for E in forms]
                bits = max(abs(c) for _, r in decoded for c in r).bit_length()
                K = max(2 * K, _slot_bits(bits + room))
                forms = [(v << (K * d)) + _pack(r, K) for v, r in decoded]
        a, bb = forms[: d // 2], forms[d // 2 :]
        _apply_word(a, bb, chunk, 1 << (K * d - 1))
        forms = a + bb
        bits += grow
    values, rows = zip(*(decode(E, K) for E in forms))
    return values, rows


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
    word, coords = _word_order(b.word), l0.coords
    mats = []
    for _ in range(maxit):
        coords, M = _act_with_matrix(word, coords)
        mats.append(M)
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
