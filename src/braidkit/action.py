"""Piecewise-linear action of braid generators on loop coordinates.

Each generator updates at most two of the ``(a_i, b_i)`` coordinate pairs
through expressions built from ``max(., 0)`` / ``min(., 0)``.  Once the
max/min branches are resolved by the actual coordinate values, the update is
linear.  One kernel, :func:`_update`, runs a whole word, with the update
written once for positive generators and once for inverses, and every exact
path calls it.  It trusts its word: the paths take it from a validated
:class:`~braidkit.braids.Braid` whose strand count :func:`_check_compat` has
bounded by the loop's.  Only :func:`apply_generator`, whose one generator
comes from elsewhere, checks its range first.

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

from . import braids
from .config import Record, properties
from .loops import Loop, canonical_loop

# A chunk of _CHUNK generators adds at most 3 * _CHUNK bits to a row entry.
_CHUNK = 32


class CycleNotFoundError(RuntimeError):
    """Raised when no limit cycle appears within the iteration budget."""


class LinearAction(Record):
    """One resolved linear branch of the piecewise-linear action."""

    entries: tuple  # rows, as tuples of ints

    @property
    def dim(self) -> int:
        return len(self.entries)

    def apply(self, vec):
        from .linalg import mat_vec

        return mat_vec(self.entries, vec)

    def __mul__(self, other: "LinearAction") -> "LinearAction":
        from .linalg import mat_mul

        return LinearAction(mat_mul(self.entries, other.entries))

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": [list(r) for r in self.entries]}


class CycleResult(Record):
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


def _update(a, b, word, hi=0):
    """Apply the signed generators of ``word`` in order, in place, trusting
    that each is in range for ``len(a) + 2`` punctures (of the callers, only
    :func:`apply_generator` checks its generator).  A coordinate is
    positive above ``hi`` and negative below ``-hi``: 0 for plain ints,
    ``H`` for forms.  A max/min branch resolved to 0 skips its add, so no
    form is copied by ``x + 0``.  Each generator is written once per sign,
    an inverse with the reflection of the module docstring folded in."""
    m = len(a)
    last = m + 1
    lo = -hi
    for k in word:
        if 1 < k < last:
            # with d = a1 - a2, t = d + min(b1, 0), c = t - max(b2, 0),
            # u = max(b2, 0) - d: a1 -= max(b1, 0) + max(t, 0),
            # a2 -= min(b2, 0) + min(u, 0),
            # and (b1, b2) <- (b2 + min(c, 0), b1 - min(c, 0))
            j1, j2 = k - 2, k - 1
            a1 = a[j1]
            a2 = a[j2]
            b1 = b[j1]
            b2 = b[j2]
            d = a1 - a2
            t = d + b1 if b1 < lo else d
            if b1 > hi:
                a1 -= b1
            if t > hi:
                a1 -= t
            if b2 > hi:
                c, u = t - b2, b2 - d
                if u < lo:
                    a2 -= u
            else:
                c = t
                if b2 < lo:
                    a2 -= b2
                if d > hi:  # u = -d < 0
                    a2 += d
            if c < lo:
                b1 -= c
                b2 += c
            a[j1], a[j2] = a1, a2
            b[j1], b[j2] = b2, b1
        elif -last < k < -1:
            # the same with a1, a2 negated on the way in and out
            j1, j2 = -k - 2, -k - 1
            a1 = a[j1]
            a2 = a[j2]
            b1 = b[j1]
            b2 = b[j2]
            d = a2 - a1
            t = d + b1 if b1 < lo else d
            if b1 > hi:
                a1 += b1
            if t > hi:
                a1 += t
            if b2 > hi:
                c, u = t - b2, b2 - d
                if u < lo:
                    a2 += u
            else:
                c = t
                if b2 < lo:
                    a2 += b2
                if d > hi:
                    a2 -= d
            if c < lo:
                b1 -= c
                b2 += c
            a[j1], a[j2] = a1, a2
            b[j1], b[j2] = b2, b1
        elif k == 1:
            a0, b0 = a[0], b[0]
            bn = a0 + b0 if b0 > hi else a0
            a[0], b[0] = bn - b0 if bn > hi else -b0, bn
        elif k == -1:
            a0, b0 = -a[0], b[0]
            bn = a0 + b0 if b0 > hi else a0
            a[0], b[0] = b0 - bn if bn > hi else b0, bn
        elif k == last:
            a0, b0 = a[m - 1], b[m - 1]
            bn = a0 + b0 if b0 < lo else a0
            a[m - 1], b[m - 1] = bn - b0 if bn < lo else -b0, bn
        else:
            a0, b0 = -a[m - 1], b[m - 1]
            bn = a0 + b0 if b0 < lo else a0
            a[m - 1], b[m - 1] = b0 - bn if bn < lo else b0, bn


def apply_generator(l: Loop, i: int, sign: int = 1) -> Loop:
    """Act on a loop with a single generator (``sign`` +1 or -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    k, last = sign * i, len(l.a) + 1
    if not 1 <= abs(k) <= last:
        raise ValueError(f"generator index {k} out of range for {last + 1} punctures")
    a, b = list(l.a), list(l.b)
    _update(a, b, (k,))
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
    _update(a, bb, _word_order(b.word))
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
    from .linalg import _bias

    unit = _bias(d, K) >> (K - 1)
    off, mask = unit << (K - 1 - G), unit * ((1 << K) - (1 << (K - G)))
    return not any((E + off) & mask for E in forms)


def _act_with_matrix(word, coords):
    """Image coordinates and matrix rows of ``word`` at ``coords``."""
    from .linalg import _pack, _slot_bits, _unpack

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
        _update(a, bb, chunk, 1 << (K * d - 1))
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
    _update(a, bb, gens)
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
