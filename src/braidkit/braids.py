"""Exact braid-group algebra on generator words.

A braid on ``n`` strands is a word of nonzero signed integers: entry ``i``
is the elementary crossing of strands ``i`` and ``i+1`` with the left strand
passing over, ``-i`` its inverse.  Words multiply by concatenation; genuine
group equality is decided exactly through the action on canonical loop
coordinates, never by word comparison.

Annular braids live on punctures arranged in a ring around a fixed center;
they carry one extra generator that carries the last puncture around the
center back to the first position, and convert to ordinary braids on one
extra strand.
"""
from __future__ import annotations

import math
import numbers

from . import action
from .config import Record, replace


def _key(b):
    """Canonical coordinates of ``_as_braid(b)``, equal exactly for equal
    braids, computed once per instance.  The word acts first entry first in
    either action direction, since reversing words is an anti-automorphism
    of the braid group; the ints hash the same in every process."""
    key = b.__dict__.get("_canonical")
    if key is None:
        c = _as_braid(b)
        key = action._canonical_image(c.word, c.n) if c.n > 1 else ()
        object.__setattr__(b, "_canonical", key)
    return key


def _eq(a, b):
    if type(b) is not type(a):
        return NotImplemented
    return a.n == b.n and equals(a, b)


def _hash(b):
    return hash((b.n, _key(b)))


def _check_word(b, size: str, extra: int, beyond: str):
    """Store ``b.word`` as a tuple of ints, converting the letters once
    unless all are exact ints already (for which ``int(x) is x``), and check,
    on the set of its letters in fewer passes, that each ``w`` is nonzero
    with ``|w| <= size - extra``; ``beyond`` formats the error for the first
    bad letter and the size.  A ``None`` size becomes the least that holds
    the word (``extra`` plus the largest index, and at least ``1 + extra``);
    any other size must be integral, stored as an int, or ``TypeError``
    names the field and the value."""
    word = tuple(b.word)
    if not set(map(type, word)) <= {int}:
        word = tuple(map(int, word))
    object.__setattr__(b, "word", word)
    letters = set(word)
    top = getattr(b, size)
    if type(top) is not int:
        if top is None:
            top = extra + max(map(abs, letters), default=1)
        elif isinstance(top, numbers.Integral):
            top = int(top)
        else:
            raise TypeError(f"{size} must be an integer, got {top!r}")
        object.__setattr__(b, size, top)
    if letters and (0 in letters or extra - min(letters) > top or extra + max(letters) > top):
        w = next(w for w in word if w == 0 or extra + abs(w) > top)
        if w == 0:
            raise ValueError("generator index 0 is not allowed")
        raise ValueError(beyond.format(w, top))


def _str(b):
    return "< " + (" ".join(map(str, b.word)) or "e") + " >"


class Braid(Record):
    """A word of signed generator indices on ``n`` strands; ``n=None`` is
    the least strand count that supports the word (2 for the empty word).
    Any other ``n`` must be an integer (numpy ints convert to int); a float,
    even a whole one, raises ``TypeError``."""

    word: tuple
    n: int | None

    def __post_init__(self):
        _check_word(self, "n", 1, "generator {} needs more than {} strands")
        if self.n < 1:
            raise ValueError("strand count must be at least 1")

    def __len__(self):
        return len(self.word)

    __str__ = _str

    def __mul__(self, other):
        from .loops import Loop

        if isinstance(other, Braid):
            return mul(self, other)
        if isinstance(other, (Loop, list)):
            return action.act(self, other)
        return NotImplemented

    def __pow__(self, k: int):
        return power(self, k)

    __eq__ = _eq
    __hash__ = _hash

    def to_json(self) -> dict:
        return {"n": self.n, "word": list(self.word), "annular": False}


def make_braid(word, n: int | None = None) -> Braid:
    """Braid from a word of signed generator indices.

    The strand count defaults to the minimum that supports the word (2 for
    the empty word); a given one must be an integer, or ``TypeError``.
    """
    return Braid(word=word, n=n)


def identity_braid(n: int = 2) -> Braid:
    return Braid(word=(), n=n)


def mul(a, b):
    """Concatenate words; acting with ``mul(a, b)`` on a loop equals acting
    with ``a`` first, then ``b``.

    Two annular braids with the same ``nann`` give an annular braid; any
    other annular factor is converted by :meth:`AnnularBraid.to_braid` first.
    """
    if type(a) is type(b) and a.n == b.n:
        return replace(a, word=a.word + b.word)
    a, b = _as_braid(a), _as_braid(b)
    if a.n != b.n:
        raise ValueError(f"strand counts differ: {a.n} != {b.n}")
    return Braid(word=a.word + b.word, n=a.n)


def embed(b: Braid, n: int) -> Braid:
    """The same word viewed on a larger strand count."""
    if n < b.n:
        raise ValueError("cannot shrink the strand count")
    return Braid(word=b.word, n=n)


def inverse(b):
    """The inverse braid, of the same type as ``b``."""
    return replace(b, word=tuple(-w for w in reversed(b.word)))


def power(b, k: int):
    """``b`` to the ``k``-th power, of the same type as ``b``."""
    if k >= 0:
        return replace(b, word=b.word * k)
    return replace(b, word=inverse(b).word * (-k))


def equals(a, b) -> bool:
    """Exact group equality, by the cached canonical key the hash reads.
    Unless both keys are cached, unequal exponent sums (``writhe``, a group
    invariant) answer ``False`` before either key is computed."""
    if a.n != b.n:
        raise ValueError(f"strand counts differ: {a.n} != {b.n}")
    if type(a) is type(b) and a.word == b.word:
        return True
    if not ("_canonical" in a.__dict__ and "_canonical" in b.__dict__) and writhe(a) != writhe(b):
        return False
    return _key(a) == _key(b)


def lexeq(a: Braid, b: Braid) -> bool:
    """Entry-by-entry word equality (plus equal strand count)."""
    return a.n == b.n and a.word == b.word


def istrivial(b) -> bool:
    """Whether ``b`` is the identity, by :func:`equals`: a nonzero writhe
    returns ``False`` before the identity's key is built."""
    return equals(b, identity_braid(b.n))


def perm(b):
    """Permutation of strand positions: entry ``j`` is the strand (by start
    position, 1-based) that ends at position ``j+1``."""
    b = _as_braid(b)
    p = list(range(1, b.n + 1))
    for w in b.word:
        i = abs(w) - 1
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def ispure(b) -> bool:
    return perm(b) == tuple(range(1, b.n + 1))


def writhe(b) -> int:
    word = _as_braid(b).word
    return len(word) - 2 * len([w for w in word if w < 0])


def subbraid(b, keep) -> Braid:
    """Braid of the kept strands only (1-based start positions, increasing).

    A crossing survives, re-indexed to the kept strands' current order, only
    when both of its strands are kept.
    """
    b = _as_braid(b)
    keep = sorted(set(int(s) for s in keep))
    if not keep:
        raise ValueError("keep must be nonempty")
    if keep[0] < 1 or keep[-1] > b.n:
        raise ValueError("kept strand index out of range")
    kept = set(keep)
    strand_at = list(range(1, b.n + 1))
    word = []
    for w in b.word:
        i = abs(w) - 1
        s1, s2 = strand_at[i], strand_at[i + 1]
        if s1 in kept and s2 in kept:
            rank = sum(1 for s in strand_at[:i] if s in kept)
            word.append((1 if w > 0 else -1) * (rank + 1))
        strand_at[i], strand_at[i + 1] = s2, s1
    return Braid(word=tuple(word), n=len(keep))


def tensor(a, b) -> Braid:
    """Braids laid side by side; the second word shifts past the first's strands."""
    a, b = _as_braid(a), _as_braid(b)
    shifted = tuple((w + a.n) if w > 0 else (w - a.n) for w in b.word)
    return Braid(word=a.word + shifted, n=a.n + b.n)


def random_braid(n: int, k: int, seed=None) -> Braid:
    """Word of ``k`` generators drawn uniformly from the 2(n-1) signed ones."""
    if n < 2:
        raise ValueError("need at least 2 strands")
    if k < 0:
        raise ValueError("length must be nonnegative")
    import numpy as np

    rng = np.random.default_rng(seed)
    idx = rng.integers(1, n, size=k)
    sgn = rng.integers(0, 2, size=k) * 2 - 1
    return Braid(word=tuple(int(i * s) for i, s in zip(idx, sgn)), n=n)


def halftwist(n: int) -> Braid:
    """The positive half twist: descending runs (n-1..1)(n-1..2)...(n-1)."""
    if n < 2:
        raise ValueError("need at least 2 strands")
    word = []
    for low in range(1, n):
        word.extend(range(n - 1, low - 1, -1))
    return Braid(word=tuple(word), n=n)


def fulltwist(n: int) -> Braid:
    """Square of the half twist: pure and central."""
    h = halftwist(n)
    return mul(h, h)


# ----------------------------------------------------------------- annular


class AnnularBraid(Record):
    """Braid of punctures in an annulus.

    ``nann`` punctures move; the annulus center is a fixed extra puncture,
    so the underlying strand count is ``nann + 1``.  Generator ``nann``
    carries the outermost puncture around the center; ``nann=None`` is the
    largest index in the word (1 for the empty word), and any other
    ``nann`` must be an integer, as for :class:`Braid`.
    """

    word: tuple
    nann: int | None

    def __post_init__(self):
        _check_word(self, "nann", 0, "generator {} exceeds {} annular punctures")
        if self.nann < 1:
            raise ValueError("need at least one annular puncture")

    @property
    def n(self) -> int:
        return self.nann + 1

    def __str__(self):
        return _str(self) + "*"

    def __mul__(self, other):
        if isinstance(other, AnnularBraid):
            return mul(self, other)
        return NotImplemented

    __eq__ = _eq
    __hash__ = _hash

    def to_braid(self) -> Braid:
        """Rewrite over the standard generators on ``nann + 1`` strands.

        The ring generator exchanges the outermost puncture with the first
        one by passing around the center: it conjugates a first-strand
        crossing by a double crossing at the far end and a run across.
        """
        gens = {w: _annular_gen_word(abs(w), self.nann, w > 0) for w in set(self.word)}
        return Braid(word=tuple(x for w in self.word for x in gens[w]), n=self.nann + 1)

    def to_json(self) -> dict:
        return {"n": self.n, "word": list(self.word), "annular": True}


def _annular_gen_word(i: int, nann: int, positive: bool):
    if i < nann:
        return [i] if positive else [-i]
    if nann == 1:
        # Degenerate ring generator: a full twist of the lone puncture
        # about the center.
        word = [1, 1]
    else:
        word = [nann, nann]
        word.extend(range(nann - 1, 1, -1))
        word.append(1)
        word.extend(-j for j in range(2, nann))
        word.extend([-nann, -nann])
    if not positive:
        word = [-w for w in reversed(word)]
    return word


def _as_braid(b) -> Braid:
    """``b`` over the standard generators: an annular braid is rewritten by
    :meth:`AnnularBraid.to_braid` once per instance, so ``writhe`` and the
    key in ``equals`` share one rewrite; a braid is returned as it is."""
    if not isinstance(b, AnnularBraid):
        return b
    if "_braid" not in b.__dict__:
        object.__setattr__(b, "_braid", b.to_braid())
    return b._braid


def make_annular_braid(word, nann: int | None = None) -> AnnularBraid:
    """Annular braid; ``nann`` defaults to the largest index in the word."""
    return AnnularBraid(word=word, nann=nann)


def braid_from_json(data: dict):
    if data.get("annular"):
        return AnnularBraid(word=tuple(data["word"]), nann=data["n"] - 1)
    return Braid(word=tuple(data["word"]), n=data["n"])


# ------------------------------------------------------------------ compact


def _cancel(word, ring):
    """Indices of the generators that survive deleting cancelling pairs.

    A pair ``w, -w`` is deleted when everything strictly between the two
    commutes with it; generators ``x, y`` commute when ``||x| - |y|| > 1``
    and both are below ``ring``, so a generator at ``ring`` (an annular
    braid's ring generator) commutes with nothing.  One left-to-right pass
    over a stack of survivors finds every such pair, and no pair among the
    survivors cancels.
    """
    # a generator at ring sits at NaN, which fails every commutation test
    pos = [abs(w) if abs(w) < ring else math.nan for w in word]
    keep = []
    for m, w in enumerate(word):
        p, s = pos[m], len(keep) - 1
        while s >= 0 and abs(pos[keep[s]] - p) > 1:
            s -= 1
        if s >= 0 and word[keep[s]] == -w:
            del keep[s]
        else:
            keep.append(m)
    return keep


def _triple_rewrites(x, y, z, ring):
    """Braid-relation rewrites of the window (x, y, z), as word identities;
    none moves a generator at ``ring``."""
    if abs(abs(x) - abs(y)) != 1 or max(abs(x), abs(y)) >= ring:
        return ()
    same_sign = (x > 0) == (y > 0)
    if z == x and same_sign:
        return ((y, x, y),)
    if z == -x:
        if same_sign:
            return ((-y, x, y),)
        return ((y, -x, -y),)
    return ()


def _compact_word(word, ring):
    """The cancelled word with every shortening rewrite kept, scanning the
    windows as :func:`compact` describes, at near-linear cost.

    The survivors of :func:`_cancel` form a linked list of nodes numbered in
    word order, and each node records its blocker, the nearest earlier node
    it does not commute with, and the later nodes it blocks.  A rewrite keeps
    the window's index set ``{|x|, |y|}``, so until its first deletion the
    cancellation pass over the rewritten word meets new blockers only at the
    window's first letter (its blocker is the earlier word's) and at the
    nodes the window blocked (theirs is the last new letter they do not
    commute with); the second and third new letters sit on letters of the
    other index.  A try reads those letters alone.  A kept rewrite re-runs
    the pass in word order, by a heap, on the nodes whose blocker was
    rewritten or deleted, which is ``_cancel`` of the whole rewritten word.
    """
    from heapq import heapify, heappop, heappush

    word = [word[m] for m in _cancel(word, ring)]
    length = S = len(word)  # node S is the sentinel on both ends of the list
    val = word + [0]
    pos = [abs(w) if abs(w) < ring else math.nan for w in val]
    pos[S] = math.nan  # commutes with nothing, so every scan stops there
    prev, nxt = [S, *range(S)], [*range(1, S + 1), 0]
    alive = [True] * (S + 1)

    def scan(p, x):
        """The nearest node at or before ``p`` not commuting with position ``x``."""
        while abs(pos[p] - x) > 1:
            p = prev[p]
        return p

    blocker = [scan(prev[q], pos[q]) for q in range(S)]
    blocks = [[] for _ in range(S + 1)]
    for q, p in enumerate(blocker):
        blocks[p].append(q)

    def attach(q, p):
        blocks[blocker[q]].remove(q)
        blocker[q] = p
        blocks[p].append(q)

    def rewrite(window, rep):
        """Write ``rep`` over the window's nodes and cancel; the number of
        nodes deleted before the window, and in all."""
        c, todo = window[0], list(window)
        for node, w in zip(window, rep):
            val[node], pos[node] = w, abs(w)
            todo += blocks[node]
        heapify(todo)
        last, before, dropped = S, 0, 0
        while todo:
            q = heappop(todo)
            if q == last or not alive[q]:
                continue
            last, p = q, scan(prev[q], pos[q])
            if val[p] != -val[q]:
                attach(q, p)
                continue
            for x in (p, q):
                alive[x] = False
                blocks[blocker[x]].remove(x)
                nxt[prev[x]], prev[nxt[x]] = nxt[x], prev[x]
            before, dropped = before + (p < c), dropped + 2
            # the nodes the pair blocked scan further back; each lies past
            # q, since a node between p and q commutes with q = -p
            for r in blocks[p] + blocks[q]:
                heappush(todo, r)
        return before, dropped

    def shortens(window, rep):
        """Whether writing ``rep`` over the window deletes a letter."""
        c, c1, c2 = window
        r0, r1, r2 = rep
        if val[scan(prev[c], abs(r0))] == -r0:
            return True
        return any((r1 if abs(pos[q] - pos[c1]) > 1 else r2) == -val[q]
                   for node in window for q in blocks[node] if q > c2)

    improved = True
    while improved:
        improved = False
        k, c = 0, nxt[S]
        while k < length - 2:
            c1 = nxt[c]
            c2 = nxt[c1]
            # every rewrite has z = x or z = -x, and there is at most one
            rep = pos[c2] == pos[c] and _triple_rewrites(val[c], val[c1], val[c2], ring)
            if not (rep and shortens((c, c1, c2), rep[0])):
                k, c = k + 1, c1
                continue
            a = prev[c]
            before, dropped = rewrite((c, c1, c2), rep[0])
            length -= dropped
            improved = True
            # resume at rank k - 2; the last node left before the window
            # has rank k - 1 - before
            while not alive[a]:
                a = prev[a]
            if k < 2:
                k, c = 0, nxt[S]
            else:
                k, c = k - 2, a if before else prev[a]
                for _ in range(before - 1):
                    c = nxt[c]
    out, c = [], nxt[S]
    while c != S:
        out.append(val[c])
        c = nxt[c]
    return out


def compact(b):
    """Heuristically shorten the word without changing the braid.

    Deletes cancelling pairs ``w, -w`` separated only by generators that
    commute with them, in one stack pass, then tries the local braid-relation
    rewrites of each window of three generators, keeping one only when it
    and a new cancellation pass give a shorter word; a try reads only the
    letters the rewrite can unblock, so the call takes near-linear time.  After a kept rewrite at
    window ``k`` the scan resumes at window ``k - 2``; full scans repeat
    until one keeps nothing.  The result equals the input braid and no single
    rewrite shortens it, but it is not guaranteed minimal.  For annular
    braids the ring generator commutes with nothing and is never rewritten;
    the moving-puncture generators follow the standard rules.
    """
    ring = b.nann if isinstance(b, AnnularBraid) else b.n
    return replace(b, word=tuple(_compact_word(list(b.word), ring)))
