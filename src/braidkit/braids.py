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

import dataclasses
import math

from . import action


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


def _letters(b, size: str, extra: int):
    """Store ``b.word`` as a tuple of ints, converting each letter once; a
    ``None`` size becomes the least that holds the word (``extra`` plus the
    largest index, and at least ``1 + extra``)."""
    word = tuple(map(int, b.word))
    object.__setattr__(b, "word", word)
    if getattr(b, size) is None:
        object.__setattr__(b, size, extra + max(map(abs, word), default=1))
    return word


@dataclasses.dataclass(frozen=True)
class Braid:
    """A word of signed generator indices on ``n`` strands; ``n=None`` is
    the least strand count that supports the word (2 for the empty word)."""

    word: tuple
    n: int | None

    def __post_init__(self):
        word = _letters(self, "n", 1)
        if word and (0 in word or -min(word) >= self.n or max(word) >= self.n):
            w = next(w for w in word if w == 0 or abs(w) >= self.n)
            if w == 0:
                raise ValueError("generator index 0 is not allowed")
            raise ValueError(f"generator {w} needs more than {self.n} strands")
        if self.n < 1:
            raise ValueError("strand count must be at least 1")

    def __len__(self):
        return len(self.word)

    def __str__(self):
        if not self.word:
            return "< e >"
        return "< " + " ".join(str(w) for w in self.word) + " >"

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
    the empty word).
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
        return dataclasses.replace(a, word=a.word + b.word)
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
    return dataclasses.replace(b, word=tuple(-w for w in reversed(b.word)))


def power(b, k: int):
    """``b`` to the ``k``-th power, of the same type as ``b``."""
    if k >= 0:
        return dataclasses.replace(b, word=b.word * k)
    return dataclasses.replace(b, word=inverse(b).word * (-k))


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


@dataclasses.dataclass(frozen=True)
class AnnularBraid:
    """Braid of punctures in an annulus.

    ``nann`` punctures move; the annulus center is a fixed extra puncture,
    so the underlying strand count is ``nann + 1``.  Generator ``nann``
    carries the outermost puncture around the center; ``nann=None`` is the
    largest index in the word (1 for the empty word).
    """

    word: tuple
    nann: int | None

    def __post_init__(self):
        word = _letters(self, "nann", 0)
        if word and (0 in word or -min(word) > self.nann or max(word) > self.nann):
            w = next(w for w in word if w == 0 or abs(w) > self.nann)
            if w == 0:
                raise ValueError("generator index 0 is not allowed")
            raise ValueError(f"generator {w} exceeds {self.nann} annular punctures")
        if self.nann < 1:
            raise ValueError("need at least one annular puncture")

    @property
    def n(self) -> int:
        return self.nann + 1

    def __str__(self):
        if not self.word:
            return "< e >*"
        return "< " + " ".join(str(w) for w in self.word) + " >*"

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
    def cancelled(w):
        return [w[m] for m in _cancel(w, ring)]

    word = cancelled(word)
    improved = True
    while improved:
        improved = False
        k = 0
        while k < len(word) - 2:
            for rep in _triple_rewrites(word[k], word[k + 1], word[k + 2], ring):
                cand = cancelled(word[:k] + list(rep) + word[k + 3 :])
                if len(cand) < len(word):
                    # windows left of k - 2 do not overlap the rewrite; a
                    # cancellation can still reach them, so full scans repeat
                    word, improved, k = cand, True, max(k - 2, 0)
                    break
            else:
                k += 1
    return word


def compact(b):
    """Heuristically shorten the word without changing the braid.

    Deletes cancelling pairs ``w, -w`` separated only by generators that
    commute with them, in one stack pass, then tries the local braid-relation
    rewrites of each window of three generators, keeping one only when it
    and a new cancellation pass give a shorter word.  After a kept rewrite at
    window ``k`` the scan resumes at window ``k - 2``; full scans repeat
    until one keeps nothing.  The result equals the input braid and no single
    rewrite shortens it, but it is not guaranteed minimal.  For annular
    braids the ring generator commutes with nothing and is never rewritten;
    the moving-puncture generators follow the standard rules.
    """
    ring = b.nann if isinstance(b, AnnularBraid) else b.n
    return dataclasses.replace(b, word=tuple(_compact_word(list(b.word), ring)))
