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

import numpy as np

from . import action


@dataclasses.dataclass(frozen=True)
class Braid:
    word: tuple
    n: int

    def __post_init__(self):
        word = tuple(int(w) for w in self.word)
        object.__setattr__(self, "word", word)
        for w in word:
            if w == 0:
                raise ValueError("generator index 0 is not allowed")
            if abs(w) >= self.n:
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

    def __eq__(self, other):
        if not isinstance(other, Braid):
            return NotImplemented
        if self.n != other.n:
            return False
        return equals(self, other)

    def __hash__(self):
        # Equal braids have equal canonical coordinates, computed once.  The
        # word is applied first entry first whatever the configured action
        # direction (reversing every word preserves equality), and the key
        # holds only ints, so the hash is the same in every process.
        h = self.__dict__.get("_hash")
        if h is None:
            key = action._canonical_image(self.word, self.n) if self.n > 1 else ()
            h = hash((self.n, key))
            object.__setattr__(self, "_hash", h)
        return h

    def to_json(self) -> dict:
        return {"n": self.n, "word": list(self.word), "annular": False}


def make_braid(word, n: int | None = None) -> Braid:
    """Braid from a word of signed generator indices.

    The strand count defaults to the minimum that supports the word (2 for
    the empty word).
    """
    word = tuple(int(w) for w in word)
    if n is None:
        n = 1 + max((abs(w) for w in word), default=1)
    return Braid(word=word, n=n)


def identity_braid(n: int = 2) -> Braid:
    return Braid(word=(), n=n)


def mul(a: Braid, b: Braid) -> Braid:
    """Concatenate words; acting with ``mul(a, b)`` on a loop equals acting
    with ``a`` first, then ``b``."""
    if a.n != b.n:
        raise ValueError(f"strand counts differ: {a.n} != {b.n}")
    return Braid(word=a.word + b.word, n=a.n)


def embed(b: Braid, n: int) -> Braid:
    """The same word viewed on a larger strand count."""
    if n < b.n:
        raise ValueError("cannot shrink the strand count")
    return Braid(word=b.word, n=n)


def inverse(b: Braid) -> Braid:
    return Braid(word=tuple(-w for w in reversed(b.word)), n=b.n)


def power(b: Braid, k: int) -> Braid:
    if k >= 0:
        return Braid(word=b.word * k, n=b.n)
    return Braid(word=inverse(b).word * (-k), n=b.n)


def equals(a: Braid, b: Braid) -> bool:
    """Exact group equality, via canonical loop coordinates."""
    if a.n != b.n:
        raise ValueError(f"strand counts differ: {a.n} != {b.n}")
    if a.word == b.word:
        return True
    return action.loopcoords(a) == action.loopcoords(b)


def lexeq(a: Braid, b: Braid) -> bool:
    """Entry-by-entry word equality (plus equal strand count)."""
    return a.n == b.n and a.word == b.word


def istrivial(b: Braid) -> bool:
    return action.loopcoords(b) == action.loopcoords(identity_braid(b.n))


def perm(b: Braid):
    """Permutation of strand positions: entry ``j`` is the strand (by start
    position, 1-based) that ends at position ``j+1``."""
    p = list(range(1, b.n + 1))
    for w in b.word:
        i = abs(w) - 1
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def ispure(b: Braid) -> bool:
    return perm(b) == tuple(range(1, b.n + 1))


def writhe(b: Braid) -> int:
    return sum(1 if w > 0 else -1 for w in b.word)


def subbraid(b: Braid, keep) -> Braid:
    """Braid of the kept strands only (1-based start positions, increasing).

    A crossing survives, re-indexed to the kept strands' current order, only
    when both of its strands are kept.
    """
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


def tensor(a: Braid, b: Braid) -> Braid:
    """Braids laid side by side; the second word shifts past the first's strands."""
    shifted = tuple((w + a.n) if w > 0 else (w - a.n) for w in b.word)
    return Braid(word=a.word + shifted, n=a.n + b.n)


def random_braid(n: int, k: int, seed=None) -> Braid:
    """Word of ``k`` generators drawn uniformly from the 2(n-1) signed ones."""
    if n < 2:
        raise ValueError("need at least 2 strands")
    if k < 0:
        raise ValueError("length must be nonnegative")
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
    carries the outermost puncture around the center.
    """

    word: tuple
    nann: int

    def __post_init__(self):
        word = tuple(int(w) for w in self.word)
        object.__setattr__(self, "word", word)
        for w in word:
            if w == 0:
                raise ValueError("generator index 0 is not allowed")
            if abs(w) > self.nann:
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
            if self.nann != other.nann:
                raise ValueError("annular puncture counts differ")
            return AnnularBraid(word=self.word + other.word, nann=self.nann)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AnnularBraid):
            return NotImplemented
        if self.nann != other.nann:
            return False
        return equals(self.to_braid(), other.to_braid())

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.to_braid())
            object.__setattr__(self, "_hash", h)
        return h

    def to_braid(self) -> Braid:
        """Rewrite over the standard generators on ``nann + 1`` strands.

        The ring generator exchanges the outermost puncture with the first
        one by passing around the center: it conjugates a first-strand
        crossing by a double crossing at the far end and a run across.
        """
        word = []
        for w in self.word:
            word.extend(_annular_gen_word(abs(w), self.nann, w > 0))
        return Braid(word=tuple(word), n=self.nann + 1)

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


def make_annular_braid(word, nann: int | None = None) -> AnnularBraid:
    """Annular braid; ``nann`` defaults to the largest index in the word."""
    word = tuple(int(w) for w in word)
    if nann is None:
        nann = max((abs(w) for w in word), default=1)
    return AnnularBraid(word=word, nann=nann)


def braid_from_json(data: dict):
    if data.get("annular"):
        return AnnularBraid(word=tuple(data["word"]), nann=data["n"] - 1)
    return Braid(word=tuple(data["word"]), n=data["n"])


# ------------------------------------------------------------------ compact


def _std_commutes(x: int, y: int) -> bool:
    return abs(abs(x) - abs(y)) > 1


def _free_reduce(word):
    out = []
    for w in word:
        if out and out[-1] == -w:
            out.pop()
        else:
            out.append(w)
    return out


def _commuting_cancellation(word, commutes):
    """Delete a pair w[k] == -w[l] when everything between commutes with w[k]."""
    for k in range(len(word)):
        wk = word[k]
        for l in range(k + 1, len(word)):
            if word[l] == -wk:
                return word[:k] + word[k + 1 : l] + word[l + 1 :]
            if not commutes(word[l], wk):
                break
    return None


def _triple_rewrites(x, y, z):
    """Braid-relation rewrites of the window (x, y, z), as word identities."""
    if abs(abs(x) - abs(y)) != 1:
        return ()
    same_sign = (x > 0) == (y > 0)
    if z == x and same_sign:
        return ((y, x, y),)
    if z == -x:
        if same_sign:
            return ((-y, x, y),)
        return ((y, -x, -y),)
    return ()


def _reduce_pass(word, commutes):
    word = _free_reduce(word)
    while True:
        shorter = _commuting_cancellation(word, commutes)
        if shorter is None:
            return word
        word = _free_reduce(shorter)


def _compact_word(word, commutes, rewritable):
    word = _reduce_pass(word, commutes)
    improved = True
    while improved:
        improved = False
        for k in range(len(word) - 2):
            x, y, z = word[k], word[k + 1], word[k + 2]
            if not (rewritable(x) and rewritable(y)):
                continue
            for rep in _triple_rewrites(x, y, z):
                cand = _reduce_pass(word[:k] + list(rep) + word[k + 3 :], commutes)
                if len(cand) < len(word):
                    word = cand
                    improved = True
                    break
            if improved:
                break
    return word


def compact(b):
    """Heuristically shorten the word without changing the braid.

    Repeats free cancellation, commutation-enabled cancellations, and local
    braid-relation rewrites kept only when they lead to a shorter word.  The
    result equals the input braid but is not guaranteed minimal.  For
    annular braids only the ring generator's free cancellations apply to it;
    the moving-puncture generators follow the standard rules.
    """
    if isinstance(b, AnnularBraid):
        ring = b.nann

        def commutes(x, y):
            return abs(x) < ring and abs(y) < ring and _std_commutes(x, y)

        def rewritable(x):
            return abs(x) < ring

        word = _compact_word(list(b.word), commutes, rewritable)
        return AnnularBraid(word=tuple(word), nann=b.nann)
    word = _compact_word(list(b.word), _std_commutes, lambda x: True)
    return Braid(word=tuple(word), n=b.n)
