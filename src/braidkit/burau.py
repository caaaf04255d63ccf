"""Reduced Burau representation and the Alexander-Conway polynomial.

The generator on strands ``i, i+1`` of an ``n``-strand braid is represented
on an ``(n-1)``-dimensional space by the identity with row ``i`` replaced by
``(..., 1, -t, t, ...)`` centered on the diagonal (the flanking entries
dropped at the edges); its inverse replaces the row by ``(..., 1/t, -1/t,
1, ...)``.  Matrices act on column vectors, so a word is represented by the
product of its generator matrices with the latest-applied factor leftmost,
matching the loop-action convention.  The determinant of a word's matrix is
``(-t)**writhe``.

Multiplying the product on the left by a generator matrix changes only row
``i``: ``row[i] <- left*row[i-1] + diag*row[i] + right*row[i+1]``.  So a
word of length ``L`` costs O(L*n) ring operations.  The same row update
serves the symbolic mode (Laurent polynomial entries, constants ``t`` and
``1/t``) and the evaluated mode (numbers; integer ``t`` stays exact through
Fractions).  Determinants, and with them the Alexander polynomial, come from
the fraction-free Bareiss elimination in :mod:`braidkit.linalg`, O(n^3)
exact ring operations.
"""
from __future__ import annotations

import dataclasses
import numbers
from fractions import Fraction

from .braids import _as_braid
from .laurent import LaurentPoly
from .linalg import det_exact


class FractionalPowersError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class BurauMatrix:
    """Reduced Burau matrix of a braid word; entries are LaurentPoly in
    symbolic mode or plain numbers in evaluated mode."""

    entries: tuple
    symbolic: bool

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def det(self):
        return det_exact(self.entries)

    def to_json(self) -> dict:
        if self.symbolic:
            rows = [[p.to_json() for p in row] for row in self.entries]
        else:
            rows = [[float(x) if not isinstance(x, int) else x for x in row] for row in self.entries]
        return {"dim": self.dim, "symbolic": self.symbolic, "entries": rows}


def _invert(t):
    if isinstance(t, numbers.Integral):
        f = Fraction(1, int(t))
        return int(f) if f.denominator == 1 else f
    return 1 / t


def _product_rows(word, dim: int, one, zero, t, tinv):
    """Rows of the Burau product of ``word`` over the ring of ``t``, one row
    update per generator."""
    # acc[0] and acc[dim + 1] are zero rows, so every generator's row has
    # both neighbours and the edge generators need no special case.
    acc = [[zero] * dim]
    acc += [[one if r == c else zero for c in range(dim)] for r in range(dim)]
    acc.append([zero] * dim)
    pos, neg = (one, -t, t), (tinv, -tinv, one)
    for w in word:
        left, diag, right = pos if w > 0 else neg
        i = abs(w)
        acc[i] = [zero + left * x + diag * y + right * z for x, y, z in zip(acc[i - 1], acc[i], acc[i + 1])]
    return acc[1:-1]


def burau(b, t=None):
    """Reduced Burau matrix of a braid.

    With ``t=None`` the entries are symbolic Laurent polynomials; otherwise
    they are numbers computed at ``t`` (integers stay exact through
    Fractions).
    """
    b = _as_braid(b)
    n = b.n
    if n < 2:
        raise ValueError("need at least 2 strands")
    if t is None:
        one, zero = LaurentPoly.const(1), LaurentPoly()
        rows = _product_rows(b.word, n - 1, one, zero, LaurentPoly.var(), LaurentPoly.term(1, -1))
        return BurauMatrix(entries=tuple(tuple(r) for r in rows), symbolic=True)
    if isinstance(t, numbers.Integral):
        t = int(t)
    tinv = _invert(t) if b.word else t  # the empty word needs no inverse, even at t = 0
    rows = _product_rows(b.word, n - 1, 1, 0, t, tinv)
    # Once two generators have acted, every entry (the untouched identity
    # ones too) has mixed with a t-valued one and takes t's number type.
    zero = 0 * t if len(b.word) > 1 else 0
    return BurauMatrix(entries=tuple(tuple(_simplify_num(x + zero) for x in r) for r in rows), symbolic=False)


def _simplify_num(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def alexander(b, centered: bool = False) -> LaurentPoly:
    """Alexander-Conway polynomial of the braid closure.

    Computed as ``det(I - B(t)) * (1 - t) / (1 - t^n)`` from the symbolic
    reduced Burau matrix; the division is exact.  The centered form is
    shifted so that ``p(z) == +/- p(1/z)``; when the required shift is a
    half-integer (links of several components) this raises
    :class:`FractionalPowersError`.
    """
    b = _as_braid(b)
    n = b.n
    B = burau(b)
    one = LaurentPoly.const(1)
    zero = LaurentPoly()
    rows = [[(one if r == c else zero) - x for c, x in enumerate(row)] for r, row in enumerate(B.entries)]
    d = det_exact(rows)
    t = LaurentPoly.var()
    num = d * (one - t)
    den = one - t**n
    poly = num.exact_div(den)
    if not centered:
        return poly
    if poly.is_zero():
        return poly
    span = poly.maxdeg + poly.mindeg
    if span % 2 != 0:
        raise FractionalPowersError("Polynomial with fractional powers.")
    return poly.shift(-span // 2)

