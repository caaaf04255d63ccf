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
word of length ``L`` costs O(L*n) ring operations.

The exact modes run this update on plain ints (:func:`_integer_rows`): row
``i`` is held as ints ``R[i]`` times ``t**(-s[i])``, and each generator
takes the smallest new exponent for which its multipliers are non-negative
powers of ``t``, so no step divides.  An integer ``t`` multiplies by powers
of ``t`` and divides once at the end, giving a Fraction only where an entry
is not an integer.  The symbolic mode evaluates at ``t = 2**K``, where a
power of ``t`` is a shift, and reads each entry's coefficients back from its
``K``-bit slots (Kronecker substitution).  ``K`` comes from a bound on the
coefficients, so the reading is exact.  Past ``_KRONECKER_MAX_BITS`` of bound
the ints grow too wide, and the symbolic mode runs the update on
``LaurentPoly`` entries instead (:func:`_ring_rows`), the update that also
serves float, complex and Fraction ``t``.  Determinants, and with them the
Alexander polynomial, come from the fraction-free Bareiss elimination in
:mod:`braidkit.linalg`, O(n^3) exact ring operations.
"""
from __future__ import annotations

import dataclasses
import numbers
from fractions import Fraction

from .braids import _as_braid
from .laurent import LaurentPoly, _slot_bits, _unpack
from .linalg import det_exact

# Past this many bits in the coefficient bound, the symbolic product's
# integers get too wide and the LaurentPoly row update is faster.
_KRONECKER_MAX_BITS = 1400


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


def _ring_rows(word, dim: int, one, zero, t, tinv):
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


def _integer_rows(word, dim: int, scale):
    """The Burau product of ``word`` as integer rows with exponents of t.

    Returns ``(R, s)`` such that row ``i`` of the product is ``R[i] *
    t**(-s[i])``, where ``R[i]`` holds polynomials in ``t`` with no negative
    powers, represented as ints by ``scale(row, k)``, which multiplies the
    ints of a row by ``t**k`` (``k >= 0``).  A generator's row update takes
    the smallest new ``s[i]`` for which its three multipliers ``(1, -t, t)``
    or ``(1/t, -1/t, 1)`` times the neighbours' ``t**s`` are non-negative
    powers of ``t``, so no step divides.
    """
    R = [[0] * dim]
    R += [[int(r == c) for c in range(dim)] for r in range(dim)]
    R.append([0] * dim)
    s = [0] * (dim + 2)
    for w in word:
        i = abs(w)
        y = s[i]
        # the zero rows past the edges put no bound on the new exponent
        x = s[i - 1] if i > 1 else y - 1
        z = s[i + 1] if i < dim else y
        if w > 0:
            e = max(x, y - 1, z - 1)
            kx, ky, kz = e - x, e - y + 1, e - z + 1
        else:
            e = max(x + 1, y + 1, z)
            kx, ky, kz = e - x - 1, e - y - 1, e - z
        R[i] = [a - b + c for a, b, c in zip(scale(R[i - 1], kx), scale(R[i], ky), scale(R[i + 1], kz))]
        s[i] = e
    return R[1:-1], s[1:-1]


def _kronecker_slot(word, dim: int):
    """Slot width ``K`` for the symbolic product evaluated at ``2**K``, or
    ``None`` when the coefficient bound passes ``_KRONECKER_MAX_BITS``.

    Every multiplier of a row update is ``+-t**k``, whose l1 norm is 1, so
    ``N[i] <- N[i-1] + N[i] + N[i+1]`` bounds the l1 norm, and with it every
    coefficient, of each entry of row ``i``.
    """
    N = [0] + [1] * dim + [0]
    for w in word:
        i = abs(w)
        N[i] += N[i - 1] + N[i + 1]
        if N[i].bit_length() > _KRONECKER_MAX_BITS:
            return None
    return _slot_bits(max(N).bit_length())


def _symbolic(word, dim: int):
    K = _kronecker_slot(word, dim)
    if K is None:
        one, zero = LaurentPoly.const(1), LaurentPoly()
        return _ring_rows(word, dim, one, zero, LaurentPoly.var(), LaurentPoly.term(1, -1))
    R, s = _integer_rows(word, dim, lambda row, k: [x << K * k for x in row] if k else row)
    return [[LaurentPoly(z - e, coeffs) for z, coeffs in (_unpack(x, K) for x in row)] for row, e in zip(R, s)]


def _at_integer(word, dim: int, t: int):
    if t == 0 and any(w < 0 for w in word):
        raise ZeroDivisionError("an inverse generator needs 1/t, undefined at t = 0")

    def scale(row, k):
        if not k:
            return row
        p = t**k
        return [x * p for x in row]

    R, s = _integer_rows(word, dim, scale)
    rows = []
    for row, e in zip(R, s):
        if e <= 0:
            rows.append(scale(row, -e))
        else:
            d = t**e
            rows.append([x // d if not x % d else Fraction(x, d) for x in row])
    return rows


def burau(b, t=None):
    """Reduced Burau matrix of a braid.

    With ``t=None`` the entries are symbolic Laurent polynomials; otherwise
    they are numbers computed at ``t``.  An integer ``t`` gives exact ints,
    or Fractions where an entry is not an integer.
    """
    b = _as_braid(b)
    n = b.n
    if n < 2:
        raise ValueError("need at least 2 strands")
    word, dim = b.word, n - 1
    if t is None:
        return BurauMatrix(entries=tuple(tuple(r) for r in _symbolic(word, dim)), symbolic=True)
    if isinstance(t, numbers.Integral):
        return BurauMatrix(entries=tuple(tuple(r) for r in _at_integer(word, dim, int(t))), symbolic=False)
    tinv = 1 / t if word else t  # the empty word needs no inverse, even at t = 0
    rows = _ring_rows(word, dim, 1, 0, t, tinv)
    # Once two generators have acted, every entry (the untouched identity
    # ones too) has mixed with a t-valued one and takes t's number type.
    zero = 0 * t if len(word) > 1 else 0
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

