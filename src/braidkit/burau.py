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
power of ``t`` is a shift, and reads the coefficients back from ``K``-bit
slots (Kronecker substitution, with the codec of :mod:`braidkit.linalg`).
``K`` comes from a per-row coefficient bound advanced over each chunk of
``_CHUNK`` generators, so the reading is exact; before a chunk whose bound
would outgrow the slot, the entries are read back, the bound restarts from
their largest coefficients, and they are re-packed at a new width.  Float,
complex and Fraction ``t`` run the update on numbers (:func:`_ring_rows`);
an evaluated matrix loads neither :mod:`.laurent` nor :mod:`.linalg`.
Determinants, and with them the Alexander polynomial, come from the
fraction-free Bareiss elimination in :mod:`braidkit.linalg`, O(n^3) exact
ring operations, each step of which runs on the entries packed at ``t =
2**K``; the determinant of a float or complex matrix is an LU factorisation
that raises ``OverflowError`` outside the float range.
"""
from __future__ import annotations

import math
import numbers

from .braids import _as_braid
from .config import Record

# Generators per chunk of the symbolic product: a word of at most this many
# never re-packs.
_CHUNK = 256


class FractionalPowersError(ValueError):
    pass


class BurauMatrix(Record):
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
        from .linalg import det_exact

        return det_exact(self.entries)

    def to_json(self) -> dict:
        if self.symbolic:
            rows = [[p.to_json() for p in row] for row in self.entries]
        else:
            rows = [[x if isinstance(x, int) else entry_float(x) for x in row] for row in self.entries]
        return {"dim": self.dim, "symbolic": self.symbolic, "entries": rows}


def entry_float(x) -> float:
    """An evaluated entry as a float, for JSON and display.  An exact entry
    whose float would read 0 or infinite raises ``OverflowError``."""
    try:
        f = float(x)
    except OverflowError:  # a Fraction past the float range
        f = math.inf
    if x and not 0 < abs(f) < math.inf:
        raise OverflowError(
            "a Burau entry leaves the float range; read it exactly from burau(b, t).entries, "
            "or as a polynomial with --symbolic"
        )
    return f


def _ring_rows(word, dim: int, t, tinv):
    """Rows of the Burau product of ``word`` at a number ``t``, one row
    update per generator."""
    acc = _identity(dim)
    pos, neg = (1, -t, t), (tinv, -tinv, 1)
    for w in word:
        left, diag, right = pos if w > 0 else neg
        i = abs(w)
        # the leading 0 makes a sum of float -0.0 terms read 0.0
        acc[i] = [0 + left * x + diag * y + right * z for x, y, z in zip(acc[i - 1], acc[i], acc[i + 1])]
    return acc[1:-1]


def _identity(dim: int):
    """Identity rows between zero rows, which give every row two neighbours."""
    return [[0] * dim] + [[int(r == c) for c in range(dim)] for r in range(dim)] + [[0] * dim]


def _integer_rows(word, R, s, scale):
    """Multiply the state ``(R, s)`` of a Burau product by ``word``, in place.

    Row ``i`` of the product is ``R[i] * t**(-s[i])``, where ``R[i]`` holds
    polynomials in ``t`` with no negative powers, represented as ints by
    ``scale(row, k)``, which multiplies the ints of a row by ``t**k`` (``k
    >= 0``), between zero rows as in :func:`_identity`.  A generator's row
    update takes the smallest new ``s[i]`` for which its three multipliers
    ``(1, -t, t)`` or ``(1/t, -1/t, 1)`` times the neighbours' ``t**s`` are
    non-negative powers of ``t``, so no step divides.
    """
    dim = len(R) - 2
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


def _grow(N, word):
    """The per-row coefficient bound ``N`` advanced over ``word``: every
    multiplier of a row update is ``+-t**k``, so a new coefficient of row
    ``i`` is a sum of one from each of rows ``i - 1``, ``i`` and ``i + 1``."""
    N = N[:]
    for w in word:
        i = abs(w)
        N[i] += N[i - 1] + N[i + 1]
    return N


def _symbolic(word, dim: int):
    """Rows of ``LaurentPoly`` entries, by the integer kernel at ``t = 2**K``
    run in chunks; a re-pack leaves room for about two more chunks."""
    from .laurent import LaurentPoly
    from .linalg import _pack, _slot_bits, _unpack

    R, s = _identity(dim), [0] * (dim + 2)
    N = [0] + [1] * dim + [0]
    # the first chunk's slot; the identity's 0s and 1s read the same at every K
    M = _grow(N, word[:_CHUNK])
    K = _slot_bits(max(M).bit_length())
    for start in range(0, len(word), _CHUNK):
        chunk = word[start : start + _CHUNK]
        if start:
            M = _grow(N, chunk)
        if _slot_bits(max(M).bit_length()) > K:
            rows = [[_unpack(x, K) for x in row] for row in R]
            N = [max((abs(c) for _, coeffs in row for c in coeffs), default=0) for row in rows]
            M = _grow(N, chunk)
            bits = max(M).bit_length()
            K = _slot_bits(bits + 2 * (bits - max(N).bit_length()))
            R = [[_pack(coeffs, K) << K * z for z, coeffs in row] for row in rows]
        _integer_rows(chunk, R, s, lambda row, k: [x << K * k for x in row] if k else row)
        N = M
    return [[LaurentPoly(z - e, coeffs) for z, coeffs in (_unpack(x, K) for x in row)] for row, e in zip(R[1:-1], s[1:-1])]


def _at_integer(word, dim: int, t: int):
    def scale(row, k):
        if not k:
            return row
        p = t**k
        return [x * p for x in row]

    R, s = _identity(dim), [0] * (dim + 2)
    _integer_rows(word, R, s, scale)
    rows = []
    for row, e in zip(R[1:-1], s[1:-1]):
        if e <= 0:
            rows.append(scale(row, -e))
        else:
            from fractions import Fraction  # only here can an entry be a Fraction

            d = t**e
            rows.append([x // d if not x % d else Fraction(x, d) for x in row])
    return rows


def burau(b, t=None):
    """Reduced Burau matrix of a braid.

    With ``t=None`` the entries are symbolic Laurent polynomials; otherwise
    they are numbers computed at ``t``.  An integer ``t`` gives exact ints,
    or Fractions where an entry is not an integer.  A float or complex
    ``t`` raises ``OverflowError`` when an entry is not finite.  At a zero
    ``t`` of any number type, a word with an inverse generator raises
    ``ZeroDivisionError``, and a positive word gives its entries at 0.
    """
    b = _as_braid(b)
    n = b.n
    if n < 2:
        raise ValueError("need at least 2 strands")
    word, dim = b.word, n - 1
    if t is None:
        return BurauMatrix(entries=tuple(tuple(r) for r in _symbolic(word, dim)), symbolic=True)
    if t == 0 and any(w < 0 for w in word):
        raise ZeroDivisionError("an inverse generator needs 1/t, undefined at t = 0")
    if isinstance(t, numbers.Integral):
        return BurauMatrix(entries=tuple(tuple(r) for r in _at_integer(word, dim, int(t))), symbolic=False)
    rows = _ring_rows(word, dim, t, 1 / t if t and word else t)  # the empty word and a zero t need no 1/t
    if not isinstance(t, numbers.Rational):
        from cmath import isfinite

        if not all(isfinite(x) for r in rows for x in r):
            raise OverflowError(
                f"Burau entries at t = {t!r} leave the float range; for exact entries "
                "use an int or Fraction t, or burau(b) and then eval_at(t) on each entry"
            )
    # Once two generators have acted, every entry (the untouched identity
    # ones too) has mixed with a t-valued one and takes t's number type.
    zero = 0 * t if len(word) > 1 else 0
    return BurauMatrix(entries=tuple(tuple(_simplify_num(x + zero) for x in r) for r in rows), symbolic=False)


def _simplify_num(x):
    if isinstance(x, numbers.Rational) and x.denominator == 1:
        return int(x)
    return x


def alexander(b, centered: bool = False) -> LaurentPoly:
    """Alexander-Conway polynomial of the braid closure.

    Computed as ``det(I - B(t)) * (1 - t) / (1 - t^n)`` from the symbolic
    reduced Burau matrix; the division is exact.  The determinant is the
    packed Bareiss elimination of :func:`braidkit.linalg.det_exact`, whose
    exact divisions each take one big-int product with a 2-adic inverse and
    are certified against the slot width.  The centered form is shifted so
    that ``p(z) == +/- p(1/z)``; when the required shift is a half-integer
    (links of several components) this raises
    :class:`FractionalPowersError`.
    """
    from .laurent import LaurentPoly
    from .linalg import det_exact

    b = _as_braid(b)
    t = LaurentPoly.var()
    rows = [[int(r == c) - x for c, x in enumerate(row)] for r, row in enumerate(burau(b).entries)]
    poly = (det_exact(rows) * (1 - t)).exact_div(1 - t**b.n)
    if not centered or poly.is_zero():
        return poly
    span = poly.maxdeg + poly.mindeg
    if span % 2 != 0:
        raise FractionalPowersError("Polynomial with fractional powers.")
    return poly.shift(-span // 2)
