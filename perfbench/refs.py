"""Reference answers, computed outside the timed region.

Where the library has an exact path that is independent of the one being
timed (exact integer action for the float entropy, evaluated Burau for the
symbolic Alexander polynomial), the reference uses it; the linear algebra
and the evaluated Burau matrix are reimplemented here from their
definitions.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

# |estimate - exact growth| <= RTOL * max(1, growth), where the exact growth
# has settled; when it has not settled within its iteration budget (reducible
# braids whose components grow at nearly the same rate) the looser
# UNSETTLED_RTOL applies, which still catches a wrong or overflowed answer.
ENTROPY_RTOL = 1e-5
SPECTRAL_RTOL = 1e-6  # for log(spectral radius of the cycle) / period
UNSETTLED_RTOL = 1e-2
ZERO_GROWTH = 1e-2  # below this an unconverged zero entropy is the documented answer
T0 = 2  # Burau evaluation point for the Alexander reference


def burau_at(word, n: int, t=Fraction(T0)):
    """Reduced Burau matrix at ``t``, exact over Fractions.

    Same convention as the library documents: generator ``i`` replaces row
    ``i`` of the identity by ``(1, -t, t)`` (inverse: ``(1/t, -1/t, 1)``)
    around the diagonal, and the latest-applied factor multiplies on the left,
    so each generator is a row update of the accumulated product.
    """
    d = n - 1
    acc = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    tinv = 1 / t
    for w in word:
        r = abs(w) - 1
        left, diag, right = (1, -t, t) if w > 0 else (tinv, -tinv, 1)
        row = [diag * x for x in acc[r]]
        if r > 0:
            row = [x + left * y for x, y in zip(row, acc[r - 1])]
        if r + 1 < d:
            row = [x + right * y for x, y in zip(row, acc[r + 1])]
        acc[r] = row
    return acc


def det(M):
    """Determinant by Gaussian elimination over Fractions."""
    A = [[Fraction(x) for x in row] for row in M]
    n = len(A)
    total = Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if A[r][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            A[k], A[p] = A[p], A[k]
            total = -total
        total *= A[k][k]
        for r in range(k + 1, n):
            f = A[r][k] / A[k][k]
            if f:
                A[r] = [x - f * y for x, y in zip(A[r], A[k])]
    return total


def alexander_at(word, n: int, B=None):
    """``det(I - B(t0)) (1 - t0) / (1 - t0^n)``: the Alexander polynomial of
    the closure evaluated at ``t0``."""
    B = burau_at(word, n) if B is None else B
    d = n - 1
    I_B = [[int(r == c) - B[r][c] for c in range(d)] for r in range(d)]
    return det(I_B) * (1 - T0) / (1 - T0**n)


def exact_growth(bk, b, kmax: int = 200):
    """``log(minlength(b^(k+1) l) / minlength(b^k l))`` on the canonical
    basepoint loop, in exact integers, iterated until successive values
    agree to 1e-10.  Returns ``(growth, settled)``."""
    l = bk.act(b, bk.canonical_loop(b.n, basepoint=True))
    m = bk.minlength(l)
    prev = None
    for _ in range(kmax):
        l = bk.act(b, l)
        m1 = bk.minlength(l)
        g = math.log(m1) - math.log(m)
        if prev is not None and abs(g - prev) <= 1e-10 * max(1.0, abs(g)):
            return g, True
        prev, m = g, m1
    return prev, False


def growth_close(value, growth, rtol):
    g, settled = growth
    return close(value, g, rtol if settled else UNSETTLED_RTOL)


def close(value, ref, rtol):
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def bareiss_det(A):
    n = len(A)
    M = [list(r) for r in A]
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            p = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if p is None:
                return 0
            M[k], M[p] = M[p], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def charpoly_ok(coeffs, M) -> bool:
    """Leading 1, ``c_1 = -trace`` and ``c_d = (-1)^d det``."""
    d = len(M)
    if len(coeffs) != d + 1 or coeffs[0] != 1:
        return False
    if coeffs[1] != -sum(M[i][i] for i in range(d)):
        return False
    return coeffs[d] == (-1) ** d * bareiss_det(M)


def mat_vec(M, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in M)


def max_bits(values) -> int:
    return max((abs(int(x)).bit_length() for x in values), default=0)


def data_perm(pos_first, pos_last):
    """Strand permutation read off the samples: entry ``j`` is the initial
    X rank (1-based) of the particle at final X rank ``j``."""
    start_rank = np.argsort(np.argsort(pos_first[:, 0], kind="stable"), kind="stable")
    final_order = np.argsort(pos_last[:, 0], kind="stable")
    return tuple(int(start_rank[p]) + 1 for p in final_order)


_CROSSING = re.compile(r'<circle class="crossing (?:over|under)" data-slot="(\d+)" data-sign="(-?1)"')


def svg_crossings(svg: str):
    """Signs of the crossing markers in slot order."""
    found = sorted((int(k), int(s)) for k, s in _CROSSING.findall(svg))
    return tuple(s for _, s in found), [k for k, _ in found]
