"""Exact matrix helpers: products, determinants, characteristic polynomials.

Matrices are sequences of rows.  Products and determinants work over any
commutative ring whose elements support ``+``, ``-``, ``*`` and a zero test
(``bool``): Python ints (which never overflow), ``LaurentPoly`` (the ring
Z[t, 1/t] of the Burau matrices), and fields such as Fractions and floats.
The determinant is fraction-free Bareiss elimination, O(n^3) ring operations
whose divisions are all exact: ``//`` in Z and Z[t, 1/t], true division in a
field.  The characteristic polynomial uses the division-free Berkowitz
algorithm and stays in the integers throughout; the spectral radius is the
one floating-point helper.
"""
from __future__ import annotations

import math
import numbers


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(A, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in A)


def _in_field(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, numbers.Integral)


def det_exact(A):
    """Determinant by Bareiss fraction-free elimination.

    Exact over the integers and over ``LaurentPoly`` entries, where every
    division is an exact ``//`` (the Sylvester identity makes each
    quotient a ring element); entries from a field divide with ``/``.
    """
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            pivot = next((r for r in range(k + 1, n) if M[r][k]), None)
            if pivot is None:
                return M[k][k]  # the zero of the entries' ring
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        field = _in_field(prev)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                M[i][j] = num / prev if field or _in_field(num) else num // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def charpoly(A):
    """Characteristic polynomial coefficients, leading coefficient first.

    Returns the monic coefficient vector ``[1, c_{n-1}, ..., c_0]`` of
    ``det(xI - A)``, computed division-free (Berkowitz), exact over the
    integers.
    """
    n = len(A)
    if n == 0:
        return (1,)
    p = [1]
    for k in range(1, n + 1):
        d = A[k - 1][k - 1]
        q = [1, -d]
        if k > 1:
            R = A[k - 1][: k - 1]
            col = [A[i][k - 1] for i in range(k - 1)]
            S = [row[: k - 1] for row in A[: k - 1]]
            v = col
            for _ in range(2, k + 1):
                q.append(-sum(R[i] * v[i] for i in range(k - 1)))
                v = [sum(S[i][j] * v[j] for j in range(k - 1)) for i in range(k - 1)]
        newp = [0] * (k + 1)
        for i in range(k + 1):
            lo = max(0, i - len(p) + 1)
            for j in range(lo, min(i, len(q) - 1) + 1):
                newp[i] += q[j] * p[i - j]
        p = newp
    return tuple(p)


def spectral_radius(A) -> float:
    """Largest eigenvalue modulus of an integer matrix.

    Entries too large for floats are rescaled by a power of two first
    (eigenvalues scale exactly), so arbitrarily large exact matrices are
    fine; the result keeps full double precision.
    """
    import numpy as np

    n = len(A)
    if n == 0:
        return 0.0
    maxabs = max(abs(x) for row in A for x in row)
    if maxabs == 0:
        return 0.0
    shift = max(0, maxabs.bit_length() - 500)
    M = np.array([[float(x >> shift) if shift else float(x) for x in row] for row in A])
    eig = np.linalg.eigvals(M)
    return math.ldexp(float(np.max(np.abs(eig))), shift)


def poly_str(coeffs, var: str = "x") -> str:
    """Readable form of a leading-first integer coefficient vector."""
    n = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        e = n - i
        mag = abs(c)
        if e == 0:
            term = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            term = f"{head}{var}" + (f"^{e}" if e > 1 else "")
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts) if parts else "0"
