"""Exact matrix helpers: products, determinants, characteristic polynomials.

Matrices are sequences of rows.  Products and determinants work over any
commutative ring whose elements support ``+``, ``-``, ``*`` and a zero test
(``bool``): Python ints (which never overflow), ``LaurentPoly`` (the ring
Z[t, 1/t] of the Burau matrices), and fields such as Fractions and floats.
The determinant is fraction-free Bareiss elimination, O(n^3) ring operations
whose divisions are all exact: ``//`` in Z and Z[t, 1/t], true division in a
field.  The characteristic polynomial uses the division-free Berkowitz
algorithm and stays in the ring of the entries throughout; the spectral
radius and its logarithm are the floating-point helpers.

The slot codec of Kronecker substitution (Harvey, J. Symb. Comput. 44,
2009) serves every module that packs integer polynomials or matrix rows into
one int, a coefficient ``|c| < 2**(K-1)`` per balanced ``K``-bit slot, so a
whole polynomial adds or shifts in one big-int operation.
"""
from __future__ import annotations

import math
import numbers


def _slot_bits(bits: int) -> int:
    """Slot width for coefficients of at most ``bits`` bits: a sign bit and
    one spare bit, rounded up to whole bytes."""
    return (bits + 2 + 7) // 8 * 8


def _bias(slots: int, K: int) -> int:
    """``2**(K-1)`` in each of ``slots`` slots of ``K`` bits."""
    return int.from_bytes((bytes(K // 8 - 1) + b"\x80") * slots, "little")


def _pack(coeffs, K: int) -> int:
    """The integer ``sum(c * 2**(K*j))`` over ``coeffs`` (lowest first);
    needs ``|c| < 2**(K-1)`` and ``K`` a multiple of 8."""
    half = 1 << (K - 1)
    width = K // 8
    data = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
    return int.from_bytes(data, "little") - _bias(len(coeffs), K)


def _unpack(E: int, K: int):
    """Inverse of :func:`_pack`: ``(z, coeffs)``, where the ``z`` zero low
    slots of ``E`` are stripped and ``coeffs`` starts at the first nonzero
    one and ends at the last."""
    if not E:
        return 0, ()
    z = ((E & -E).bit_length() - 1) // K  # a zero slot is K zero bits
    E >>= K * z
    slots = E.bit_length() // K + 1
    width = K // 8
    half = 1 << (K - 1)
    data = (E + _bias(slots, K)).to_bytes(slots * width, "little")
    read = int.from_bytes
    coeffs = [read(data[k : k + width], "little") - half for k in range(0, len(data), width)]
    return z, tuple(coeffs)


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
    ``det(xI - A)``, computed division-free (Berkowitz), so exact over the
    integers and over ``LaurentPoly``.  ``A`` is raw rows or any matrix
    with ``.entries`` (``LinearAction``, ``BurauMatrix``).
    """
    A = getattr(A, "entries", A)
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


def _shifted_radius(A):
    """``(r, shift)`` with ``r * 2**shift`` the largest eigenvalue modulus of
    ``A``.  Integer entries past 500 bits are shifted right first (eigenvalues
    scale exactly), so any exact integer matrix is fine and ``r`` keeps double
    precision.  Other numbers go to numpy unshifted, as complex numbers when
    one entry is complex and as floats otherwise (numpy ints too, which have
    no ``bit_length``)."""
    import numpy as np

    A = getattr(A, "entries", A)
    flat = [x for row in A for x in row]
    if all(isinstance(x, int) for x in flat):
        maxabs = max(map(abs, flat), default=0)
        if maxabs == 0:
            return 0.0, 0
        shift = max(0, maxabs.bit_length() - 500)
        M = np.array([[float(x >> shift) for x in row] for row in A])
    elif all(isinstance(x, numbers.Number) for x in flat):
        shift = 0
        M = np.array(A, dtype=complex if any(not isinstance(x, numbers.Real) for x in flat) else float)
    else:
        raise TypeError("the spectral radius needs numeric entries; evaluate a symbolic matrix at a value of t first")
    return float(np.max(np.abs(np.linalg.eigvals(M)))), shift


def spectral_radius(A) -> float:
    """Largest eigenvalue modulus of a numeric matrix (raw rows or any
    matrix with ``.entries``): exact ints at any size, or floats, complex
    numbers and Fractions, such as an evaluated ``BurauMatrix``."""
    r, shift = _shifted_radius(A)
    try:
        return math.ldexp(r, shift)
    except OverflowError:
        raise OverflowError(
            f"spectral radius {r:g} * 2**{shift} overflows a float; use log_spectral_radius"
        ) from None


def log_spectral_radius(A) -> float:
    """Natural log of :func:`spectral_radius`, finite at any size (``-inf``
    where the float radius is 0, as for the zero matrix)."""
    r, shift = _shifted_radius(A)
    return math.log(r) + shift * math.log(2) if r else -math.inf


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
