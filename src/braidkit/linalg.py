"""Exact matrix helpers: products, determinants, characteristic polynomials.

Matrices are sequences of rows.  Products work over any commutative ring
whose elements support ``+``, ``-`` and ``*``.  The exact determinant is one
fraction-free Bareiss elimination (Math. Comp. 22, 1968), O(n^3) steps whose
divisions are exact by Sylvester's identity: ``//`` over the Python integers,
to which a rational matrix is cleared once, or over Z[t, 1/t] (the
``LaurentPoly`` entries of the Burau matrices) a packed step: the entries
become integers at ``t = 2**K``, every numerator takes two big-int products,
and every division is one multiplication by a 2-adic inverse of the previous
pivot (Jebelean, J. Symb. Comput. 15, 1993), with a certificate that ``K``
was wide enough.  This module never imports ``braidkit.laurent``; it
recognises the entries by the loaded module.  Float and complex determinants
are numpy's LU factorisation.  The characteristic polynomial is the
division-free Berkowitz algorithm in the ring of the entries; the spectral
radius and its logarithm are the floating-point helpers.

The slot codec of Kronecker substitution (Harvey, J. Symb. Comput. 44,
2009) serves every module that packs integer polynomials or matrix rows into
one int, a coefficient ``|c| < 2**(K-1)`` per balanced ``K``-bit slot, so a
whole polynomial adds or shifts in one big-int operation.
"""
from __future__ import annotations

import functools
import math
import numbers
import sys


def _slot_bits(bits: int) -> int:
    """Slot width for coefficients of at most ``bits`` bits: a sign bit and
    one spare bit, rounded up to whole bytes."""
    return (bits + 2 + 7) // 8 * 8


@functools.lru_cache(maxsize=512)
def _bias(slots: int, K: int) -> int:
    """``2**(K-1)`` in each of ``slots`` slots of ``K`` bits, kept for the
    512 latest ``(slots, K)``: an Alexander polynomial packs and unpacks a
    few hundred of them, each many times."""
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
    one and ends at the last.

    Raises ``OverflowError`` on a value outside the codec's range, one
    whose balanced base-``2**K`` digits include ``-2**(K-1)``: its slot
    count, read from the bit length, is one short (the bias overflows it)
    or one long (a decoded digit is ``-2**(K-1)``)."""
    if not E:
        return 0, ()
    z = ((E & -E).bit_length() - 1) // K  # a zero slot is K zero bits
    E >>= K * z
    slots = E.bit_length() // K + 1
    width = K // 8
    half = 1 << (K - 1)
    biased = E + _bias(slots, K)
    if biased.bit_length() <= slots * K:
        data = biased.to_bytes(slots * width, "little")
        read = int.from_bytes
        coeffs = [read(data[k : k + width], "little") - half for k in range(0, len(data), width)]
        if -half not in coeffs:
            return z, tuple(coeffs)
    raise OverflowError(f"a balanced {K}-bit digit is -2**{K - 1}, outside the slot codec's range")


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(A, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in A)


def det_exact(A):
    """Determinant, exact except for float and complex entries.

    Rational entries (ints, numpy ints, Fractions) take the elimination over
    the Python integers, of ``D A``, ``D`` the common denominator, and one
    division by ``D**n``: a Fraction when an entry is one, else an int.  A
    matrix with a ``LaurentPoly`` takes :func:`_det_laurent`; every other
    entry and coefficient there must be an integer, or ``TypeError``.  Any
    other matrix takes :func:`_det_lu`, which raises ``OverflowError`` when
    the determinant is nonzero and outside the float range.
    """
    n = len(A)
    if n == 0:
        return 1
    flat = [x for row in A for x in row]
    if all(type(x) is int for x in flat):
        M = [list(row) for row in A]
        return _bareiss(M, _int_step, 1)[0] * M[-1][-1]
    laurent = sys.modules.get("braidkit.laurent")
    if laurent and any(isinstance(x, laurent.LaurentPoly) for x in flat):
        return _det_laurent(A, laurent.LaurentPoly)
    if not all(isinstance(x, numbers.Rational) for x in flat):
        return _det_lu(A)
    M, D = _cleared(A)
    sign, rows = _bareiss(M, _int_step, 1)
    if _integral_block(A, rows):
        return sign * M[-1][-1]
    from fractions import Fraction

    return Fraction(sign * M[-1][-1], D**n)


def _cleared(A):
    """A matrix of rationals as ``(D A, D)``: ``D`` the least common
    denominator of its entries, and ``D A`` as lists of Python ints."""
    D = math.lcm(*(int(x.denominator) for row in A for x in row))
    return [[int(x.numerator) * (D // int(x.denominator)) for x in row] for row in A], D


def _bareiss(M, step, one):
    """Bareiss elimination of the square ``M`` in place: ``(sign, rows)``,
    with ``sign * M[-1][-1]`` the determinant.  ``step(M, k, P)`` sets
    ``a_ij <- (a_ij a_kk - a_ik a_kj) / P`` for ``i, j > k``, ``P`` the last
    pivot (``one`` at first).  Zeros are falsy; a zero pivot swaps with the
    first nonzero entry below it, and when there is none, at column ``k``,
    that zero is the determinant.  ``rows`` are the source rows of the
    leading rows reached: all of them, or the first ``k + 1``."""
    n, sign = len(M), 1
    order = list(range(n))
    for k in range(n - 1):
        if not M[k][k]:
            r = next((r for r in range(k + 1, n) if M[r][k]), None)
            if r is None:
                M[-1][-1] = M[k][k]
                return sign, order[: k + 1]
            M[k], M[r], order[k], order[r] = M[r], M[k], order[r], order[k]
            sign = -sign
        step(M, k, M[k - 1][k - 1] if k else one)
    return sign, order


def _integral_block(A, rows):
    """Whether ``A`` on the source rows ``rows`` and as many leading columns
    holds only integers, which makes a zero determinant the int 0."""
    return all(isinstance(A[i][j], numbers.Integral) for i in rows for j in range(len(rows)))


def _int_step(M, k, P):
    """Step ``k`` over the integers, exact by Sylvester's identity."""
    akk, pivot = M[k][k], M[k][k + 1 :]
    for row in M[k + 1 :]:
        row[k + 1 :] = [(aij * akk - row[k] * akj) // P for aij, akj in zip(row[k + 1 :], pivot)]


def _det_lu(A):
    """Determinant of a matrix with float or complex entries, as ``sign *
    exp(log|det|)`` from the LU factorisation with partial pivoting of
    ``numpy.linalg.slogdet``; an exactly singular matrix gives 0.  Bareiss
    elimination of floats, without pivoting on magnitude, loses every digit
    on some well-scaled Burau matrices, and its product leaves the float
    range on others.  A nonzero determinant whose float would be infinite or
    below the smallest normal float raises ``OverflowError`` with its
    ``log|det|``; a NaN or infinite entry raises ``ValueError``."""
    import numpy as np

    M = np.array(A, dtype=complex if any(not isinstance(x, numbers.Real) for row in A for x in row) else float)
    if not np.isfinite(M).all():
        raise ValueError("the determinant needs finite entries")
    sign, logdet = np.linalg.slogdet(M)
    if sign and not math.log(sys.float_info.min) <= logdet <= math.log(sys.float_info.max):
        raise OverflowError(
            f"the determinant, log|det| = {logdet:.6g}, leaves the float range; for an exact value "
            "use an int or Fraction t, or burau(b) and then eval_at(t) on each entry"
        )
    return sign.item() * math.exp(logdet)


def _det_laurent(A, poly):
    """The elimination over Z[t, 1/t]; ``poly`` is the ``LaurentPoly`` class,
    the type of the result, and int entries are constants."""
    M = [[_pair(x, poly) for x in row] for row in A]
    sign, rows = _bareiss(M, _bareiss_step, (0, (1,)))
    if _integral_block(A, rows):
        return 0
    lowest, coeffs = M[-1][-1] or (0, ())
    return poly(lowest, coeffs if sign > 0 else tuple([-c for c in coeffs]))


def _pair(x, poly):
    """An entry as ``(lowest, coeffs)`` with int coefficients, ``None`` for
    zero; any other entry is a constant, and must be an integer."""
    lowest, coeffs = (x.lowest, x.coeffs) if isinstance(x, poly) else (0, (x,))
    if type(sum(coeffs)) is not int:
        if not all(isinstance(c, numbers.Rational) and int(c) == c for c in coeffs):
            raise TypeError(f"the determinant of LaurentPoly entries needs integer coefficients, got {coeffs}")
        coeffs = tuple(map(int, coeffs))
    return (lowest, coeffs) if coeffs and coeffs[0] else None


def _bareiss_step(M, k, P):
    """Step ``k`` of :func:`_bareiss` over Z[t, 1/t], on ``(lowest, coeffs)``
    pairs.  ``B_ij = |a_ij| |a_kk|_1 + |a_ik| |a_kj|_1`` bounds the numerator's
    coefficients (``|.|`` the largest in size, ``|.|_1`` the sum of sizes).
    The step starts at the slot width ``K`` that holds every ``B_ij`` and
    every packed coefficient below ``2**(K-2)``; when a quotient fails its
    certificate it is redone at twice the width, or at the width past the
    Landau-Mignotte bound on that quotient if smaller, where the true
    quotient fits and passes, so the widening ends.
    """
    n = len(M)
    pc = P[1]
    norm1 = [sum(map(abs, x[1])) if x else 0 for x in M[k][k:]]
    norm = [[max(map(abs, x[1])) if x else 0 for x in row[k:]] for row in M[k + 1 :]]
    bound = [[r[j] * norm1[0] + r[0] * norm1[j] for j in range(1, n - k)] for r in norm]
    top = max(max(map(max, bound)), max(map(max, norm)), max(norm1), max(map(abs, pc)))
    K = _slot_bits(top.bit_length())
    while True:
        rows, wide = _eliminate(M, k, P, bound, K)
        if rows is not None:
            break
        if K >= wide:
            raise ArithmeticError("a Bareiss quotient failed its certificate past the Landau-Mignotte bound")
        import logging

        logging.getLogger("braidkit").debug("det_exact: step %d widens its slot from %d to %d bits", k, K, min(2 * K, wide))
        K = min(2 * K, wide)
    for row, new in zip(M[k + 1 :], rows):
        row[k + 1 :] = new


def _eliminate(M, k, P, bound, K):
    """The new rows of step ``k`` at slot width ``K``: ``(rows, None)``, or
    ``(None, width)``, the Landau-Mignotte width of a quotient that failed.

    The entries and ``P`` are packed once at ``t = 2**K``, lowest exponents
    kept apart.  A numerator ``N = t**e N(t)`` is two big-int products, one
    shifted by whole slots; with ``P = t**l P(t)``, ``P(0) != 0``, the
    quotient is ``t**(e-l) Q(t)``, ``deg Q <= d = deg N - deg P``.  One
    Newton inverse of the odd part of ``P(2**K) = 2**v * odd`` serves the
    step, and one product gives ``Q(2**K)`` modulo ``2**m``, ``m = K (d +
    1)``; residues from ``2**(m-1)`` up are negative.  The decoded ``Q`` is
    kept only when ``|Q| |P|_1 + B < 2**(K-1)``: then every coefficient of
    ``Q P - N`` is below ``2**(K-1)`` in size and its value at ``2**K`` is a
    multiple of ``2**m``, so its ``d + 1`` lowest coefficients vanish, and
    as ``N`` is a multiple of ``P`` (Sylvester), ``Q`` is the quotient.  A
    residue with a digit ``-2**(K-1)``, which :func:`_unpack` refuses with
    ``OverflowError``, fails too.
    """
    lp, pc = P
    p1 = sum(map(abs, pc))
    dp = len(pc) - 1
    packed = _pack(pc, K)
    v = (packed & -packed).bit_length() - 1
    odd = packed >> v
    lkk, ckk = M[k][k]
    akk, dkk = _pack(ckk, K), len(ckk) - 1
    pivot_row = [x and (x[0], _pack(x[1], K), len(x[1]) - 1) for x in M[k][k + 1 :]]
    nums = []
    for row, brow in zip(M[k + 1 :], bound):
        lik, cik = row[k] or (0, ())
        aik, dik = (_pack(cik, K), len(cik) - 1) if cik else (0, 0)
        out = []
        for (lij, cij), kj, b in zip([x or (0, ()) for x in row[k + 1 :]], pivot_row, brow):
            # the two products as (lowest exponent, highest exponent, value)
            terms = []
            if cij:
                lo = lij + lkk
                terms.append((lo, lo + len(cij) - 1 + dkk, _pack(cij, K) * akk))
            if cik and kj:
                lkj, akj, dkj = kj
                lo = lik + lkj
                terms.append((lo, lo + dik + dkj, -(aik * akj)))
            e = min((t[0] for t in terms), default=0)
            N = sum(value << K * (lo - e) for lo, _, value in terms)
            dn = max((hi for _, hi, _ in terms), default=e) - e
            out.append((N, e, dn, b) if N else None)
        nums.append(out)
    m_top = K * (max(max((x[2] for out in nums for x in out if x), default=0) - dp, 0) + 1)
    inverse = _inverse_mod_power_of_two(odd, m_top)
    half = 1 << (K - 1)
    rows = []
    for out in nums:
        new = []
        for x in out:
            if x is None:
                new.append(None)
                continue
            N, e, dn, b = x
            dq = max(dn - dp, 0)
            m = K * (dq + 1)
            mask = (1 << m) - 1
            q = ((N >> v) & mask) * (inverse & mask) & mask
            if q >> (m - 1):
                q -= 1 << m
            try:
                z, coeffs = _unpack(q, K)
                passed = max(map(abs, coeffs), default=0) * p1 + b < half
            except OverflowError:  # q has a digit -2**(K-1), which no passing Q has
                passed = False
            if not passed:
                return None, _slot_bits(dq + (dn + 1).bit_length() + b.bit_length() + p1.bit_length())
            new.append((e - lp + z, coeffs))
        rows.append(new)
    return rows, None


def _inverse_mod_power_of_two(p: int, m: int) -> int:
    """The inverse of the odd ``p`` modulo ``2**m``.  Newton's step ``x <- x
    - x (p x - 1)`` doubles the bits of an inverse, so the precisions run
    ``m`` halved down to 64 bits, where ``pow`` starts, and back up, with
    ``p`` cut to each working precision."""
    precisions = []
    while m > 64:
        precisions.append(m)
        m = (m + 1) // 2
    x = pow(p & 0xFFFF_FFFF_FFFF_FFFF, -1, 1 << 64) & ((1 << m) - 1)
    for b in reversed(precisions):
        # x inverts p modulo 2**m, so p x - 1 is a multiple of 2**m
        e = ((p & ((1 << b) - 1)) * x >> m) & ((1 << (b - m)) - 1)
        x = (x - (x * e << m)) & ((1 << b) - 1)
        m = b
    return x


def charpoly(A):
    """Characteristic polynomial coefficients, leading coefficient first.

    Returns the monic coefficient vector ``[1, c_{n-1}, ..., c_0]`` of
    ``det(xI - A)``, computed division-free (Berkowitz), so exact over the
    integers and over ``LaurentPoly``.  ``A`` is raw rows or any matrix
    with ``.entries`` (``LinearAction``, ``BurauMatrix``); integral entries
    such as numpy ints become ints first.
    """
    A = getattr(A, "entries", A)
    if not all(type(x) is int for row in A for x in row):
        A = [[int(x) if isinstance(x, numbers.Integral) else x for x in row] for row in A]
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
    ``A``.  Rational entries other than ints become ``D A``, ``D`` their
    common denominator, with ``r`` scaled by ``2**bits(D) / D`` and
    ``bits(D)`` taken from the shift; integers past 500 bits are shifted
    right (eigenvalues scale exactly), so no entry has to fit a float.
    Other numbers go to numpy, complex when one entry is, scaled exactly by
    ``2**-e``, ``e`` the binary exponent of the largest real or imaginary
    part, which joins the shift; a NaN or infinite entry raises
    ``ValueError``."""
    import numpy as np

    A = getattr(A, "entries", A)
    flat = [x for row in A for x in row]
    D, bits = 1, 0
    exact = all(isinstance(x, int) for x in flat)
    if exact or all(isinstance(x, numbers.Rational) for x in flat):
        A, D = (A, 1) if exact else _cleared(A)
        bits = 0 if exact else D.bit_length()
        maxabs = max((abs(x) for row in A for x in row), default=0)
        if maxabs == 0:
            return 0.0, 0
        shift = max(0, maxabs.bit_length() - 500)
        M = np.array([[float(x >> shift) for x in row] for row in A])
    elif all(isinstance(x, numbers.Number) for x in flat):
        M = np.array(A, dtype=complex if any(not isinstance(x, numbers.Real) for x in flat) else float)
        parts = M.view(float)  # a complex entry is two floats
        if not np.isfinite(parts).all():
            raise ValueError("the spectral radius needs finite entries")
        top = float(np.max(np.abs(parts), initial=0.0))
        if not top:
            return 0.0, 0
        shift = math.frexp(top)[1]
        M = np.ldexp(parts, -shift).view(M.dtype)
    else:
        raise TypeError("the spectral radius needs numeric entries; evaluate a symbolic matrix at a value of t first")
    return float(np.max(np.abs(np.linalg.eigvals(M)))) * ((1 << bits) / D), shift - bits


def spectral_radius(A) -> float:
    """Largest eigenvalue modulus of a numeric matrix (raw rows or any
    matrix with ``.entries``): ints and Fractions at any size, such as an
    evaluated ``BurauMatrix``, or floats and complex numbers.  A radius
    that overflows a float, or underflows it to 0.0, raises
    ``OverflowError``; :func:`log_spectral_radius` takes any size."""
    r, shift = _shifted_radius(A)
    try:
        radius = math.ldexp(r, shift)
        if radius or not r:  # a radius that underflows to 0.0 raises too
            return radius
    except OverflowError:
        pass
    raise OverflowError(f"spectral radius {r:g} * 2**{shift} is outside a float's range; use log_spectral_radius")


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
