import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import braidkit as bk
from braidkit.linalg import (
    charpoly,
    det_exact,
    log_spectral_radius,
    mat_mul,
    mat_vec,
    poly_str,
    spectral_radius,
)


def identity_matrix(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def companion_matrix(coeffs):
    """Companion matrix of a monic polynomial given leading-first."""
    if coeffs[0] != 1:
        raise ValueError("polynomial must be monic")
    n = len(coeffs) - 1
    rows = []
    for i in range(n):
        row = [0] * n
        if i > 0:
            row[i - 1] = 1
        row[n - 1] = -coeffs[n - i]
        rows.append(tuple(row))
    return tuple(rows)


def test_charpoly_2x2_matches_trace_det():
    M = ((2, -1), (-1, 1))
    tr = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assert charpoly(M) == (1, -tr, det)


def test_charpoly_identity():
    # (x - 1)^4
    assert charpoly(identity_matrix(4)) == (1, -4, 6, -4, 1)


def test_charpoly_companion_round_trip():
    coeffs = (1, -1, 0, -1)  # x^3 - x^2 - 1
    assert charpoly(companion_matrix(coeffs)) == coeffs


def test_charpoly_matches_numpy_on_random_matrices():
    rng = random.Random(4)
    for _ in range(30):
        d = rng.randint(1, 6)
        M = tuple(tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d))
        got = charpoly(M)
        expected = np.poly(np.array(M, dtype=float))
        assert len(got) == len(expected)
        assert all(abs(g - e) < 1e-6 for g, e in zip(got, expected))


def test_det_exact_matches_charpoly_constant():
    rng = random.Random(5)
    for _ in range(50):
        d = rng.randint(1, 6)
        M = tuple(tuple(rng.randint(-7, 7) for _ in range(d)) for _ in range(d))
        cp = charpoly(M)
        assert det_exact(M) == (-1) ** d * cp[-1]


def test_mat_helpers():
    A = ((1, 2), (3, 4))
    B = ((0, 1), (1, 0))
    assert mat_mul(A, B) == ((2, 1), (4, 3))
    assert mat_vec(A, (1, 1)) == (3, 7)


def test_spectral_radius_values():
    assert abs(spectral_radius(((2, -1), (-1, 1))) - (3 + math.sqrt(5)) / 2) < 1e-10
    assert abs(spectral_radius(identity_matrix(3)) - 1.0) < 1e-12
    # numpy ints have no bit_length and go to numpy as floats
    assert abs(spectral_radius(np.array([[2, -1], [-1, 1]])) - (3 + math.sqrt(5)) / 2) < 1e-10


def test_spectral_radius_huge_entries_fallback():
    big = 10 ** 200
    M = ((big, 0), (0, 1))
    assert abs(spectral_radius(M) / big - 1.0) < 1e-10


def test_poly_str():
    assert poly_str((1, -3, 1)) == "x^2 - 3*x + 1"
    assert poly_str((1, 0, 0)) == "x^2"
    assert poly_str((0,)) == "0"


def test_spectral_radius_reads_entries_attribute():
    import braidkit as bk

    M = bk.LinearAction(((2, -1), (-1, 1)))
    assert bk.spectral_radius(M) == spectral_radius(M.entries)
    assert bk.charpoly(M) == charpoly(M.entries) == (1, -3, 1)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_charpoly_over_laurent_polys(n):
    # Berkowitz is division-free, so it runs over Z[t, 1/t]: at x = 1 the
    # characteristic polynomial is det(I - B), and its constant term is
    # det(-B)
    import braidkit as bk

    B = bk.burau(bk.random_braid(n, 12, seed=n))
    coeffs = charpoly(B)
    I_minus_B = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(B.entries)]
    assert sum(coeffs[1:], coeffs[0]) == det_exact(I_minus_B)
    assert (-1) ** (n - 1) * coeffs[-1] == B.det()


@pytest.mark.parametrize("k", [400, 900])
def test_log_spectral_radius_matches_entropy_past_float_range(k):
    import braidkit as bk

    b = bk.power(bk.make_braid([1, -2]), k)
    r = bk.cycle(b)
    rate = log_spectral_radius(r.product()) / r.period
    assert rate == pytest.approx(bk.entropy(b).value, rel=1e-8)
    if rate > 709:
        with pytest.raises(OverflowError, match="log_spectral_radius"):
            spectral_radius(r.product())
    else:
        assert math.log(spectral_radius(r.product())) / r.period == pytest.approx(rate, rel=1e-12)


def test_log_spectral_radius_small_and_zero():
    assert log_spectral_radius(((2, -1), (-1, 1))) == pytest.approx(math.log((3 + math.sqrt(5)) / 2))
    assert log_spectral_radius(((0, 1), (0, 0))) == -math.inf
    assert spectral_radius(((0, 0), (0, 0))) == 0.0


@pytest.mark.parametrize("t", [-1, 0.5, Fraction(1, 3), cmath.exp(0.7j), 2])
def test_spectral_radius_of_evaluated_burau(t):
    B = bk.burau(bk.make_braid([1, -2, 3, -2, 1], 4), t)
    dtype = complex if isinstance(t, complex) else float
    expected = max(abs(np.linalg.eigvals(np.array([[dtype(x) for x in row] for row in B.entries]))))
    assert spectral_radius(B) == pytest.approx(expected, rel=1e-12)
    assert log_spectral_radius(B) == pytest.approx(math.log(expected), rel=1e-12, abs=1e-12)


def test_spectral_radius_of_symbolic_matrix_names_the_fix():
    B = bk.burau(bk.make_braid([1, -2], 3))
    for fn in (spectral_radius, log_spectral_radius):
        with pytest.raises(TypeError, match="evaluate"):
            fn(B)
