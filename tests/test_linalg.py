import math
import random

import numpy as np

from braidkit.linalg import (
    charpoly,
    det_exact,
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


def test_spectral_radius_huge_entries_fallback():
    big = 10 ** 200
    M = ((big, 0), (0, 1))
    assert abs(spectral_radius(M) / big - 1.0) < 1e-10


def test_poly_str():
    assert poly_str((1, -3, 1)) == "x^2 - 3*x + 1"
    assert poly_str((1, 0, 0)) == "x^2"
    assert poly_str((0,)) == "0"
