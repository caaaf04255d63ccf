import math
import random
import warnings

import pytest

import braidkit as bk
from braidkit.entropy import (
    NONCONVERGENCE_WARNING,
    EntropyResult,
    complexity,
    entropy,
    entropy_fixed_iterates,
)

PINNED = [
    ([1, 2, -3], 0.8314),
    ([1, -2], 0.9624),
    ([1, 2, 3, -4], 0.7672),
    ([-2, 1, 1, -2], 1.7627),
    ([1, 3, 2, 2, 1, 3], 1.7627),
    ([3, 2, 1, 2, 4, 5, 4, 3, 3, 2, 1, 2, 5, 4, 5, 3], 2.6339),
]


@pytest.mark.parametrize("word,expected", PINNED)
def test_entropy_pinned_values(word, expected):
    result = entropy(bk.make_braid(word))
    assert result.converged
    assert result.value == pytest.approx(expected, abs=1e-3)


def test_entropy_fourth_power():
    a = bk.make_braid([1, 2, -3])
    result = entropy(bk.power(a, 4))
    assert result.value == pytest.approx(3.3258, abs=1e-3)


def test_entropy_annular():
    result = entropy(bk.make_annular_braid([1, -2]))
    assert result.value == pytest.approx(1.7627, abs=1e-3)


@pytest.mark.parametrize("word", [[1, 2], [1, -2, 1, -2, 1, 2]])
def test_entropy_nonconvergence(word):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = entropy(bk.make_braid(word))
    assert result.value == 0.0
    assert not result.converged
    assert any(NONCONVERGENCE_WARNING in str(w.message) for w in caught)


def test_entropy_inverse_invariance():
    for word, expected in PINNED[:3]:
        b = bk.make_braid(word)
        assert entropy(bk.inverse(b)).value == pytest.approx(entropy(b).value, abs=2e-3)


def test_entropy_power_scaling():
    b = bk.make_braid([1, -2])
    base = entropy(b).value
    for k in (2, 3, 4):
        assert entropy(bk.power(b, k)).value == pytest.approx(k * base, abs=2e-3 * k)


def test_entropy_conjugation_invariance():
    rng = random.Random(14)
    for word, _ in PINNED[:3]:
        b = bk.make_braid(word)
        base = entropy(b).value
        for _ in range(3):
            cw = [rng.choice([1, -1]) * rng.randint(1, b.n - 1) for _ in range(rng.randint(1, 4))]
            c = bk.make_braid(cw, b.n)
            conj = bk.mul(bk.mul(c, b), bk.inverse(c))
            assert entropy(conj).value == pytest.approx(base, abs=2e-3)


def test_entropy_matches_cycle_spectral_radius():
    for word in ([1, -2], [1, 2, -3]):
        b = bk.make_braid(word)
        r = bk.cycle(b)
        rate = math.log(bk.spectral_radius(r.product())) / r.period
        assert entropy(b).value == pytest.approx(rate, abs=1e-4)


def test_entropy_fixed_iterates_pin():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    v = entropy_fixed_iterates(bk.make_braid([1, 2, 3, -4]), l, 100)
    assert v == pytest.approx(0.7637, abs=1e-4)


def test_entropy_fixed_iterates_identity_and_k1():
    l = bk.make_loop([-1, 1, -2, 0, -1, 0])
    assert entropy_fixed_iterates(bk.identity_braid(5), l, 7) == 0.0
    b = bk.make_braid([1, 2, 3, -4])
    one = entropy_fixed_iterates(b, l, 1)
    expected = math.log(bk.minlength(bk.act(b, l)) / bk.minlength(l))
    assert one == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        entropy_fixed_iterates(b, l, 0)


def test_complexity_pins():
    assert complexity(bk.make_braid([1, -2])) == pytest.approx(2.0, abs=1e-4)
    assert complexity(bk.make_braid([1, 2])) == pytest.approx(math.log2(3), abs=1e-12)
    for n in (2, 3, 4, 5):
        assert complexity(bk.identity_braid(n)) == 0.0


def test_complexity_log_argument_is_integer():
    # the fold count is an exact integer before the final log
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(2, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))]
        b = bk.make_braid(word, n)
        crossings = bk.intaxis(bk.loopcoords(b))
        folds = (crossings - 2 * (n - 2)) / 2
        assert folds == int(folds) and folds >= 1
        assert complexity(b) == pytest.approx(math.log2(folds), rel=1e-12)


def test_entropy_result_float_conversion():
    r = EntropyResult(value=0.5, converged=True, iterations=10)
    assert float(r) == 0.5


def test_entropy_result_reason_defaults_from_convergence():
    assert EntropyResult(0.5, True, 10).reason == "converged"
    assert EntropyResult(0.0, False, 1000).reason == "budget"
    assert EntropyResult(0.0, False, 3, "nonfinite").reason == "nonfinite"


def test_entropy_past_double_range_matches_exact_growth():
    # (s1 s2^-1)^900 grows loops by about 866 nats per application, past
    # the ~709-nat range of a double within one application
    b = bk.make_braid([1, -2] * 900)
    result = entropy(b)
    assert result.converged and result.reason == "converged"
    assert result.iterations < 20
    # growth of the fourth application alone, in exact integers
    l = bk.canonical_loop(3, basepoint=True)
    exact = 4 * entropy_fixed_iterates(b, l, 4) - 3 * entropy_fixed_iterates(b, l, 3)
    assert result.value == pytest.approx(exact, rel=1e-9)


def test_entropy_reason_on_budget():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = entropy(bk.make_braid([1, 2]))
    assert not result.converged and result.reason == "budget"
