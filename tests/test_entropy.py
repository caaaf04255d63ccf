import math
import random
import warnings

import pytest

import braidkit as bk
from braidkit.action import _update, _word_order
from braidkit.entropy import (
    NONCONVERGENCE_WARNING,
    EntropyResult,
    complexity,
    entropy,
    entropy_fixed_iterates,
)
from braidkit.loops import _intaxis_from_ab, canonical_loop

PINNED = [
    ([1, 2, -3], 0.8314),
    ([1, -2], 0.9624),
    ([1, 2, 3, -4], 0.7672),
    ([-2, 1, 1, -2], 1.7627),
    ([1, 3, 2, 2, 1, 3], 1.7627),
    ([3, 2, 1, 2, 4, 5, 4, 3, 3, 2, 1, 2, 5, 4, 5, 3], 2.6339),
]


@pytest.mark.parametrize("tol", [math.nan, -1e-6])
def test_entropy_tolerance_must_be_nonnegative(tol):
    # at a NaN tol the window never settles: the call used to run 1,000
    # iterations and return 0.0 for a braid of entropy 0.9624
    with pytest.raises(ValueError, match="tol must be a nonnegative number"):
        entropy(bk.make_braid([1, -2]), tol=tol)


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


# ----------------------------------------- reference: the float estimator


def _entropy_float(b, tol=1e-6, maxit=1000):
    """The former float estimator, kept as the reference for the exact one:
    float coordinates divided by their peak after every iterate, rescaled by
    powers of two inside the word, and stopped on a non-finite value."""
    b = b.to_braid() if isinstance(b, bk.AnnularBraid) else b
    l0 = canonical_loop(b.n, basepoint=True)
    a = [float(x) for x in l0.a]
    bb = [float(x) for x in l0.b]
    word = _word_order(b.word)
    chunks = [word[s : s + 64] for s in range(0, len(word), 64)]

    def peak():
        return max(max(map(abs, a)), max(map(abs, bb)))

    window = []
    for it in range(1, maxit + 1):
        m0 = _intaxis_from_ab(a, bb)
        shift = 0
        for chunk in chunks:
            _update(a, bb, chunk)
            p = peak()
            if p > 2.0**512:
                if p == math.inf:
                    break
                e = math.frexp(p)[1]
                for j in range(len(a)):
                    a[j] = math.ldexp(a[j], -e)
                    bb[j] = math.ldexp(bb[j], -e)
                shift += e
        m1 = _intaxis_from_ab(a, bb)
        if not math.isfinite(m1):
            return EntropyResult(0.0, False, it, "nonfinite")
        r = m1 / m0
        try:
            window.append(math.log(math.ldexp(r, shift)))
        except OverflowError:
            window.append(math.log(r) + shift * math.log(2))
        if len(window) > 5:
            window.pop(0)
        if len(window) == 5 and max(window) - min(window) <= tol:
            return EntropyResult(sum(window) / 5, True, it)
        scale = peak()
        for j in range(len(a)):
            a[j] /= scale
            bb[j] /= scale
    return EntropyResult(0.0, False, maxit)


def _penner(n, L, seed):
    """Pseudo-Anosov word by Penner's construction: sigma_i for odd i,
    sigma_j^-1 for even j, every generator used."""
    rng = random.Random(seed)
    idx = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(L - n + 1)]
    rng.shuffle(idx)
    return bk.make_braid([i if i % 2 else -i for i in idx], n)


PENNER_SIZES = [(3, 100), (4, 300), (6, 1000), (10, 3000), (15, 5000), (20, 10000)]

FLOAT_REFERENCE_CASES = (
    [pytest.param(bk.make_braid(w), id="pinned-" + "_".join(map(str, w))) for w, _ in PINNED]
    + [pytest.param(bk.make_braid([1, 2]), id="budget")]
    + [pytest.param(bk.make_braid([1, -2] * k), id=f"s1s2inv^{k}") for k in (400, 900)]
    + [pytest.param(_penner(n, L, n * L), id=f"penner-n{n}-L{L}") for n, L in PENNER_SIZES]
)


@pytest.mark.parametrize("b", FLOAT_REFERENCE_CASES)
def test_entropy_matches_float_reference(b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exact, ref = entropy(b), _entropy_float(b)
    assert exact.converged == ref.converged
    assert exact.iterations == ref.iterations
    assert exact.value == pytest.approx(ref.value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n,L", [(3, 100), (10, 3000)])
def test_entropy_matches_exact_growth_on_long_words(n, L):
    b = _penner(n, L, n * L)
    result = entropy(b)
    assert result.converged
    # growth of the last application alone, in exact integers
    k = result.iterations
    l = bk.canonical_loop(n, basepoint=True)
    exact = k * entropy_fixed_iterates(b, l, k) - (k - 1) * entropy_fixed_iterates(b, l, k - 1)
    assert result.value == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("n,L", [(3, 100), (4, 20), (5, 40), (6, 60)])
def test_entropy_matches_cycle_spectral_radius_on_penner_words(n, L):
    b = _penner(n, L, n * L)
    r = bk.cycle(b)
    rate = math.log(bk.spectral_radius(r.product())) / r.period
    assert entropy(b).value == pytest.approx(rate, rel=1e-8)


# n=3, L=100 words on which the loop length oscillates with period 3: the
# estimator never settles, and the exact answer comes from the limit cycle,
# whose charpoly x (x - 1)**3 has every root 0 or 1, so the entropy is 0
OSCILLATING_WORDS = [
    # seed 6, round 6 of the benchmark's invariants growth sweep
    ([1, -2, 2, -1, -1, -1, -1, 1, -1, -1, -1, 2, 2, 1, 1, -2, -1, -2, -1, 1, 2, -1, -2, -1,
      -1, 1, -1, -1, -2, -1, 1, 2, -2, -1, 1, 1, 1, 1, -2, -1, -2, 1, 1, 2, 2, -1, -1, 1, 2,
      -1, -2, 2, -2, -1, -1, -1, -2, -2, -2, -2, -1, 1, 2, -1, -2, -1, 2, -2, 2, -2, 1, 2, 2,
      2, -1, -2, -1, -1, -1, -2, -1, -1, 2, 1, 2, 2, 2, 2, -1, 1, -1, 1, -1, -2, -2, 2, 1,
      -1, 2, -2], 1),
    # seed 3, round 26
    ([2, 2, 1, -2, -2, 1, -2, 1, 1, 2, 1, -2, 1, 2, -2, -2, 1, 2, 2, -1, 2, -1, 2, -2, 2, 1,
      -1, 2, 1, -1, -2, -2, -2, -2, 2, 1, 1, -2, -2, 1, 2, -1, -2, -1, -1, -2, -2, -2, -1, -2,
      2, -2, 2, -2, 1, 2, 1, -1, -1, 1, -2, 2, -2, -2, 2, 2, 2, 2, 1, -2, -2, -2, 1, -1, 2,
      -2, 1, -1, 1, -1, 1, 1, -1, -1, 2, -2, 1, 2, -2, 2, 1, -1, 2, -2, -2, -1, -2, 2, -2,
      -2], 5),
]


@pytest.mark.parametrize("word,preperiod", OSCILLATING_WORDS)
def test_oscillating_words_have_exactly_zero_entropy(word, preperiod):
    b = bk.make_braid(word, 3)
    cyc = bk.cycle(b)
    assert (cyc.preperiod, cyc.period) == (preperiod, 3)
    assert bk.charpoly(cyc.product()) == (1, -3, 3, -1, 0)
    assert bk.spectral_radius(cyc.product()) == 1.0
