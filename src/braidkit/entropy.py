"""Topological entropy estimation and one-step geometric complexity.

The entropy of a braid is the exponential growth rate of loop length under
iterated action.  The estimator iterates the action on the canonical
basepoint multiloop in floating point, renormalizing the coordinates each
round and watching the per-iterate growth of the axis-intersection count;
it reports convergence only when five consecutive growth estimates agree to
within the tolerance.  Finite-order and very-low-entropy braids never
settle, in which case the result is zero with ``converged=False``,
``reason="budget"`` and a warning.

A word can grow the coordinates past the range of a double within one
application (about 709 nats).  So every ``_CHUNK`` generators the
coordinates are checked, and once their largest magnitude passes
``2**_RESCALE_EXP`` they are scaled down by a power of two, whose exponent
is added back to the growth.  The action is piecewise linear and a
power-of-two scaling is exact, so this changes no result that fits in a
double.  A non-finite coordinate stops the estimate at once with
``reason="nonfinite"``.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

from .action import _apply_gen, _word_order, act, loopcoords
from .braids import Braid, power
from .loops import Loop, _intaxis_from_ab, canonical_loop, intaxis, minlength

NONCONVERGENCE_WARNING = (
    "Failed to converge to requested tolerance; braid is likely finite-order "
    "or has low entropy.  Returning zero entropy."
)

NONFINITE_WARNING = "Loop coordinates became non-finite.  Returning zero entropy."

_WINDOW = 5
# One generator multiplies the largest coordinate by at most 7 (< 2**3), so
# after a check at or below 2**_RESCALE_EXP the next _CHUNK generators stay
# below 2**(_RESCALE_EXP + 3 * _CHUNK) = 2**704, far from overflow.
_CHUNK = 64
_RESCALE_EXP = 512
_RESCALE_AT = 2.0**_RESCALE_EXP


@dataclasses.dataclass(frozen=True)
class EntropyResult:
    """An entropy estimate and why the iteration stopped: ``"converged"``,
    ``"budget"`` (``maxit`` iterations without settling) or ``"nonfinite"``
    (the coordinates left the range of a double)."""

    value: float
    converged: bool
    iterations: int
    reason: str = ""

    def __post_init__(self):
        if not self.reason:
            object.__setattr__(self, "reason", "converged" if self.converged else "budget")

    def __float__(self):
        return self.value


def _as_braid(b) -> Braid:
    if hasattr(b, "to_braid"):
        return b.to_braid()
    return b


def _peak(a, b) -> float:
    return max(max(map(abs, a)), max(map(abs, b)))


def entropy(b, tol: float = 1e-6, maxit: int = 1000) -> EntropyResult:
    """Iterative entropy estimate in natural-log units per braid application."""
    b = _as_braid(b)
    l0 = canonical_loop(b.n, basepoint=True)
    a = [float(x) for x in l0.a]
    bb = [float(x) for x in l0.b]
    word = _word_order(b.word)
    chunks = [word[s : s + _CHUNK] for s in range(0, len(word), _CHUNK)]
    window: list[float] = []
    for it in range(1, maxit + 1):
        m0 = _intaxis_from_ab(a, bb)
        shift = 0  # the coordinates are 2**-shift times their true values
        for chunk in chunks:
            for k in chunk:
                _apply_gen(a, bb, k)
            peak = _peak(a, bb)
            if peak > _RESCALE_AT:
                if peak == math.inf:
                    break
                e = math.frexp(peak)[1]
                for j in range(len(a)):
                    a[j] = math.ldexp(a[j], -e)
                    bb[j] = math.ldexp(bb[j], -e)
                shift += e
        m1 = _intaxis_from_ab(a, bb)
        if not math.isfinite(m1):
            warnings.warn(NONFINITE_WARNING)
            return EntropyResult(value=0.0, converged=False, iterations=it, reason="nonfinite")
        window.append(_log_ratio(m1, m0, shift))
        if len(window) > _WINDOW:
            window.pop(0)
        if len(window) == _WINDOW and max(window) - min(window) <= tol:
            return EntropyResult(value=sum(window) / _WINDOW, converged=True, iterations=it)
        scale = _peak(a, bb)
        for j in range(len(a)):
            a[j] /= scale
            bb[j] /= scale
    warnings.warn(NONCONVERGENCE_WARNING)
    return EntropyResult(value=0.0, converged=False, iterations=maxit)


def _log_ratio(m1: float, m0: float, shift: int) -> float:
    """``log(2**shift * m1 / m0)``, rounded as the unscaled ratio would be
    whenever that ratio is itself a finite double."""
    r = m1 / m0
    try:
        return math.log(math.ldexp(r, shift))
    except OverflowError:
        return math.log(r) + shift * math.log(2)


def entropy_fixed_iterates(b, l: Loop, k: int) -> float:
    """Growth estimate from exactly ``k`` applications, in exact integers:
    ``log(minlength(b^k * l) / minlength(l)) / k``."""
    if k < 1:
        raise ValueError("need at least one iteration")
    b = _as_braid(b)
    image = act(power(b, k), l)
    num = minlength(image)
    den = minlength(l)
    return (math.log(num) - math.log(den)) / k


def complexity(b) -> float:
    """One-application geometric complexity.

    The braid acts once on the canonical basepoint multiloop (the doubled
    diameter diagram); the log2 of the resulting number of real-axis
    intersections, normalized so the identity braid scores zero, measures
    how much the diagram folds in a single step.
    """
    b = _as_braid(b)
    crossings = intaxis(loopcoords(b))
    folds = (crossings - 2 * (b.n - 2)) // 2
    return math.log2(folds)
