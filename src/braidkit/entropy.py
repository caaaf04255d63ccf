"""Topological entropy estimation and one-step geometric complexity.

The entropy of a braid is the exponential growth rate of loop length under
iterated action.  The estimator iterates the exact integer action on the
canonical basepoint multiloop and watches the per-iterate growth of the
axis-intersection count; it reports convergence only when five consecutive
growth estimates agree to within the tolerance.  Finite-order and
very-low-entropy braids never settle, in which case the result is zero with
``converged=False``, ``reason="budget"`` and a warning.

One normalisation keeps the integers short: every ``_CHUNK`` generators,
every coordinate is shifted right by the number of bits its largest
magnitude has beyond ``_BITS``, and the shift is added back to the growth as
``shift * log 2``.  The action is piecewise linear and homogeneous, so the
shift costs only the truncation of the low bits, a relative error of about
``2**-_BITS`` per shift, and the work stays linear in the word length
however fast the braid grows loops.
"""
from __future__ import annotations

import math
import warnings

from .action import _update, _word_order, act, loopcoords
from .braids import _as_braid, power
from .config import Record
from .loops import Loop, _intaxis_from_ab, canonical_loop, intaxis, minlength

NONCONVERGENCE_WARNING = (
    "Failed to converge to requested tolerance; braid is likely finite-order "
    "or has low entropy.  Returning zero entropy."
)

_WINDOW = 5
# The kernel, action._update, runs on each chunk of the braid's validated word
# without a range check (the loop is the braid's own canonical loop).  One
# generator multiplies the largest coordinate by at most 7 (< 2**3), so
# between two shifts the coordinates stay below 2**(_BITS + 3 * _CHUNK), and
# the ratio of two intersection counts taken after a shift fits in a double.
_CHUNK = 64
_BITS = 64
_LN2 = math.log(2)


class EntropyResult(Record):
    """An entropy estimate and why the iteration stopped: ``"converged"``
    or ``"budget"`` (``maxit`` iterations without settling)."""

    value: float
    converged: bool
    iterations: int
    reason: str = ""

    def __post_init__(self):
        if not self.reason:
            object.__setattr__(self, "reason", "converged" if self.converged else "budget")

    def __float__(self):
        return self.value


def entropy(b, tol: float = 1e-6, maxit: int = 1000) -> EntropyResult:
    """Iterative entropy estimate in natural-log units per braid application;
    a ``tol`` that is not a nonnegative number, NaN included, raises ``ValueError``."""
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    b = _as_braid(b)
    l0 = canonical_loop(b.n, basepoint=True)
    a, bb = list(l0.a), list(l0.b)
    word = _word_order(b.word)
    chunks = [word[s : s + _CHUNK] for s in range(0, len(word), _CHUNK)]
    window: list[float] = []
    for it in range(1, maxit + 1):
        m0 = _intaxis_from_ab(a, bb)
        shift = 0  # the coordinates are 2**-shift times their true values
        for chunk in chunks:
            _update(a, bb, chunk)
            e = max(max(map(abs, a)), max(map(abs, bb))).bit_length() - _BITS
            if e > 0:
                a = [x >> e for x in a]
                bb = [x >> e for x in bb]
                shift += e
        m1 = _intaxis_from_ab(a, bb)
        window.append(math.log(m1 / m0) + shift * _LN2)
        if len(window) > _WINDOW:
            window.pop(0)
        if len(window) == _WINDOW and max(window) - min(window) <= tol:
            return EntropyResult(value=sum(window) / _WINDOW, converged=True, iterations=it)
    warnings.warn(NONCONVERGENCE_WARNING)
    return EntropyResult(value=0.0, converged=False, iterations=maxit)


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
