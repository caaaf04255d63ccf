"""Integer-coefficient Laurent polynomials in one variable.

Stored as the lowest exponent plus a dense coefficient run; both stored end
coefficients are nonzero (the zero polynomial has an empty run).  These are
the carrier for reduced Burau entries and Alexander polynomials, so the
display format puts the highest power first, e.g. ``+ z^(+2) - z^(+1) + 1``.
"""
from __future__ import annotations

import dataclasses
import numbers
import operator
from fractions import Fraction


@dataclasses.dataclass(frozen=True)
class LaurentPoly:
    lowest: int = 0
    coeffs: tuple = ()

    def __post_init__(self):
        coeffs = self.coeffs
        if type(coeffs) is tuple and coeffs and coeffs[0] != 0 and coeffs[-1] != 0:
            return  # already normalized, the common case for ring results
        coeffs = list(coeffs)
        lowest = self.lowest
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            lowest += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            lowest = 0
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "lowest", lowest)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly(0, (c,))

    @staticmethod
    def term(c: int, exponent: int) -> "LaurentPoly":
        return LaurentPoly(exponent, (c,))

    @staticmethod
    def var() -> "LaurentPoly":
        return LaurentPoly(1, (1,))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def mindeg(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no degree")
        return self.lowest

    @property
    def maxdeg(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no degree")
        return self.lowest + len(self.coeffs) - 1

    def coeff(self, exponent: int):
        k = exponent - self.lowest
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, numbers.Integral):
            return LaurentPoly.const(int(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo, hi = (self, other) if self.lowest <= other.lowest else (other, self)
        out = list(lo.coeffs)
        start = hi.lowest - lo.lowest
        end = start + len(hi.coeffs)
        if end > len(out):
            out.extend([0] * (end - len(out)))
        out[start:end] = map(operator.add, out[start:end], hi.coeffs)
        return LaurentPoly(lo.lowest, tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.lowest, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly()
        lowest = self.lowest + other.lowest
        if len(self.coeffs) > len(other.coeffs):
            self, other = other, self
        if len(self.coeffs) == 1:  # a monomial: scale and shift
            c = self.coeffs[0]
            return LaurentPoly(lowest, tuple([c * d for d in other.coeffs]))
        width = len(other.coeffs)
        out = [0] * (len(self.coeffs) + width - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i : i + width] = [x + c * d for x, d in zip(out[i : i + width], other.coeffs)]
        return LaurentPoly(lowest, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the variable to the power ``k``."""
        if self.is_zero():
            return self
        return LaurentPoly(self.lowest + k, self.coeffs)

    def eval_at(self, x):
        """Evaluate at a nonzero number; ints become Fractions when negative
        exponents appear, so integer inputs stay exact."""
        if self.is_zero():
            return 0
        if isinstance(x, numbers.Integral) and self.lowest < 0:
            x = Fraction(int(x))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        result = acc * x**self.lowest
        if isinstance(result, Fraction) and result.denominator == 1:
            return int(result)
        return result

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient; raises if the division leaves a remainder."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        num = list(self.coeffs)
        den = list(other.coeffs)
        qlen = len(num) - len(den) + 1
        if qlen <= 0:
            raise ValueError("division leaves a remainder")
        q = [0] * qlen
        lead = den[-1]
        for k in range(qlen - 1, -1, -1):
            c = num[k + len(den) - 1]
            if c % lead != 0:
                raise ValueError("division leaves a remainder")
            q[k] = c // lead
            if q[k]:
                for j, d in enumerate(den):
                    num[k + j] -= q[k] * d
        if any(num):
            raise ValueError("division leaves a remainder")
        return LaurentPoly(self.lowest - other.lowest, tuple(q))

    def __floordiv__(self, other):
        """Exact division, as ``//`` is for integers that divide evenly."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.exact_div(other)

    def reciprocal_symmetric(self) -> bool:
        """True when p(z) == p(1/z) or p(z) == -p(1/z) coefficient-wise."""
        if self.is_zero():
            return True
        if self.mindeg != -self.maxdeg:
            return False
        rev = tuple(reversed(self.coeffs))
        return rev == self.coeffs or rev == tuple(-c for c in self.coeffs)

    # -- display --------------------------------------------------------

    def display(self, var: str = "z") -> str:
        """Highest power first: ``+ z^(+2) - z^(+1) + 1``."""
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            e = self.lowest + k
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                body = f"{var}^({e:+d})" if mag == 1 else f"{mag}*{var}^({e:+d})"
            parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __str__(self):
        return self.display()

    def to_json(self) -> dict:
        return {"lowest": self.lowest, "coeffs": list(self.coeffs)}


def laurent_from_json(data: dict) -> LaurentPoly:
    return LaurentPoly(int(data["lowest"]), tuple(int(c) for c in data["coeffs"]))
