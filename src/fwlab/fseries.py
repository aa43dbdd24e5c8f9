"""Univariate truncated power series over exact rationals.

A series is a dense coefficient vector c0..cN in one commuting variable
(written u, or t when it stands for O^2/m^2 in operator kernels).  The
truncation order is explicit in every value and arithmetic is exact, so
these series are safe to use as coefficient oracles for the operator
expansions elsewhere in the package.

``series(values, order)`` is the one constructor: ``series([1], n)`` is
the constant 1, ``series([0, 1], n)`` the variable and ``series([1, 1], n)``
the series 1 + u, each to order n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = [
    "RatSeries",
    "ZeroConstantTerm",
    "NonSquareConstantTerm",
    "series",
    "sqrt_series",
    "inv_sqrt_series",
    "inverse",
]


class ZeroConstantTerm(ZeroDivisionError):
    """Inverse, square root or inverse square root of a series with c0 = 0."""


class NonSquareConstantTerm(ValueError):
    """Square root of a series whose constant term is not a rational square."""


def _coerce(values: Iterable[Fraction | int | str]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True, slots=True)
class RatSeries:
    """Coefficients c0..cN; order_max is N."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", _coerce(self.coeffs))

    @property
    def order_max(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    # Arithmetic keeps the lower of the two orders: coefficients beyond a
    # series' own order are unknown, not zero.
    def _align(self, other: "RatSeries") -> int:
        return min(self.order_max, other.order_max)

    def __add__(self, other: "RatSeries") -> "RatSeries":
        n = self._align(other)
        return RatSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other):
        if isinstance(other, RatSeries):
            n = self._align(other)
            out = [Fraction(0)] * (n + 1)
            for i in range(n + 1):
                ci = self.coeffs[i]
                if not ci:
                    continue
                for j in range(n + 1 - i):
                    out[i + j] += ci * other.coeffs[j]
            return RatSeries(tuple(out))
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return RatSeries(tuple(c * f for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def to_json_obj(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]


# -- constructor --------------------------------------------------------------


def series(values: Iterable[Fraction | int | str], order: int | None = None) -> RatSeries:
    """Series from explicit coefficients, zero-padded up to ``order``."""
    coeffs = list(_coerce(values))
    if order is not None:
        if order + 1 < len(coeffs):
            coeffs = coeffs[: order + 1]
        else:
            coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
    return RatSeries(tuple(coeffs))


# -- functional calculus ------------------------------------------------------


def _fraction_sqrt(c: Fraction) -> Fraction:
    if c < 0:
        raise NonSquareConstantTerm(f"constant term {c} is negative")
    num = math.isqrt(c.numerator)
    den = math.isqrt(c.denominator)
    if num * num != c.numerator or den * den != c.denominator:
        raise NonSquareConstantTerm(f"constant term {c} is not a rational square")
    return Fraction(num, den)


def sqrt_series(s: RatSeries) -> RatSeries:
    """Series r with r*r = s to the truncation order (principal branch)."""
    if not s.coeffs[0]:
        raise ZeroConstantTerm("sqrt of a series with zero constant term")
    r0 = _fraction_sqrt(s.coeffs[0])
    out = [r0]
    for n in range(1, s.order_max + 1):
        acc = s.coeffs[n]
        for i in range(1, n):
            acc -= out[i] * out[n - i]
        out.append(acc / (2 * r0))
    return RatSeries(tuple(out))


def inverse(s: RatSeries) -> RatSeries:
    """Series b with s*b = 1 to the truncation order."""
    if not s.coeffs[0]:
        raise ZeroConstantTerm("inverse of a series with zero constant term")
    b0 = 1 / s.coeffs[0]
    out = [b0]
    for n in range(1, s.order_max + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += s.coeffs[k] * out[n - k]
        out.append(-b0 * acc)
    return RatSeries(tuple(out))


def inv_sqrt_series(s: RatSeries) -> RatSeries:
    """Series b with b*b*s = 1 to the truncation order."""
    return inverse(sqrt_series(s))

