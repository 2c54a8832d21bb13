"""Uncertain scalar arithmetic with worst-case error propagation.

An uncertain value is a measurement ``best ± uncertainty``: the true value is
assumed to lie in ``[best - uncertainty, best + uncertainty]``.  Addition and
subtraction add the uncertainties; raising to an integer power scales the
uncertainty by ``|n| * |best|**(n-1)``.  On top of these, :func:`udissim`
propagates uncertainty through the squared Euclidean distance between two
vectors of uncertain values.

Uncertain values are totally ordered: compare the best estimates first and
break ties on the uncertainties.  The order is exact (no tolerances), so it
is usable as a sort key; approximate comparisons belong in test helpers, not
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "UncertainValue",
    "UncertainVector",
    "NumericOverflowError",
    "DimensionMismatchError",
    "u_add",
    "u_sub",
    "u_pow",
    "u_eq",
    "u_lt",
    "udissim",
]


class NumericOverflowError(ArithmeticError):
    """An operation on finite inputs produced a non-finite result."""


class DimensionMismatchError(ValueError):
    """Two vectors (or a subsequence and a series) have incompatible lengths."""


@dataclass(frozen=True, order=True)
class UncertainValue:
    """A measurement ``best ± uncertainty``.

    ``uncertainty`` is normalized to its absolute value; both fields must be
    finite.  Equality and ordering are the exact lexicographic comparison on
    ``(best, uncertainty)``, i.e. smaller best estimate first, then smaller
    uncertainty.
    """

    best: float
    uncertainty: float = 0.0

    def __post_init__(self) -> None:
        best = float(self.best)
        unc = float(self.uncertainty)
        if not math.isfinite(best) or not math.isfinite(unc):
            raise ValueError(f"uncertain value must be finite, got {best} ± {unc}")
        object.__setattr__(self, "best", best)
        object.__setattr__(self, "uncertainty", abs(unc))

    def __add__(self, other: "UncertainValue") -> "UncertainValue":
        return u_add(self, other)

    def __sub__(self, other: "UncertainValue") -> "UncertainValue":
        return u_sub(self, other)

    def __pow__(self, n: int) -> "UncertainValue":
        return u_pow(self, n)

    def __str__(self) -> str:
        return f"{self.best} ± {self.uncertainty}"


class UncertainVector:
    """A fixed-length sequence of uncertain values, stored as two arrays.

    The arrays are copied on construction and frozen; element ``i`` is
    ``best[i] ± uncertainty[i]``.
    """

    __slots__ = ("best", "uncertainty")

    def __init__(self, best: Sequence[float] | np.ndarray, uncertainty: Sequence[float] | np.ndarray) -> None:
        b = np.array(best, dtype=np.float64, copy=True)
        u = np.array(uncertainty, dtype=np.float64, copy=True)
        if b.ndim != 1 or u.ndim != 1:
            raise ValueError("uncertain vector components must be one-dimensional")
        if b.shape != u.shape:
            raise DimensionMismatchError(
                f"best has length {b.shape[0]} but uncertainty has length {u.shape[0]}"
            )
        if b.shape[0] < 1:
            raise ValueError("uncertain vector must have at least one element")
        if not np.isfinite(b).all() or not np.isfinite(u).all():
            raise ValueError("uncertain vector elements must be finite")
        np.abs(u, out=u)
        b.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "best", b)
        object.__setattr__(self, "uncertainty", u)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("UncertainVector is immutable")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "UncertainVector":
        pairs = list(pairs)
        return cls([p[0] for p in pairs], [p[1] for p in pairs])

    def __len__(self) -> int:
        return self.best.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UncertainVector(self.best[index], self.uncertainty[index])
        return UncertainValue(float(self.best[index]), float(self.uncertainty[index]))

    def __iter__(self) -> Iterator[UncertainValue]:
        for b, u in zip(self.best.tolist(), self.uncertainty.tolist()):
            yield UncertainValue(b, u)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UncertainVector):
            return NotImplemented
        return (
            self.best.shape == other.best.shape
            and bool((self.best == other.best).all())
            and bool((self.uncertainty == other.uncertainty).all())
        )

    def __hash__(self) -> int:
        return hash((self.best.tobytes(), self.uncertainty.tobytes()))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{b} ± {u}" for b, u in zip(self.best, self.uncertainty))
        return f"UncertainVector([{pairs}])"


def _check_finite(best: float, uncertainty: float) -> UncertainValue:
    if not math.isfinite(best) or not math.isfinite(uncertainty):
        raise NumericOverflowError(f"result overflowed to {best} ± {uncertainty}")
    return UncertainValue(best, uncertainty)


def u_add(x: UncertainValue, y: UncertainValue) -> UncertainValue:
    """Sum of two uncertain values; uncertainties add."""
    return _check_finite(x.best + y.best, x.uncertainty + y.uncertainty)


def u_sub(x: UncertainValue, y: UncertainValue) -> UncertainValue:
    """Difference of two uncertain values; uncertainties still add."""
    return _check_finite(x.best - y.best, x.uncertainty + y.uncertainty)


def u_pow(x: UncertainValue, n: int) -> UncertainValue:
    """``n``-th power of an uncertain value, for integer ``n >= 1``.

    The uncertainty scales by ``|n| * |best|**(n-1)``.  At ``best == 0`` that
    factor is taken as its analytic limit, so squaring ``0 ± d`` yields
    ``0 ± 0`` while ``(0 ± d) ** 1`` stays ``0 ± d``.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"exponent must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"unsupported exponent {n}: only n >= 1 is defined")
    best = x.best**n
    if x.best == 0.0:
        unc = x.uncertainty if n == 1 else 0.0
    else:
        unc = float(n) * abs(x.best) ** (n - 1) * x.uncertainty
    return _check_finite(best, unc)


def u_eq(x: UncertainValue, y: UncertainValue) -> bool:
    """Exact equality: equal best estimates and equal uncertainties."""
    return x.best == y.best and x.uncertainty == y.uncertainty


def u_lt(x: UncertainValue, y: UncertainValue) -> bool:
    """Strict order: smaller best estimate wins, ties go to the smaller uncertainty."""
    return x.best < y.best or (x.best == y.best and x.uncertainty < y.uncertainty)


def udissim(v: UncertainVector, u: UncertainVector) -> UncertainValue:
    """Uncertainty-propagated squared Euclidean dissimilarity.

    Returns ``sum((v_i - u_i)**2) ± 2 * sum(|v_i - u_i| * (dv_i + du_i))``,
    accumulated in a single left-to-right pass.  With all uncertainties zero
    the best estimate is exactly the squared Euclidean distance.

    The accumulation order is fixed (ascending index) so results are
    bit-reproducible; any parallel caller must preserve this reduction order
    or compare with a tolerance.
    """
    n = len(v)
    if n != len(u):
        raise DimensionMismatchError(f"vector lengths differ: {n} vs {len(u)}")
    vb = v.best.tolist()
    vu = v.uncertainty.tolist()
    ub = u.best.tolist()
    uu = u.uncertainty.tolist()
    best = 0.0
    unc = 0.0
    for i in range(n):
        d = vb[i] - ub[i]
        best += d * d
        unc += abs(d) * (vu[i] + uu[i])
    return _check_finite(best, 2.0 * unc)
