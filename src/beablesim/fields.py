"""Spacetime grids and the beable expectation-value field container."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import ValidationError

__all__ = ["SpacetimeGrid", "BeableField"]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class SpacetimeGrid:
    """A rectangular (t, x) grid: inclusive ranges with point counts."""

    t_min: float
    t_max: float
    t_steps: int
    x_min: float
    x_max: float
    x_steps: int

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.t_min, self.t_max, self.x_min, self.x_max)):
            raise ValidationError("grid bounds must be finite")
        if self.t_steps < 1 or self.x_steps < 1:
            raise ValidationError("grid needs at least one point per axis")
        if self.t_max < self.t_min or self.x_max < self.x_min:
            raise ValidationError("grid ranges must be ordered")
        if self.t_steps > 1 and self.t_max == self.t_min:
            raise ValidationError("multiple time steps need t_max > t_min")
        if self.x_steps > 1 and self.x_max == self.x_min:
            raise ValidationError("multiple spatial steps need x_max > x_min")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)

    def positions(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.x_steps)


@dataclass(frozen=True, eq=False)
class BeableField:
    """Expectation values ``<rho(x; t)>`` over a discretized spacetime.

    ``values[i, j]`` belongs to time ``ts[i]`` and position ``xs[j]``; values
    are nonnegative up to scalar round-off (clamped at construction).
    """

    ts: np.ndarray
    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        ts = np.ascontiguousarray(self.ts, dtype=float)
        xs = np.ascontiguousarray(self.xs, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        if ts.ndim != 1 or xs.ndim != 1 or values.shape != (ts.size, xs.size):
            raise ValidationError("field values must be shaped (len(ts), len(xs))")
        low = float(values.min(initial=0.0))
        if low < -tolerances.TOL.scalar:
            raise ValidationError(f"field values must be nonnegative, found {low!r}")
        values = np.maximum(values, 0.0)
        for arr in (ts, xs, values):
            arr.setflags(write=False)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)

    def slice_integral(self, time_index: int) -> float:
        """Trapezoid-rule integral of the spatial slice at ``ts[time_index]``."""
        return float(_trapezoid(self.values[time_index], self.xs))
