"""Semi-relativistic toy models in 1+1 Minkowski space (c = 1).

A massive subsystem sits in a superposition of two well-separated Gaussian
"clouds" centred at x1 < x2, each carrying the full mass M, with amplitudes
amp_a and amp_b.  One or two point photons bounce off the clouds on lightlike
paths and carry which-branch information to infinity; Nature's single random
choice of the late-time configuration then fixes the mass-density beable
everywhere.

A spacetime point can only be conditioned on the part of the final boundary
lying outside its own future light cone.  Where no information-carrying ray
is visible out there - the *region of indeterminacy* - the two possible final
boundary conditions are indistinguishable and the conditional probabilities
reduce to plain Born weights; outside the region the beable snaps to the
branch consistent with the chosen ray configuration.  Everything is closed
form: the field is the Gaussian branch density of the chosen cloud outside
the region and the Born-weighted average inside it.

Photons are exact point pulses (no wave packets), the massive subsystem has
no dynamics of its own, and bounce recoil is neglected; the reported density
contains the massive subsystem only, with ray trajectories exposed separately
for plotting.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .abl import ConditionalDistribution
from .errors import ContractError, InvariantBreachError, ValidationError
from .fields import BeableField, SpacetimeGrid

__all__ = [
    "NatureChoice",
    "SpacetimePoint",
    "RayDirection",
    "LightRay",
    "ToyModelConfig",
    "BranchState",
    "RayPath",
    "branch_structure",
    "sample_nature_choice",
    "ray_visible_outside_cone",
    "information_rays",
    "in_region_of_indeterminacy",
    "collapse_time_at",
    "branch_rows",
    "mass_budget_residuals",
    "beable_field",
    "born_reduction_check",
    "rel_conditional",
    "ray_trajectories",
    "gaussian_density",
]

#: Gaussian tails are dropped beyond this many widths; the discarded mass is
#: below 1e-14 of the total.
GAUSSIAN_CUTOFF_SIGMAS = 8.0

#: Relative slack of the slice mass budget: a uniform slice integrates to M
#: within ``MASS_BUDGET_EPSILON * M``, and a mixed slice's interval is widened
#: by the same amount.
MASS_BUDGET_EPSILON = 1e-6


class NatureChoice(enum.Enum):
    """Which cloud the chosen final boundary condition localizes the mass on."""

    CLOUD1 = 1
    CLOUD2 = 2


@dataclass(frozen=True)
class SpacetimePoint:
    t: float
    x: float


class RayDirection(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class LightRay:
    """A null trajectory ``x(t) = x0 +/- (t - t0)`` from its origin event."""

    origin: SpacetimePoint
    direction: RayDirection

    def position(self, t: float) -> float:
        delta = t - self.origin.t
        return self.origin.x + (delta if self.direction is RayDirection.RIGHT else -delta)


@dataclass(frozen=True)
class ToyModelConfig:
    """Geometry, amplitudes and grid of a one- or two-photon bounce model.

    The first interaction happens at ``(t1, x1)``; an unreflected photon
    reaches the second cloud at ``t2 = t1 + (x2 - x1)``.  Cloud widths must be
    small against the separation (``separation_ratio`` bound) so the branch
    wave functions are effectively orthogonal, and the grid must cover both
    clouds' truncated supports finely enough for trapezoid mass budgets.
    """

    x1: float
    x2: float
    sigma1: float
    sigma2: float
    amp_a: complex
    amp_b: complex
    mass: float
    t1: float
    photons: int
    grid: SpacetimeGrid
    separation_ratio: float = 0.1

    def __post_init__(self) -> None:
        reals = (self.x1, self.x2, self.sigma1, self.sigma2, self.mass, self.t1,
                 self.separation_ratio)
        if not (all(map(math.isfinite, reals)) and cmath.isfinite(self.amp_a)
                and cmath.isfinite(self.amp_b)):
            raise ValidationError("toy-model parameters must be finite")
        if not self.x1 < self.x2:
            raise ValidationError("cloud centres must satisfy x1 < x2")
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise ValidationError("cloud widths must be positive")
        if self.mass <= 0.0:
            raise ValidationError("mass must be positive")
        if self.photons not in (1, 2):
            raise ValidationError("photons must be 1 or 2")
        weight = abs(self.amp_a) ** 2 + abs(self.amp_b) ** 2
        if abs(weight - 1.0) > tolerances.TOL.scalar:
            raise ValidationError(
                f"|amp_a|^2 + |amp_b|^2 must be 1, got {weight!r}"
            )
        separation = self.x2 - self.x1
        for name, sigma in (("sigma1", self.sigma1), ("sigma2", self.sigma2)):
            if sigma > self.separation_ratio * separation:
                raise ValidationError(
                    f"{name} = {sigma} is not well separated: must be <= "
                    f"{self.separation_ratio} * (x2 - x1) = {self.separation_ratio * separation}"
                )
        cutoff = GAUSSIAN_CUTOFF_SIGMAS
        if self.grid.x_min > self.x1 - cutoff * self.sigma1 or self.grid.x_max < self.x2 + cutoff * self.sigma2:
            raise ValidationError("grid must cover both clouds out to the Gaussian cutoff")
        if self.grid.x_steps < 2:
            raise ValidationError("grid needs at least two spatial points")
        spacing = (self.grid.x_max - self.grid.x_min) / (self.grid.x_steps - 1)
        if spacing > min(self.sigma1, self.sigma2):
            raise ValidationError(
                f"grid spacing {spacing} too coarse for cloud widths; "
                f"need <= {min(self.sigma1, self.sigma2)}"
            )

    @property
    def t2(self) -> float:
        return self.t1 + (self.x2 - self.x1)

    @property
    def weight_a(self) -> float:
        return abs(self.amp_a) ** 2

    @property
    def weight_b(self) -> float:
        return abs(self.amp_b) ** 2


@dataclass(frozen=True)
class BranchState:
    """One branch of the piecewise wave function at a fixed time."""

    cloud: NatureChoice
    amplitude: complex
    photon_positions: tuple[float, ...]


def branch_structure(cfg: ToyModelConfig, t: float) -> tuple[BranchState, BranchState]:
    """Photon pulse positions and amplitudes of both branches at time ``t``.

    Before the first bounce both branches share the incoming pulse(s); between
    the bounces the branch reflected at its cloud runs outward while the other
    keeps approaching; after the second bounce every pulse is outgoing.
    """
    x1, x2, t1, t2 = cfg.x1, cfg.x2, cfg.t1, cfg.t2
    if cfg.photons == 1:
        if t < t1:
            first = (x1 + t - t1,)
            second = first
        elif t <= t2:
            first = (x1 + t1 - t,)
            second = (x1 + t - t1,)
        else:
            first = (x1 + t1 - t,)
            second = (x2 + t2 - t,)
    else:
        if t < t1:
            first = (x1 + t - t1, x2 - t + t1)
            second = first
        elif t <= t2:
            first = (x1 - t + t1, x2 - t + t1)
            second = (x1 + t - t1, x2 + t - t1)
        else:
            first = (x1 - t + t1, x1 + t - t2)
            second = (x2 - t + t2, x2 + t - t1)
    return (
        BranchState(NatureChoice.CLOUD1, cfg.amp_a, first),
        BranchState(NatureChoice.CLOUD2, cfg.amp_b, second),
    )


def sample_nature_choice(cfg: ToyModelConfig, rng: np.random.Generator | int) -> NatureChoice:
    """Draw the final boundary condition with its Born weight.

    Accepts a seed (single deterministic draw) or a generator (whose state
    advances, so repeated calls yield a reproducible sequence).
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    return NatureChoice.CLOUD1 if rng.random() < cfg.weight_a else NatureChoice.CLOUD2


def ray_visible_outside_cone(ray: LightRay, point: SpacetimePoint):
    """Whether the ray stays outside ``point``'s future light cone forever.

    In null coordinates a left-mover keeps ``t + x`` fixed and a right-mover
    keeps ``t - x`` fixed, so visibility is a strict comparison of the
    corresponding null coordinate of the point against the ray's; a ray on the
    cone boundary counts as not visible.  Array coordinates give a mask.
    """
    if ray.direction is RayDirection.LEFT:
        return point.t + point.x > ray.origin.t + ray.origin.x
    return point.t - point.x > ray.origin.t - ray.origin.x


def information_rays(cfg: ToyModelConfig) -> tuple[LightRay, ...]:
    """The outgoing rays whose visibility decides the conditional probabilities.

    One photon: only the leftmost outgoing ray from the first bounce matters
    (its presence or absence already separates the two boundary conditions).
    Two photons: the leftmost ray from ``(t1, x1)`` and the rightmost from
    ``(t1, x2)``.
    """
    left = LightRay(SpacetimePoint(cfg.t1, cfg.x1), RayDirection.LEFT)
    if cfg.photons == 1:
        return (left,)
    return (left, LightRay(SpacetimePoint(cfg.t1, cfg.x2), RayDirection.RIGHT))


def in_region_of_indeterminacy(cfg: ToyModelConfig, point: SpacetimePoint):
    """Whether no information-carrying ray is visible outside the point's cone.

    Closed form, strict inequalities (boundary points are resolved):
    one photon ``t < t1 - (x - x1)``; two photons additionally
    ``t < t1 + (x - x2)``, a triangle.  A point whose ``t`` and ``x`` are
    broadcastable arrays gives the boolean mask over their grid.
    """
    behind_first = point.t < cfg.t1 - (point.x - cfg.x1)
    if cfg.photons == 1:
        return behind_first
    return (point.t < cfg.t1 + (point.x - cfg.x2)) & behind_first


def collapse_time_at(cfg: ToyModelConfig, x: float) -> float:
    """Earliest time at which the beable at position ``x`` is resolved.

    The infimum over ``t`` of points outside the region of indeterminacy:
    ``t1 - (x - x1)`` for one photon and the earlier of the two ray arrivals
    for two photons.
    """
    if cfg.photons == 1:
        return cfg.t1 - (x - cfg.x1)
    return min(cfg.t1 - (x - cfg.x1), cfg.t1 + (x - cfg.x2))


def gaussian_density(x, center: float, sigma: float):
    """Normalized Gaussian probability density, truncated at the cutoff."""
    x = np.asarray(x, dtype=float)
    body = np.exp(-((x - center) ** 2) / (2.0 * sigma ** 2)) / (sigma * math.sqrt(2.0 * math.pi))
    return np.where(np.abs(x - center) <= GAUSSIAN_CUTOFF_SIGMAS * sigma, body, 0.0)


def branch_rows(cfg: ToyModelConfig, choice: NatureChoice, xs) -> tuple[np.ndarray, np.ndarray]:
    """Mass density at positions ``xs`` inside and outside the region of indeterminacy.

    Inside: the Born-weighted average ``M |a|^2 |psi1|^2 + M |b|^2 |psi2|^2``.
    Outside: ``M |psi_k|^2`` of the chosen cloud.
    """
    dens1 = gaussian_density(xs, cfg.x1, cfg.sigma1)
    dens2 = gaussian_density(xs, cfg.x2, cfg.sigma2)
    inside = cfg.mass * (cfg.weight_a * dens1 + cfg.weight_b * dens2)
    outside = cfg.mass * (dens1 if choice is NatureChoice.CLOUD1 else dens2)
    return inside, outside


def beable_field(cfg: ToyModelConfig, choice: NatureChoice) -> BeableField:
    """Mass-density expectation field on the configured grid.

    Inside the region of indeterminacy every point carries the inside row of
    :func:`branch_rows`, outside it the chosen cloud's row.  Slices fully
    inside or fully outside the region integrate to M.  While the collapse
    front crosses the grid a slice is "partly present": it loses the unchosen
    weight of whatever cloud mass is still indeterminate, and it gains the
    unchosen weight of any chosen-cloud mass already resolved, so slice
    integrals range over ``[min(|a|^2,|b|^2) M, (1 + max(|a|^2,|b|^2)) M]``.
    The field enforces that budget (:func:`mass_budget_residuals`).
    """
    ts = cfg.grid.times()
    xs = cfg.grid.positions()
    inside_row, outside_row = branch_rows(cfg, choice, xs)
    inside = in_region_of_indeterminacy(cfg, SpacetimePoint(ts[:, None], xs[None, :]))
    field = BeableField(ts, xs, np.where(inside, inside_row, outside_row))
    uniform, mixed = mass_budget_residuals(cfg, field, inside)
    if uniform > MASS_BUDGET_EPSILON or mixed > 0.0:
        raise InvariantBreachError(
            f"slice mass budget breached: uniform-slice residual {uniform!r} "
            f"(tolerance {MASS_BUDGET_EPSILON}), mixed-slice residual {mixed!r}"
        )
    return field


def mass_budget_residuals(
    cfg: ToyModelConfig, field: BeableField, inside: np.ndarray
) -> tuple[float, float]:
    """Worst uniform-slice and mixed-slice mass-budget residuals, relative to M.

    ``inside`` is the region-of-indeterminacy mask of the field's grid.  A
    slice wholly inside or wholly outside the region should integrate to M;
    its residual is ``|integral - M| / M``.  A slice the collapse front
    crosses should lie in ``[min(|a|^2,|b|^2) M, (1 + max(|a|^2,|b|^2)) M]``,
    widened by ``MASS_BUDGET_EPSILON * M`` and by the first-order trapezoid
    error of the steps the front cuts into the sampled values; its residual
    is its distance outside that interval over M.
    """
    mass = cfg.mass
    integrals = np.array([field.slice_integral(i) for i in range(field.ts.size)])
    uniform = inside.all(axis=1) | ~inside.any(axis=1)
    h = float(field.xs[1] - field.xs[0])
    steps = inside[:, :-1] != inside[:, 1:]
    slack = np.where(steps, 0.5 * h * np.abs(np.diff(field.values, axis=1)), 0.0).sum(axis=1)
    epsilon = MASS_BUDGET_EPSILON * mass
    floor = min(cfg.weight_a, cfg.weight_b) * mass - epsilon - slack
    ceiling = (1.0 + max(cfg.weight_a, cfg.weight_b)) * mass + epsilon + slack
    outside_interval = np.maximum(floor - integrals, integrals - ceiling)[~uniform]
    uniform_residual = np.abs(integrals[uniform] - mass).max(initial=0.0) / mass
    mixed_residual = outside_interval.max(initial=0.0) / mass
    return float(uniform_residual), float(mixed_residual)


def born_reduction_check(cfg: ToyModelConfig, point: SpacetimePoint) -> ConditionalDistribution:
    """Conditional branch distribution at a point inside the region of indeterminacy.

    With every information-carrying ray hidden inside the point's future cone,
    both final boundary conditions look identical on the visible part of the
    final surface, the post-selection factor drops out, and the distribution
    is exactly the Born weights of the (frozen) initial superposition.
    """
    if not in_region_of_indeterminacy(cfg, point):
        raise ContractError(f"point {point} is outside the region of indeterminacy")
    return ConditionalDistribution((1.0, 2.0), (cfg.weight_a, cfg.weight_b))


def rel_conditional(
    cfg: ToyModelConfig, point: SpacetimePoint, choice: NatureChoice
) -> ConditionalDistribution:
    """Branch distribution at any point, given Nature's choice.

    Inside the region of indeterminacy this is the Born reduction; outside,
    the visible presence or absence of the chosen ray makes the branch
    definite and the distribution is a point mass.
    """
    if in_region_of_indeterminacy(cfg, point):
        return born_reduction_check(cfg, point)
    if choice is NatureChoice.CLOUD1:
        return ConditionalDistribution((1.0, 2.0), (1.0, 0.0))
    return ConditionalDistribution((1.0, 2.0), (0.0, 1.0))


@dataclass(frozen=True)
class RayPath:
    """A piecewise-linear photon worldline for plotting."""

    cloud: NatureChoice
    photon: int
    actual: bool
    points: tuple[tuple[float, float], ...]


def ray_trajectories(cfg: ToyModelConfig, choice: NatureChoice) -> list[RayPath]:
    """Photon worldlines of both branches over the grid's time range.

    Every possible ray is included (even ones no predicate ever consults);
    the branch matching Nature's choice is flagged ``actual``.
    """
    knots = sorted({cfg.grid.t_min, cfg.grid.t_max, cfg.t1, cfg.t2})
    knots = [t for t in knots if cfg.grid.t_min <= t <= cfg.grid.t_max]
    paths: list[RayPath] = []
    for branch_index in range(2):
        states = [branch_structure(cfg, t)[branch_index] for t in knots]
        cloud = states[0].cloud
        for photon in range(cfg.photons):
            points = tuple((t, state.photon_positions[photon]) for t, state in zip(knots, states))
            paths.append(
                RayPath(cloud=cloud, photon=photon + 1, actual=cloud is choice, points=points)
            )
    return paths
