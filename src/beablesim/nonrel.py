"""Nonrelativistic lattice models: N particles on a 1-D chain of L sites.

The continuum model is transcribed onto a finite lattice: Dirac deltas become
one-site indicators, integrals become site sums, and the N-particle Hilbert
space is the L^N-fold tensor product with particle 1 as the major index.  All
position and mass projectors are diagonal in the site basis, so expectation
values are computed from index masks without materializing matrices; the
projector-returning operations pass their mask to :class:`Projector`, whose
check is exact (0/1 entries), and its dense ``matrix`` serves the ABL engine.

Mass measurements adopt the no-overlap convention throughout: the projector
for "a particle of mass M alone at site x" requires every other particle to
sit elsewhere, which keeps the per-site mass projectors idempotent and
mutually orthogonal so they complete to a valid measurement family.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances
from .abl import ConditionalDistribution
from .abl import abl_evolved  # noqa: F401 - bench/tracing.py wraps nonrel.abl_evolved
from .errors import ImpossiblePostSelectionError, ValidationError
from .fields import BeableField
from .hilbert import LinearOperator, Projector, ProjectorFamily, StateVector
from .hilbert import _check_capacity, propagate

__all__ = [
    "Statistics",
    "ParticleClass",
    "ParticleSpec",
    "LatticeModel",
    "MassDistribution",
    "MassSpectrum",
    "position_projector",
    "mass_projector_at",
    "mass_projector_anywhere",
    "mass_family_at",
    "final_boundary_projector",
    "class_labels",
    "class_mass_density",
    "class_mass_distribution",
    "abl_mass_field",
    "sample_final_sites",
    "catastrophe_demo",
    "make_catastrophe_model",
    "site_product_state",
    "uniform_product_state",
    "hopping_contact_hamiltonian",
]


class Statistics(enum.Enum):
    DISTINGUISHABLE = "distinguishable"
    BOSON = "boson"
    FERMION = "fermion"


class ParticleClass(enum.Enum):
    B = "B"
    F = "F"

    def other(self) -> "ParticleClass":
        return ParticleClass.F if self is ParticleClass.B else ParticleClass.B


@dataclass(frozen=True)
class ParticleSpec:
    """Mass, exchange statistics and interaction class of one particle."""

    mass: float
    statistics: Statistics = Statistics.DISTINGUISHABLE
    particle_class: ParticleClass = ParticleClass.B

    def __post_init__(self) -> None:
        if not 0.0 < self.mass < math.inf:
            raise ValidationError(f"particle mass must be positive and finite, got {self.mass!r}")


def _site_table(sites: int, count: int) -> np.ndarray:
    """(count, sites**count) table: site of each particle in every basis state."""
    index = np.arange(sites ** count)
    return np.array([(index // sites ** (count - 1 - slot)) % sites for slot in range(count)])


def _swap_particles(amplitudes: np.ndarray, sites: int, count: int, i: int, j: int) -> np.ndarray:
    """Amplitudes with particle labels i and j (0-based) exchanged."""
    tensor = amplitudes.reshape((sites,) * count)
    return np.swapaxes(tensor, i, j).reshape(-1)


@dataclass(frozen=True, eq=False)
class LatticeModel:
    """N particles on an L-site chain with shared unitary dynamics.

    ``hamiltonian`` may be ``None`` for frozen dynamics (a zero generator)
    without materializing an L^N-dimensional zero matrix.  The initial state
    must respect exchange statistics: symmetric under swaps of any two boson
    labels, antisymmetric under swaps of any two fermion labels.
    """

    sites: int
    particles: tuple[ParticleSpec, ...]
    initial: StateVector
    hamiltonian: LinearOperator | None = None
    t_final: float = 1.0
    spacing: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "particles", tuple(self.particles))
        if self.sites < 1:
            raise ValidationError("lattice needs at least one site")
        if not self.particles:
            raise ValidationError("lattice model needs at least one particle")
        if not 0.0 < self.spacing < math.inf:
            raise ValidationError("lattice spacing must be positive and finite")
        if not 0.0 <= self.t_final < math.inf:
            raise ValidationError("final time must be nonnegative and finite")
        dim = self.sites ** len(self.particles)
        _check_capacity(dim)
        if self.initial.dim != dim:
            raise ValidationError(
                f"initial state has dim {self.initial.dim}, model needs {dim}"
            )
        if self.hamiltonian is not None and self.hamiltonian.dim != dim:
            raise ValidationError("hamiltonian dimension does not match the lattice")
        for statistics, mass_name in (
            (Statistics.BOSON, "boson"),
            (Statistics.FERMION, "fermion"),
        ):
            masses = {p.mass for p in self.particles if p.statistics is statistics}
            if len(masses) > 1:
                raise ValidationError(f"all {mass_name}s must share one mass, got {sorted(masses)}")
        self._check_exchange_symmetry()

    def _check_exchange_symmetry(self) -> None:
        count = len(self.particles)
        for statistics, sign in ((Statistics.BOSON, 1.0), (Statistics.FERMION, -1.0)):
            labels = [i for i, p in enumerate(self.particles) if p.statistics is statistics]
            for a, b in zip(labels, labels[1:]):
                swapped = _swap_particles(self.initial.amplitudes, self.sites, count, a, b)
                residue = float(np.max(np.abs(swapped - sign * self.initial.amplitudes)))
                if residue > tolerances.TOL.structural:
                    kind = statistics.value
                    raise ValidationError(
                        f"initial state breaks {kind} exchange symmetry between labels "
                        f"{a + 1} and {b + 1} (residue {residue:.3e})"
                    )

    @property
    def particle_count(self) -> int:
        return len(self.particles)

    @property
    def dim(self) -> int:
        return self.sites ** len(self.particles)

    def positions_by_particle(self) -> np.ndarray:
        """(N, dim) table: site of each particle in every basis state."""
        return _site_table(self.sites, len(self.particles))

    def evolved_state(self, t: float) -> StateVector:
        return StateVector(propagate(self.hamiltonian, self.initial.amplitudes, t))

    def site_coordinates(self) -> np.ndarray:
        return self.spacing * np.arange(self.sites, dtype=float)


@dataclass(frozen=True)
class MassDistribution:
    """Mass carried by each site, summing to the contributing particles' total."""

    site_masses: tuple[float, ...]
    expected_total: float

    def __post_init__(self) -> None:
        if any(v < -tolerances.TOL.scalar for v in self.site_masses):
            raise ValidationError("site masses must be nonnegative")
        total = 0.0
        for v in self.site_masses:
            total += v
        if abs(total - self.expected_total) > tolerances.TOL.structural:
            raise ValidationError(
                f"site masses sum to {total!r}, expected {self.expected_total!r}"
            )


@dataclass(frozen=True)
class MassSpectrum:
    """Sorted distinct single-measurement masses available to a scope."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValidationError("mass spectrum cannot be empty")
        if list(self.values) != sorted(set(self.values)):
            raise ValidationError("mass spectrum must be sorted and distinct")

    def __contains__(self, mass: float) -> bool:
        return mass in self.values


def _scope_indices(model: LatticeModel, scope: ParticleClass | None) -> list[int]:
    if scope is None:
        return list(range(model.particle_count))
    return [i for i, p in enumerate(model.particles) if p.particle_class is scope]


def class_labels(model: LatticeModel, scope: ParticleClass | None) -> tuple[int, ...]:
    """1-based particle labels belonging to ``scope`` (all particles if None)."""
    return tuple(i + 1 for i in _scope_indices(model, scope))


def mass_spectrum(model: LatticeModel, scope: ParticleClass | None = None) -> MassSpectrum:
    indices = _scope_indices(model, scope)
    if not indices:
        raise ValidationError(f"no particles in scope {scope}")
    return MassSpectrum(tuple(sorted({model.particles[i].mass for i in indices})))


def _check_particle_index(model: LatticeModel, index: int) -> int:
    if not 1 <= index <= model.particle_count:
        raise ValidationError(
            f"particle index {index} out of range 1..{model.particle_count}"
        )
    return index - 1


def _check_site(model: LatticeModel, site: int) -> int:
    if not 0 <= site < model.sites:
        raise ValidationError(f"site {site} out of range 0..{model.sites - 1}")
    return int(site)


def position_projector(model: LatticeModel, particle: int, site: int) -> Projector:
    """Projector localizing particle ``particle`` (1-based) at ``site``.

    This is ``I x ... x |site><site| x ... x I`` with the marked factor in the
    particle's slot.  For indistinguishable labels a single-label projector is
    bookkeeping only; observable quantities sum it over the identical labels,
    as :func:`class_mass_density` and :func:`mass_projector_at` do.
    """
    slot = _check_particle_index(model, particle)
    site = _check_site(model, site)
    return Projector(model.positions_by_particle()[slot] == site)


def _exclusive_mask(positions: np.ndarray, slot: int, site: int) -> np.ndarray:
    """Basis mask: particle ``slot`` at ``site`` with no other particle there."""
    at_site = positions == site
    return at_site[slot] & (at_site.sum(axis=0) == 1)


def _mass_group(model: LatticeModel, scope: ParticleClass | None, mass: float) -> list[int]:
    group = [i for i in _scope_indices(model, scope) if model.particles[i].mass == mass]
    if not group:
        raise ValidationError(f"mass {mass!r} is not in the spectrum of scope {scope}")
    return group


def _mass_at_site_mask(
    model: LatticeModel, scope: ParticleClass | None, mass: float, site: int
) -> np.ndarray:
    positions = model.positions_by_particle()
    mask = np.zeros(model.dim, dtype=bool)
    for slot in _mass_group(model, scope, mass):
        mask |= _exclusive_mask(positions, slot, site)
    return mask


def mass_projector_at(
    model: LatticeModel, scope: ParticleClass | None, mass: float, site: int
) -> Projector:
    """Projector onto "a scope particle of this mass sits alone at ``site``".

    Sums, over the scope particles carrying ``mass``, the projector that pins
    that particle at ``site`` while every other particle occupies some other
    site (the lattice no-overlap convention).  Distinct masses at the same
    site give mutually orthogonal projectors.
    """
    site = _check_site(model, site)
    return Projector(_mass_at_site_mask(model, scope, mass, site))


def mass_projector_anywhere(
    model: LatticeModel, scope: ParticleClass | None, mass: float
) -> LinearOperator:
    """Site sum of :func:`mass_projector_at` over the whole chain.

    Counts the basis states' isolated scope particles of the given mass, so it
    is idempotent only when that count never exceeds one; it is exposed for
    completeness identities and diagnostics, not as a measurement outcome.
    """
    total = np.zeros(model.dim, dtype=np.complex128)
    for site in range(model.sites):
        total += _mass_at_site_mask(model, scope, mass, site).astype(np.complex128)
    return LinearOperator(np.diag(total), hermitian=True)


def _outcome_masks(
    model: LatticeModel, scope: ParticleClass | None, site: int
) -> tuple[list[float], list[np.ndarray]]:
    """Labels and basis masks of the outcomes "which scope mass sits at ``site``".

    One mask per distinct scope mass, labelled by that mass, then the
    complement labelled 0 ("no isolated scope mass here").
    """
    site = _check_site(model, site)
    masses = mass_spectrum(model, scope).values
    masks = [_mass_at_site_mask(model, scope, mass, site) for mass in masses]
    masks.append(~np.any(masks, axis=0))
    return [*masses, 0.0], masks


def mass_family_at(
    model: LatticeModel, scope: ParticleClass | None, site: int
) -> ProjectorFamily:
    """The complete measurement family "which scope mass sits at ``site``".

    One member per distinct scope mass, labelled by that mass, plus the
    complement projector labelled 0 ("no isolated scope mass here").
    """
    labels, masks = _outcome_masks(model, scope, site)
    return ProjectorFamily([Projector(mask) for mask in masks], labels)


def _boundary_mask(
    model: LatticeModel, conditioned_class: ParticleClass | None, sites: Sequence[int]
) -> np.ndarray:
    """Basis mask pinning each conditioned particle at its site, in label order."""
    indices = _scope_indices(model, conditioned_class)
    if len(sites) != len(indices):
        raise ValidationError(
            f"need one site per conditioned particle ({len(indices)}), got {len(sites)}"
        )
    positions = model.positions_by_particle()
    mask = np.ones(model.dim, dtype=bool)
    for slot, site in zip(indices, sites):
        mask &= positions[slot] == _check_site(model, site)
    return mask


def final_boundary_projector(
    model: LatticeModel, conditioned_class: ParticleClass | None, sites: Sequence[int]
) -> Projector:
    """Product of position projectors pinning each conditioned particle.

    ``sites`` lists one site per particle of ``conditioned_class`` in label
    order (all particles when the scope is None); the projector acts as the
    identity on the other class.  An empty scope yields the identity (no
    post-selection).
    """
    return Projector(_boundary_mask(model, conditioned_class, sites))


def _particle_site_probabilities(model: LatticeModel, state: StateVector) -> np.ndarray:
    """(N, L) marginal probability of finding each particle at each site."""
    weights = np.abs(state.amplitudes) ** 2
    positions = model.positions_by_particle()
    table = np.zeros((model.particle_count, model.sites))
    for slot in range(model.particle_count):
        table[slot] = np.bincount(positions[slot], weights=weights, minlength=model.sites)
    return table


def class_mass_density(
    model: LatticeModel, scope: ParticleClass | None, site: int, t: float
) -> float:
    """Unconditioned mass density ``sum_i m_i <psi(t)|P_i^x|psi(t)>`` at a site."""
    site = _check_site(model, site)
    table = _particle_site_probabilities(model, model.evolved_state(t))
    value = 0.0
    for slot in _scope_indices(model, scope):
        value += model.particles[slot].mass * table[slot, site]
    return value


def class_mass_distribution(
    model: LatticeModel, scope: ParticleClass | None, t: float
) -> MassDistribution:
    """Whole-chain mass distribution of a scope at time ``t``."""
    table = _particle_site_probabilities(model, model.evolved_state(t))
    indices = _scope_indices(model, scope)
    sites = [
        float(sum(model.particles[slot].mass * table[slot, x] for slot in indices))
        for x in range(model.sites)
    ]
    expected = sum(model.particles[slot].mass for slot in indices)
    return MassDistribution(tuple(sites), expected)


def sample_final_sites(
    model: LatticeModel,
    conditioned_class: ParticleClass | None,
    rng: np.random.Generator | int,
) -> tuple[int, ...]:
    """Sample one final site assignment for the conditioned class.

    Enumerates every assignment of the conditioned particles to sites,
    weights each by the Born probability of its boundary projector on the
    evolved state at the final time, and draws one.  Deterministic given a
    seed or a generator state.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    psi_final = model.evolved_state(model.t_final)
    weights = np.abs(psi_final.amplitudes) ** 2
    count = len(_scope_indices(model, conditioned_class))
    assignments = list(itertools.product(range(model.sites), repeat=count))
    probabilities = np.array(
        [float(weights[_boundary_mask(model, conditioned_class, a)].sum()) for a in assignments]
    )
    probabilities = probabilities / probabilities.sum()
    choice = int(rng.choice(len(assignments), p=probabilities))
    return assignments[choice]


def abl_mass_field(
    model: LatticeModel,
    beable_class: ParticleClass | None,
    final_sites: Sequence[int],
    times: Sequence[float],
) -> BeableField:
    """Conditioned mass-density expectation field over (site, time).

    For each grid point the intermediate measurement asks which beable-class
    mass sits alone at that site, the pre-selection is the initial state and
    the post-selection pins the final sites of the *other* class (all
    particles when the beable scope is None and ``final_sites`` covers every
    label).  The field value is the mass-label expectation of the conditional
    distribution, so it lies in [0, total scope mass].

    All projectors are diagonal in the site basis, so outcome ``i`` at time
    ``t`` has the two-state-vector weight ``||P_c U(T - t) P_i psi(t)||^2``
    with ``P_i`` and ``P_c`` applied as basis masks; :func:`abl_evolved` is
    the dense cross-check.

    Raises
    ------
    ImpossiblePostSelectionError
        If the chosen final configuration has no Born weight at the final
        time, or no intermediate outcome at some grid point can lead to it.
    """
    conditioned = beable_class.other() if beable_class is not None else None
    final_mask = _boundary_mask(model, conditioned, final_sites)
    psi_final = model.evolved_state(model.t_final).amplitudes
    if float(np.sum(np.abs(psi_final[final_mask]) ** 2)) <= tolerances.TOL.branch_cutoff:
        raise ImpossiblePostSelectionError(
            f"final sites {tuple(final_sites)} carry no Born weight at t = {model.t_final}"
        )
    times = [float(t) for t in times]
    for t in times:
        if not 0.0 <= t <= model.t_final:
            raise ValidationError(f"grid time {t} outside [0, {model.t_final}]")
    outcomes = [_outcome_masks(model, beable_class, x) for x in range(model.sites)]
    labels = np.array(outcomes[0][0])
    # (dim, sites * outcomes): column x * len(labels) + i selects outcome i at site x
    branch_masks = np.array([mask for _, masks in outcomes for mask in masks]).T
    values = np.empty((len(times), model.sites))
    for ti, t in enumerate(times):
        branches = branch_masks * model.evolved_state(t).amplitudes[:, None]
        late = propagate(model.hamiltonian, branches, model.t_final - t)[final_mask]
        weights = np.sum(np.abs(late) ** 2, axis=0).reshape(model.sites, len(labels))
        totals = weights.sum(axis=1)
        if np.any(totals < tolerances.TOL.branch_cutoff):
            raise ImpossiblePostSelectionError(
                f"post-selected outcome cannot follow any intermediate outcome at t = {t}"
            )
        values[ti] = (weights / totals[:, None]) @ labels
    return BeableField(np.asarray(times), model.site_coordinates(), values)


def site_product_state(
    sites: int, particles: Sequence[ParticleSpec], occupied: Sequence[int]
) -> StateVector:
    """Product state with particle ``i`` at ``occupied[i]``, symmetrized as needed.

    Boson labels are symmetrized and fermion labels antisymmetrized over their
    respective identical groups; repeated fermion sites therefore raise (the
    antisymmetrized vector vanishes).
    """
    count = len(particles)
    if len(occupied) != count:
        raise ValidationError("need one site per particle")
    for site in occupied:
        if not 0 <= site < sites:
            raise ValidationError(f"site {site} out of range 0..{sites - 1}")
    amplitudes = np.zeros(sites ** count, dtype=np.complex128)
    groups = {
        Statistics.BOSON: [i for i, p in enumerate(particles) if p.statistics is Statistics.BOSON],
        Statistics.FERMION: [i for i, p in enumerate(particles) if p.statistics is Statistics.FERMION],
    }
    terms = [(tuple(occupied), 1.0)]
    for statistics, labels in groups.items():
        if len(labels) < 2:
            continue
        new_terms = []
        for assignment, coeff in terms:
            for perm in itertools.permutations(range(len(labels))):
                sign = 1.0
                if statistics is Statistics.FERMION:
                    sign = float(_permutation_sign(perm))
                permuted = list(assignment)
                for dst, src in zip(labels, perm):
                    permuted[dst] = assignment[labels[src]]
                new_terms.append((tuple(permuted), coeff * sign))
        terms = new_terms
    for assignment, coeff in terms:
        amplitudes[np.ravel_multi_index(assignment, (sites,) * count)] += coeff
    norm = np.linalg.norm(amplitudes)
    if norm <= tolerances.TOL.branch_cutoff:
        raise ValidationError("configuration vanishes under antisymmetrization")
    return StateVector(amplitudes / norm)


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def uniform_product_state(sites: int, count: int) -> StateVector:
    """Every particle fully delocalized: the uniform single-particle state,
    tensored ``count`` times."""
    single = np.full(sites, 1.0 / np.sqrt(sites), dtype=np.complex128)
    amplitudes = single
    for _ in range(count - 1):
        amplitudes = np.kron(amplitudes, single)
    return StateVector(amplitudes)


def hopping_contact_hamiltonian(
    sites: int,
    particles: Sequence[ParticleSpec],
    hopping: float,
    contact: float,
    periodic: bool = False,
) -> LinearOperator:
    """Nearest-neighbour hopping plus on-site B-F contact interaction.

    Each particle hops with amplitude ``-hopping`` between neighbouring sites;
    every boson-class/fermion-class pair pays energy ``contact`` when sharing
    a site.  This is the default genuinely interacting model; any explicit
    Hermitian matrix may be supplied to :class:`LatticeModel` instead.
    """
    count = len(particles)
    dim = sites ** count
    _check_capacity(dim)
    hop = np.zeros((sites, sites))
    for x in range(sites - 1):
        hop[x, x + 1] = hop[x + 1, x] = -hopping
    if periodic and sites > 2:
        hop[0, sites - 1] = hop[sites - 1, 0] = -hopping
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for slot in range(count):
        term = np.array([[1.0]])
        for other in range(count):
            term = np.kron(term, hop if other == slot else np.eye(sites))
        matrix += term
    positions = _site_table(sites, count)
    b_slots = [i for i, p in enumerate(particles) if p.particle_class is ParticleClass.B]
    f_slots = [i for i, p in enumerate(particles) if p.particle_class is ParticleClass.F]
    overlap = np.zeros(dim)
    for b in b_slots:
        for f in f_slots:
            overlap += (positions[b] == positions[f]).astype(float)
    matrix += np.diag(contact * overlap)
    return LinearOperator(matrix, hermitian=True)


def make_catastrophe_model(
    masses: Sequence[float], sites: int, t_final: float = 1.0, spacing: float = 1.0
) -> LatticeModel:
    """The engineered flat-field setup: delocalized particles, frozen dynamics.

    Every particle starts in the uniform single-particle state (a product over
    labels, hence exchange-symmetric) and nothing evolves, so the final
    boundary condition carries no information about intermediate positions.
    """
    particles = tuple(ParticleSpec(mass) for mass in masses)
    return LatticeModel(
        sites=sites,
        particles=particles,
        initial=uniform_product_state(sites, len(particles)),
        hamiltonian=None,
        t_final=t_final,
        spacing=spacing,
    )


def catastrophe_demo(
    model: LatticeModel, times: Sequence[float]
) -> list[list[ConditionalDistribution]]:
    """Mass-outcome distributions at every grid point of an uninformative run.

    Requires the engineered setup of :func:`make_catastrophe_model`: frozen
    dynamics and per-particle site marginals that are uniform, so that the
    post-selected final condition is equally likely after every intermediate
    outcome.  The conditional distribution of the isolated mass found at any
    site then collapses to multiplicity counting - each mass value gets
    (number of particles with that mass) / N - flat across all of spacetime.

    Returns one distribution per (time, site), indexed ``result[ti][x]``.
    Evaluation uses diagonal masks and plain vector sums, so models far too
    large for the dense conditional-probability engine remain cheap; the
    dense engine reproduces these numbers on small models.
    """
    if model.hamiltonian is not None and np.any(model.hamiltonian.matrix):
        raise ValidationError("flat-field demonstration requires frozen dynamics")
    state = model.initial
    marginals = _particle_site_probabilities(model, state)
    spread = float(np.max(np.abs(marginals - 1.0 / model.sites)))
    if spread > tolerances.TOL.structural:
        raise ValidationError(
            f"flat-field demonstration requires uniform site marginals (spread {spread:.3e})"
        )
    weights = np.abs(state.amplitudes) ** 2
    per_site: list[ConditionalDistribution] = []
    for site in range(model.sites):
        labels, masks = _outcome_masks(model, None, site)
        # the last outcome is the complement "no isolated mass here"
        mass_weights = [float(weights[mask].sum()) for mask in masks[:-1]]
        total = sum(mass_weights)
        if total <= tolerances.TOL.branch_cutoff:
            raise ImpossiblePostSelectionError(f"no isolated particle is ever seen at site {site}")
        per_site.append(
            ConditionalDistribution(tuple(labels[:-1]), tuple(w / total for w in mass_weights))
        )
    return [list(per_site) for _ in times]
