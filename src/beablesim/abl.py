"""Pre/post-selected conditional probabilities and their exhaustive oracle.

Given an initial (pre-selected) state, an intermediate projective measurement
and a final (post-selected) projector, this module computes the conditional
distribution of the intermediate outcome in three increasingly general forms:

* :func:`abl_basic` for a nondegenerate orthonormal outcome basis and frozen
  dynamics,
* :func:`abl_projective` for degenerate projector families via the trace form
  ``Tr(P_c P_i P_a P_i)``,
* :func:`abl_evolved` for nonzero generators, conjugating the initial and
  final projectors with the corresponding propagators.

All three are normalized ratios of nonnegative weights.  A denominator below
the branch cutoff means the post-selected outcome cannot follow any
intermediate outcome, reported as :class:`ImpossiblePostSelectionError`
because downstream final boundary conditions are only ever sampled from
outcomes of positive probability.

:func:`oracle_joint_distribution` plays the role of the independent referee:
it simulates the literal measurement sequence (evolve, Born weight, collapse,
evolve, Born weight) and returns the exact joint table, which conditions to
the same distribution the closed forms produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import ImpossiblePostSelectionError, InvariantBreachError, ValidationError
from .hilbert import (
    LinearOperator,
    Projector,
    ProjectorFamily,
    StateVector,
    _require_hermitian,
    born_probability,
    evolution_operator,
    evolve,
    luders_collapse,
    validate_projector,  # noqa: F401 - bench/tracing.py wraps abl.validate_projector
)

__all__ = [
    "ConditionalDistribution",
    "PrePostScenario",
    "JointDistribution",
    "abl_basic",
    "abl_projective",
    "abl_evolved",
    "abl_expectation",
    "measurement_branches",
    "oracle_joint_distribution",
    "random_scenario",
]


@dataclass(frozen=True)
class ConditionalDistribution:
    """Outcome labels with their conditional probabilities.

    Probabilities are clamped of tiny negative round-off and must sum to one
    within the structural tolerance.
    """

    labels: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.probabilities):
            raise ValidationError("distribution needs one probability per label")
        cleaned = []
        for p in self.probabilities:
            if p < -tolerances.TOL.scalar or p > 1.0 + tolerances.TOL.scalar:
                raise ValidationError(f"probability {p!r} outside [0, 1]")
            cleaned.append(min(max(p, 0.0), 1.0))
        object.__setattr__(self, "probabilities", tuple(cleaned))
        total = sum(self.probabilities)
        if abs(total - 1.0) > tolerances.TOL.structural:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")

    def probability_of(self, label: float) -> float:
        for known, p in zip(self.labels, self.probabilities):
            if known == label:
                return p
        raise ValidationError(f"no outcome labelled {label!r}")


def abl_expectation(distribution: ConditionalDistribution) -> float:
    """Label-weighted mean ``sum_i label_i * Pr_i`` of a distribution."""
    total = 0.0
    for label, p in zip(distribution.labels, distribution.probabilities):
        total += label * p
    return total


@dataclass(frozen=True)
class PrePostScenario:
    """The full data of a pre/post-selected intermediate measurement.

    ``initial`` is prepared at time zero, the ``intermediate`` family is
    measured at ``t_mid`` and the ``final`` projector is the post-selected
    outcome at ``t_final``, with unitary evolution generated by
    ``hamiltonian`` in between.
    """

    initial: StateVector
    intermediate: ProjectorFamily
    final: Projector
    hamiltonian: LinearOperator
    t_mid: float
    t_final: float

    def __post_init__(self) -> None:
        dim = self.initial.dim
        if self.intermediate.dim != dim or self.final.dim != dim or self.hamiltonian.dim != dim:
            raise ValidationError("scenario components must share one dimension")
        object.__setattr__(self, "final", Projector.of(self.final, what="post-selection projector"))
        _require_hermitian(self.hamiltonian)
        if not 0.0 <= self.t_mid <= self.t_final:
            raise ValidationError(
                f"measurement times must satisfy 0 <= t_mid <= t_final, got {self.t_mid}, {self.t_final}"
            )


def _weights_to_distribution(labels, weights) -> ConditionalDistribution:
    total = 0.0
    for w in weights:
        total += w
    if total < tolerances.TOL.branch_cutoff:
        raise ImpossiblePostSelectionError(
            f"post-selected outcome has total weight {total!r}; it cannot follow any intermediate outcome"
        )
    return ConditionalDistribution(tuple(labels), tuple(w / total for w in weights))


def _trace_weight(p_final: np.ndarray, member: np.ndarray, p_initial: np.ndarray) -> float:
    value = complex(np.trace(p_final @ member @ p_initial @ member))
    if abs(value.imag) > tolerances.TOL.structural:
        raise InvariantBreachError(f"conditional weight has imaginary residue {value.imag:.3e}")
    # tiny negative round-off is clamped; anything bigger is a broken projector
    if value.real < -tolerances.TOL.structural:
        raise InvariantBreachError(f"conditional weight {value.real!r} is negative")
    return max(value.real, 0.0)


def abl_projective(
    p_initial: LinearOperator, family: ProjectorFamily, p_final: LinearOperator
) -> ConditionalDistribution:
    """Conditional outcome distribution for degenerate projective measurements.

    Implements the trace form ``Pr(b_i | c, a) = Tr(P_c P_i P_a P_i) /
    sum_j Tr(P_c P_j P_a P_j)`` with frozen dynamics.  ``p_initial`` must be
    the rank-1 projector onto the pre-selected state.
    """
    p_initial = Projector.of(p_initial, what="pre-selection projector")
    p_final = Projector.of(p_final, what="post-selection projector")
    if p_initial.dim != family.dim or p_final.dim != family.dim:
        raise ValidationError("projectors and family must share one dimension")
    rank = complex(np.trace(p_initial.matrix)).real
    if abs(rank - 1.0) > tolerances.TOL.structural:
        raise ValidationError(f"pre-selection projector must be rank 1, got trace {rank!r}")
    weights = [
        _trace_weight(p_final.matrix, member.matrix, p_initial.matrix)
        for member in family.members
    ]
    return _weights_to_distribution(family.labels, weights)


def abl_basic(
    initial: StateVector, outcome_basis: list[StateVector], final: StateVector
) -> ConditionalDistribution:
    """Conditional outcome distribution over a complete nondegenerate basis.

    The weight of outcome ``i`` is ``|<c|b_i><b_i|a>|^2``; outcomes are
    labelled by their basis index.  Delegates to the shared trace engine so
    the rank-1 reduction of :func:`abl_projective` is exact by construction.
    """
    dim = initial.dim
    if final.dim != dim or any(b.dim != dim for b in outcome_basis):
        raise ValidationError("states must share one dimension")
    if len(outcome_basis) != dim:
        raise ValidationError("outcome basis must be complete")
    family = ProjectorFamily.from_basis(outcome_basis)
    return abl_projective(
        LinearOperator.projector_onto(initial), family, LinearOperator.projector_onto(final)
    )


def abl_evolved(scenario: PrePostScenario) -> ConditionalDistribution:
    """Conditional outcome distribution with nonzero generator.

    The weight of outcome ``i`` is
    ``Tr(e^{iH(T-t)} P_c e^{-iH(T-t)} P_i e^{-iHt} P_a e^{iHt} P_i)``:
    the pre-selection projector is carried forward to the measurement time and
    the post-selection projector is carried back to it.  With a zero generator
    this reduces bit-exactly to :func:`abl_projective`.
    """
    u_mid = evolution_operator(scenario.hamiltonian, scenario.t_mid)
    u_late = evolution_operator(scenario.hamiltonian, scenario.t_final - scenario.t_mid)
    p_a = LinearOperator.projector_onto(scenario.initial).matrix
    p_a_eff = u_mid.matrix @ p_a @ u_mid.matrix.conj().T
    p_c_eff = u_late.matrix.conj().T @ scenario.final.matrix @ u_late.matrix
    weights = [
        _trace_weight(p_c_eff, member.matrix, p_a_eff)
        for member in scenario.intermediate.members
    ]
    return _weights_to_distribution(scenario.intermediate.labels, weights)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint table ``Pr(b_i, c_k | a)`` from the exhaustive simulation.

    Rows follow the intermediate family, columns the final family.
    ``post_selection_index`` locates the scenario's post-selected outcome
    inside the final family.
    """

    intermediate_labels: tuple[float, ...]
    final_labels: tuple[float, ...]
    table: np.ndarray
    post_selection_index: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.table, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    def total(self) -> float:
        return float(np.sum(self.table))

    def intermediate_marginal(self) -> tuple[float, ...]:
        return tuple(float(v) for v in np.sum(self.table, axis=1))

    def condition_on_final(self, index: int) -> ConditionalDistribution:
        """Distribution of the intermediate outcome given final outcome ``index``."""
        return _weights_to_distribution(
            self.intermediate_labels, [float(v) for v in self.table[:, index]]
        )

    def condition_on_post_selection(self) -> ConditionalDistribution:
        return self.condition_on_final(self.post_selection_index)


def _locate_member(family: ProjectorFamily, projector: LinearOperator) -> int:
    for index, member in enumerate(family.members):
        if float(np.max(np.abs(member.matrix - projector.matrix))) <= tolerances.TOL.structural:
            return index
    raise ValidationError("final family does not contain the scenario's post-selection projector")


def measurement_branches(scenario: PrePostScenario) -> list[tuple[float, StateVector | None]]:
    """The literal measurement sequence: evolve, Born weight, collapse, evolve.

    Returns each intermediate outcome's Born probability with its collapsed
    state at the final time, or ``None`` for a branch at or below the cutoff.
    """
    psi_mid = evolve(scenario.hamiltonian, scenario.t_mid, scenario.initial)
    branches: list[tuple[float, StateVector | None]] = []
    for member in scenario.intermediate.members:
        p_branch = born_probability(psi_mid, member)
        if p_branch <= tolerances.TOL.branch_cutoff:
            branches.append((p_branch, None))
            continue
        collapsed = luders_collapse(psi_mid, member)
        psi_final = evolve(scenario.hamiltonian, scenario.t_final - scenario.t_mid, collapsed)
        branches.append((p_branch, psi_final))
    return branches


def oracle_joint_distribution(
    scenario: PrePostScenario, final_family: ProjectorFamily
) -> JointDistribution:
    """Exact joint distribution from the literal measurement sequence.

    Applies the Born rule for each member of ``final_family`` (which must
    contain the scenario's post-selection projector) to every branch of
    :func:`measurement_branches`; branches of numerically zero probability
    contribute all-zero rows.
    """
    if final_family.dim != scenario.initial.dim:
        raise ValidationError("final family dimension mismatch")
    pc_index = _locate_member(final_family, scenario.final)
    rows = [
        [0.0] * len(final_family)
        if psi_final is None
        else [p_branch * born_probability(psi_final, q) for q in final_family.members]
        for p_branch, psi_final in measurement_branches(scenario)
    ]
    return JointDistribution(
        scenario.intermediate.labels,
        final_family.labels,
        np.array(rows, dtype=float),
        pc_index,
    )


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_scenario(
    rng: np.random.Generator, dim: int, *, time_span: float = 4.0
) -> PrePostScenario:
    """A random validation scenario: Gaussian Hermitian generator, a random
    complete projector family with a random degeneracy pattern, a random
    initial state, a random (possibly degenerate) post-selection projector,
    and random measurement times.

    Used by the self-check sweep and the acceptance suite to exercise the
    closed forms against the exhaustive oracle.
    """
    if dim < 2:
        raise ValidationError("random scenarios need dim >= 2")
    gaussian = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    hamiltonian = LinearOperator((gaussian + gaussian.conj().T) / 2.0, hermitian=True)
    basis = _random_unitary(rng, dim)
    members: list[Projector] = []
    start = 0
    while start < dim:
        block = int(rng.integers(1, dim - start + 1))
        vecs = basis[:, start : start + block]
        members.append(Projector(vecs @ vecs.conj().T))
        start += block
    family = ProjectorFamily(members, [float(i) for i in range(len(members))])
    initial = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    final_basis = _random_unitary(rng, dim)
    final_rank = int(rng.integers(1, dim))
    final_vecs = final_basis[:, :final_rank]
    final = Projector(final_vecs @ final_vecs.conj().T)
    t_final = float(rng.uniform(0.1, time_span))
    t_mid = float(rng.uniform(0.0, t_final))
    return PrePostScenario(initial, family, final, hamiltonian, t_mid, t_final)
