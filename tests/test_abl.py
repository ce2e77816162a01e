"""Conditional-probability engine tests against hand values and the oracle."""

import numpy as np
import pytest

from beablesim import (
    ConditionalDistribution,
    ImpossiblePostSelectionError,
    LinearOperator,
    PrePostScenario,
    ProjectorFamily,
    StateVector,
    ValidationError,
    abl_basic,
    abl_evolved,
    abl_expectation,
    abl_projective,
    born_probability,
    evolve,
    luders_collapse,
    oracle_joint_distribution,
    tensor_product,
)
from beablesim.abl import random_scenario
from beablesim.cli import _monte_carlo_frequencies


def ket(*amps):
    return StateVector.normalized(np.array(amps, dtype=complex))


def rank1(state):
    return LinearOperator.projector_onto(state)


def basic_formula_oracle(initial, basis, final):
    """Direct evaluation of |<c|b_i><b_i|a>|^2 / sum_j, independent of the engine."""
    weights = [
        abs(final.inner(b) * b.inner(initial)) ** 2 for b in basis
    ]
    total = sum(weights)
    return [w / total for w in weights]


class TestConditionalDistribution:
    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            ConditionalDistribution((0.0, 1.0), (0.5, 0.4))

    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            ConditionalDistribution((0.0, 1.0), (1.5, -0.5))

    def test_tiny_negative_clamped(self):
        d = ConditionalDistribution((0.0, 1.0), (1.0 + 1e-14, -1e-14))
        assert d.probabilities == (1.0, 0.0)

    def test_expectation(self):
        assert abl_expectation(ConditionalDistribution((5.0,), (1.0,))) == 5.0
        assert abl_expectation(ConditionalDistribution((0.0, 1.0), (0.5, 0.5))) == 0.5

    def test_expectation_matches_dot_product(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4))
        labels = tuple(float(v) for v in rng.uniform(0, 5, size=4))
        d = ConditionalDistribution(labels, tuple(probs))
        assert abs(abl_expectation(d) - float(np.dot(labels, d.probabilities))) <= 1e-15


class TestAblBasic:
    def test_same_basis_state(self):
        zero, one = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
        d = abl_basic(zero, [zero, one], zero)
        assert d.probabilities == (1.0, 0.0)

    def test_worked_qubit_case(self):
        zero, one = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
        plus, minus = ket(1, 1), ket(1, -1)
        d = abl_basic(zero, [plus, minus], one)
        assert abs(d.probabilities[0] - 0.5) <= 1e-12
        assert abs(d.probabilities[1] - 0.5) <= 1e-12

    def test_orthogonality_kills_branch(self):
        zero, one = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
        d = abl_basic(zero, [zero, one], ket(1, 1))
        assert d.probabilities == (1.0, 0.0)

    def test_against_direct_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            basis = [StateVector(q[:, i]) for i in range(dim)]
            a = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            c = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            got = abl_basic(a, basis, c).probabilities
            want = basic_formula_oracle(a, basis, c)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12

    def test_impossible_post_selection(self):
        zero, one = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
        with pytest.raises(ImpossiblePostSelectionError):
            abl_basic(zero, [zero, one], one)

    def test_incomplete_basis_rejected(self):
        zero = StateVector.basis_state(3, 0)
        one = StateVector.basis_state(3, 1)
        with pytest.raises(ValidationError):
            abl_basic(zero, [zero, one], one)


class TestAblProjective:
    def test_single_trivial_outcome(self):
        family = ProjectorFamily([LinearOperator.identity(3)], [7.0])
        d = abl_projective(rank1(StateVector.basis_state(3, 0)), family, LinearOperator.identity(3))
        assert d.probabilities == (1.0,)

    def test_rank1_families_reduce_to_basic_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            basis = [StateVector(q[:, i]) for i in range(dim)]
            a = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            c = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            family = ProjectorFamily.from_basis(basis)
            via_traces = abl_projective(rank1(a), family, rank1(c))
            via_basic = abl_basic(a, basis, c)
            assert via_traces.probabilities == via_basic.probabilities

    def test_degenerate_parity_case_matches_oracle(self):
        zero, one = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
        zz = tensor_product(zero, zero)
        plus = ket(1, 1)
        pp = tensor_product(plus, plus)
        even = LinearOperator.projector_onto(tensor_product(zero, zero), tensor_product(one, one))
        odd = LinearOperator.projector_onto(tensor_product(zero, one), tensor_product(one, zero))
        family = ProjectorFamily([even, odd], [1.0, -1.0])
        p_c = rank1(pp)
        d = abl_projective(rank1(zz), family, p_c)
        scenario = PrePostScenario(zz, family, p_c, LinearOperator.zero(4), 0.5, 1.0)
        oracle = oracle_joint_distribution(scenario, ProjectorFamily.two_outcome(p_c))
        want = oracle.condition_on_post_selection()
        assert max(
            abs(p - q) for p, q in zip(d.probabilities, want.probabilities)
        ) <= 1e-12

    def test_requires_rank_one_preselection(self):
        zero, one = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
        family = ProjectorFamily.from_basis([zero, one])
        with pytest.raises(ValidationError):
            abl_projective(LinearOperator.identity(2), family, rank1(zero))


def random_zero_h_instance(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    members, labels, start = [], [], 0
    while start < dim:
        block = int(rng.integers(1, dim - start + 1))
        vecs = q[:, start : start + block]
        members.append(LinearOperator(vecs @ vecs.conj().T, hermitian=True))
        labels.append(float(len(labels)))
        start += block
    family = ProjectorFamily(members, labels)
    a = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    c = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return a, family, c


class TestAblEvolved:
    def test_zero_hamiltonian_reduction_is_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            a, family, c = random_zero_h_instance(rng, dim)
            scenario = PrePostScenario(a, family, rank1(c), LinearOperator.zero(dim), 0.3, 1.0)
            evolved = abl_evolved(scenario)
            frozen = abl_projective(rank1(a), family, rank1(c))
            assert evolved.probabilities == frozen.probabilities

    def test_trivial_post_selection_gives_born_weights(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            scenario = random_scenario(rng, int(rng.integers(2, 8)))
            trivial = PrePostScenario(
                scenario.initial,
                scenario.intermediate,
                LinearOperator.identity(scenario.initial.dim),
                scenario.hamiltonian,
                scenario.t_mid,
                scenario.t_final,
            )
            d = abl_evolved(trivial)
            psi_mid = evolve(scenario.hamiltonian, scenario.t_mid, scenario.initial)
            born = [born_probability(psi_mid, m) for m in scenario.intermediate.members]
            assert max(abs(p - b) for p, b in zip(d.probabilities, born)) <= 1e-12

    def test_matches_oracle_on_random_scenarios(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 60:
            scenario = random_scenario(rng, int(rng.integers(2, 10)))
            joint = oracle_joint_distribution(scenario, ProjectorFamily.two_outcome(scenario.final))
            try:
                want = joint.condition_on_post_selection()
            except ImpossiblePostSelectionError:
                continue
            got = abl_evolved(scenario)
            assert max(
                abs(p - q) for p, q in zip(got.probabilities, want.probabilities)
            ) <= 1e-10
            checked += 1

    def test_time_translation_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            scenario = random_scenario(rng, int(rng.integers(2, 7)))
            shift = float(rng.uniform(0.1, 2.0))
            shifted_initial = evolve(scenario.hamiltonian, -shift, scenario.initial)
            shifted = PrePostScenario(
                shifted_initial,
                scenario.intermediate,
                scenario.final,
                scenario.hamiltonian,
                scenario.t_mid + shift,
                scenario.t_final + shift,
            )
            base = abl_evolved(scenario)
            moved = abl_evolved(shifted)
            assert max(
                abs(p - q) for p, q in zip(base.probabilities, moved.probabilities)
            ) <= 1e-10

    def test_final_must_be_a_projector(self):
        zero, one = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
        family = ProjectorFamily.from_basis([zero, one])
        for final in ([[1, 1], [0, 0]], [[0.5, 0], [0, 0]]):
            with pytest.raises(ValidationError, match="post-selection projector"):
                PrePostScenario(zero, family, LinearOperator(final), LinearOperator.zero(2), 0.5, 1.0)

    def test_time_ordering_validated(self):
        zero, one = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
        family = ProjectorFamily.from_basis([zero, one])
        with pytest.raises(ValidationError):
            PrePostScenario(zero, family, rank1(zero), LinearOperator.zero(2), 2.0, 1.0)


class TestTraceFormIdentity:
    def test_weight_equals_collapse_chain(self):
        # Tr(P_c P_i P_a P_i) must equal Pr(c|b_i) * Pr(b_i|a) computed by
        # explicit Born weights and collapse, for every degeneracy pattern.
        rng = np.random.default_rng(37)
        for _ in range(40):
            dim = int(rng.integers(2, 8))
            a, family, c = random_zero_h_instance(rng, dim)
            p_a, p_c = rank1(a), rank1(c)
            for member in family.members:
                trace = float(
                    np.trace(p_c.matrix @ member.matrix @ p_a.matrix @ member.matrix).real
                )
                pr_b = born_probability(a, member)
                if pr_b <= 1e-12:
                    assert abs(trace) <= 1e-12
                    continue
                collapsed = luders_collapse(a, member)
                pr_c_given_b = born_probability(collapsed, p_c)
                assert abs(trace - pr_c_given_b * pr_b) <= 1e-12


class TestOracle:
    def test_marginal_is_evolved_born_weights(self):
        rng = np.random.default_rng(41)
        scenario = random_scenario(rng, 6)
        joint = oracle_joint_distribution(scenario, ProjectorFamily.two_outcome(scenario.final))
        psi_mid = evolve(scenario.hamiltonian, scenario.t_mid, scenario.initial)
        born = [born_probability(psi_mid, m) for m in scenario.intermediate.members]
        marginal = joint.intermediate_marginal()
        assert max(abs(p - b) for p, b in zip(marginal, born)) <= 1e-10

    def test_table_sums_to_one(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            scenario = random_scenario(rng, int(rng.integers(2, 8)))
            joint = oracle_joint_distribution(scenario, ProjectorFamily.two_outcome(scenario.final))
            assert abs(joint.total() - 1.0) <= 1e-10

    def test_engines_share_one_diagonalization(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counting(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rng = np.random.default_rng(53)
        scenario = random_scenario(rng, 5)
        abl_evolved(scenario)
        oracle_joint_distribution(scenario, ProjectorFamily.two_outcome(scenario.final))
        _monte_carlo_frequencies(scenario, 1000, rng)
        assert calls == [(5, 5)]

    def test_final_family_must_contain_post_selection(self):
        rng = np.random.default_rng(47)
        scenario = random_scenario(rng, 4)
        other = LinearOperator.projector_onto(StateVector.basis_state(4, 0))
        with pytest.raises(ValidationError):
            oracle_joint_distribution(scenario, ProjectorFamily.two_outcome(other))
