"""Kernel tests: tensor products, evolution, Born rule, collapse."""

import io
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from beablesim import (
    CapacityError,
    LinearOperator,
    Projector,
    ProjectorFamily,
    StateVector,
    Tolerances,
    ValidationError,
    ZeroProbabilityBranchError,
    born_probability,
    evolve,
    evolution_operator,
    luders_collapse,
    propagate,
    tensor_product,
)
from beablesim import cli, hilbert, tolerances

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ket(*amps):
    return StateVector.normalized(np.array(amps, dtype=complex))


def dense(mask):
    return np.diag(mask.astype(complex))


def random_state(rng, dim):
    return StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return LinearOperator((g + g.conj().T) / 2, hermitian=True)


def random_family(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    members, labels, start = [], [], 0
    while start < dim:
        block = int(rng.integers(1, dim - start + 1))
        vecs = q[:, start : start + block]
        members.append(LinearOperator(vecs @ vecs.conj().T, hermitian=True))
        labels.append(float(len(labels)))
        start += block
    return ProjectorFamily(members, labels)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            StateVector([1.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            StateVector([])

    def test_basis_state(self):
        assert StateVector.basis_state(3, 1).amplitudes[1] == 1.0

    def test_amplitudes_frozen(self):
        state = StateVector.basis_state(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestLinearOperator:
    def test_hermitian_flag_checked(self):
        with pytest.raises(ValidationError):
            LinearOperator([[0, 1], [0, 0]], hermitian=True)

    def test_unitary_flag_checked(self):
        with pytest.raises(ValidationError):
            LinearOperator([[1, 0], [0, 2]], unitary=True)

    def test_projector_onto_requires_orthonormal(self):
        plus = ket(1, 1)
        with pytest.raises(ValidationError):
            LinearOperator.projector_onto(plus, plus)


class TestProjector:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError, match="not idempotent"):
            Projector(2 * np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            Projector([[1, 1], [0, 0]])

    def test_of_passes_a_projector_through_and_validates_anything_else(self):
        p0 = LinearOperator.projector_onto(StateVector.basis_state(2, 0))
        assert isinstance(p0, Projector) and p0.hermitian
        assert Projector.of(p0) is p0
        plain = Projector.of(LinearOperator(p0.matrix))
        assert isinstance(plain, Projector)
        assert np.array_equal(plain.matrix, p0.matrix)
        with pytest.raises(ValidationError, match="Born-rule projector"):
            Projector.of(LinearOperator(2 * np.eye(2)), what="Born-rule projector")

    def test_validated_once_when_built(self, monkeypatch):
        calls = []
        original = hilbert.validate_projector

        def counting(op, *, what="operator"):
            calls.append(what)
            return original(op, what=what)

        monkeypatch.setattr(hilbert, "validate_projector", counting)
        plus = ket(1, 1)
        built = LinearOperator.projector_onto(StateVector.basis_state(2, 0))
        assert len(calls) == 1
        born_probability(plus, built)
        luders_collapse(plus, built)
        assert len(calls) == 1
        plain = LinearOperator(built.matrix)
        born_probability(plus, plain)
        assert len(calls) == 2
        luders_collapse(plus, plain)
        assert len(calls) == 3

    @pytest.mark.parametrize("build", [np.asarray, dense], ids=["mask", "dense"])
    @pytest.mark.parametrize("entry", [2.0, 0.5, -1.0])
    def test_rejects_a_diagonal_entry_other_than_0_or_1(self, build, entry):
        with pytest.raises(ValidationError):
            Projector(build(np.array([1.0, entry, 0.0])))

    def test_mask_is_its_diagonal(self):
        projector = Projector(np.array([True, False, True]))
        assert projector.mask.tolist() == [True, False, True]
        assert np.array_equal(projector.matrix, np.diag([1.0, 0.0, 1.0]).astype(complex))
        assert projector.hermitian
        assert Projector(projector.matrix).mask is None


class TestTensorProduct:
    def test_basis_kron(self):
        zero = StateVector.basis_state(2, 0)
        product = tensor_product(zero, zero)
        assert np.array_equal(product.amplitudes, [1, 0, 0, 0])

    def test_identity_case(self):
        eye2 = LinearOperator.identity(2)
        assert np.array_equal(tensor_product(eye2, eye2).matrix, np.eye(4))

    def test_sigma_x_on_first_qubit(self):
        # oracle: direct 4x4 matrix-vector multiply
        op = tensor_product(LinearOperator(SIGMA_X, hermitian=True), LinearOperator.identity(2))
        zero = StateVector.basis_state(2, 0)
        state = tensor_product(zero, zero)
        expected = np.kron(SIGMA_X, np.eye(2)) @ state.amplitudes
        assert np.allclose(op.apply(state), expected)
        assert np.allclose(op.apply(state), StateVector.basis_state(4, 2).amplitudes)

    def test_capacity_cap(self):
        big = StateVector.normalized(np.ones(2 ** 11))
        with pytest.raises(CapacityError):
            tensor_product(big, big)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValidationError):
            tensor_product(StateVector.basis_state(2, 0), LinearOperator.identity(2))

    def test_projector_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_family(rng, 3).members[0]
            q = random_family(rng, 2).members[0]
            product = tensor_product(p, q)
            assert np.max(np.abs(product.matrix @ product.matrix - product.matrix)) <= 1e-10
            assert np.max(np.abs(product.matrix - product.matrix.conj().T)) <= 1e-12


class TestEvolve:
    def test_zero_hamiltonian(self):
        psi = ket(0.3, 0.4 + 0.5j)
        assert evolve(LinearOperator.zero(2), 1.7, psi) is psi

    def test_against_scaled_and_squared_exponential(self):
        # oracle: scipy's scaling-and-squaring matrix exponential
        plus = ket(1, 1)
        h = LinearOperator(SIGMA_Z, hermitian=True)
        ours = evolve(h, np.pi, plus).amplitudes
        oracle = scipy.linalg.expm(-1j * np.pi * SIGMA_Z) @ plus.amplitudes
        assert np.max(np.abs(ours - oracle)) <= 1e-12
        # e^{-i pi sigma_z}|+> = -|+> up to the computed global phase
        overlap = abs(np.vdot(ours, plus.amplitudes))
        assert abs(overlap - 1.0) <= 1e-12

    @given(st.integers(0, 10 ** 6), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_reversibility(self, seed, dim):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        t = float(rng.uniform(-3, 3))
        back = evolve(h, -t, evolve(h, t, psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-10

    @given(st.integers(0, 10 ** 6), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_inner_product_preserved(self, seed, dim):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        psi, phi = random_state(rng, dim), random_state(rng, dim)
        t = float(rng.uniform(0, 4))
        before = phi.inner(psi)
        after = evolve(h, t, phi).inner(evolve(h, t, psi))
        assert abs(after - before) <= 1e-10

    def test_non_hermitian_rejected(self):
        h = LinearOperator([[0, 1], [0, 0]])
        with pytest.raises(ValidationError):
            evolve(h, 1.0, StateVector.basis_state(2, 0))

    def test_evolve_diagonalizes_the_generator_once(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counting(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        evolve(h, 0.3, psi)
        evolve(h, 1.1, psi)
        evolution_operator(h, 0.7)
        assert calls == [(4, 4)]

    def test_evolution_operator_matches_evolve(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 5)
        psi = random_state(rng, 5)
        u = evolution_operator(h, 0.9)
        assert u.unitary
        assert np.max(np.abs(u.apply(psi) - evolve(h, 0.9, psi).amplitudes)) <= 1e-12


class TestPropagate:
    def test_exact_shortcuts_return_the_input_itself(self):
        rng = np.random.default_rng(17)
        vectors = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        h = random_hermitian(rng, 3)
        assert propagate(None, vectors, 1.3) is vectors
        assert propagate(LinearOperator.zero(3), vectors, 1.3) is vectors
        assert propagate(h, vectors, 0.0) is vectors

    def test_batch_equals_columns(self):
        rng = np.random.default_rng(19)
        h = random_hermitian(rng, 5)
        batch = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        together = propagate(h, batch, 0.8)
        for k in range(batch.shape[1]):
            alone = propagate(h, batch[:, k], 0.8)
            assert np.max(np.abs(together[:, k] - alone)) <= 1e-14
            oracle = scipy.linalg.expm(-0.8j * h.matrix) @ batch[:, k]
            assert np.max(np.abs(alone - oracle)) <= 1e-12


class TestBornProbability:
    def test_identity_projector(self):
        assert born_probability(ket(0.6, 0.8j), LinearOperator.identity(2)) == 1.0

    def test_orthogonal_outcome(self):
        p1 = LinearOperator.projector_onto(StateVector.basis_state(2, 1))
        assert born_probability(StateVector.basis_state(2, 0), p1) == 0.0

    def test_half_overlap(self):
        # oracle: direct inner product |<0|+>|^2
        plus = ket(1, 1)
        p0 = LinearOperator.projector_onto(StateVector.basis_state(2, 0))
        expected = abs(np.vdot(StateVector.basis_state(2, 0).amplitudes, plus.amplitudes)) ** 2
        assert abs(born_probability(plus, p0) - expected) <= 1e-15
        assert abs(born_probability(plus, p0) - 0.5) <= 1e-15

    def test_rejects_non_projector(self):
        with pytest.raises(ValidationError):
            born_probability(ket(1, 0), LinearOperator(2 * np.eye(2)))

    @given(st.integers(0, 10 ** 6), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_total_probability_over_family(self, seed, dim):
        rng = np.random.default_rng(seed)
        family = random_family(rng, dim)
        psi = random_state(rng, dim)
        total = sum(born_probability(psi, member) for member in family.members)
        assert abs(total - 1.0) <= 1e-10


class TestLudersCollapse:
    def test_eigenstate_fixed_point(self):
        zero = StateVector.basis_state(2, 0)
        collapsed = luders_collapse(zero, LinearOperator.projector_onto(zero))
        assert np.max(np.abs(collapsed.amplitudes - zero.amplitudes)) <= 1e-15

    def test_rank_one_projection(self):
        plus = ket(1, 1)
        zero = StateVector.basis_state(2, 0)
        collapsed = luders_collapse(plus, LinearOperator.projector_onto(zero))
        assert abs(abs(collapsed.inner(zero)) - 1.0) <= 1e-12

    def test_normalize_after_project_oracle(self):
        psi = ket(1, 1, 1, 0)  # (|00> + |01> + |10>)/sqrt(3)
        p = tensor_product(
            LinearOperator.projector_onto(StateVector.basis_state(2, 0)),
            LinearOperator.identity(2),
        )
        collapsed = luders_collapse(psi, p)
        raw = p.matrix @ psi.amplitudes
        oracle = raw / np.linalg.norm(raw)
        assert np.max(np.abs(collapsed.amplitudes - oracle)) <= 1e-15
        assert np.allclose(collapsed.amplitudes, np.array([1, 1, 0, 0]) / np.sqrt(2))

    def test_zero_probability_branch(self):
        zero = StateVector.basis_state(2, 0)
        p1 = LinearOperator.projector_onto(StateVector.basis_state(2, 1))
        with pytest.raises(ZeroProbabilityBranchError):
            luders_collapse(zero, p1)

    @given(st.integers(0, 10 ** 6), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed, dim):
        rng = np.random.default_rng(seed)
        family = random_family(rng, dim)
        psi = random_state(rng, dim)
        member = family.members[0]
        if born_probability(psi, member) <= 1e-6:
            return
        once = luders_collapse(psi, member)
        twice = luders_collapse(once, member)
        assert np.max(np.abs(twice.amplitudes - once.amplitudes)) <= 1e-12


class TestProjectorFamily:
    def test_incomplete_family_rejected(self):
        p0 = LinearOperator.projector_onto(StateVector.basis_state(3, 0))
        p1 = LinearOperator.projector_onto(StateVector.basis_state(3, 1))
        with pytest.raises(ValidationError):
            ProjectorFamily([p0, p1], [0.0, 1.0])

    def test_non_orthogonal_rejected(self):
        p0 = LinearOperator.projector_onto(StateVector.basis_state(2, 0))
        plus = LinearOperator.projector_onto(ket(1, 1))
        with pytest.raises(ValidationError):
            ProjectorFamily([p0, plus], [0.0, 1.0])

    @pytest.mark.parametrize("build", [np.asarray, dense], ids=["mask", "dense"])
    @pytest.mark.parametrize(
        "masks, valid",
        [
            ([[1, 0, 0, 1], [0, 1, 1, 0]], True),
            ([[1, 1, 0, 0], [0, 1, 1, 1]], False),
            ([[1, 0, 0, 0], [0, 1, 1, 0]], False),
        ],
        ids=["partition", "overlap", "uncovered"],
    )
    def test_mask_family_accepted_and_rejected_as_its_dense_form(self, build, masks, valid):
        members = [Projector(build(np.array(mask, dtype=bool))) for mask in masks]
        if valid:
            assert len(ProjectorFamily(members, [1.0, 2.0])) == 2
        else:
            with pytest.raises(ValidationError):
                ProjectorFamily(members, [1.0, 2.0])

    def test_two_outcome(self):
        p0 = LinearOperator.projector_onto(StateVector.basis_state(2, 0))
        family = ProjectorFamily.two_outcome(p0)
        assert len(family) == 2
        assert family.labels == (1.0, 0.0)


def test_tolerance_record_defaults():
    assert tolerances.TOL == Tolerances()
    assert tolerances.TOL.structural == 1e-10
    assert tolerances.TOL.scalar == 1e-12
    assert tolerances.TOL.branch_cutoff == 1e-14
    assert tolerances.TOL.dimension_cap == 2 ** 20


def test_lattice_run_builds_mask_projectors_without_dense_validation(tmp_path, monkeypatch):
    # dim 64: the oracle-agreement referee builds one mass family per site and
    # one final family, all from site masks, so no dense P@P check runs
    validations, families = [], []
    original_validate = hilbert.validate_projector
    original_family = ProjectorFamily.__init__

    def counting_validate(op, *, what="operator"):
        validations.append(what)
        return original_validate(op, what=what)

    def counting_family(self, members, labels):
        families.append(len(members))
        return original_family(self, members, labels)

    monkeypatch.setattr(hilbert, "validate_projector", counting_validate)
    monkeypatch.setattr(ProjectorFamily, "__init__", counting_family)
    sites = 4
    config = {
        "schema": 1,
        "kind": "nonrel-nparticle",
        "seed": 3,
        "grid": {"t_steps": 9},
        "parameters": {
            "sites": sites,
            "particles": [{"mass": 1.0}, {"mass": 2.0}, {"mass": 3.0}],
            "initial": {"type": "sites", "sites": [0, 2, 3]},
            "hamiltonian": {"type": "hopping-contact", "hopping": 1.0, "contact": 0.5},
            "t_final": 1.5,
        },
        "output": {"prefix": str(tmp_path / "dim64"), "format": "json"},
    }
    path = tmp_path / "dim64.json"
    path.write_text(json.dumps(config))
    assert cli.run(str(path), stderr=io.StringIO()) == 0
    report = json.loads((tmp_path / "dim64_report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["field-range", "oracle-agreement"]
    assert all(c["passed"] for c in report["checks"])
    assert validations == []
    assert len(families) == sites + 1
