"""Lattice-model tests: projector algebra, densities, conditioned fields."""

import numpy as np
import pytest

from beablesim import (
    ImpossiblePostSelectionError,
    LatticeModel,
    LinearOperator,
    ParticleClass,
    ParticleSpec,
    PrePostScenario,
    ProjectorFamily,
    StateVector,
    Statistics,
    ValidationError,
    abl_evolved,
    abl_expectation,
    abl_mass_field,
    catastrophe_demo,
    class_mass_density,
    class_mass_distribution,
    final_boundary_projector,
    hopping_contact_hamiltonian,
    make_catastrophe_model,
    mass_family_at,
    mass_projector_anywhere,
    mass_projector_at,
    oracle_joint_distribution,
    position_projector,
    sample_final_sites,
    site_product_state,
    uniform_product_state,
)
from beablesim.nonrel import class_labels, mass_spectrum

BOSON = ParticleSpec(1.0, Statistics.BOSON, ParticleClass.B)
FERMION = ParticleSpec(2.0, Statistics.FERMION, ParticleClass.F)


def two_particle_model(sites=3, masses=(1.0, 2.0), t_final=1.0, hamiltonian=None, initial=None):
    particles = tuple(ParticleSpec(m) for m in masses)
    if initial is None:
        initial = site_product_state(sites, particles, [0, sites - 1])
    return LatticeModel(
        sites=sites, particles=particles, initial=initial,
        hamiltonian=hamiltonian, t_final=t_final,
    )


def interacting_bf_model(t_final=2.0, hopping=1.0, contact=2.0):
    particles = (BOSON, FERMION)
    h = hopping_contact_hamiltonian(4, particles, hopping=hopping, contact=contact)
    initial = site_product_state(4, particles, [0, 3])
    return LatticeModel(sites=4, particles=particles, initial=initial,
                        hamiltonian=h, t_final=t_final)


class TestPositionProjector:
    def test_single_particle_reduction(self):
        model = LatticeModel(
            sites=2, particles=(ParticleSpec(1.0),),
            initial=StateVector.basis_state(2, 0),
        )
        p = position_projector(model, 1, 0)
        assert np.array_equal(p.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_orthogonal_sites(self):
        model = two_particle_model()
        p_x = position_projector(model, 1, 0)
        p_y = position_projector(model, 1, 2)
        assert np.max(np.abs((p_x @ p_y).matrix)) == 0.0

    def test_all_pairwise_commutators_vanish(self):
        model = two_particle_model(sites=3)
        projectors = [
            position_projector(model, i, x)
            for i in (1, 2)
            for x in range(3)
        ]
        for p in projectors:
            for q in projectors:
                comm = p.matrix @ q.matrix - q.matrix @ p.matrix
                assert np.max(np.abs(comm)) <= 1e-12

    def test_index_validation(self):
        model = two_particle_model()
        with pytest.raises(ValidationError):
            position_projector(model, 0, 0)
        with pytest.raises(ValidationError):
            position_projector(model, 1, 3)


class TestMassProjectors:
    def test_single_particle_equals_position_projector(self):
        model = LatticeModel(
            sites=3, particles=(ParticleSpec(1.5),),
            initial=StateVector.basis_state(3, 1),
        )
        at = mass_projector_at(model, None, 1.5, 2)
        assert np.array_equal(at.matrix, position_projector(model, 1, 2).matrix)

    def test_distinct_masses_orthogonal_at_a_site(self):
        model = two_particle_model(masses=(1.0, 2.0))
        p1 = mass_projector_at(model, None, 1.0, 1)
        p2 = mass_projector_at(model, None, 2.0, 1)
        assert np.max(np.abs((p1 @ p2).matrix)) <= 1e-12

    def test_site_sum_equals_anywhere(self):
        model = two_particle_model(masses=(1.0, 2.0))
        total = sum(
            mass_projector_at(model, None, 1.0, x).matrix for x in range(model.sites)
        )
        anywhere = mass_projector_anywhere(model, None, 1.0)
        assert np.max(np.abs(total - anywhere.matrix)) == 0.0

    def test_unknown_mass_rejected(self):
        model = two_particle_model(masses=(1.0, 2.0))
        with pytest.raises(ValidationError):
            mass_projector_at(model, None, 3.0, 0)

    def test_family_completes_to_identity(self):
        model = two_particle_model(masses=(1.0, 1.0))
        for x in range(model.sites):
            family = mass_family_at(model, None, x)
            total = sum(m.matrix for m in family.members)
            assert np.max(np.abs(total - np.eye(model.dim))) <= 1e-10
            assert family.labels[-1] == 0.0

    def test_combined_mass_projector_special_case(self):
        # N = 2 fixture: both particles localized at the same site carries the
        # combined mass; it is a projector orthogonal to each isolated-mass
        # projector at that site.
        model = two_particle_model(sites=3, masses=(1.0, 2.0))
        x = 1
        both = position_projector(model, 1, x) @ position_projector(model, 2, x)
        assert np.max(np.abs(both.matrix @ both.matrix - both.matrix)) <= 1e-12
        for mass in (1.0, 2.0):
            isolated = mass_projector_at(model, None, mass, x)
            assert np.max(np.abs((both @ isolated).matrix)) <= 1e-12


class TestFinalBoundaryProjector:
    def test_full_assignment_is_rank_one(self):
        model = two_particle_model(sites=3)
        p = final_boundary_projector(model, None, (0, 2))
        assert abs(complex(np.trace(p.matrix)).real - 1.0) <= 1e-12

    def test_empty_scope_is_identity(self):
        particles = (BOSON, FERMION)
        model = LatticeModel(
            sites=2, particles=particles,
            initial=site_product_state(2, particles, [0, 1]),
        )
        bosons_only = LatticeModel(
            sites=2, particles=(BOSON,), initial=StateVector.basis_state(2, 0),
        )
        p = final_boundary_projector(bosons_only, ParticleClass.F, ())
        assert np.array_equal(p.matrix, np.eye(2))

    def test_matches_hand_built_kronecker(self):
        # 2 + 1 particle model: pin particles 1 and 3, identity on particle 2
        particles = (ParticleSpec(1.0), ParticleSpec(2.0), ParticleSpec(3.0))
        model = LatticeModel(
            sites=2, particles=particles,
            initial=site_product_state(2, particles, [0, 1, 0]),
        )
        ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
        ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
        hand = np.kron(np.kron(ket0, np.eye(2)), ket1)
        f_class_model = LatticeModel(
            sites=2,
            particles=(
                ParticleSpec(1.0, particle_class=ParticleClass.F),
                ParticleSpec(2.0, particle_class=ParticleClass.B),
                ParticleSpec(3.0, particle_class=ParticleClass.F),
            ),
            initial=site_product_state(2, particles, [0, 1, 0]),
        )
        p = final_boundary_projector(f_class_model, ParticleClass.F, (0, 1))
        assert np.max(np.abs(p.matrix - hand)) == 0.0

    def test_wrong_arity_rejected(self):
        model = two_particle_model()
        with pytest.raises(ValidationError):
            final_boundary_projector(model, None, (0,))


class TestClassMassDensity:
    def test_localized_particle(self):
        model = LatticeModel(
            sites=4, particles=(ParticleSpec(1.5),),
            initial=StateVector.basis_state(4, 2),
        )
        densities = [class_mass_density(model, None, x, 0.0) for x in range(4)]
        assert densities == [0.0, 0.0, 1.5, 0.0]

    def test_uniform_state(self):
        model = LatticeModel(
            sites=5, particles=(ParticleSpec(2.0),),
            initial=uniform_product_state(5, 1),
        )
        for x in range(5):
            assert abs(class_mass_density(model, None, x, 0.0) - 2.0 / 5) <= 1e-12

    def test_entangled_pair_against_amplitude_oracle(self):
        # brute-force marginal: sum |psi[x1, x2]|^2 over the other particle
        particles = (ParticleSpec(1.0), ParticleSpec(2.0))
        amps = np.zeros(9, dtype=complex)
        amps[0 * 3 + 1] = 1.0  # |0,1>
        amps[2 * 3 + 0] = 1.0j  # |2,0>
        amps /= np.linalg.norm(amps)
        model = LatticeModel(sites=3, particles=particles, initial=StateVector(amps))
        grid = amps.reshape(3, 3)
        for x in range(3):
            marginal_1 = float(np.sum(np.abs(grid[x, :]) ** 2))
            marginal_2 = float(np.sum(np.abs(grid[:, x]) ** 2))
            want = 1.0 * marginal_1 + 2.0 * marginal_2
            assert abs(class_mass_density(model, None, x, 0.0) - want) <= 1e-12

    def test_mass_conserved_under_evolution(self):
        model = interacting_bf_model()
        for t in np.linspace(0.0, model.t_final, 7):
            dist = class_mass_distribution(model, None, float(t))
            assert abs(sum(dist.site_masses) - 3.0) <= 1e-10

    def test_class_scoping(self):
        model = interacting_bf_model()
        total_b = sum(class_mass_density(model, ParticleClass.B, x, 0.7) for x in range(4))
        total_f = sum(class_mass_density(model, ParticleClass.F, x, 0.7) for x in range(4))
        assert abs(total_b - 1.0) <= 1e-10
        assert abs(total_f - 2.0) <= 1e-10


class TestExchangeStatistics:
    def test_boson_symmetrization(self):
        particles = (BOSON, ParticleSpec(1.0, Statistics.BOSON, ParticleClass.B))
        state = site_product_state(3, particles, [0, 2])
        grid = state.amplitudes.reshape(3, 3)
        assert abs(grid[0, 2] - grid[2, 0]) <= 1e-15
        assert abs(abs(grid[0, 2]) - 1 / np.sqrt(2)) <= 1e-12

    def test_fermion_antisymmetrization(self):
        particles = (FERMION, ParticleSpec(2.0, Statistics.FERMION, ParticleClass.F))
        state = site_product_state(3, particles, [0, 2])
        grid = state.amplitudes.reshape(3, 3)
        assert abs(grid[0, 2] + grid[2, 0]) <= 1e-15

    def test_pauli_exclusion(self):
        particles = (FERMION, ParticleSpec(2.0, Statistics.FERMION, ParticleClass.F))
        with pytest.raises(ValidationError):
            site_product_state(3, particles, [1, 1])

    def test_model_rejects_wrong_symmetry(self):
        particles = (BOSON, ParticleSpec(1.0, Statistics.BOSON, ParticleClass.B))
        bad = site_product_state(3, (ParticleSpec(1.0), ParticleSpec(1.0)), [0, 2])
        with pytest.raises(ValidationError):
            LatticeModel(sites=3, particles=particles, initial=bad)

    def test_bosons_must_share_mass(self):
        particles = (BOSON, ParticleSpec(9.0, Statistics.BOSON, ParticleClass.B))
        with pytest.raises(ValidationError):
            LatticeModel(
                sites=2, particles=particles,
                initial=uniform_product_state(2, 2),
            )

    def test_symmetry_preserved_under_symmetric_evolution(self):
        particles = (BOSON, ParticleSpec(1.0, Statistics.BOSON, ParticleClass.B))
        h = hopping_contact_hamiltonian(3, particles, hopping=1.0, contact=0.5)
        state = site_product_state(3, particles, [0, 2])
        model = LatticeModel(sites=3, particles=particles, initial=state,
                             hamiltonian=h, t_final=2.0)
        evolved = model.evolved_state(1.3)
        grid = evolved.amplitudes.reshape(3, 3)
        assert np.max(np.abs(grid - grid.T)) <= 1e-10


class TestAblMassField:
    def test_frozen_dynamics_field_is_constant_initial_density(self):
        particles = (BOSON, FERMION)
        model = LatticeModel(
            sites=3, particles=particles,
            initial=site_product_state(3, particles, [0, 2]),
            hamiltonian=None, t_final=1.0,
        )
        field = abl_mass_field(model, ParticleClass.B, (2,), [0.0, 0.5, 1.0])
        for row in field.values:
            assert np.allclose(row, [1.0, 0.0, 0.0], atol=1e-12)

    def test_trivial_post_selection_reduces_to_density(self):
        # beable scope B, no F particles: the boundary projector is the
        # identity and the field at T is the plain class density.
        model = LatticeModel(
            sites=4, particles=(BOSON,),
            initial=StateVector.normalized([1.0, 1.0j, 0.0, 1.0]),
            hamiltonian=hopping_contact_hamiltonian(4, (BOSON,), 1.0, 0.0),
            t_final=1.5,
        )
        field = abl_mass_field(model, ParticleClass.B, (), [model.t_final])
        for x in range(4):
            want = class_mass_density(model, ParticleClass.B, x, model.t_final)
            assert abs(field.values[0, x] - want) <= 1e-10

    def test_matches_per_point_oracle(self):
        model = interacting_bf_model()
        times = np.linspace(0.0, model.t_final, 4)
        field = abl_mass_field(model, ParticleClass.B, (0,), times)
        final_family = ProjectorFamily(
            [final_boundary_projector(model, ParticleClass.F, (y,)) for y in range(4)],
            [float(y) for y in range(4)],
        )
        p_final = final_boundary_projector(model, ParticleClass.F, (0,))
        for i, t in enumerate(times):
            for x in range(model.sites):
                family = mass_family_at(model, ParticleClass.B, x)
                scenario = PrePostScenario(
                    model.initial, family, p_final, model.hamiltonian, float(t), model.t_final
                )
                joint = oracle_joint_distribution(scenario, final_family)
                want = abl_expectation(joint.condition_on_post_selection())
                assert abs(field.values[i, x] - want) <= 1e-10

    def test_interaction_makes_conditioning_nontrivial(self):
        model = interacting_bf_model()
        times = np.linspace(0.0, model.t_final, 6)
        field = abl_mass_field(model, ParticleClass.B, (0,), times)
        born = np.array(
            [[class_mass_density(model, ParticleClass.B, x, float(t)) for x in range(4)]
             for t in times]
        )
        assert np.max(np.abs(field.values - born)) > 1e-3

    def test_impossible_final_configuration(self):
        particles = (BOSON, FERMION)
        model = LatticeModel(
            sites=3, particles=particles,
            initial=site_product_state(3, particles, [0, 2]),
            hamiltonian=None, t_final=1.0,
        )
        with pytest.raises(ImpossiblePostSelectionError):
            abl_mass_field(model, ParticleClass.B, (0,), [0.5])

    def test_unscoped_field_matches_dense_engines(self):
        # three distinguishable particles of unequal mass, every label pinned
        # at the final time: four outcomes per site and a rank-1 boundary
        particles = tuple(ParticleSpec(m) for m in (1.0, 2.0, 3.0))
        model = LatticeModel(
            sites=3, particles=particles,
            initial=site_product_state(3, particles, [0, 1, 2]),
            hamiltonian=hopping_contact_hamiltonian(3, particles, 1.0, 0.0),
            t_final=1.5,
        )
        final_sites = sample_final_sites(model, None, 4)
        times = np.linspace(0.0, model.t_final, 4)
        field = abl_mass_field(model, None, final_sites, times)
        assignments = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        final_family = ProjectorFamily(
            [final_boundary_projector(model, None, a) for a in assignments],
            [float(i) for i in range(len(assignments))],
        )
        p_final = final_boundary_projector(model, None, final_sites)
        for i, t in enumerate(times):
            for x in range(model.sites):
                scenario = PrePostScenario(
                    model.initial, mass_family_at(model, None, x), p_final,
                    model.hamiltonian, float(t), model.t_final,
                )
                joint = oracle_joint_distribution(scenario, final_family)
                oracle = abl_expectation(joint.condition_on_post_selection())
                assert abs(field.values[i, x] - oracle) <= 1e-12
                closed = abl_expectation(abl_evolved(scenario))
                assert abs(field.values[i, x] - closed) <= 1e-12

    def test_field_values_within_scope_mass(self):
        model = interacting_bf_model()
        field = abl_mass_field(model, ParticleClass.B, (1,), np.linspace(0, 2, 5))
        assert float(field.values.min()) >= 0.0
        assert float(field.values.max()) <= 1.0 + 1e-12


class TestSampling:
    def test_deterministic_given_seed(self):
        model = interacting_bf_model()
        first = sample_final_sites(model, ParticleClass.F, 99)
        second = sample_final_sites(model, ParticleClass.F, 99)
        assert first == second

    def test_frozen_localized_always_sampled(self):
        particles = (BOSON, FERMION)
        model = LatticeModel(
            sites=3, particles=particles,
            initial=site_product_state(3, particles, [0, 2]),
            hamiltonian=None, t_final=1.0,
        )
        for seed in range(5):
            assert sample_final_sites(model, ParticleClass.F, seed) == (2,)


class TestCatastrophe:
    def test_single_mass_value(self):
        model = make_catastrophe_model([1.0, 1.0], sites=6)
        for row in catastrophe_demo(model, [0.0, 0.5]):
            for d in row:
                assert d.labels == (1.0,)
                assert abs(d.probabilities[0] - 1.0) <= 1e-12

    def test_multiplicity_counting_flat_field(self):
        model = make_catastrophe_model([1.0, 1.0, 2.0], sites=7)
        for row in catastrophe_demo(model, np.linspace(0, 1, 5)):
            for d in row:
                assert abs(d.probability_of(1.0) - 2.0 / 3.0) <= 1e-10
                assert abs(d.probability_of(2.0) - 1.0 / 3.0) <= 1e-10

    def test_matches_dense_engine_on_small_model(self):
        # The same uninformative post-selection pushed through the dense
        # trace-form engine, then restricted to the mass outcomes.
        model = make_catastrophe_model([1.0, 1.0, 2.0], sites=3)
        demo = catastrophe_demo(model, [0.4])[0]
        p_c = LinearOperator.identity(model.dim)
        for x in range(model.sites):
            family = mass_family_at(model, None, x)
            scenario = PrePostScenario(
                model.initial, family, p_c, LinearOperator.zero(model.dim), 0.4, 1.0
            )
            full = abl_evolved(scenario)
            mass_probs = {
                label: p for label, p in zip(full.labels, full.probabilities) if label != 0.0
            }
            total = sum(mass_probs.values())
            for label, p in mass_probs.items():
                assert abs(p / total - demo[x].probability_of(label)) <= 1e-10

    def test_requires_frozen_dynamics(self):
        particles = (ParticleSpec(1.0), ParticleSpec(1.0))
        h = hopping_contact_hamiltonian(3, particles, hopping=1.0, contact=0.0)
        model = LatticeModel(
            sites=3, particles=particles, initial=uniform_product_state(3, 2),
            hamiltonian=h, t_final=1.0,
        )
        with pytest.raises(ValidationError):
            catastrophe_demo(model, [0.0])

    def test_requires_uniform_marginals(self):
        particles = (ParticleSpec(1.0), ParticleSpec(1.0))
        model = LatticeModel(
            sites=3, particles=particles,
            initial=site_product_state(3, particles, [0, 1]),
            hamiltonian=None, t_final=1.0,
        )
        with pytest.raises(ValidationError):
            catastrophe_demo(model, [0.0])


class TestThreeParticleIntegration:
    def test_symmetrized_bosons_with_conditioned_fermion(self):
        # 2 identical bosons + 1 fermion on 3 sites, genuine interaction,
        # fermion-site post-selection; the whole pipeline must agree with the
        # exhaustive oracle point by point.
        particles = (
            BOSON,
            ParticleSpec(1.0, Statistics.BOSON, ParticleClass.B),
            FERMION,
        )
        h = hopping_contact_hamiltonian(3, particles, hopping=1.0, contact=1.5)
        initial = site_product_state(3, particles, [0, 1, 2])
        model = LatticeModel(sites=3, particles=particles, initial=initial,
                             hamiltonian=h, t_final=1.5)
        final_site = sample_final_sites(model, ParticleClass.F, 17)
        times = [0.0, 0.75, 1.5]
        field = abl_mass_field(model, ParticleClass.B, final_site, times)
        assert float(field.values.min()) >= 0.0
        assert float(field.values.max()) <= 2.0 + 1e-12

        final_family = ProjectorFamily(
            [final_boundary_projector(model, ParticleClass.F, (y,)) for y in range(3)],
            [0.0, 1.0, 2.0],
        )
        p_final = final_boundary_projector(model, ParticleClass.F, final_site)
        for i, t in enumerate(times):
            for x in range(model.sites):
                family = mass_family_at(model, ParticleClass.B, x)
                scenario = PrePostScenario(
                    model.initial, family, p_final, model.hamiltonian, t, model.t_final
                )
                joint = oracle_joint_distribution(scenario, final_family)
                want = abl_expectation(joint.condition_on_post_selection())
                assert abs(field.values[i, x] - want) <= 1e-10

    def test_boson_swap_symmetry_survives_interaction(self):
        particles = (
            BOSON,
            ParticleSpec(1.0, Statistics.BOSON, ParticleClass.B),
            FERMION,
        )
        h = hopping_contact_hamiltonian(3, particles, hopping=1.0, contact=1.5)
        initial = site_product_state(3, particles, [0, 1, 2])
        model = LatticeModel(sites=3, particles=particles, initial=initial,
                             hamiltonian=h, t_final=1.5)
        evolved = model.evolved_state(1.1).amplitudes.reshape(3, 3, 3)
        assert np.max(np.abs(evolved - np.swapaxes(evolved, 0, 1))) <= 1e-10


class TestModelValidation:
    def test_dimension_cap(self):
        particles = tuple(ParticleSpec(1.0) for _ in range(8))
        with pytest.raises(ValidationError):
            LatticeModel(
                sites=8, particles=particles,
                initial=StateVector.basis_state(2, 0),
            )

    def test_spectrum_scoping(self):
        model = interacting_bf_model()
        assert mass_spectrum(model, ParticleClass.B).values == (1.0,)
        assert mass_spectrum(model, ParticleClass.F).values == (2.0,)
        assert mass_spectrum(model, None).values == (1.0, 2.0)
        assert class_labels(model, ParticleClass.F) == (2,)

    def test_distribution_total_validated(self):
        from beablesim import MassDistribution

        with pytest.raises(ValidationError):
            MassDistribution((0.5, 0.5), 2.0)
