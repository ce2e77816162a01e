"""Toy-model tests: bounce kinematics, light-cone geometry, beable fields."""

import numpy as np
import pytest

from beablesim import (
    BeableField,
    ContractError,
    LightRay,
    NatureChoice,
    RayDirection,
    SpacetimeGrid,
    SpacetimePoint,
    ToyModelConfig,
    ValidationError,
    abl_expectation,
    beable_field,
    born_reduction_check,
    branch_structure,
    collapse_time_at,
    in_region_of_indeterminacy,
    information_rays,
    ray_trajectories,
    ray_visible_outside_cone,
    rel_conditional,
    sample_nature_choice,
)
from beablesim.abl import ConditionalDistribution
from beablesim.relmodels import gaussian_density, mass_budget_residuals

GRID = SpacetimeGrid(t_min=-3.0, t_max=3.0, t_steps=41, x_min=-2.0, x_max=3.0, x_steps=251)

# dyadic but incommensurable with the grids' 0.01-unit sum lattice, so no
# grid point lands exactly on a collapse front
T1 = 0.50390625


def make_config(photons=1, weight_a=0.3, sigma1=0.05, sigma2=0.05, t1=T1, grid=GRID):
    return ToyModelConfig(
        x1=0.0, x2=1.0, sigma1=sigma1, sigma2=sigma2,
        amp_a=complex(np.sqrt(weight_a)), amp_b=complex(np.sqrt(1.0 - weight_a)),
        mass=2.0, t1=t1, photons=photons, grid=grid,
    )


class TestConfigValidation:
    def test_amplitude_normalization(self):
        with pytest.raises(ValidationError, match="amp"):
            ToyModelConfig(x1=0.0, x2=1.0, sigma1=0.05, sigma2=0.05,
                           amp_a=0.8, amp_b=0.5, mass=2.0, t1=T1, photons=1, grid=GRID)

    def test_cloud_ordering(self):
        with pytest.raises(ValidationError):
            make_config().__class__(
                x1=1.0, x2=0.0, sigma1=0.05, sigma2=0.05,
                amp_a=1.0, amp_b=0.0, mass=2.0, t1=0.5, photons=1, grid=GRID,
            )

    def test_separation_bound(self):
        with pytest.raises(ValidationError, match="separated"):
            make_config(sigma1=0.2)

    def test_photon_count(self):
        with pytest.raises(ValidationError):
            ToyModelConfig(x1=0.0, x2=1.0, sigma1=0.05, sigma2=0.05,
                           amp_a=1.0, amp_b=0.0, mass=2.0, t1=T1, photons=3, grid=GRID)

    def test_grid_coverage(self):
        tight = SpacetimeGrid(-1.0, 1.0, 10, 0.2, 0.8, 100)
        with pytest.raises(ValidationError, match="cover"):
            make_config(grid=tight)

    def test_grid_resolution(self):
        coarse = SpacetimeGrid(-3.0, 3.0, 10, -2.0, 3.0, 20)
        with pytest.raises(ValidationError, match="spacing"):
            make_config(grid=coarse)

    def test_derived_second_bounce_time(self):
        cfg = make_config()
        assert cfg.t2 == T1 + 1.0


class TestBranchStructure:
    def test_continuity_at_first_bounce(self):
        cfg = make_config()
        first, second = branch_structure(cfg, cfg.t1)
        assert first.photon_positions == (cfg.x1,)
        assert second.photon_positions == (cfg.x1,)
        assert first.amplitude == cfg.amp_a
        assert second.amplitude == cfg.amp_b

    def test_positions_at_second_bounce(self):
        cfg = make_config()
        first, second = branch_structure(cfg, cfg.t2)
        assert first.photon_positions == (2 * cfg.x1 - cfg.x2,)
        assert second.photon_positions == (cfg.x2,)

    def test_two_photon_late_regime(self):
        cfg = make_config(photons=2)
        t = cfg.t2 + 0.7
        first, second = branch_structure(cfg, t)
        assert first.photon_positions == (cfg.x1 - (t - cfg.t1), cfg.x1 + (t - cfg.t2))
        assert second.photon_positions == (cfg.x2 - (t - cfg.t2), cfg.x2 + (t - cfg.t1))

    def test_two_photon_early_symmetric_approach(self):
        cfg = make_config(photons=2)
        t = cfg.t1 - 1.0
        first, second = branch_structure(cfg, t)
        assert first.photon_positions == (cfg.x1 - 1.0, cfg.x2 + 1.0)
        assert first.photon_positions == second.photon_positions

    def test_mid_regime_continuity_at_t2(self):
        cfg = make_config(photons=2)
        eps = 1e-9
        before = branch_structure(cfg, cfg.t2 - eps)
        after = branch_structure(cfg, cfg.t2 + eps)
        for b, a in zip(before, after):
            for pb, pa in zip(b.photon_positions, a.photon_positions):
                assert abs(pb - pa) <= 3e-9


class TestSampler:
    def test_degenerate_superposition(self):
        cfg = ToyModelConfig(x1=0.0, x2=1.0, sigma1=0.05, sigma2=0.05,
                             amp_a=1.0, amp_b=0.0, mass=2.0, t1=T1, photons=1, grid=GRID)
        for seed in range(10):
            assert sample_nature_choice(cfg, seed) is NatureChoice.CLOUD1

    def test_seed_determinism(self):
        cfg = make_config(weight_a=0.5)
        assert sample_nature_choice(cfg, 42) is sample_nature_choice(cfg, 42)

    def test_generator_sequence_reproducible(self):
        cfg = make_config(weight_a=0.5)
        seq1 = [sample_nature_choice(cfg, np.random.default_rng(7)) for _ in range(1)]
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        seq_a = [sample_nature_choice(cfg, rng_a) for _ in range(200)]
        seq_b = [sample_nature_choice(cfg, rng_b) for _ in range(200)]
        assert seq_a == seq_b
        assert seq1[0] is seq_a[0]

    def test_binomial_statistics(self):
        cfg = make_config(weight_a=0.5)
        rng = np.random.default_rng(1234)
        draws = 20000
        hits = sum(
            sample_nature_choice(cfg, rng) is NatureChoice.CLOUD1 for _ in range(draws)
        )
        sigma = np.sqrt(0.25 / draws)
        assert abs(hits / draws - 0.5) <= 3 * sigma


class TestRayVisibility:
    def test_own_origin_not_visible(self):
        ray = LightRay(SpacetimePoint(0.5, 0.0), RayDirection.LEFT)
        assert not ray_visible_outside_cone(ray, SpacetimePoint(0.5, 0.0))

    def test_simultaneous_point_to_the_right(self):
        ray = LightRay(SpacetimePoint(0.5, 0.0), RayDirection.LEFT)
        assert ray_visible_outside_cone(ray, SpacetimePoint(0.5, 1.0))

    def test_point_below_the_null_line(self):
        delta_x = 1.0
        eps = 1e-9
        ray = LightRay(SpacetimePoint(0.5, 0.0), RayDirection.LEFT)
        assert not ray_visible_outside_cone(ray, SpacetimePoint(0.5 - delta_x - eps, 1.0))

    def test_right_mover_mirrors(self):
        ray = LightRay(SpacetimePoint(0.5, 1.0), RayDirection.RIGHT)
        assert ray_visible_outside_cone(ray, SpacetimePoint(0.5, 0.0))
        assert not ray_visible_outside_cone(ray, SpacetimePoint(0.5, 2.0))

    def test_ray_positions(self):
        left = LightRay(SpacetimePoint(0.5, 0.0), RayDirection.LEFT)
        right = LightRay(SpacetimePoint(0.5, 0.0), RayDirection.RIGHT)
        assert left.position(1.5) == -1.0
        assert right.position(1.5) == 1.0


class TestRegionOfIndeterminacy:
    def test_bounce_event_is_resolved(self):
        cfg = make_config()
        assert not in_region_of_indeterminacy(cfg, SpacetimePoint(cfg.t1, cfg.x1))

    def test_collapse_at_second_cloud_before_first_bounce(self):
        cfg = make_config()
        delta_x = cfg.x2 - cfg.x1
        eps = 1e-9
        assert in_region_of_indeterminacy(cfg, SpacetimePoint(cfg.t1 - delta_x - eps, cfg.x2))
        assert not in_region_of_indeterminacy(cfg, SpacetimePoint(cfg.t1 - delta_x + eps, cfg.x2))

    def test_two_photon_both_centres_resolved_together(self):
        cfg = make_config(photons=2)
        delta_x = cfg.x2 - cfg.x1
        eps = 1e-9
        t = cfg.t1 - delta_x + eps
        assert not in_region_of_indeterminacy(cfg, SpacetimePoint(t, cfg.x1))
        assert not in_region_of_indeterminacy(cfg, SpacetimePoint(t, cfg.x2))

    def test_equals_ray_visibility_conjunction_on_random_points(self):
        rng = np.random.default_rng(55)
        for photons in (1, 2):
            cfg = make_config(photons=photons)
            rays = information_rays(cfg)
            for _ in range(20000):
                point = SpacetimePoint(float(rng.uniform(-6, 6)), float(rng.uniform(-5, 6)))
                hidden = not any(ray_visible_outside_cone(ray, point) for ray in rays)
                assert in_region_of_indeterminacy(cfg, point) == hidden

    def test_array_form_matches_scalar_form_on_the_fronts(self):
        # dyadic steps with t1 = 0.5 put grid points exactly on both fronts,
        # t + x = t1 + x1 and t - x = t1 - x2
        ts = np.linspace(-2.0, 3.0, 41)
        xs = np.linspace(-1.5, 2.5, 33)
        on_first = np.isclose(ts[:, None] + xs[None, :], 0.5, rtol=0.0, atol=0.0)
        on_second = np.isclose(ts[:, None] - xs[None, :], -0.5, rtol=0.0, atol=0.0)
        assert on_first.any() and on_second.any()
        for photons in (1, 2):
            cfg = make_config(photons=photons, t1=0.5)
            mask = in_region_of_indeterminacy(cfg, SpacetimePoint(ts[:, None], xs[None, :]))
            assert mask.shape == (ts.size, xs.size) and mask.dtype == bool
            for i, t in enumerate(ts):
                for j, x in enumerate(xs):
                    scalar = in_region_of_indeterminacy(cfg, SpacetimePoint(float(t), float(x)))
                    assert type(scalar) is bool and mask[i, j] == scalar
            assert not mask[on_first].any()
            if photons == 2:
                assert not mask[on_second].any()
            assert 0 < np.count_nonzero(mask) < mask.size

    def test_monotone_resolution(self):
        rng = np.random.default_rng(56)
        for photons in (1, 2):
            cfg = make_config(photons=photons)
            found = 0
            while found < 300:
                y = SpacetimePoint(float(rng.uniform(-6, 6)), float(rng.uniform(-5, 6)))
                if in_region_of_indeterminacy(cfg, y):
                    continue
                found += 1
                dt = float(rng.uniform(0, 3))
                dx = float(rng.uniform(-1, 1)) * dt
                z = SpacetimePoint(y.t + dt, y.x + dx)
                assert not in_region_of_indeterminacy(cfg, z)


class TestCollapseTime:
    def test_one_photon_values(self):
        cfg = make_config()
        delta_x = cfg.x2 - cfg.x1
        assert collapse_time_at(cfg, cfg.x1) == cfg.t1
        assert collapse_time_at(cfg, cfg.x2) == cfg.t1 - delta_x

    def test_two_photon_values(self):
        cfg = make_config(photons=2)
        delta_x = cfg.x2 - cfg.x1
        assert collapse_time_at(cfg, cfg.x1) == cfg.t1 - delta_x
        assert collapse_time_at(cfg, cfg.x2) == cfg.t1 - delta_x

    def test_bisection_against_predicate(self):
        for photons in (1, 2):
            cfg = make_config(photons=photons)
            for x in (-1.0, 0.0, 0.3, 1.0, 2.0):
                lo, hi = -20.0, 20.0
                assert in_region_of_indeterminacy(cfg, SpacetimePoint(lo, x))
                assert not in_region_of_indeterminacy(cfg, SpacetimePoint(hi, x))
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if in_region_of_indeterminacy(cfg, SpacetimePoint(mid, x)):
                        lo = mid
                    else:
                        hi = mid
                assert abs(hi - collapse_time_at(cfg, x)) <= 1e-12


class TestBeableField:
    def test_no_superposition_field_is_single_cloud(self):
        cfg = ToyModelConfig(x1=0.0, x2=1.0, sigma1=0.05, sigma2=0.05,
                             amp_a=1.0, amp_b=0.0, mass=2.0, t1=T1, photons=1, grid=GRID)
        field = beable_field(cfg, NatureChoice.CLOUD1)
        expected = cfg.mass * gaussian_density(field.xs, cfg.x1, cfg.sigma1)
        for row in field.values:
            assert np.max(np.abs(row - expected)) <= 1e-12

    def test_deep_roi_value_is_weighted_average(self):
        cfg = make_config(weight_a=0.5)
        field = beable_field(cfg, NatureChoice.CLOUD1)
        i = 0  # earliest slice is fully indeterminate on this grid
        dens1 = gaussian_density(field.xs, cfg.x1, cfg.sigma1)
        dens2 = gaussian_density(field.xs, cfg.x2, cfg.sigma2)
        want = (cfg.mass / 2) * (dens1 + dens2)
        assert np.max(np.abs(field.values[i] - want)) <= 1e-12

    def test_late_slices_integrate_to_full_mass(self):
        cfg = make_config()
        field = beable_field(cfg, NatureChoice.CLOUD1)
        assert abs(field.slice_integral(field.ts.size - 1) - cfg.mass) <= 1e-6 * cfg.mass

    def test_dichotomy_everywhere(self):
        for photons in (1, 2):
            cfg = make_config(photons=photons)
            for choice in NatureChoice:
                field = beable_field(cfg, choice)
                dens1 = gaussian_density(field.xs, cfg.x1, cfg.sigma1)
                dens2 = gaussian_density(field.xs, cfg.x2, cfg.sigma2)
                inside = cfg.mass * (cfg.weight_a * dens1 + cfg.weight_b * dens2)
                outside = cfg.mass * (dens1 if choice is NatureChoice.CLOUD1 else dens2)
                scale = np.maximum(np.maximum(inside, outside), 1e-300)
                nearest = np.minimum(
                    np.abs(field.values - inside[None, :]),
                    np.abs(field.values - outside[None, :]),
                )
                assert float(np.max(nearest / scale[None, :])) <= 1e-12

    def test_missing_mass_interval(self):
        # while the front crosses the gap between the clouds, a Cloud1 slice
        # holds only the |a|^2 fraction of the mass
        cfg = make_config(weight_a=0.3)
        field = beable_field(cfg, NatureChoice.CLOUD1)
        gap_time = cfg.t1 - 0.5 * (cfg.x2 - cfg.x1)  # front mid-gap
        i = int(np.argmin(np.abs(field.ts - gap_time)))
        assert abs(field.slice_integral(i) - 0.3 * cfg.mass) <= 1e-3 * cfg.mass

    def test_excess_mass_mirror_effect(self):
        # the unchosen-cloud mirror: with Cloud2 chosen, the resolved side
        # already carries the full cloud-2 mass while cloud 1 is still
        # Born-weighted, so mid-collapse slices exceed M
        cfg = make_config(weight_a=0.3)
        field = beable_field(cfg, NatureChoice.CLOUD2)
        gap_time = cfg.t1 - 0.5 * (cfg.x2 - cfg.x1)
        i = int(np.argmin(np.abs(field.ts - gap_time)))
        assert abs(field.slice_integral(i) - 1.3 * cfg.mass) <= 1e-3 * cfg.mass

    @pytest.mark.parametrize("photons", [1, 2])
    def test_mass_budget_residuals(self, photons):
        cfg = make_config(photons=photons, weight_a=0.3)
        field = beable_field(cfg, NatureChoice.CLOUD1)
        inside = in_region_of_indeterminacy(cfg, SpacetimePoint(field.ts[:, None], field.xs[None, :]))
        uniform, mixed = mass_budget_residuals(cfg, field, inside)
        assert 0.0 <= uniform <= 1e-12
        assert mixed == 0.0

        mixed_rows = np.nonzero(inside.any(axis=1) & ~inside.all(axis=1))[0]
        values = field.values.copy()
        assert inside[0].all()
        values[0] *= 1.01
        values[mixed_rows[len(mixed_rows) // 2]] *= 0.01
        uniform, mixed = mass_budget_residuals(cfg, BeableField(field.ts, field.xs, values), inside)
        assert abs(uniform - 0.01) <= 1e-9
        assert mixed > 0.25

    def test_translation_covariance(self):
        cfg = make_config()
        dt, dx = 2.0, -1.5
        moved_grid = SpacetimeGrid(
            GRID.t_min + dt, GRID.t_max + dt, GRID.t_steps,
            GRID.x_min + dx, GRID.x_max + dx, GRID.x_steps,
        )
        moved = ToyModelConfig(
            x1=cfg.x1 + dx, x2=cfg.x2 + dx, sigma1=cfg.sigma1, sigma2=cfg.sigma2,
            amp_a=cfg.amp_a, amp_b=cfg.amp_b, mass=cfg.mass, t1=cfg.t1 + dt,
            photons=cfg.photons, grid=moved_grid,
        )
        base = beable_field(cfg, NatureChoice.CLOUD1)
        shifted = beable_field(moved, NatureChoice.CLOUD1)
        assert np.max(np.abs(base.values - shifted.values)) <= 1e-12
        for i, t in enumerate(base.ts):
            for j, x in enumerate(base.xs):
                roi_base = in_region_of_indeterminacy(cfg, SpacetimePoint(float(t), float(x)))
                roi_moved = in_region_of_indeterminacy(
                    moved, SpacetimePoint(float(t) + dt, float(x) + dx)
                )
                assert roi_base == roi_moved

    def test_mirror_symmetry_two_photon(self):
        # x -> x1 + x2 - x maps the two-photon model onto itself with
        # amplitudes, widths and choice swapped
        grid = SpacetimeGrid(-3.0, 3.0, 21, -2.0, 3.0, 251)
        cfg = ToyModelConfig(x1=0.0, x2=1.0, sigma1=0.04, sigma2=0.06,
                             amp_a=complex(np.sqrt(0.3)), amp_b=complex(np.sqrt(0.7)),
                             mass=2.0, t1=T1, photons=2, grid=grid)
        mirrored = ToyModelConfig(x1=0.0, x2=1.0, sigma1=0.06, sigma2=0.04,
                                  amp_a=complex(np.sqrt(0.7)), amp_b=complex(np.sqrt(0.3)),
                                  mass=2.0, t1=T1, photons=2, grid=grid)
        base = beable_field(cfg, NatureChoice.CLOUD1)
        flipped = beable_field(mirrored, NatureChoice.CLOUD2)
        # mirrored positions: x_j -> x1 + x2 - x_j reverses the grid
        assert np.max(np.abs(base.values - flipped.values[:, ::-1])) <= 1e-12


class TestConditionals:
    def test_born_reduction_inside_roi(self):
        cfg = make_config(weight_a=0.3)
        point = SpacetimePoint(-4.0, 0.5)
        d = born_reduction_check(cfg, point)
        assert d.probabilities == (cfg.weight_a, cfg.weight_b)

    def test_born_reduction_uniform_across_roi(self):
        cfg = make_config(weight_a=0.3)
        d1 = born_reduction_check(cfg, SpacetimePoint(-4.0, 0.5))
        d2 = born_reduction_check(cfg, SpacetimePoint(-8.0, 2.0))
        assert d1.probabilities == d2.probabilities

    def test_degenerate_amplitudes(self):
        cfg = ToyModelConfig(x1=0.0, x2=1.0, sigma1=0.05, sigma2=0.05,
                             amp_a=1.0, amp_b=0.0, mass=2.0, t1=T1, photons=1, grid=GRID)
        d = born_reduction_check(cfg, SpacetimePoint(-4.0, 0.5))
        assert d.probabilities == (1.0, 0.0)

    def test_contract_error_outside_roi(self):
        cfg = make_config()
        with pytest.raises(ContractError):
            born_reduction_check(cfg, SpacetimePoint(cfg.t1 + 1.0, cfg.x1))

    def test_rel_conditional_point_mass_outside(self):
        cfg = make_config()
        outside = SpacetimePoint(cfg.t1 + 1.0, cfg.x1)
        assert rel_conditional(cfg, outside, NatureChoice.CLOUD1).probabilities == (1.0, 0.0)
        assert rel_conditional(cfg, outside, NatureChoice.CLOUD2).probabilities == (0.0, 1.0)

    def test_rel_conditional_reduces_inside(self):
        cfg = make_config(weight_a=0.3)
        inside = SpacetimePoint(-4.0, 0.5)
        for choice in NatureChoice:
            assert rel_conditional(cfg, inside, choice).probabilities == (
                cfg.weight_a, cfg.weight_b,
            )

    def test_field_value_is_relabelled_expectation(self):
        cfg = make_config(weight_a=0.3)
        field = beable_field(cfg, NatureChoice.CLOUD1)
        rng = np.random.default_rng(60)
        for _ in range(200):
            i = int(rng.integers(0, field.ts.size))
            j = int(rng.integers(0, field.xs.size))
            t, x = float(field.ts[i]), float(field.xs[j])
            d = rel_conditional(cfg, SpacetimePoint(t, x), NatureChoice.CLOUD1)
            labels = (
                cfg.mass * float(gaussian_density(x, cfg.x1, cfg.sigma1)),
                cfg.mass * float(gaussian_density(x, cfg.x2, cfg.sigma2)),
            )
            value = abl_expectation(ConditionalDistribution(labels, d.probabilities))
            assert abs(value - field.values[i, j]) <= 1e-12


class TestRayTrajectories:
    def test_all_rays_drawn_with_actual_flag(self):
        cfg = make_config(photons=2)
        paths = ray_trajectories(cfg, NatureChoice.CLOUD1)
        assert len(paths) == 4
        assert sum(p.actual for p in paths) == 2
        clouds = {(p.cloud, p.photon) for p in paths}
        assert len(clouds) == 4

    def test_one_photon_includes_never_consulted_ray(self):
        cfg = make_config(photons=1)
        paths = ray_trajectories(cfg, NatureChoice.CLOUD1)
        assert len(paths) == 2
        lagging = [p for p in paths if p.cloud is NatureChoice.CLOUD2]
        assert lagging and not lagging[0].actual

    def test_knots_within_grid(self):
        cfg = make_config()
        for path in ray_trajectories(cfg, NatureChoice.CLOUD2):
            ts = [t for t, _ in path.points]
            assert min(ts) >= GRID.t_min and max(ts) <= GRID.t_max
            assert ts == sorted(ts)
