"""Scenario ingestion, orchestration, and artifact emission.

``beablesim run <config.json>`` reads a strict, versioned JSON config, runs
one scenario kind, writes plot-ready artifacts (field grid as CSV or JSON,
ray polylines as JSON) plus a deterministic report, and exits with a coded
status:

* 0  success, all self-checks within tolerance
* 2  config or physics-parameter validation failure
* 3  impossible post-selection (a physics-level outcome, not a user error)
* 4  internal invariant breach (a numpy ``LinAlgError`` too) or failed self-check
* 5  unwritable output path

Every residual in the report is recomputed from the *emitted* files, not from
in-memory state, so serialization is part of what the checks certify.  The
report file contains no timings (those go to stderr), which keeps every
output byte a pure function of (config, seed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import tolerances
from .abl import (
    PrePostScenario,
    abl_evolved,
    abl_expectation,
    measurement_branches,
    oracle_joint_distribution,
    random_scenario,
)
from .errors import (
    BeableSimError,
    ImpossiblePostSelectionError,
    InvariantBreachError,
    ValidationError,
    ZeroProbabilityBranchError,
)
from .fields import BeableField, SpacetimeGrid
from .hilbert import LinearOperator, ProjectorFamily, born_probability
from .nonrel import (
    LatticeModel,
    ParticleClass,
    ParticleSpec,
    Statistics,
    abl_mass_field,
    class_labels,
    final_boundary_projector,
    hopping_contact_hamiltonian,
    mass_family_at,
    sample_final_sites,
    site_product_state,
    uniform_product_state,
)
from .relmodels import (
    MASS_BUDGET_EPSILON,
    NatureChoice,
    SpacetimePoint,
    ToyModelConfig,
    beable_field,
    branch_rows,
    in_region_of_indeterminacy,
    information_rays,
    mass_budget_residuals,
    ray_trajectories,
    ray_visible_outside_cone,
    sample_nature_choice,
)

__all__ = ["run", "main", "emit_field", "load_field", "parse_config", "ScenarioConfig"]

KINDS = ("abl-check", "nonrel-nparticle", "nonrel-classes", "toy1", "toy2")


# ---------------------------------------------------------------------------
# strict config walking


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


def _record(value: Any, path: str, required: Sequence[str], optional: Sequence[str] = ()) -> dict:
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    unknown = sorted(set(value) - set(required) - set(optional))
    if unknown:
        _fail(path, f"unknown keys {unknown}")
    missing = [key for key in required if key not in value]
    if missing:
        _fail(path, f"missing keys {missing}")
    return value


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value: int | float, path: str) -> float:
    """``value`` as a float, refusing the NaN, infinities and overflowing literals JSON admits."""
    if not abs(value) <= sys.float_info.max:
        _fail(path, "expected a finite number")
    return float(value)


def _number(record: dict, path: str, key: str, *, minimum: float | None = None,
            exclusive_minimum: float | None = None) -> float:
    value = record[key]
    if not _is_number(value):
        _fail(f"{path}.{key}", "expected a number")
    value = _finite(value, f"{path}.{key}")
    if minimum is not None and value < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    if exclusive_minimum is not None and value <= exclusive_minimum:
        _fail(f"{path}.{key}", f"must be > {exclusive_minimum}, got {value}")
    return value


def _integer(record: dict, path: str, key: str, *, minimum: int | None = None,
             maximum: int | None = None) -> int:
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", "expected an integer")
    if minimum is not None and value < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(f"{path}.{key}", f"must be <= {maximum}, got {value}")
    return value


def _choice(record: dict, path: str, key: str, options: Sequence[str]) -> str:
    value = record[key]
    if value not in options:
        _fail(f"{path}.{key}", f"must be one of {list(options)}, got {value!r}")
    return value


def _complex(value: Any, path: str) -> complex:
    """A config number or ``[re, im]`` pair as a finite complex number."""
    if _is_number(value):
        return complex(_finite(value, path), 0.0)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(_finite(value[0], path), _finite(value[1], path))
    _fail(path, "expected a number or a [re, im] pair")


def _int_list(record: dict, path: str, key: str) -> list[int]:
    value = record[key]
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in value
    ):
        _fail(f"{path}.{key}", "expected a list of integers")
    return list(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed, schema-checked scenario: kind, parameters, seed, grid, output."""

    kind: str
    parameters: dict
    seed: int
    grid: dict | None
    out_prefix: str
    out_format: str


def parse_config(raw: Any, path: str = "config") -> ScenarioConfig:
    record = _record(raw, path, ("schema", "kind", "seed", "parameters", "output"), ("grid",))
    schema = record["schema"]
    if schema != 1:
        _fail(f"{path}.schema", f"unsupported schema {schema!r}, expected 1")
    kind = _choice(record, path, "kind", KINDS)
    seed = _integer(record, path, "seed", minimum=0)
    if seed >= 2 ** 64:
        _fail(f"{path}.seed", "must fit in 64 bits")
    output = _record(record["output"], f"{path}.output", ("prefix", "format"))
    prefix = output["prefix"]
    if not isinstance(prefix, str) or not prefix:
        _fail(f"{path}.output.prefix", "expected a nonempty string")
    fmt = _choice(output, f"{path}.output", "format", ("csv", "json"))
    grid = record.get("grid")
    if kind == "abl-check":
        if grid is not None:
            _fail(f"{path}.grid", "abl-check takes no grid")
    elif grid is None:
        _fail(path, "missing keys ['grid']")
    parameters = record["parameters"]
    if not isinstance(parameters, dict):
        _fail(f"{path}.parameters", "expected an object")
    return ScenarioConfig(kind, parameters, seed, grid, prefix, fmt)


# ---------------------------------------------------------------------------
# artifact emission and reloading


def emit_field(field: BeableField, fmt: str, path: str) -> None:
    """Write a field grid: CSV rows ``t,x,rho`` (t outer, x inner, 17
    significant digits) or a JSON object with the grid spec and a flat value
    array in the same order."""
    if fmt == "csv":
        lines = ["t,x,rho"]
        for i, t in enumerate(field.ts):
            for j, x in enumerate(field.xs):
                lines.append(f"{t:.17g},{x:.17g},{field.values[i, j]:.17g}")
        payload = "\n".join(lines) + "\n"
        with open(path, "w", encoding="ascii") as handle:
            handle.write(payload)
        return
    document = {
        "grid": {"ts": [float(t) for t in field.ts], "xs": [float(x) for x in field.xs]},
        "values": [float(v) for v in field.values.reshape(-1)],
    }
    with open(path, "w", encoding="ascii") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def load_field(fmt: str, path: str) -> BeableField:
    """Reload an emitted field grid; the round trip is bit-exact."""
    if fmt == "csv":
        ts: list[float] = []
        xs: list[float] = []
        rows: list[float] = []
        with open(path, "r", encoding="ascii") as handle:
            header = handle.readline().strip()
            if header != "t,x,rho":
                raise ValidationError(f"{path}: unexpected field header {header!r}")
            for line in handle:
                t_text, x_text, rho_text = line.strip().split(",")
                t, x, rho = float(t_text), float(x_text), float(rho_text)
                if not ts or t != ts[-1]:
                    ts.append(t)
                if len(ts) == 1:
                    xs.append(x)
                rows.append(rho)
        values = np.array(rows).reshape(len(ts), len(xs))
        return BeableField(np.array(ts), np.array(xs), values)
    with open(path, "r", encoding="ascii") as handle:
        document = json.load(handle)
    ts = document["grid"]["ts"]
    xs = document["grid"]["xs"]
    values = np.array(document["values"]).reshape(len(ts), len(xs))
    return BeableField(np.array(ts), np.array(xs), values)


def _emit_rays(paths, path: str) -> None:
    document = {
        "rays": [
            {
                "cloud": ray.cloud.value,
                "photon": ray.photon,
                "actual": ray.actual,
                "points": [[float(t), float(x)] for t, x in ray.points],
            }
            for ray in paths
        ]
    }
    with open(path, "w", encoding="ascii") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


# ---------------------------------------------------------------------------
# toy models


def _build_toy_config(cfg: ScenarioConfig) -> tuple[ToyModelConfig, int | None]:
    path = "config.parameters"
    record = _record(
        cfg.parameters,
        path,
        ("x1", "x2", "sigma1", "sigma2", "amp_a", "amp_b", "mass", "t1"),
        ("branch", "separation_ratio"),
    )
    grid_record = _record(
        cfg.grid, "config.grid", ("t_min", "t_max", "t_steps", "x_min", "x_max", "x_steps")
    )
    grid = SpacetimeGrid(
        t_min=_number(grid_record, "config.grid", "t_min"),
        t_max=_number(grid_record, "config.grid", "t_max"),
        t_steps=_integer(grid_record, "config.grid", "t_steps", minimum=1),
        x_min=_number(grid_record, "config.grid", "x_min"),
        x_max=_number(grid_record, "config.grid", "x_max"),
        x_steps=_integer(grid_record, "config.grid", "x_steps", minimum=2),
    )
    # parsed outside the ``try`` below: their errors already name their key
    kwargs = dict(
        x1=_number(record, path, "x1"),
        x2=_number(record, path, "x2"),
        sigma1=_number(record, path, "sigma1", exclusive_minimum=0.0),
        sigma2=_number(record, path, "sigma2", exclusive_minimum=0.0),
        amp_a=_complex(record["amp_a"], f"{path}.amp_a"),
        amp_b=_complex(record["amp_b"], f"{path}.amp_b"),
        mass=_number(record, path, "mass", exclusive_minimum=0.0),
        t1=_number(record, path, "t1"),
    )
    if "separation_ratio" in record:
        kwargs["separation_ratio"] = _number(record, path, "separation_ratio", exclusive_minimum=0.0)
    try:
        toy = ToyModelConfig(photons=1 if cfg.kind == "toy1" else 2, grid=grid, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    branch = _integer(record, path, "branch", minimum=1, maximum=2) if "branch" in record else None
    return toy, branch


def _toy_checks(toy: ToyModelConfig, choice: NatureChoice, field: BeableField) -> list[dict]:
    values = field.values
    inside_row, outside_row = branch_rows(toy, choice, field.xs)
    scale = np.maximum(np.maximum(inside_row, outside_row), 1e-300)
    nearest = np.minimum(
        np.abs(values - inside_row[None, :]), np.abs(values - outside_row[None, :])
    )
    dichotomy = float(np.max(nearest / scale[None, :]))

    # the closed-form wedge and the rays' visibility are independent codes of
    # one region; the agreement check counts the grid points where they differ
    grid = SpacetimePoint(field.ts[:, None], field.xs[None, :])
    inside = in_region_of_indeterminacy(toy, grid)
    hidden = ~np.logical_or.reduce(
        [ray_visible_outside_cone(ray, grid) for ray in information_rays(toy)]
    )
    disagreements = int(np.count_nonzero(hidden != inside))

    uniform_budget, mixed_violation = mass_budget_residuals(toy, field, inside)
    return [
        _check("field-dichotomy", dichotomy, 1e-12),
        _check("roi-visibility-agreement", float(disagreements), 0.0),
        _check("uniform-slice-mass-budget", uniform_budget, MASS_BUDGET_EPSILON),
        _check("mixed-slice-mass-budget", mixed_violation, 0.0),
    ]


def _run_toy(cfg: ScenarioConfig) -> tuple[list[dict], dict, dict]:
    toy, branch = _build_toy_config(cfg)
    if branch is None:
        choice = sample_nature_choice(toy, np.random.default_rng(cfg.seed))
    else:
        choice = NatureChoice(branch)
        weight = toy.weight_a if choice is NatureChoice.CLOUD1 else toy.weight_b
        if weight <= tolerances.TOL.branch_cutoff:
            raise ImpossiblePostSelectionError(
                f"pinned branch {branch} has Born weight {weight!r}"
            )
    field = beable_field(toy, choice)
    field_path = f"{cfg.out_prefix}_field.{cfg.out_format}"
    rays_path = f"{cfg.out_prefix}_rays.json"
    emit_field(field, cfg.out_format, field_path)
    _emit_rays(ray_trajectories(toy, choice), rays_path)
    reloaded = load_field(cfg.out_format, field_path)
    checks = _toy_checks(toy, choice, reloaded)
    selection = {"branch": choice.value}
    artifacts = {"field": field_path, "rays": rays_path}
    return checks, selection, artifacts


# ---------------------------------------------------------------------------
# lattice models


def _build_particles(records: Any, path: str, *, with_class: bool) -> tuple[ParticleSpec, ...]:
    if not isinstance(records, list) or not records:
        _fail(path, "expected a nonempty list of particle records")
    particles = []
    for index, raw in enumerate(records):
        entry_path = f"{path}[{index}]"
        keys = ("mass", "statistics") + (("class",) if with_class else ())
        record = _record(raw, entry_path, ("mass",), keys[1:])
        mass = _number(record, entry_path, "mass", exclusive_minimum=0.0)
        statistics = Statistics(
            _choice(record, entry_path, "statistics", tuple(s.value for s in Statistics))
            if "statistics" in record
            else "distinguishable"
        )
        if with_class and "class" in record:
            klass = ParticleClass(_choice(record, entry_path, "class", ("B", "F")))
        else:
            klass = ParticleClass.B
        particles.append(ParticleSpec(mass, statistics, klass))
    return tuple(particles)


def _build_lattice_model(cfg: ScenarioConfig, *, with_class: bool) -> LatticeModel:
    path = "config.parameters"
    record = _record(
        cfg.parameters,
        path,
        ("sites", "particles", "initial", "hamiltonian", "t_final"),
        ("spacing", "beable_class", "final_sites"),
    )
    sites = _integer(record, path, "sites", minimum=1)
    particles = _build_particles(record["particles"], f"{path}.particles", with_class=with_class)
    initial_record = _record(
        record["initial"], f"{path}.initial", ("type",), ("sites",)
    )
    initial_type = _choice(initial_record, f"{path}.initial", "type", ("sites", "uniform"))
    if initial_type == "sites":
        if "sites" not in initial_record:
            _fail(f"{path}.initial", "missing keys ['sites']")
        occupied = _int_list(initial_record, f"{path}.initial", "sites")
        initial = site_product_state(sites, particles, occupied)
    else:
        initial = uniform_product_state(sites, len(particles))
    h_path = f"{path}.hamiltonian"
    h_record = _record(
        record["hamiltonian"], h_path, ("type",), ("hopping", "contact", "periodic", "entries")
    )
    h_type = _choice(h_record, h_path, "type", ("hopping-contact", "matrix", "frozen"))
    if h_type == "hopping-contact":
        for key in ("hopping", "contact"):
            if key not in h_record:
                _fail(h_path, f"missing keys ['{key}']")
        periodic = h_record.get("periodic", False)
        if not isinstance(periodic, bool):
            _fail(f"{h_path}.periodic", "expected a boolean")
        hamiltonian = hopping_contact_hamiltonian(
            sites,
            particles,
            hopping=_number(h_record, h_path, "hopping"),
            contact=_number(h_record, h_path, "contact"),
            periodic=periodic,
        )
    elif h_type == "matrix":
        if "entries" not in h_record:
            _fail(h_path, "missing keys ['entries']")
        entries = h_record["entries"]
        if not isinstance(entries, list) or not all(
            isinstance(row, list) and len(row) == len(entries) for row in entries
        ):
            _fail(f"{h_path}.entries", "expected a square nested list of numbers or [re, im] pairs")
        matrix = [[_complex(cell, f"{h_path}.entries") for cell in row] for row in entries]
        hamiltonian = LinearOperator(matrix, hermitian=True)
    else:
        hamiltonian = None
    spacing = _number(record, path, "spacing", exclusive_minimum=0.0) if "spacing" in record else 1.0
    t_final = _number(record, path, "t_final", minimum=0.0)
    try:
        return LatticeModel(
            sites=sites,
            particles=particles,
            initial=initial,
            hamiltonian=hamiltonian,
            t_final=t_final,
            spacing=spacing,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _lattice_times(cfg: ScenarioConfig, t_final: float) -> np.ndarray:
    record = _record(cfg.grid, "config.grid", ("t_steps",), ("t_min", "t_max"))
    t_steps = _integer(record, "config.grid", "t_steps", minimum=1)
    t_min = _number(record, "config.grid", "t_min") if "t_min" in record else 0.0
    t_max = _number(record, "config.grid", "t_max") if "t_max" in record else t_final
    if not 0.0 <= t_min <= t_max <= t_final:
        _fail("config.grid", f"need 0 <= t_min <= t_max <= {t_final}")
    return np.linspace(t_min, t_max, t_steps)


def _oracle_field_residual(
    model: LatticeModel,
    beable_class: ParticleClass | None,
    final_sites: Sequence[int],
    field: BeableField,
) -> float:
    conditioned = beable_class.other() if beable_class is not None else None
    labels = class_labels(model, conditioned)
    assignments = list(itertools.product(range(model.sites), repeat=len(labels)))
    final_family = ProjectorFamily(
        [final_boundary_projector(model, conditioned, a) for a in assignments],
        [float(i) for i in range(len(assignments))],
    )
    p_final = final_family.members[assignments.index(tuple(final_sites))]
    families = [mass_family_at(model, beable_class, x) for x in range(model.sites)]
    hamiltonian = model.hamiltonian if model.hamiltonian is not None else LinearOperator.zero(model.dim)
    worst = 0.0
    for i, t in enumerate(field.ts):
        for x, family in enumerate(families):
            scenario = PrePostScenario(
                model.initial, family, p_final, hamiltonian, float(t), model.t_final
            )
            joint = oracle_joint_distribution(scenario, final_family)
            expect = abl_expectation(joint.condition_on_post_selection())
            worst = max(worst, abs(expect - field.values[i, x]))
    return worst


def _run_lattice(cfg: ScenarioConfig) -> tuple[list[dict], dict, dict]:
    with_class = cfg.kind == "nonrel-classes"
    model = _build_lattice_model(cfg, with_class=with_class)
    if with_class:
        record = cfg.parameters
        beable_name = record.get("beable_class", "B")
        if beable_name not in ("B", "F"):
            _fail("config.parameters.beable_class", f"must be 'B' or 'F', got {beable_name!r}")
        beable_class: ParticleClass | None = ParticleClass(beable_name)
        conditioned = beable_class.other()
    else:
        beable_class = None
        conditioned = None
    conditioned_labels = class_labels(model, conditioned)
    if "final_sites" in cfg.parameters:
        final_sites = tuple(_int_list(cfg.parameters, "config.parameters", "final_sites"))
        if len(final_sites) != len(conditioned_labels):
            _fail(
                "config.parameters.final_sites",
                f"need one site per conditioned particle ({len(conditioned_labels)})",
            )
    else:
        final_sites = sample_final_sites(model, conditioned, np.random.default_rng(cfg.seed))
    times = _lattice_times(cfg, model.t_final)
    field = abl_mass_field(model, beable_class, final_sites, times)
    field_path = f"{cfg.out_prefix}_field.{cfg.out_format}"
    emit_field(field, cfg.out_format, field_path)
    reloaded = load_field(cfg.out_format, field_path)

    scope_mass = sum(
        model.particles[label - 1].mass for label in class_labels(model, beable_class)
    )
    over = float(np.max(reloaded.values)) - scope_mass
    under = -float(np.min(reloaded.values))
    range_residual = max(0.0, over, under) / scope_mass
    checks = [_check("field-range", range_residual, tolerances.TOL.scalar)]
    if model.dim <= 64:
        checks.append(
            _check(
                "oracle-agreement",
                _oracle_field_residual(model, beable_class, final_sites, reloaded),
                1e-10,
            )
        )
    selection = {"final_sites": list(final_sites)}
    artifacts = {"field": field_path}
    return checks, selection, artifacts


# ---------------------------------------------------------------------------
# closed-form-vs-oracle sweep


def _monte_carlo_frequencies(scenario, trials: int, rng: np.random.Generator):
    """Stochastic measurement-sequence demonstration (never the oracle).

    Simulates the prepare/measure/collapse/measure chain ``trials`` times and
    returns the post-selected intermediate-outcome frequencies with the count
    of accepted runs.
    """
    branches = measurement_branches(scenario)
    branch_p = np.array([p for p, _ in branches])
    branch_p = branch_p / branch_p.sum()
    final_p = np.array(
        [0.0 if psi is None else born_probability(psi, scenario.final) for _, psi in branches]
    )
    outcomes = rng.choice(len(branches), size=trials, p=branch_p)
    accepted_mask = rng.random(trials) < final_p[outcomes]
    accepted = outcomes[accepted_mask]
    if accepted.size == 0:
        return None, 0
    counts = np.bincount(accepted, minlength=len(branches))
    return counts / accepted.size, int(accepted.size)


def _run_abl_check(cfg: ScenarioConfig) -> tuple[list[dict], dict, dict]:
    path = "config.parameters"
    record = _record(cfg.parameters, path, ("count", "max_dim"), ("monte_carlo_trials",))
    count = _integer(record, path, "count", minimum=1)
    max_dim = _integer(record, path, "max_dim", minimum=2, maximum=32)
    trials = (
        _integer(record, path, "monte_carlo_trials", minimum=100)
        if "monte_carlo_trials" in record
        else None
    )
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    completed = 0
    demo_scenario = None
    while completed < count:
        dim = int(rng.integers(2, max_dim + 1))
        scenario = random_scenario(rng, dim)
        closed = abl_evolved(scenario)
        joint = oracle_joint_distribution(
            scenario, ProjectorFamily.two_outcome(scenario.final)
        )
        try:
            conditioned = joint.condition_on_post_selection()
        except ImpossiblePostSelectionError:
            continue
        diff = max(
            abs(p - q) for p, q in zip(closed.probabilities, conditioned.probabilities)
        )
        worst = max(worst, diff)
        if demo_scenario is None and len(scenario.intermediate) >= 2:
            demo_scenario = (scenario, closed)
        completed += 1
    checks = [_check("closed-form-vs-oracle", worst, 1e-10)]
    selection: dict = {"scenarios": completed}
    if trials is not None and demo_scenario is not None:
        scenario, closed = demo_scenario
        frequencies, accepted = _monte_carlo_frequencies(scenario, trials, rng)
        if frequencies is None:
            checks.append(_check("monte-carlo-demonstration", float("inf"), 0.0))
        else:
            residue = float(
                max(abs(f - p) for f, p in zip(frequencies, closed.probabilities))
            )
            # 5-sigma band of a Bernoulli frequency estimate
            checks.append(
                _check("monte-carlo-demonstration", residue, 5.0 / (2.0 * np.sqrt(accepted)))
            )
        selection["monte_carlo_accepted"] = accepted
    return checks, selection, {}


# ---------------------------------------------------------------------------
# driver


_RUNNERS = {
    "toy1": _run_toy,
    "toy2": _run_toy,
    "nonrel-nparticle": _run_lattice,
    "nonrel-classes": _run_lattice,
    "abl-check": _run_abl_check,
}


def run(
    config_path: str,
    *,
    seed: int | None = None,
    out: str | None = None,
    fmt: str | None = None,
    stderr=None,
) -> int:
    """Execute one scenario config; returns the process exit code."""
    stderr = stderr if stderr is not None else sys.stderr
    started = time.perf_counter()
    try:
        with open(config_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=stderr)
        return 2
    try:
        cfg = parse_config(raw)
        if seed is not None:
            cfg = ScenarioConfig(cfg.kind, cfg.parameters, seed, cfg.grid, cfg.out_prefix, cfg.out_format)
        if out is not None:
            cfg = ScenarioConfig(cfg.kind, cfg.parameters, cfg.seed, cfg.grid, out, cfg.out_format)
        if fmt is not None:
            if fmt not in ("csv", "json"):
                raise ValidationError(f"--format must be csv or json, got {fmt!r}")
            cfg = ScenarioConfig(cfg.kind, cfg.parameters, cfg.seed, cfg.grid, cfg.out_prefix, fmt)
        parsed_elapsed = time.perf_counter() - started

        directory = os.path.dirname(cfg.out_prefix)
        if directory:
            os.makedirs(directory, exist_ok=True)
        phase_started = time.perf_counter()
        checks, selection, artifacts = _RUNNERS[cfg.kind](cfg)
        run_elapsed = time.perf_counter() - phase_started

        report = {
            "schema": 1,
            "kind": cfg.kind,
            "seed": cfg.seed,
            "scenario": raw,
            "selection": selection,
            "checks": checks,
            "artifacts": artifacts,
        }
        report_path = f"{cfg.out_prefix}_report.json"
        with open(report_path, "w", encoding="ascii") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"phase parse: {parsed_elapsed:.3f} s", file=stderr)
        print(f"phase run: {run_elapsed:.3f} s", file=stderr)
        for check in checks:
            status = "pass" if check["passed"] else "FAIL"
            print(
                f"check {check['name']}: {status} "
                f"(residual {check['residual']:.3e}, tolerance {check['tolerance']:.3e})",
                file=stderr,
            )
        if not all(check["passed"] for check in checks):
            return 4
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except (ImpossiblePostSelectionError, ZeroProbabilityBranchError) as exc:
        print(f"impossible post-selection: {exc}", file=stderr)
        return 3
    except (InvariantBreachError, np.linalg.LinAlgError) as exc:
        print(f"invariant breach: {exc}", file=stderr)
        return 4
    except BeableSimError as exc:
        print(f"error: {exc}", file=stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=stderr)
        return 5


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="beablesim",
        description="Pre/post-selected conditional probabilities and beable fields.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="execute a scenario config")
    runner.add_argument("config", help="path to a JSON scenario config")
    runner.add_argument("--seed", type=int, default=None, help="override the config seed")
    runner.add_argument("--out", default=None, help="override the output prefix")
    runner.add_argument("--format", default=None, choices=("csv", "json"),
                        help="override the output format")
    args = parser.parse_args(argv)
    return run(args.config, seed=args.seed, out=args.out, fmt=args.format)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
