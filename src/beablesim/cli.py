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

The schema is one table per kind (``KINDS``) giving each key its type, bounds
and default or required flag.  :func:`parse_config` checks the whole config
against it before anything runs, so a config that fails the schema writes no
file or directory.  Keys of another kind or variant are errors, and every
error names its key path, e.g. ``config.parameters.t1: expected a finite
number``.

Every residual in the report is recomputed from the *emitted* files, not from
in-memory state, so serialization is part of what the checks certify.  The
report file contains no timings (those go to stderr), which keeps every
output byte a pure function of (config, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys
import time
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

# ---------------------------------------------------------------------------
# the config schema: one table per kind, one walker


_REQUIRED = object()


@dataclasses.dataclass(frozen=True)
class Key:
    """One config key: its type, its default (required if it has none) and its domain.

    ``type`` is ``number``, ``integer``, ``complex`` (a number or an ``[re, im]``
    pair), ``choice``, ``boolean``, ``string``, ``integers`` or ``matrix``.  A
    choice's ``choices`` may map each value to the further keys that value
    admits in the same record.  In a table, a nested table is an object and a
    one-table list a nonempty list of such objects.
    """

    type: str
    default: Any = _REQUIRED
    minimum: float | None = None
    exclusive_minimum: float | None = None
    maximum: int | None = None
    choices: Sequence | dict = ()


_NUMBER = Key("number")
_POSITIVE = Key("number", exclusive_minimum=0.0)
_CLASS = Key("choice", default="B", choices=("B", "F"))
TOY_GRID = {"t_min": _NUMBER, "t_max": _NUMBER, "t_steps": Key("integer", minimum=1),
            "x_min": _NUMBER, "x_max": _NUMBER, "x_steps": Key("integer", minimum=2)}
TOY_PARAMETERS = {
    "x1": _NUMBER, "x2": _NUMBER, "sigma1": _POSITIVE, "sigma2": _POSITIVE,
    "amp_a": Key("complex"), "amp_b": Key("complex"), "mass": _POSITIVE, "t1": _NUMBER,
    "branch": Key("integer", default=None, minimum=1, maximum=2),
    "separation_ratio": Key("number", default=None, exclusive_minimum=0.0),
}
# t_max defaults to the model's t_final
LATTICE_GRID = {"t_steps": Key("integer", minimum=1), "t_min": Key("number", default=0.0),
                "t_max": Key("number", default=None)}
PARTICLE = {
    "mass": _POSITIVE,
    "statistics": Key("choice", default="distinguishable", choices=tuple(s.value for s in Statistics)),
}
NPARTICLE_PARAMETERS = {
    "sites": Key("integer", minimum=1),
    "particles": [PARTICLE],
    "initial": {"type": Key("choice", choices={"sites": {"sites": Key("integers")}, "uniform": {}})},
    "hamiltonian": {"type": Key("choice", choices={
        "hopping-contact": {"hopping": _NUMBER, "contact": _NUMBER,
                            "periodic": Key("boolean", default=False)},
        "matrix": {"entries": Key("matrix")},
        "frozen": {},
    })},
    "t_final": Key("number", minimum=0.0),
    "spacing": Key("number", default=1.0, exclusive_minimum=0.0),
    "final_sites": Key("integers", default=None),
}
CLASSES_PARAMETERS = {**NPARTICLE_PARAMETERS, "particles": [{**PARTICLE, "class": _CLASS}],
                      "beable_class": _CLASS}
ABL_CHECK_PARAMETERS = {"count": Key("integer", minimum=1),
                        "max_dim": Key("integer", minimum=2, maximum=32),
                        "monte_carlo_trials": Key("integer", default=None, minimum=100)}
KINDS = {
    "abl-check": {"parameters": ABL_CHECK_PARAMETERS},
    "nonrel-nparticle": {"grid": LATTICE_GRID, "parameters": NPARTICLE_PARAMETERS},
    "nonrel-classes": {"grid": LATTICE_GRID, "parameters": CLASSES_PARAMETERS},
    "toy1": {"grid": TOY_GRID, "parameters": TOY_PARAMETERS},
    "toy2": {"grid": TOY_GRID, "parameters": TOY_PARAMETERS},
}
OUTPUT = {"prefix": Key("string"), "format": Key("choice", choices=("csv", "json"))}
CONFIG = {"schema": Key("choice", choices=(1,)), "kind": Key("choice", choices=KINDS),
          "seed": Key("integer", minimum=0), "output": OUTPUT}


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


@contextlib.contextmanager
def _named(path: str):
    """Prefix the ``ValidationError`` of a library constructor with its config path."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value: int | float, path: str) -> float:
    """``value`` as a float, refusing the NaN, infinities and overflowing literals JSON admits."""
    if not abs(value) <= sys.float_info.max:
        _fail(path, "expected a finite number")
    return float(value)


def _complex(value: Any, path: str) -> complex:
    """A config number or ``[re, im]`` pair as a finite complex number."""
    if _is_number(value):
        return complex(_finite(value, path), 0.0)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(_finite(value[0], path), _finite(value[1], path))
    _fail(path, "expected a number or a [re, im] pair")


def _walk(value: Any, table: dict, path: str) -> dict:
    """A config record checked against ``table``, with its defaults filled in.

    A choice that maps its values to further keys adds the keys of the value
    given, so keys of another variant are unknown.  Nested tables are required.
    """
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    for name, key in list(table.items()):
        if isinstance(key, Key) and isinstance(key.choices, dict) and name in value:
            table = {**table, **key.choices[_read(key, value[name], f"{path}.{name}")]}
    missing = [name for name, key in table.items()
               if name not in value and getattr(key, "default", _REQUIRED) is _REQUIRED]
    if missing:
        _fail(path, f"missing keys {missing}")
    unknown = sorted(set(value) - set(table))
    if unknown:
        _fail(path, f"unknown keys {unknown}")
    return {
        name: _read(key, value[name], f"{path}.{name}") if name in value else key.default
        for name, key in table.items()
    }


def _read(key: Key | dict | list, value: Any, path: str) -> Any:
    """One config value checked against its key or table; every error names ``path``."""
    if isinstance(key, dict):
        return _walk(value, key, path)
    if isinstance(key, list):
        if not isinstance(value, list) or not value:
            _fail(path, "expected a nonempty list of objects")
        return [_walk(entry, key[0], f"{path}[{i}]") for i, entry in enumerate(value)]
    if key.type == "choice":
        if value not in list(key.choices):
            _fail(path, f"must be one of {list(key.choices)}, got {value!r}")
        return value
    if key.type == "complex":
        return _complex(value, path)
    if key.type == "matrix":
        if not isinstance(value, list) or not all(
            isinstance(row, list) and len(row) == len(value) for row in value
        ):
            _fail(path, "expected a square nested list of numbers or [re, im] pairs")
        with _named(path):
            return LinearOperator([[_complex(cell, path) for cell in row] for row in value],
                                  hermitian=True)
    expected, valid = {
        "number": ("a number", _is_number(value)),
        "integer": ("an integer", _is_integer(value)),
        "boolean": ("a boolean", isinstance(value, bool)),
        "string": ("a nonempty string", isinstance(value, str) and value != ""),
        "integers": ("a list of integers", isinstance(value, list) and all(map(_is_integer, value))),
    }[key.type]
    if not valid:
        _fail(path, f"expected {expected}")
    if key.type == "number":
        value = _finite(value, path)
    elif key.type == "integer" and value >= 2 ** 64:
        _fail(path, "must fit in 64 bits")
    if key.minimum is not None and value < key.minimum:
        _fail(path, f"must be >= {key.minimum}, got {value}")
    if key.exclusive_minimum is not None and value <= key.exclusive_minimum:
        _fail(path, f"must be > {key.exclusive_minimum}, got {value}")
    if key.maximum is not None and value > key.maximum:
        _fail(path, f"must be <= {key.maximum}, got {value}")
    return value


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Parsed, schema-checked scenario: kind, parameters, seed, grid, output.

    ``parameters`` and ``grid`` (``None`` for ``abl-check``) hold the checked
    values with every default filled in.
    """

    kind: str
    parameters: dict
    seed: int
    grid: dict | None
    out_prefix: str
    out_format: str


def parse_config(raw: Any, path: str = "config") -> ScenarioConfig:
    """Check a whole config against its kind's table and the rules that join keys."""
    values = _walk(raw, CONFIG, path)
    kind, grid, parameters = values["kind"], values.get("grid"), values["parameters"]
    if kind in ("nonrel-nparticle", "nonrel-classes"):
        t_final = parameters["t_final"]
        if grid["t_max"] is None:
            grid["t_max"] = t_final
        if not 0.0 <= grid["t_min"] <= grid["t_max"] <= t_final:
            _fail(f"{path}.grid", f"need 0 <= t_min <= t_max <= {t_final}")
        particles = parameters["particles"]
        beable = parameters.get("beable_class")
        conditioned = [p for p in particles if beable is None or p["class"] != beable]
        for name, sites, count, what in (
            ("initial.sites", parameters["initial"].get("sites"), len(particles), "particle"),
            ("final_sites", parameters["final_sites"], len(conditioned), "conditioned particle"),
        ):
            if sites is None:
                continue
            if len(sites) != count:
                _fail(f"{path}.parameters.{name}", f"need one site per {what} ({count})")
            for site in sites:
                if not 0 <= site < parameters["sites"]:
                    _fail(f"{path}.parameters.{name}",
                          f"site {site} out of range 0..{parameters['sites'] - 1}")
    output = values["output"]
    return ScenarioConfig(kind, parameters, values["seed"], grid, output["prefix"], output["format"])


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
    """Reload an emitted field grid; the round trip is bit-exact.

    A malformed file raises ``ValidationError`` naming it."""
    try:
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
        else:
            with open(path, "r", encoding="ascii") as handle:
                document = json.load(handle)
            ts, xs, rows = document["grid"]["ts"], document["grid"]["xs"], document["values"]
        values = np.array(rows).reshape(len(ts), len(xs))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed field file: {exc}") from exc
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
    with _named("config.grid"):
        grid = SpacetimeGrid(**cfg.grid)
    # an absent separation_ratio keeps the model's default
    parameters = {name: value for name, value in cfg.parameters.items() if value is not None}
    branch = parameters.pop("branch", None)
    with _named("config.parameters"):
        toy = ToyModelConfig(photons=1 if cfg.kind == "toy1" else 2, grid=grid, **parameters)
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


def _build_lattice_model(cfg: ScenarioConfig) -> LatticeModel:
    parameters = cfg.parameters
    sites, initial, h = parameters["sites"], parameters["initial"], parameters["hamiltonian"]
    with _named("config.parameters"):
        particles = tuple(
            ParticleSpec(p["mass"], Statistics(p["statistics"]), ParticleClass(p.get("class", "B")))
            for p in parameters["particles"]
        )
        if initial["type"] == "sites":
            state = site_product_state(sites, particles, initial["sites"])
        else:
            state = uniform_product_state(sites, len(particles))
        if h["type"] == "hopping-contact":
            hamiltonian = hopping_contact_hamiltonian(
                sites, particles, hopping=h["hopping"], contact=h["contact"], periodic=h["periodic"]
            )
        else:
            hamiltonian = h.get("entries")  # the checked operator of a matrix, None if frozen
        return LatticeModel(sites=sites, particles=particles, initial=state, hamiltonian=hamiltonian,
                            t_final=parameters["t_final"], spacing=parameters["spacing"])


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
    model = _build_lattice_model(cfg)
    beable_name = cfg.parameters.get("beable_class")  # absent for nonrel-nparticle
    beable_class = ParticleClass(beable_name) if beable_name is not None else None
    if cfg.parameters["final_sites"] is not None:
        final_sites = tuple(cfg.parameters["final_sites"])
    else:
        conditioned = beable_class.other() if beable_class is not None else None
        final_sites = sample_final_sites(model, conditioned, np.random.default_rng(cfg.seed))
    times = np.linspace(cfg.grid["t_min"], cfg.grid["t_max"], cfg.grid["t_steps"])
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
    count = cfg.parameters["count"]
    max_dim = cfg.parameters["max_dim"]
    trials = cfg.parameters["monte_carlo_trials"]
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
        overrides = {
            name: _read(key, value, flag)
            for name, key, value, flag in (
                ("seed", CONFIG["seed"], seed, "--seed"),
                ("out_prefix", OUTPUT["prefix"], out, "--out"),
                ("out_format", OUTPUT["format"], fmt, "--format"),
            )
            if value is not None
        }
        cfg = dataclasses.replace(parse_config(raw), **overrides)
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
    runner.add_argument("--format", default=None, choices=OUTPUT["format"].choices,
                        help="override the output format")
    args = parser.parse_args(argv)
    return run(args.config, seed=args.seed, out=args.out, fmt=args.format)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
