"""The benchmark's workloads: one `beablesim run` config per operation.

Every config is made from the run seed alone, so the same seed gives the same
inputs.  A run repeats whole rounds of ``ROUND_SIZE`` operations, each with its
own config seed, and the shape of the configs (grid, dimension, sweep length)
is fixed per workload so that one median describes one kind of run.  In
`toy-grid` and `lattice-field` the amount of work an operation does does not
depend on the seed: the toy geometry and cloud widths are fixed (they decide
how many visibility predicates run and how many field values are nonzero), and
the lattice particles always have distinct masses (that decides the size of
every measurement family).  In `oracle-check` it does: the program draws each
scenario's dimension (2 to ``max_dim``) and degeneracy pattern from the config
seed, so the work of a round varies a little from seed to seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("toy-grid", "lattice-field", "oracle-check")
SIZES = ("full", "small")
ROUND_SIZE = 3

# (t_steps, x_steps) of the toy grid; full is the shape of configs/toy2.json
_TOY_GRID = {"full": (400, 500), "small": (40, 151)}
# (sites, particles, t_steps); full is dimension 6**3 = 216
_LATTICE = {"full": (6, 3, 9), "small": (3, 2, 3)}
# (count, max_dim, monte_carlo_trials)
_SWEEP = {"full": (1000, 32, 20000), "small": (10, 8, 2000)}


def _config_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 63))


def toy_grid(rng: np.random.Generator, t_steps: int, x_steps: int,
             x_range: tuple[float, float] = (-2.0, 3.0)) -> dict:
    """A `toy2` config on a ``t_steps`` x ``x_steps`` grid; the program needs
    the x spacing to be at most the cloud width, 0.05."""
    weight_a = float(rng.uniform(0.2, 0.8))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    amp_b = math.sqrt(1.0 - weight_a)
    return {
        "schema": 1,
        "kind": "toy2",
        "seed": _config_seed(rng),
        "grid": {"t_min": -3.0, "t_max": 3.0, "t_steps": t_steps,
                 "x_min": x_range[0], "x_max": x_range[1], "x_steps": x_steps},
        "parameters": {
            "x1": 0.0, "x2": 1.0,
            "sigma1": 0.05,
            "sigma2": 0.05,
            "amp_a": [math.sqrt(weight_a), 0.0],
            "amp_b": [amp_b * math.cos(phase), amp_b * math.sin(phase)],
            "mass": float(rng.uniform(1.0, 3.0)),
            "t1": 0.50390625,
        },
        "output": {"prefix": "out/toy-grid", "format": "csv"},
    }


def lattice_field(rng: np.random.Generator, sites: int, count: int, t_steps: int) -> dict:
    """A `nonrel-nparticle` config of ``count`` particles on ``sites`` sites."""
    masses: list[float] = []
    while len(masses) < count:
        mass = round(float(rng.uniform(0.5, 4.0)), 6)
        if mass not in masses:
            masses.append(mass)
    occupied = [int(s) for s in rng.choice(sites, size=count, replace=False)]
    return {
        "schema": 1,
        "kind": "nonrel-nparticle",
        "seed": _config_seed(rng),
        "grid": {"t_steps": t_steps},
        "parameters": {
            "sites": sites,
            "particles": [{"mass": m} for m in masses],
            "initial": {"type": "sites", "sites": occupied},
            "hamiltonian": {
                "type": "hopping-contact",
                "hopping": float(rng.uniform(0.5, 1.5)),
                "contact": float(rng.uniform(0.0, 2.0)),
                "periodic": bool(rng.integers(0, 2)),
            },
            "t_final": float(rng.uniform(1.0, 2.0)),
        },
        "output": {"prefix": "out/lattice-field", "format": "json"},
    }


def oracle_check(rng: np.random.Generator, count: int, max_dim: int, trials: int) -> dict:
    """An `abl-check` config of ``count`` scenarios."""
    return {
        "schema": 1,
        "kind": "abl-check",
        "seed": _config_seed(rng),
        "parameters": {"count": count, "max_dim": max_dim, "monte_carlo_trials": trials},
        "output": {"prefix": "out/oracle-check", "format": "csv"},
    }


_MAKERS = {
    "toy-grid": (toy_grid, _TOY_GRID),
    "lattice-field": (lattice_field, _LATTICE),
    "oracle-check": (oracle_check, _SWEEP),
}


def make_configs(workload: str, seed: int, size: str) -> list[dict]:
    """The ``ROUND_SIZE`` configs of one round, made from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    maker, shapes = _MAKERS[workload]
    return [maker(rng, *shapes[size]) for _ in range(ROUND_SIZE)]


def write_configs(configs: list[dict], directory: str) -> list[str]:
    """Write each config to its own file and return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, config in enumerate(configs):
        path = os.path.join(directory, f"config-{index}.json")
        with open(path, "w", encoding="ascii") as handle:
            json.dump(config, handle, indent=1)
        paths.append(path)
    return paths


def points_per_op(config: dict) -> int:
    """Work delivered by one operation: grid points, or sweep scenarios."""
    if config["kind"] == "abl-check":
        return config["parameters"]["count"]
    if config["kind"] == "nonrel-nparticle":
        return config["grid"]["t_steps"] * config["parameters"]["sites"]
    return config["grid"]["t_steps"] * config["grid"]["x_steps"]
