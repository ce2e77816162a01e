"""Correctness checks made apart from the program.

Each check reads one operation's config and the files `beablesim run` wrote,
recomputes what they must hold with this file's own code (numpy and
``scipy.linalg.expm``; nothing from ``beablesim``), and returns a list of
problems, empty when the output is right.  None of them compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

GAUSSIAN_CUTOFF_SIGMAS = 8.0
# grid points this close to the collapse front may fall on either side of it
FRONT_MARGIN = 1e-9


def _report(prefix: str) -> dict:
    with open(f"{prefix}_report.json", encoding="ascii") as handle:
        return json.load(handle)


def _self_checks(report: dict) -> list[str]:
    return [
        f"report self-check {check['name']} failed (residual {check['residual']})"
        for check in report["checks"]
        if not check["passed"]
    ]


def _amplitude(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def _cloud(xs: np.ndarray, centre: float, sigma: float) -> np.ndarray:
    z = (xs - centre) / sigma
    body = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    return np.where(np.abs(xs - centre) <= GAUSSIAN_CUTOFF_SIGMAS * sigma, body, 0.0)


def _trapezoid(values: np.ndarray, xs: np.ndarray) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(xs)))


def check_toy(config: dict, prefix: str) -> list[str]:
    """Two-photon toy field against the paper's closed forms.

    Inside the region of indeterminacy, ``t < t1 + (x - x2)`` and
    ``t < t1 - (x - x1)``, the field is the Born mixture
    ``M (|a|^2 g1 + |b|^2 g2)``; outside it is ``M g_k`` of the reported
    branch.  Every slice wholly inside or wholly outside integrates to ``M``.
    """
    p, g = config["parameters"], config["grid"]
    report = _report(prefix)
    problems = _self_checks(report)
    branch = report["selection"].get("branch")
    weight_a = abs(_amplitude(p["amp_a"])) ** 2
    weight_b = abs(_amplitude(p["amp_b"])) ** 2
    if branch not in (1, 2):
        return problems + [f"reported branch {branch!r} is not 1 or 2"]
    if (weight_a, weight_b)[branch - 1] <= 1e-14:
        problems.append(f"reported branch {branch} has no Born weight")

    with open(f"{prefix}_field.csv", encoding="ascii") as handle:
        header = handle.readline().strip()
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if header != "t,x,rho":
        problems.append(f"field header is {header!r}")
    nt, nx = g["t_steps"], g["x_steps"]
    if data.shape != (nt * nx, 3):
        return problems + [f"field has shape {data.shape}, expected {(nt * nx, 3)}"]
    ts = np.linspace(g["t_min"], g["t_max"], nt)
    xs = np.linspace(g["x_min"], g["x_max"], nx)
    t, x, rho = (data[:, k].reshape(nt, nx) for k in range(3))
    if np.max(np.abs(t - ts[:, None])) > 1e-12 or np.max(np.abs(x - xs[None, :])) > 1e-12:
        problems.append("field (t, x) columns are not the configured grid")

    mass, t1 = p["mass"], p["t1"]
    g1 = _cloud(xs, p["x1"], p["sigma1"])
    g2 = _cloud(xs, p["x2"], p["sigma2"])
    mixture = mass * (weight_a * g1 + weight_b * g2)
    resolved = mass * (g1 if branch == 1 else g2)
    margin = np.minimum(t1 + (xs[None, :] - p["x2"]), t1 - (xs[None, :] - p["x1"])) - ts[:, None]
    inside = margin > 0.0
    expected = np.where(inside, mixture[None, :], resolved[None, :])
    other = np.where(inside, resolved[None, :], mixture[None, :])
    tolerance = 1e-12 * np.max(np.maximum(mixture, resolved))
    wrong = np.abs(rho - expected) > tolerance
    wrong &= ~((np.abs(margin) <= FRONT_MARGIN) & (np.abs(rho - other) <= tolerance))
    if wrong.any():
        i, j = np.argwhere(wrong)[0]
        problems.append(
            f"{int(wrong.sum())} field values differ from the closed form, first at "
            f"t={ts[i]!r}, x={xs[j]!r}: {rho[i, j]!r} against {expected[i, j]!r}"
        )
    for i in np.nonzero(inside.all(axis=1) | ~inside.any(axis=1))[0]:
        integral = _trapezoid(rho[i], xs)
        if abs(integral - mass) > 1e-6 * mass:
            problems.append(f"uniform slice t={ts[i]!r} integrates to {integral!r}, not {mass!r}")
            break

    with open(f"{prefix}_rays.json", encoding="ascii") as handle:
        rays = json.load(handle)["rays"]
    actual = sorted(ray["cloud"] for ray in rays if ray["actual"])
    if len(rays) != 4 or actual != [branch, branch]:
        problems.append(f"rays do not flag the two photons of branch {branch} as actual")
    return problems


def _lattice_basis(sites: int, count: int) -> np.ndarray:
    """(dim, count) site of every particle in each basis state, particle 1 major."""
    return np.array(list(itertools.product(range(sites), repeat=count)), dtype=int)


def _hopping_hamiltonian(basis: np.ndarray, sites: int, hopping: float, periodic: bool) -> np.ndarray:
    """Nearest-neighbour hopping ``-hopping`` for each particle.

    ``nonrel-nparticle`` puts every particle in one class, so the B-F contact
    term of the program's Hamiltonian is zero here.
    """
    dim, count = basis.shape
    index = {tuple(row): k for k, row in enumerate(basis)}
    matrix = np.zeros((dim, dim), dtype=complex)
    for k, row in enumerate(basis):
        for slot in range(count):
            for step in (-1, 1):
                site = row[slot] + step
                if periodic and sites > 2:
                    site %= sites
                elif not 0 <= site < sites:
                    continue
                target = tuple(row[:slot]) + (site,) + tuple(row[slot + 1:])
                matrix[index[target], k] += -hopping
    return matrix


def _isolated_mass(sites_of: list[int], masses: list[float], site: int) -> float:
    """Mass found alone at ``site`` (no-overlap convention), else 0."""
    there = [m for s, m in zip(sites_of, masses) if s == site]
    return there[0] if len(there) == 1 else 0.0


def check_lattice(config: dict, prefix: str) -> list[str]:
    """Lattice mass field against the two-state-vector form.

    At every grid point the weight of outcome ``i`` is
    ``|| P_c U(T - t) P_i U(t) psi0 ||^2`` with ``U = expm(-i H t)`` and
    site-basis masks for ``P_c`` (the reported final sites) and ``P_i``
    ("a particle of this mass alone at x", or none).  The field is the
    mass-weighted mean.  Pre- and post-selection make the first and last
    time rows certain.
    """
    from scipy.linalg import expm

    p = config["parameters"]
    report = _report(prefix)
    problems = _self_checks(report)
    sites = p["sites"]
    masses = [particle["mass"] for particle in p["particles"]]
    initial = p["initial"]["sites"]
    final = report["selection"].get("final_sites")
    if (not isinstance(final, list) or len(final) != len(masses)
            or not all(isinstance(s, int) and 0 <= s < sites for s in final)):
        return problems + [f"reported final_sites {final!r} is not one site per particle"]
    with open(f"{prefix}_field.json", encoding="ascii") as handle:
        document = json.load(handle)
    t_final = p["t_final"]
    ts = np.linspace(0.0, t_final, config["grid"]["t_steps"])
    values = np.array(document["values"], dtype=float)
    if (len(document["grid"]["ts"]) != ts.size or len(document["grid"]["xs"]) != sites
            or np.max(np.abs(np.array(document["grid"]["ts"]) - ts)) > 1e-12
            or np.max(np.abs(np.array(document["grid"]["xs"]) - np.arange(sites))) > 1e-12
            or values.size != ts.size * sites):
        return problems + ["field grid is not the configured grid"]
    values = values.reshape(ts.size, sites)

    hamiltonian = p["hamiltonian"]
    basis = _lattice_basis(sites, len(masses))
    h = _hopping_hamiltonian(basis, sites, hamiltonian["hopping"], hamiltonian.get("periodic", False))
    # the times are evenly spaced from 0 to T, so U(t_k) = U(dt)^k
    step = expm(-1j * h * (t_final / (ts.size - 1)))
    forward = [np.all(basis == initial, axis=1).astype(complex)]
    backward = [np.all(basis == final, axis=1).astype(complex)]
    for _ in ts[1:]:
        forward.append(step @ forward[-1])
        backward.append(backward[-1] @ step)
    backward.reverse()
    if abs(backward[-1] @ forward[-1]) ** 2 <= 1e-14:
        problems.append(f"final sites {final} have no Born weight")

    occupancy = np.stack([(basis == site).sum(axis=1) for site in range(sites)], axis=1)
    spectrum = sorted(set(masses))
    expected = np.zeros_like(values)
    for i, (psi_t, back) in enumerate(zip(forward, backward)):
        for site in range(sites):
            alone = occupancy[:, site] == 1
            outcomes = [
                np.any([(basis[:, slot] == site) & alone
                        for slot, m in enumerate(masses) if m == mass], axis=0)
                for mass in spectrum
            ]
            outcomes.append(~np.any(outcomes, axis=0))
            weights = [abs(back[mask] @ psi_t[mask]) ** 2 for mask in outcomes]
            expected[i, site] = sum(m * w for m, w in zip(spectrum, weights)) / sum(weights)
    deviation = np.abs(values - expected)
    if np.max(deviation) > 1e-10:
        i, site = np.unravel_index(np.argmax(deviation), deviation.shape)
        problems.append(
            f"field differs from the two-state-vector value by {deviation[i, site]:.3e} "
            f"at t={ts[i]!r}, site {site}"
        )
    for label, row, sites_of in (("t=0", 0, initial), ("t=T", -1, final)):
        certain = [_isolated_mass(sites_of, masses, site) for site in range(sites)]
        if np.max(np.abs(values[row] - certain)) > 1e-10:
            problems.append(f"field at {label} is {values[row].tolist()}, expected {certain}")
    return problems


def check_sweep(config: dict, prefix: str) -> list[str]:
    """abl-check: closed forms agree with the oracle, the sweep is complete,
    and the Monte-Carlo frequencies lie within their 5-sigma band."""
    p = config["parameters"]
    report = _report(prefix)
    problems = _self_checks(report)
    checks = {check["name"]: check for check in report["checks"]}
    closed = checks.get("closed-form-vs-oracle")
    if closed is None or not closed["residual"] <= 1e-10:
        problems.append(f"closed-form-vs-oracle residual is not <= 1e-10: {closed!r}")
    selection = report["selection"]
    if selection.get("scenarios") != p["count"]:
        problems.append(f"swept {selection.get('scenarios')!r} scenarios, asked for {p['count']}")
    accepted = selection.get("monte_carlo_accepted")
    demo = checks.get("monte-carlo-demonstration")
    if not isinstance(accepted, int) or not 0 < accepted <= p["monte_carlo_trials"] or demo is None:
        problems.append(f"no Monte-Carlo demonstration with accepted runs: {accepted!r}")
    elif not demo["residual"] <= 5.0 / (2.0 * math.sqrt(accepted)):
        problems.append(f"Monte-Carlo residual {demo['residual']!r} is outside its 5-sigma band")
    return problems


CHECKS = {"toy2": check_toy, "nonrel-nparticle": check_lattice, "abl-check": check_sweep}


def check_op(config: dict, prefix: str) -> list[str]:
    """Problems with one operation's output; a missing or unreadable file is one."""
    try:
        return CHECKS[config["kind"]](config, prefix)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output cannot be read: {exc!r}"]
