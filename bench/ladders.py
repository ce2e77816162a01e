"""Reference ladders of `beablesim run` (printed, never gated).

    python3 bench/ladders.py

Prints a markdown table of the median wall time of one ``cli.run`` call over
``REPEATS`` calls, and of the time per grid point, for the lattice at
dimensions 16, 216 and 512 (three time steps each) and for the two-photon toy
model on grids from 100x100 to 1000x1000 (x from -0.5 to 1.5).  The configs
are the workloads' (``workloads.py``), made from ``SEED``.  One untimed call of each shape runs
first.  Outputs go to ``.bench_work/ladders`` and are removed at the end.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys

import numpy as np

import workloads
from worker import ROOT, run_op

REPEATS = 3
SEED = 3
# (sites, particles): dimensions 16, 216 and 512
LATTICE_RUNGS = ((4, 2), (6, 3), (8, 3))
TOY_RUNGS = (100, 300, 1000)
# keeps the x spacing of the 100x100 rung below the cloud width
TOY_X_RANGE = (-0.5, 1.5)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from beablesim import cli

    work = os.path.join(ROOT, ".bench_work", "ladders")
    rng = np.random.default_rng(SEED)
    rungs = [(f"lattice dim {s ** n}", workloads.lattice_field(rng, s, n, 3)) for s, n in LATTICE_RUNGS]
    rungs += [(f"toy {k}x{k}", workloads.toy_grid(rng, k, k, TOY_X_RANGE)) for k in TOY_RUNGS]
    print("| rung | points | run s (median) | per point |")
    print("| --- | --- | --- | --- |")
    try:
        for name, config in rungs:
            [path] = workloads.write_configs([config], work)
            times = []
            for attempt in range(REPEATS + 1):
                code, elapsed = run_op(cli.run, path, os.path.join(work, "out", "ladder"))
                if code != 0:
                    print(f"{name}: exit code {code}", file=sys.stderr)
                    return 1
                if attempt:
                    times.append(elapsed)
            median = statistics.median(times)
            points = workloads.points_per_op(config)
            print(f"| {name} | {points} | {median:.3f} | {1e3 * median / points:.4g} ms |",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
