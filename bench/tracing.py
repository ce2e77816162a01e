"""Per-layer spans and counters, recorded from outside the program.

Each layer's public functions are wrapped where their caller looks them up
(``cli.abl_evolved`` and ``nonrel.abl_evolved``, ``numpy.linalg.eigh`` for the
Hilbert kernel, the constructors of ``ProjectorFamily`` and ``LatticeModel``),
so nothing under ``src/`` changes.  A span's self time is its duration minus
the durations of the spans it encloses; a time the program spends outside
every inner span is charged to the enclosing ``cli.run`` span.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

# (metric, unit, source): "self:<span>" is self seconds, "calls:<name>" a count
PER_LAYER = (
    ("cli.parse_s", "s", "self:cli.parse"),
    ("cli.emit_s", "s", "self:cli.emit"),
    ("cli.emit_bytes", "bytes", "calls:cli.emit_bytes"),
    ("cli.reload_s", "s", "self:cli.reload"),
    ("cli.run_self_s", "s", "self:cli.run"),
    ("relmodels.roi_calls", "count", "calls:relmodels.roi"),
    ("relmodels.visibility_calls", "count", "calls:relmodels.visibility"),
    ("relmodels.field_s", "s", "self:relmodels.field"),
    ("nonrel.field_s", "s", "self:nonrel.field"),
    ("nonrel.sample_s", "s", "self:nonrel.sample"),
    ("nonrel.build_s", "s", "self:nonrel.build"),
    ("hilbert.eigh_calls", "count", "calls:hilbert.eigh"),
    ("hilbert.eigh_s", "s", "self:hilbert.eigh"),
    ("abl.evolved_calls", "count", "calls:abl.evolved"),
    ("abl.evolved_s", "s", "self:abl.evolved"),
    ("hilbert.validate_calls", "count", "calls:hilbert.validate"),
    ("hilbert.validate_s", "s", "self:hilbert.validate"),
    ("hilbert.family_calls", "count", "calls:hilbert.family"),
    ("hilbert.family_s", "s", "self:hilbert.family"),
    ("abl.oracle_calls", "count", "calls:abl.oracle"),
    ("abl.oracle_s", "s", "self:abl.oracle"),
    ("abl.scenario_s", "s", "self:abl.scenario"),
)


class Tracer:
    """Self time and call count per span name, plus plain counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._enclosed: list[float] = []

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            self._enclosed.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._enclosed.pop()
                self.calls[name] += 1
                if self._enclosed:
                    self._enclosed[-1] += elapsed
        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def emit_counter(self, fn):
        """``emit_field(field, fmt, path)``, counting the bytes it writes."""
        def counted(field, fmt, path):
            fn(field, fmt, path)
            self.calls["cli.emit_bytes"] += os.path.getsize(path)
        return counted

    def per_op(self, ops: int) -> dict[str, float]:
        """Every per-layer metric, divided by the number of operations."""
        values = {}
        for metric, _, source in PER_LAYER:
            kind, name = source.split(":")
            total = self.self_s.get(name, 0.0) if kind == "self" else self.calls.get(name, 0)
            values[metric] = total / ops
        return values


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layer functions for the duration of the block."""
    from beablesim import abl, cli, hilbert, nonrel

    patches = [
        (cli, "parse_config", tracer.span("cli.parse", cli.parse_config)),
        (cli, "emit_field", tracer.span("cli.emit", tracer.emit_counter(cli.emit_field))),
        (cli, "load_field", tracer.span("cli.reload", cli.load_field)),
        (cli, "in_region_of_indeterminacy",
         tracer.counter("relmodels.roi", cli.in_region_of_indeterminacy)),
        (cli, "ray_visible_outside_cone",
         tracer.counter("relmodels.visibility", cli.ray_visible_outside_cone)),
        (cli, "beable_field", tracer.span("relmodels.field", cli.beable_field)),
        (cli, "abl_mass_field", tracer.span("nonrel.field", cli.abl_mass_field)),
        (cli, "sample_final_sites", tracer.span("nonrel.sample", cli.sample_final_sites)),
        (cli, "hopping_contact_hamiltonian",
         tracer.span("nonrel.build", cli.hopping_contact_hamiltonian)),
        (cli, "site_product_state", tracer.span("nonrel.build", cli.site_product_state)),
        (cli, "uniform_product_state", tracer.span("nonrel.build", cli.uniform_product_state)),
        (nonrel.LatticeModel, "__init__",
         tracer.span("nonrel.build", nonrel.LatticeModel.__init__)),
        (np.linalg, "eigh", tracer.span("hilbert.eigh", np.linalg.eigh)),
        (cli, "abl_evolved", tracer.span("abl.evolved", cli.abl_evolved)),
        (nonrel, "abl_evolved", tracer.span("abl.evolved", nonrel.abl_evolved)),
        (hilbert, "validate_projector",
         tracer.span("hilbert.validate", hilbert.validate_projector)),
        (abl, "validate_projector", tracer.span("hilbert.validate", abl.validate_projector)),
        (hilbert.ProjectorFamily, "__init__",
         tracer.span("hilbert.family", hilbert.ProjectorFamily.__init__)),
        (cli, "oracle_joint_distribution",
         tracer.span("abl.oracle", cli.oracle_joint_distribution)),
        (cli, "random_scenario", tracer.span("abl.scenario", cli.random_scenario)),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
