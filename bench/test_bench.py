"""Tests of the benchmark itself, on the small size of every workload.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Two traced runs and one untraced run of every workload, one round each,
    with their outputs kept.  Each run writes under the same path, which its
    report names, and is moved aside afterwards."""
    root = tmp_path_factory.mktemp("bench")
    work_dir = str(root / "run")
    probes = run.SETUP_PROBES
    run.SETUP_PROBES = 2
    try:
        runs = {}
        for workload in workloads.WORKLOADS:
            for label, trace in (("untraced", 0), ("traced", 1), ("traced-again", 1)):
                result = run.measure(workload, SEED, 0.0, trace, "small", work_dir)
                kept = str(root / f"{workload}-{label}")
                os.rename(work_dir, kept)
                runs[workload, label] = (result, kept)
        return runs
    finally:
        run.SETUP_PROBES = probes


def _declared(kind: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("label, kind", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_small_run_passes_and_reports_declared_metrics(small_runs, workload, label, kind):
    result, _ = small_runs[workload, label]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.ROUND_SIZE
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == _declared(kind)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(small_runs, workload):
    first, _ = small_runs[workload, "traced"]
    second, _ = small_runs[workload, "traced-again"]
    counts = [n for n, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_output_bytes_identical(small_runs, workload):
    _, untraced = small_runs[workload, "untraced"]
    _, traced = small_runs[workload, "traced"]
    compared = 0
    for op in sorted(d for d in os.listdir(untraced) if d.startswith("op-")):
        for name in sorted(os.listdir(os.path.join(untraced, op))):
            with open(os.path.join(untraced, op, name), "rb") as a, \
                    open(os.path.join(traced, op, name), "rb") as b:
                assert a.read() == b.read(), (op, name)
            compared += 1
    assert compared >= workloads.ROUND_SIZE


def _corrupt_field_csv(prefix: str) -> None:
    with open(f"{prefix}_field.csv", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    middle = len(lines) // 2
    t, x, rho = lines[middle].split(",")
    lines[middle] = f"{t},{x},{float(rho) * (1.0 + 1e-9) + 1e-9!r}"
    with open(f"{prefix}_field.csv", "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def _edit_json(path: str, edit) -> None:
    with open(path, encoding="ascii") as handle:
        document = json.load(handle)
    edit(document)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(document, handle, indent=2)


def _other_branch(report: dict) -> None:
    report["selection"]["branch"] = 3 - report["selection"]["branch"]


def _perturb_lattice_value(field: dict) -> None:
    values = field["values"]
    values[len(values) // 2] += 1e-8


def _wrong_final_site(report: dict) -> None:
    sites = report["selection"]["final_sites"]
    sites[0] = (sites[0] + 1) % 3  # the small lattice has three sites


def _loose_residual(report: dict) -> None:
    next(c for c in report["checks"] if c["name"] == "closed-form-vs-oracle")["residual"] = 1e-9


def _short_sweep(report: dict) -> None:
    report["selection"]["scenarios"] -= 1


def _monte_carlo_outside_band(report: dict) -> None:
    next(c for c in report["checks"] if c["name"] == "monte-carlo-demonstration")["residual"] = 0.5


CORRUPTIONS = [
    ("toy-grid", "perturbed field value", _corrupt_field_csv),
    ("toy-grid", "wrong branch", lambda prefix: _edit_json(f"{prefix}_report.json", _other_branch)),
    ("lattice-field", "perturbed field value",
     lambda prefix: _edit_json(f"{prefix}_field.json", _perturb_lattice_value)),
    ("lattice-field", "wrong final site",
     lambda prefix: _edit_json(f"{prefix}_report.json", _wrong_final_site)),
    ("oracle-check", "residual above 1e-10",
     lambda prefix: _edit_json(f"{prefix}_report.json", _loose_residual)),
    ("oracle-check", "short sweep",
     lambda prefix: _edit_json(f"{prefix}_report.json", _short_sweep)),
    ("oracle-check", "Monte-Carlo outside its band",
     lambda prefix: _edit_json(f"{prefix}_report.json", _monte_carlo_outside_band)),
]


@pytest.mark.parametrize("workload, what, corrupt", CORRUPTIONS, ids=[c[1] for c in CORRUPTIONS])
def test_check_rejects_corrupted_output(small_runs, tmp_path, workload, what, corrupt):
    _, work_dir = small_runs[workload, "untraced"]
    shutil.copytree(os.path.join(work_dir, "op-000"), tmp_path / "op")
    with open(os.path.join(work_dir, "configs", "config-0.json"), encoding="ascii") as handle:
        config = json.load(handle)
    prefix = str(tmp_path / "op" / "out")
    assert checks.check_op(config, prefix) == []
    corrupt(prefix)
    assert checks.check_op(config, prefix), what


@pytest.mark.parametrize("warm_up_code, op_code", [(0, 4), (4, 0)],
                         ids=["failed operation", "failed warm-up"])
def test_failed_operation_makes_the_run_incorrect(small_runs, monkeypatch, warm_up_code, op_code):
    _, work_dir = small_runs["oracle-check", "untraced"]
    ops = [{"slot": slot, "prefix": os.path.join(work_dir, f"op-{slot:03d}", "out"),
            "code": op_code, "seconds": 1.0} for slot in range(workloads.ROUND_SIZE)]
    record = {"warm_up_code": warm_up_code, "ops": ops, "per_layer": None}
    monkeypatch.setattr(run, "_setup_probe", lambda *args: (0.3, 0.2))
    monkeypatch.setattr(run, "_workload_process", lambda *args: (record, 40.0))
    result = run.measure("oracle-check", SEED, 0.0, 0, "small", work_dir)
    assert not result["correct"]
    assert result["attempted"] == workloads.ROUND_SIZE
    assert result["failed"] == (workloads.ROUND_SIZE if op_code else 0)


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_configs(workload, 7, "full") == workloads.make_configs(workload, 7, "full")
        assert workloads.make_configs(workload, 7, "full") != workloads.make_configs(workload, 8, "full")


def test_command_line_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "oracle-check",
         "--size", "small", "--seconds", "0", "--seed", str(SEED)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toy-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
