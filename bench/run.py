"""Benchmark of `beablesim run` on three workloads, end to end and per layer.

    python3 bench/run.py --workload toy-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all                # every workload, both modes
    python3 bench/run.py --workload all --size small --seconds 1

One run starts one workload process that sets up (imports ``beablesim`` from
``src/`` and writes the run's configs), runs one untimed warm-up operation
and times whole rounds of operations through ``beablesim.cli.run`` for
``--seconds``.  Around it, ``SETUP_PROBES`` fresh interpreters only set up;
the median of their set-up times is ``setup_s``.  The
outputs of every timed operation are then checked by ``checks.py``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` the
layer functions are wrapped (``tracing.py``) and it reports the per-layer
metrics instead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable copy goes
to standard error.  ``correct`` is true, and the exit code 0, only when the
warm-up and every timed operation exited 0 and passed the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 8
# a run must end within 180 s; this leaves room for the checks
WORKER_DEADLINE_S = 150.0

END_TO_END = (
    ("run_s.p50", "s"),
    ("points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MiB"),
)


class BenchError(Exception):
    """The benchmark could not take a measurement."""


def _spawn(workload: str, seed: int, seconds: float, trace: int, size: str,
           work_dir: str, setup_only: bool) -> subprocess.Popen:
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--size", size, "--work-dir", work_dir,
    ]
    if setup_only:
        command.append("--setup-only")
    # the program's grid evaluation runs on one thread; BLAS keeps its default
    env = {k: v for k, v in os.environ.items() if k != "BEABLESIM_THREADS"}
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)


def _killed_after(proc: subprocess.Popen, seconds: float) -> threading.Timer:
    timer = threading.Timer(seconds, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def _setup_probe(workload: str, seed: int, size: str, work_dir: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it is set up, and the
    part of that spent importing ``beablesim``."""
    start = time.perf_counter()
    proc = _spawn(workload, seed, 0.0, 0, size, work_dir, setup_only=True)
    timer = _killed_after(proc, 60.0)
    try:
        with proc.stdout:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0 or not line:
        raise BenchError(f"set-up probe exited {code}")
    return setup_s, json.loads(line)["import_s"]


def _workload_process(workload: str, seed: int, seconds: float, trace: int, size: str,
                      work_dir: str) -> tuple[dict, float]:
    """Run the workload process; return its record and its peak RSS in MiB."""
    proc = _spawn(workload, seed, seconds, trace, size, work_dir, setup_only=False)
    timer = _killed_after(proc, WORKER_DEADLINE_S)
    try:
        with proc.stdout:
            lines = proc.stdout.read().splitlines()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or len(lines) != 2:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(lines[1]), usage.ru_maxrss / 1024.0


def check_ops(configs: list[dict], ops: list[dict]) -> int:
    """Check the outputs of the timed operations; return how many failed.  An
    operation fails when it exits non-zero or its files fail a check."""
    failed = 0
    for op in ops:
        if op["code"] != 0:
            problems = [f"exit code {op['code']}"]
        else:
            problems = checks.check_op(configs[op["slot"]], op["prefix"])
        if problems:
            failed += 1
            print(f"{op['prefix']}: " + "; ".join(problems), file=sys.stderr)
    return failed


def measure(workload: str, seed: int, seconds: float, trace: int, size: str,
            work_dir: str) -> dict:
    """One benchmark run; its outputs stay under ``work_dir``."""
    def probe(k: int) -> tuple[float, float]:
        return _setup_probe(workload, seed, size, os.path.join(work_dir, f"probe-{k}"))

    # probes on both sides of the workload process sample a longer stretch of
    # the machine's background load than probes taken back to back
    probes = [probe(k) for k in range(SETUP_PROBES // 2)]
    record, peak_mem_mb = _workload_process(workload, seed, seconds, trace, size, work_dir)
    probes += [probe(k) for k in range(SETUP_PROBES // 2, SETUP_PROBES)]

    configs = []
    for slot in range(workloads.ROUND_SIZE):
        with open(os.path.join(work_dir, "configs", f"config-{slot}.json"), encoding="ascii") as handle:
            configs.append(json.load(handle))
    ops = record["ops"]
    failed = check_ops(configs, ops)
    if record["warm_up_code"] != 0:
        print(f"warm-up operation exited {record['warm_up_code']}", file=sys.stderr)
    correct = failed == 0 and record["warm_up_code"] == 0

    if trace:
        values = dict(record["per_layer"])
        values["setup.import_s"] = statistics.median(p[1] for p in probes)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        units["setup.import_s"] = "s"
    else:
        times = [op["seconds"] for op in ops]
        values = {
            "run_s.p50": statistics.median(times),
            "points_per_s": workloads.points_per_op(configs[0]) * len(ops) / sum(times),
            "setup_s": statistics.median(p[0] for p in probes),
            "peak_mem_mb": peak_mem_mb,
        }
        units = dict(END_TO_END)
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def _describe(workload: str, trace: int, result: dict, stream) -> None:
    mode = "traced" if trace else "untraced"
    print(f"{workload} ({mode}): {result['attempted']} operations attempted, "
          f"{result['failed']} failed, correct={str(result['correct']).lower()}", file=stream)
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}", file=stream)


def _run_once(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    work_dir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    result = measure(workload, seed, seconds, trace, size, work_dir)
    if result["correct"]:
        shutil.rmtree(work_dir, ignore_errors=True)
    else:
        print(f"outputs kept in {work_dir}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of `beablesim run`.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "beablesim", "cli.py")):
        print(f"error: no beablesim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            result = _run_once(args.workload, args.seed, args.seconds, args.trace, args.size)
            _describe(args.workload, args.trace, result, sys.stderr)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        correct = True
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                result = _run_once(workload, args.seed, args.seconds, trace, args.size)
                _describe(workload, trace, result, sys.stdout)
                correct = correct and result["correct"]
        return 0 if correct else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
