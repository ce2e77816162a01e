"""The workload process: set up, warm up, then time whole rounds of `cli.run`.

Started by ``run.py`` as a fresh interpreter, one per run (and one per set-up
probe with ``--setup-only``).  It prints one JSON line when set-up is done and,
unless ``--setup-only``, one JSON line with the timed operations at the end.
Standard output carries nothing else; the program's own messages are kept
apart and printed to standard error only for an operation that fails.

    python3 bench/worker.py --workload toy-grid --seed 1 --seconds 20 \
        --trace 0 --size full --work-dir .bench_work/toy-grid
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def run_op(call, config_path: str, prefix: str):
    # the program creates the report's directory but not the field's
    os.makedirs(os.path.dirname(prefix), exist_ok=True)
    messages = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    code = call(config_path, out=prefix, stderr=messages)
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"{config_path} exited {code}:\n{messages.getvalue()}")
    return code, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from beablesim import cli
    import_s = time.perf_counter() - start
    # imported only now, so that import_s includes the import of numpy
    import tracing
    import workloads

    configs = workloads.make_configs(args.workload, args.seed, args.size)
    config_paths = workloads.write_configs(configs, os.path.join(args.work_dir, "configs"))
    _emit({"ready": True, "import_s": import_s})
    if args.setup_only:
        return 0

    warm_code, _ = run_op(cli.run, config_paths[0], os.path.join(args.work_dir, "warm-up", "out"))

    tracer = tracing.Tracer()
    call = tracer.span("cli.run", cli.run) if args.trace else cli.run
    ops = []
    timed = 0.0
    with tracing.installed(tracer) if args.trace else contextlib.nullcontext():
        while not ops or timed < args.seconds:
            for slot, config_path in enumerate(config_paths):
                prefix = os.path.join(args.work_dir, f"op-{len(ops):03d}", "out")
                code, elapsed = run_op(call, config_path, prefix)
                ops.append({"slot": slot, "prefix": prefix, "code": code, "seconds": elapsed})
                timed += elapsed
    _emit({
        "warm_up_code": warm_code,
        "ops": ops,
        "per_layer": tracer.per_op(len(ops)) if args.trace else None,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
