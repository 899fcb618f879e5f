#!/usr/bin/env python3
"""The repository benchmark: one command per workload, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``tune-cold``
    cold ``tune()`` calls over the default space (:mod:`tune_cold`);
``simulate``
    ``execute()`` of programs compiled in set-up, on the compiled,
    replay and inspector paths (:mod:`simulate`);
``service-mix``
    the HTTP service in its own process under two keep-alive clients
    (:mod:`service_mix`).

``--trace 0`` measures with no instrumentation and reports the
end-to-end metrics. tune-cold and simulate run their ops in two worker
processes at once (``--worker-cpu``), each pinned to its own CPU, and
keep each op's fastest time (:func:`common.on_each_cpu`). ``--trace 1``
runs the same ops twice in this process, untraced and then with every
layer's public entry point wrapped in a span (:mod:`layers`), and
reports the per-layer metrics; the difference of the two walls is the
tracing overhead.

The benchmark builds nothing: it imports the pipeline from ``src/`` of
the checkout. It reads and writes only inside the checkout (its scratch
directory is ``.perfbench-work/``, removed on exit) and never touches
the user's artifact store. Its files are not ``test_*``/``bench_*``
names and sit outside the pytest ``testpaths``, so tier-1 collection
does not pick them up.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"



def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker-cpu", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no pipeline sources at {SRC}/repro; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    # In-process workloads run with the on-disk store off; service-mix
    # points its server at a fresh store inside the scratch directory.
    os.environ["REPRO_CACHE_DIR"] = ""

    from common import Run, emit, fingerprint

    if args.worker_cpu is not None:
        return _worker(args)
    scratch_root = ROOT / ".perfbench-work"
    scratch_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
    )
    run.note(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    run.note(f"env: {fingerprint()}")
    run.note(f"why: {why[args.workload]}")
    try:
        metrics = _module(args.workload).run(run, str(SRC))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if run.trace:
        metrics["fail_ratio"]["value"] = (
            len(run.failures) / run.attempted if run.attempted else 1.0
        )
    expected = {
        m["name"]
        for m in declared["per_layer" if run.trace else "end_to_end"]
    }
    if set(metrics) != expected:
        print(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ expected)}",
            file=sys.stderr,
        )
        return 3
    emit(run, metrics)
    return 0


def _worker(args) -> int:
    """One CPU's share of a best-of-CPUs measurement, as a JSON line."""
    from common import Run

    os.sched_setaffinity(0, {args.worker_cpu})
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=False,
        workdir="",
        cpus=[args.worker_cpu],
    )
    result = _module(args.workload).worker(run)
    result["attempted"] = run.attempted
    result["failures"] = run.failures
    print(json.dumps(result))
    return 0


def _module(workload: str):
    if workload == "tune-cold":
        import tune_cold as module
    elif workload == "simulate":
        import simulate as module
    else:
        import service_mix as module
    return module


if __name__ == "__main__":
    sys.exit(main())
