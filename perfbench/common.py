"""Pieces every workload shares: checks, statistics, the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Run:
    """One benchmark invocation: its arguments and what it observed."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: str
    cpus: list[int] = field(
        default_factory=lambda: sorted(os.sched_getaffinity(0))
    )
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    report: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked op; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def note(self, line: str) -> None:
        self.report.append(line)


def affine_apps() -> dict:
    """``name -> (source, entry, oracle(n, old_rows))`` of the affine apps."""
    from repro.apps import gauss_seidel, jacobi, triangular

    def triangular_rows(n, _old):
        cells = triangular.reference_cells(n)
        return [
            [cells.get((i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]

    return {
        "gauss_seidel": (gauss_seidel.SOURCE, None, gauss_seidel.reference_rows),
        "jacobi": (jacobi.SOURCE_WRAPPED, "jacobi_step", jacobi.reference_rows),
        "triangular": (triangular.SOURCE, None, triangular_rows),
    }


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> "tuple[float, float] | None":
    """``(value, percentile)`` of the highest percentile that still has
    ten samples beyond it, or ``None`` with ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    k = n - 11  # ten samples lie above index k
    return ordered[k], 100.0 * (k + 1) / n


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timing_line(name: str, values, unit: str, scale: float = 1.0) -> str:
    """``name: median [tail] unit (n samples)`` for the human report."""
    scaled = [v * scale for v in values]
    if not scaled:
        return f"{name}: no samples"
    text = f"{name}: median {median(scaled):.4f} {unit}"
    t = tail(scaled)
    if t is None:
        text += " (no tail: 10 samples or fewer)"
    else:
        text += f", p{t[1]:.1f} {t[0]:.4f} {unit}"
    return text + f" (n={len(scaled)})"


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def fingerprint() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    nproc = len(os.sched_getaffinity(0))
    return (
        f"python {platform.python_version()}, numpy {numpy_version}, "
        f"nproc {nproc}, {platform.system()} {platform.machine()}"
    )


def setup_median(setup, repeats: int = 3):
    """Run ``setup`` ``repeats`` times; return (median seconds, last result)."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return median(times), result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(run: Run, metrics: dict) -> None:
    """Print the human report, then the result as the last stdout line."""
    for line in run.report:
        print(line)
    for what in run.failures[:20]:
        print(f"FAILED: {what}")
    ratio = len(run.failures) / run.attempted if run.attempted else 1.0
    print(f"fail_ratio: {ratio:.6f} ({len(run.failures)}/{run.attempted})")
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": not run.failures and run.attempted > 0,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": metrics,
            }
        )
    )


def _probe_seconds() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def pin_fastest_cpu(cpus, quiet: "list[float] | None" = None) -> int:
    """Pin this thread to whichever of ``cpus`` runs a probe loop fastest.

    On a shared host each CPU slows down, by up to 2x, whenever another
    tenant loads its sibling; the spells last from a second to minutes.
    Measuring on the least disturbed CPU available keeps some of that out
    of the figures. With ``quiet`` (a one-element list holding the
    fastest probe seen so far in the run), wait up to a second for a
    probe within 20% of it before returning. The probes run outside
    every timed region.
    """
    waited = 0.0
    while True:
        best = None
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            seconds = min(_probe_seconds() for _ in range(3))
            if best is None or seconds < best[0]:
                best = (seconds, cpu)
        os.sched_setaffinity(0, {best[1]})
        if quiet is None:
            return best[1]
        quiet[0] = min(quiet[0], best[0])
        if best[0] <= 1.2 * quiet[0] or waited >= 1.0:
            return best[1]
        time.sleep(0.1)
        waited += 0.1


def on_each_cpu(run: "Run") -> list[dict]:
    """Run this workload's ops at once in one worker process per CPU.

    Used for best-of-CPUs timing: every worker (``run.py --worker-cpu``)
    repeats the same ops pinned to its own CPU, and the caller keeps each
    op's fastest time. At most two workers, the smallest machine the
    benchmark targets. The workers' checks are counted into ``run``.
    """
    script = Path(__file__).resolve().parent / "run.py"
    workers = [
        subprocess.Popen(
            [sys.executable, str(script), "--workload", run.workload,
             "--seed", str(run.seed), "--seconds", repr(run.seconds),
             "--worker-cpu", str(cpu)],
            stdout=subprocess.PIPE,
            text=True,
        )
        for cpu in run.cpus[:2]
    ]
    results = []
    for worker in workers:
        out, _ = worker.communicate()
        if worker.returncode != 0:
            raise RuntimeError(f"worker exited with {worker.returncode}")
        results.append(json.loads(out.splitlines()[-1]))
    for result in results:
        run.attempted += result.pop("attempted")
        run.failures += result.pop("failures")
    return results
