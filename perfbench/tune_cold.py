"""``tune-cold``: one cold ``tune()`` call after another.

A round tunes each of gauss_seidel, jacobi and triangular at N=16 over
the 54-config default space at S=4, plus one ``auto_maps=True`` call
(gauss_seidel, N=16), in an order drawn from the seed. Every call starts
with the in-memory caches empty and the on-disk store disabled. Rounds
repeat until ``--seconds`` have passed; a round that has started always
finishes, so every run holds the same mix.

N stops at 16 so that a run repeats every input: one round at
N in {16, 24, 32} takes over 30 s on a 2-vCPU x86-64 host, and one
sample per input left the figures at the mercy of a shared host (see
:func:`common.pin_fastest_cpu`). An input's time is its fastest call
in the run.

Each call is checked after its round: the tuner must name a winner, no
confirmation may have computed a wrong grid, and the winner, run again
on a grid drawn from the seed, must match the sequential reference and
reproduce the makespan and message count the tuner reported.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

from common import (
    affine_apps,
    geomean,
    median,
    metric,
    on_each_cpu,
    peak_rss_mb,
    pin_fastest_cpu,
    setup_median,
    timing_line,
)

SIZES = (16,)
AUTO_MAPS_INPUT = ("gauss_seidel", 16)
NPROCS = 4
ENTRY_SHAPES = {"Old": ("N", "N")}


def _import_pipeline(src: str) -> None:
    """Set-up: a fresh interpreter importing the tuner stack."""
    env = dict(os.environ, PYTHONPATH=src, REPRO_CACHE_DIR="")
    subprocess.run(
        [sys.executable, "-c", "import repro.tune, repro.analysis"],
        env=env,
        check=True,
    )


def _round_inputs(seed: int, index: int) -> list[tuple]:
    ops = [(app, n, False) for app in ("gauss_seidel", "jacobi", "triangular")
           for n in SIZES]
    ops.append((*AUTO_MAPS_INPUT, True))
    random.Random(f"tune-cold:{seed}:{index}").shuffle(ops)
    return ops


def _cold_caches() -> None:
    from repro import perf
    from repro.spmd import compile_cache_clear

    perf.clear_caches()
    compile_cache_clear()


def _tune(apps, app: str, n: int, auto: bool):
    from repro.tune import tune

    source, entry, oracle = apps[app]
    return tune(
        source, n, entry=entry, proc_counts=(NPROCS,), oracle=oracle,
        auto_maps=auto,
    )


def _check(run, apps, app, n, auto, report, seed) -> "tuple | None":
    """Check one call; return (winner makespan, winner messages) if ok."""
    from repro.core.compiler import compile_program_cached
    from repro.core.runner import execute
    from repro.spmd.layout import make_full
    from repro.tune.space import STRATEGIES, retarget_source

    label = f"tune {app} N={n}" + (" auto_maps" if auto else "")
    best = report.best
    if best is None:
        run.check(False, f"{label}: no winner")
        return None
    problems = [
        f"{c.config.label}: {c.error}" for c in report.candidates
        if c.error and c.error.startswith("AssertionError")
    ]
    source, entry, oracle = apps[app]
    config = best.config
    strategy, opt_level = STRATEGIES[config.strategy]
    compiled = compile_program_cached(
        retarget_source(source, config.dist),
        entry=entry,
        strategy=strategy,
        opt_level=opt_level,
        entry_shapes=ENTRY_SHAPES,
        assume_nprocs_min=2,
    )
    rng = random.Random(f"tune-cold-grid:{seed}:{app}:{n}")
    old = [[rng.randrange(4) for _ in range(n)] for _ in range(n)]
    inputs = {
        name: make_full((n, n), lambda i, j: old[i - 1][j - 1], name=name)
        for name in compiled.entry_array_params
    }
    outcome = execute(
        compiled, config.nprocs, inputs=inputs, params={"N": n},
        extra_globals={"blksize": config.blksize},
    )
    if outcome.value.to_nested() != oracle(n, old):
        problems.append(f"winner {config.label} computed a wrong grid")
    if (outcome.makespan_us, outcome.total_messages) != (
        best.measured.time_us, best.measured.messages
    ):
        problems.append(
            f"winner {config.label} re-ran to "
            f"({outcome.makespan_us}, {outcome.total_messages}), tuner "
            f"reported ({best.measured.time_us}, {best.measured.messages})"
        )
    if not run.check(not problems, f"{label}: " + "; ".join(problems)):
        return None
    return best.measured.time_us, best.measured.messages


def _measure(run, apps, rounds: "int | None", tracer=None) -> dict:
    """Run whole rounds (until the deadline, or exactly ``rounds``).

    With a ``tracer``, each call runs inside a ``bench.op`` span. The
    result is plain data, so a worker process can send it back.
    """
    from repro import perf
    from layers import cache_metrics

    deadline = time.perf_counter() + run.seconds
    times, walls, calls = [], [], []
    best: dict[str, float] = {}  # fastest call of each input
    quiet = [float("inf")]
    index = 0
    while (index < rounds) if rounds is not None else (
        index == 0 or time.perf_counter() < deadline
    ):
        done = []
        for app, n, auto in _round_inputs(run.seed, index):
            _cold_caches()
            pin_fastest_cpu(run.cpus, quiet)
            t0 = time.perf_counter()
            if tracer is None:
                report = _tune(apps, app, n, auto)
            else:
                report = tracer.call("bench.op", _tune, apps, app, n, auto)
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            key = f"{app} N={n}" + (" auto_maps" if auto else "")
            best[key] = min(best.get(key, elapsed), elapsed)
            done.append((app, n, auto, report))
        walls.append(sum(times[-len(done):]))
        calls += done
        index += 1
    caches = cache_metrics(perf.cache_stats(), perf.snapshot()["counters"])
    reports = [report for _, _, _, report in calls]
    winners = [
        _check(run, apps, app, n, auto, report, run.seed)
        for app, n, auto, report in calls
    ]
    return {
        "rounds": index,
        "times": times,
        "best": best,
        "walls": walls,
        "winners": [w for w in winners if w is not None],
        "space": sum(r.space_size for r in reports),
        "pruned": sum(
            1 for r in reports for c in r.candidates
            if c.error and c.error.startswith("verify:")
        ),
        "simulations": sum(r.simulations for r in reports),
        "confirmed_messages": sum(
            c.measured.messages for r in reports for c in r.confirmed
        ),
        "caches": caches,
    }


def worker(run) -> dict:
    """One CPU's share of a best-of-CPUs measurement (see ``run.py``)."""
    apps = affine_apps()
    _tune(apps, "triangular", 8, False)  # lazy imports, first-call set-up
    return _measure(run, apps, None)


def _describe(run, result) -> None:
    run.note(timing_line("tune_s (per tune() call)", result["times"], "s"))
    run.note(
        f"rounds: {result['rounds']}, fastest round: "
        f"{min(result['walls']):.4f} s"
    )
    if result["winners"]:
        run.note(
            "best_makespan_us (geomean of winners, simulated): "
            f"{geomean([w[0] for w in result['winners']]):.4f} "
            f"(n={len(result['winners'])})"
        )
    run.note(
        f"configs: {result['space']}, pruned by the verifier: "
        f"{result['pruned']}, simulations: {result['simulations']}"
    )


def run(run, src: str) -> dict:
    from repro import perf

    setup_s, _ = setup_median(lambda: _import_pipeline(src))
    if not run.trace:
        # Each CPU runs the same calls at the same time; an input's time
        # is its fastest call over rounds and CPUs, and wall_s is a round
        # made of those times.
        results = on_each_cpu(run)
        for cpu, result in zip(run.cpus, results):
            run.note(f"cpu {cpu}:")
            _describe(run, result)
        best = {
            key: min(r["best"][key] for r in results)
            for key in results[0]["best"]
        }
        for key, seconds in sorted(best.items()):
            run.note(f"fastest {key}: {seconds:.4f} s")
        return {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(sum(best.values()), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "op_ms": metric(median(best.values()) * 1e3, "ms"),
        }

    from layers import (
        Tracer, confirm_seconds, layer_metrics, op_spans, top_level_seconds,
    )

    apps = affine_apps()
    _tune(apps, "triangular", 8, False)  # lazy imports, first-call set-up
    untraced = _measure(run, apps, None)
    _describe(run, untraced)
    tracer = Tracer()
    tracer.install()
    perf.reset()
    traced = _measure(run, apps, untraced["rounds"], tracer)
    tracer.uninstall()
    spans = op_spans(tracer.spans)
    run.note("traced pass:")
    _describe(run, traced)
    wall = sum(traced["walls"])
    values = dict(traced["caches"])
    values.update(
        {
            "tune.confirm_pct": 100.0 * confirm_seconds(spans) / wall,
            "tune.pruned_ratio": traced["pruned"] / traced["space"],
            "tune.sims_per_config": traced["simulations"] / traced["space"],
            "machine.sim_messages": traced["confirmed_messages"],
            "bench.untimed_share": 1.0 - top_level_seconds(spans) / wall,
            "bench.trace_overhead_s": wall - sum(untraced["walls"]),
            "bench.traced_wall_s": wall,
        }
    )
    return layer_metrics(run, spans, wall, values)
