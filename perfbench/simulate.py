"""``simulate``: ``execute()`` of programs compiled during set-up.

Set-up compiles the affine programs {gauss_seidel, jacobi, triangular} x
{runtime, compile, optI, optII, optIII} (jacobi's jammed optII/optIII
deadlock by design and are left out) and the irregular apps {spmv,
histogram, mesh} under the inspector strategy.

A round runs, in an order drawn from the seed:

* for each affine program at each (N, S): a ``compiled`` run, then a
  ``replay`` run that extracts the skeleton (cold) and one that reuses
  it (warm);
* for each irregular app, four draws of index arrays from the seed and
  the round: for each, one run that builds the inspector schedule
  (cold) and one that finds it cached (warm).

Every round starts from empty in-memory caches, so each round does the
same work; rounds repeat until ``--seconds`` have passed and the last
one always finishes.

Checks, after each round: compiled grids against the sequential
references (``reference_rows``, ``reference_cells``), every replay run
bit-identical to its compiled run on makespan and message count,
irregular results against ``reference``, and zero inspector request
messages on every warm run.
"""

from __future__ import annotations

import itertools
import random
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

STRATEGIES = ("runtime", "compile", "optI", "optII", "optIII")
#: Jacobi's jammed variants deadlock (the verifier reports DL001).
SKIP = {("jacobi", "optII"), ("jacobi", "optIII")}
#: (N, S) of the affine runs.
SIZES = ((16, 4), (24, 2), (24, 4), (32, 4))
IRREGULAR = ("spmv", "histogram", "mesh")
DRAWS = 4  # index-array draws per irregular app per round
#: Not powers of two: the apps' generators take ``rand() % n``, whose
#: low bits cycle with a short period, so power-of-two sizes would give
#: few distinct index arrays and a "cold" run could hit the cache.
IRREGULAR_N = 60
IRREGULAR_S = 4
HIST_BINS = 12
STEPS = 2
BLKSIZE = 8


def _irregular_module(app: str):
    import importlib

    return importlib.import_module(f"repro.apps.{app}")


def _compile_all() -> dict:
    """Set-up: compile every program from source, caches empty."""
    from repro import perf
    from repro.core.compiler import OptLevel, Strategy, compile_program
    from repro.tune.space import STRATEGIES as NAMED

    perf.clear_caches()
    programs = {}
    for app, (source, entry, _) in affine_apps().items():
        for name in STRATEGIES:
            if (app, name) in SKIP:
                continue
            strategy, opt_level = NAMED[name]
            programs[app, name] = compile_program(
                source,
                entry=entry,
                strategy=strategy,
                opt_level=opt_level,
                entry_shapes={"Old": ("N", "N")},
                assume_nprocs_min=2,
            )
    for app in IRREGULAR:
        mod = _irregular_module(app)
        programs[app, "inspector"] = compile_program(
            mod.SOURCE,
            entry=mod.ENTRY,
            entry_shapes=mod.ENTRY_SHAPES,
            strategy=Strategy.INSPECTOR,
            opt_level=OptLevel.NONE,
        )
    return programs


def _irregular_inputs(app: str, seed: int):
    """(inputs, params, expected) for one draw of index arrays."""
    mod = _irregular_module(app)
    n = IRREGULAR_N
    if app == "spmv":
        inputs, nnz = mod.make_inputs(n, seed=seed)
        rows, cols, vals = mod.generate(n, seed=seed)
        expected = mod.reference(
            n, rows, cols, vals, inputs["x"].to_list(), STEPS
        )
        return inputs, {"N": n, "NNZ": nnz, "T": STEPS}, expected
    if app == "histogram":
        inputs = mod.make_inputs(n, HIST_BINS, seed=seed)
        expected = mod.reference(n, HIST_BINS, mod.generate(n, HIST_BINS, seed))
        return inputs, {"N": n, "M": HIST_BINS}, expected
    inputs = mod.make_inputs(n, seed=seed)
    expected = mod.reference(
        n, mod.generate(n, seed), inputs["x"].to_list(), STEPS
    )
    return inputs, {"N": n, "T": STEPS}, expected


def _round_units(programs, seed: int, index: int) -> list[dict]:
    """The round's units, inputs staged, in seed order."""
    from repro.spmd.layout import make_full

    apps = affine_apps()
    rng = random.Random(f"simulate:{seed}:{index}")
    units = []
    pairs = [key for key in programs if key[1] != "inspector"]
    for (app, strategy), (n, nprocs) in itertools.product(pairs, SIZES):
        compiled = programs[app, strategy]
        old = [[rng.randrange(4) for _ in range(n)] for _ in range(n)]
        inputs = {
            name: make_full((n, n), lambda i, j, g=old: g[i - 1][j - 1],
                            name=name)
            for name in compiled.entry_array_params
        }
        units.append(
            {
                "kind": "affine",
                "key": f"{app} {strategy} N={n} S={nprocs}",
                "label": f"{app} {strategy} N={n} S={nprocs}",
                "compiled": compiled,
                "nprocs": nprocs,
                "inputs": inputs,
                "params": {"N": n},
                "expected": lambda a=app, n=n, g=old: apps[a][2](n, g),
            }
        )
    seen = set()
    for k, app in enumerate(IRREGULAR * DRAWS):
        while True:  # every cold run gets index arrays new to the round
            draw = rng.randrange(1, 2**31)
            inputs, params, expected = _irregular_inputs(app, draw)
            key = (app, repr({n: v.to_list() for n, v in inputs.items()}))
            if key not in seen:
                seen.add(key)
                break
        units.append(
            {
                "kind": "irregular",
                "key": f"{app} draw #{k}",
                "label": f"{app} N={IRREGULAR_N} S={IRREGULAR_S} "
                         f"draw={draw}",
                "compiled": programs[app, "inspector"],
                "nprocs": IRREGULAR_S,
                "inputs": inputs,
                "params": params,
                "expected": lambda e=expected: e,
            }
        )
    rng.shuffle(units)
    return units


def _request_messages(outcome) -> int:
    return sum(
        count
        for name, count in outcome.sim.stats.messages_by_channel_name().items()
        if name.startswith("ix") and name.endswith(".req")
    )


def _runs(unit) -> list[tuple[str, str]]:
    """(step, backend) pairs one unit executes, in order."""
    if unit["kind"] == "affine":
        return [("compiled", "compiled"), ("replay cold", "replay"),
                ("replay warm", "replay")]
    return [("inspector cold", "compiled"), ("inspector warm", "compiled")]


def _check(run, unit, outcomes) -> list:
    """Check one unit's runs; return the simulated (makespan, messages)."""
    label = unit["label"]
    if unit["kind"] == "affine":
        compiled = outcomes["compiled"]
        ok = run.check(
            compiled.value.to_nested() == unit["expected"](),
            f"{label}: compiled grid differs from the sequential reference",
        )
        want = (compiled.makespan_us, compiled.total_messages)
        for step in ("replay cold", "replay warm"):
            got = outcomes[step]
            run.check(
                (got.makespan_us, got.total_messages) == want,
                f"{label}: {step} gave {(got.makespan_us, got.total_messages)}"
                f", compiled gave {want}",
            )
        return [want] if ok else []
    expected = unit["expected"]()
    sims = []
    for step in ("inspector cold", "inspector warm"):
        got = outcomes[step]
        requests = _request_messages(got)
        problems = []
        if got.value.to_list() != expected:
            problems.append("result differs from the reference")
        if step.endswith("warm") and requests:
            problems.append(f"warm run sent {requests} request messages")
        if step.endswith("cold") and not requests:
            problems.append("cold run sent no request messages")
        if run.check(not problems, f"{label} {step}: " + "; ".join(problems)):
            sims.append((got.makespan_us, got.total_messages))
    return sims


def _measure(run, programs, rounds: "int | None", tracer=None) -> dict:
    """Run whole rounds (until the deadline, or exactly ``rounds``).

    With a ``tracer``, each ``execute()`` runs inside a ``bench.op`` span.
    """
    from repro import perf
    from repro.core.runner import execute
    from repro.spmd import compile_cache_clear

    deadline = time.perf_counter() + run.seconds
    times = {"all": [], "replay": [], "inspector": []}
    best: dict[str, float] = {}  # fastest time of each op over the rounds
    walls, sims = [], []
    requests = 0
    index = 0
    while (index < rounds) if rounds is not None else (
        index == 0 or time.perf_counter() < deadline
    ):
        units = _round_units(programs, run.seed, index)
        pin_fastest_cpu(run.cpus)
        perf.clear_caches()
        compile_cache_clear()
        results = []
        t_round = time.perf_counter()
        for unit in units:
            outcomes = {}
            for step, backend in _runs(unit):
                args = (unit["compiled"], unit["nprocs"])
                kwargs = {
                    "inputs": unit["inputs"],
                    "params": unit["params"],
                    "extra_globals": {"blksize": BLKSIZE},
                    "backend": backend,
                }
                t0 = time.perf_counter()
                if tracer is None:
                    outcomes[step] = execute(*args, **kwargs)
                else:
                    outcomes[step] = tracer.call(
                        "bench.op", execute, *args, **kwargs
                    )
                elapsed = time.perf_counter() - t0
                times["all"].append(elapsed)
                key = f"{unit['key']} {step}"
                best[key] = min(best.get(key, elapsed), elapsed)
                if step.startswith("replay"):
                    times["replay"].append(elapsed)
                elif step.startswith("inspector"):
                    times["inspector"].append(elapsed)
            results.append((unit, outcomes))
        walls.append(time.perf_counter() - t_round)
        for unit, outcomes in results:
            sims += _check(run, unit, outcomes)
            if unit["kind"] == "irregular":
                requests += sum(_request_messages(o) for o in outcomes.values())
        index += 1
    return {
        "rounds": index,
        "times": times,
        "best": best,
        "walls": walls,
        "sims": sims,
        "requests": requests,
    }


def _describe(run, result) -> None:
    times = result["times"]
    run.note(timing_line("run_ms (per execute())", times["all"], "ms", 1e3))
    run.note(timing_line("  replay runs", times["replay"], "ms", 1e3))
    run.note(timing_line("  inspector runs", times["inspector"], "ms", 1e3))
    run.note(
        f"best-of-rounds: median op {median(result['best'].values()) * 1e3:.4f}"
        f" ms over {len(result['best'])} ops; fastest round "
        f"{min(result['walls']):.4f} s of {result['rounds']} rounds"
    )
    sims = result["sims"]
    if sims:
        run.note(
            "sim_makespan_us (geomean, simulated): "
            f"{geomean([s[0] for s in sims]):.4f}; sim_messages (total): "
            f"{sum(s[1] for s in sims)} (n={len(sims)})"
        )


def worker(run) -> dict:
    """One CPU's share of a best-of-CPUs measurement (see ``run.py``)."""
    return _measure(run, _compile_all(), None)


def run(run, src: str) -> dict:
    from repro import perf

    setup_s, programs = setup_median(_compile_all)
    if not run.trace:
        # Each CPU runs the same rounds at the same time; an op's time is
        # its fastest over rounds and CPUs, and wall_s is a round made of
        # those times.
        results = on_each_cpu(run)
        for cpu, result in zip(run.cpus, results):
            run.note(f"cpu {cpu}:")
            _describe(run, result)
        best = [
            min(r["best"][key] for r in results)
            for key in results[0]["best"]
            if all(key in r["best"] for r in results)
        ]
        return {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(sum(best), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "op_ms": metric(median(best) * 1e3, "ms"),
        }

    from layers import (
        Tracer, cache_metrics, layer_metrics, op_spans, top_level_seconds,
    )

    untraced = _measure(run, programs, None)
    _describe(run, untraced)
    tracer = Tracer()
    tracer.install()
    perf.reset()
    traced = _measure(run, programs, untraced["rounds"], tracer)
    tracer.uninstall()
    spans = op_spans(tracer.spans)
    run.note("traced pass:")
    _describe(run, traced)
    wall = sum(traced["walls"])
    values = cache_metrics(perf.cache_stats(), perf.snapshot()["counters"])
    values.update(
        {
            "machine.sim_messages": sum(s[1] for s in traced["sims"]),
            "inspector.request_messages": traced["requests"],
            "bench.untimed_share": 1.0 - top_level_seconds(spans) / wall,
            "bench.trace_overhead_s": wall - sum(untraced["walls"]),
            "bench.traced_wall_s": wall,
        }
    )
    return layer_metrics(run, spans, wall, values)
