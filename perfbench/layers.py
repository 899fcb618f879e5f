"""Host-side spans around the pipeline's public entry points.

The traced run wraps each layer's public function from the benchmark's
side: :meth:`Tracer.install` replaces the function object everywhere a
``repro`` module has bound it (``from x import f`` copies the binding,
so patching the defining module alone would miss most callers). The
pipeline's own code is not changed.

A span is ``(id, parent, name, start, end, attrs)``. Spans are kept in
memory, one parent stack per thread, and summarized (or written out as
JSON) when the run ends. A layer's self time is its span's duration
minus the duration of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

#: (layer, module, attribute) — the public entry points the traced run
#: times. Two attributes may share a layer (``ArtifactStore.get`` is a
#: thin front for ``fetch``; nested same-layer spans count once).
LAYERS = (
    ("lang.parse", "repro.lang.parser", "parse_program"),
    ("lang.check", "repro.lang.typecheck", "check_program"),
    ("core.compile", "repro.core.compiler", "compile_program"),
    ("core.transforms", "repro.core.transforms", "optimize"),
    ("core.execute", "repro.core.runner", "execute"),
    ("analysis.verify", "repro.analysis.verify", "verify_compiled"),
    ("analysis.locality", "repro.analysis.locality", "analyze"),
    ("tune.tune", "repro.tune.search", "tune"),
    ("tune.predict", "repro.tune.model", "predict"),
    ("spmd.run", "repro.spmd.interp", "run_spmd"),
    ("spmd.codegen", "repro.spmd.compile", "compiled_node"),
    ("replay.extract", "repro.replay.skeleton", "extract_skeletons"),
    ("replay.replay", "repro.replay.engine", "replay"),
    ("store.get", "repro.store", "ArtifactStore.get"),
    ("store.get", "repro.store", "ArtifactStore.fetch"),
    ("store.put", "repro.store", "ArtifactStore.put"),
    ("service.build", "repro.service.app", "build_artifact"),
    ("service.handle", "repro.service.app", "ServiceApp.handle"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))

#: Imported before patching so every module that binds an entry point
#: by name is already in ``sys.modules`` when the patch sweeps it.
_CONSUMERS = (
    "repro.tune",
    "repro.analysis",
    "repro.replay",
    "repro.spmd",
    "repro.core.runner",
    "repro.bench.harness",
    "repro.service.app",
    "repro.service.server",
)


def _handle_attrs(args, result) -> dict:
    """Request facts the service summary needs (route, artifact id)."""
    body = result.body if isinstance(result.body, dict) else {}
    return {
        "method": args[1],
        "path": args[2],
        "code": result.status,
        "id": body.get("id"),
        "status": body.get("status"),
        "cached": body.get("cached"),
    }


def _build_attrs(args, result) -> dict:
    return {"id": args[0].artifact_id()}


_ATTRS = {"service.handle": _handle_attrs, "service.build": _build_attrs}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        attrs = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            attrs_fn = _ATTRS.get(name)
            if attrs_fn is not None:
                attrs = attrs_fn(args, result)
            return result
        except BaseException:
            end = time.perf_counter()
            raise
        finally:
            stack.pop()
            self.spans.append((sid, parent, name, start, end, attrs))

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, fn, *args, **kwargs)

        for extra in ("cache_clear", "cache_info"):  # lru_cache API
            if hasattr(fn, extra):
                setattr(traced, extra, getattr(fn, extra))
        return traced

    def install(self) -> None:
        """Patch every entry point in :data:`LAYERS`."""
        for name in _CONSUMERS:
            importlib.import_module(name)
        for layer, modname, attr in LAYERS:
            module = importlib.import_module(modname)
            owner, _, fname = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                original = cls.__dict__[fname]
                self._patches.append((cls, fname, original))
                setattr(cls, fname, self._wrap(layer, original))
                continue
            original = getattr(module, fname)
            traced = self._wrap(layer, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def to_json(self) -> list:
        return [list(span) for span in self.spans]


def summarize(spans, wall_s: float) -> dict:
    """Per-layer calls, inclusive and self seconds, and share of wall.

    ``spans`` may come from several threads and processes; parents are
    span ids. Inclusive time counts only the outermost span of a layer
    (a layer that re-enters itself is not double counted).
    """
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _, start, end, _ in spans:
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    layers = {
        name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        for name in LAYER_NAMES
    }
    for sid, parent, name, start, end, _ in spans:
        row = layers[name]
        duration = end - start
        row["calls"] += 1
        row["self_s"] += duration - child_time.get(sid, 0.0)
        if not has_ancestor(by_id, parent, name):
            row["incl_s"] += duration
    for row in layers.values():
        row["wall_pct"] = 100.0 * row["incl_s"] / wall_s if wall_s else 0.0
        row["self_pct"] = 100.0 * row["self_s"] / wall_s if wall_s else 0.0
    return layers


def has_ancestor(by_id: dict, parent: int, name: str) -> bool:
    while parent in by_id:
        span = by_id[parent]
        if span[2] == name:
            return True
        parent = span[1]
    return False


def op_spans(spans) -> list:
    """The layer spans inside measured ops (``Tracer.call("bench.op", ...)``).

    Drops the op spans themselves and whatever the benchmark's own
    checks called outside them; a span directly under an op becomes a
    root.
    """
    by_id = {span[0]: span for span in spans}
    return [
        span for span in spans
        if span[2] != "bench.op" and has_ancestor(by_id, span[1], "bench.op")
    ]


def top_level_seconds(spans) -> float:
    """Seconds covered by spans that no other span encloses."""
    ids = {span[0] for span in spans}
    return sum(end - start for _, parent, _, start, end, _ in spans
               if parent not in ids)


#: Per-layer metrics besides each layer's ``_calls``/``_pct``/``_self_pct``.
EXTRA_METRICS = (
    ("tune.confirm_pct", "%"),
    ("tune.pruned_ratio", "ratio"),
    ("tune.sims_per_config", "ratio"),
    ("core.compile_hit_rate", "ratio"),
    ("symbolic.simplify_hit_rate", "ratio"),
    ("machine.sim_messages", "count"),
    ("replay.skeleton_hit_rate", "ratio"),
    ("replay.fallbacks", "count"),
    ("inspector.hit_rate", "ratio"),
    ("inspector.request_messages", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("service.queue_wait_pct", "%"),
    ("service.cached_ratio", "ratio"),
    ("service.rate_limited", "count"),
    ("bench.untimed_share", "ratio"),
    ("bench.trace_overhead_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("fail_ratio", "ratio"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    names = []
    for layer in LAYER_NAMES:
        names += [
            (f"{layer}_calls", "count"),
            (f"{layer}_pct", "%"),
            (f"{layer}_self_pct", "%"),
        ]
    return names + list(EXTRA_METRICS)


def cache_metrics(cache_stats: dict, counters: dict) -> dict:
    """Hit rates from ``perf.cache_stats()``, counts from ``perf.snapshot()``."""

    def rate(name: str) -> float:
        return float(cache_stats.get(name, {}).get("hit_rate", 0.0))

    return {
        "core.compile_hit_rate": rate("compile"),
        "symbolic.simplify_hit_rate": rate("simplify"),
        "replay.skeleton_hit_rate": rate("replay_skeleton"),
        "inspector.hit_rate": rate("inspector"),
        "replay.fallbacks": counters.get("replay.fallback", 0),
        "store.hits": sum(
            v for k, v in counters.items()
            if k.startswith("store.") and k.endswith(".hit")
        ),
        "store.misses": sum(
            v for k, v in counters.items()
            if k.startswith("store.") and k.endswith(".miss")
        ),
        "service.rate_limited": counters.get("service.rate_limited", 0),
    }


def confirm_seconds(spans) -> float:
    """Seconds of ``execute`` calls made by the tuner (its confirmations)."""
    by_id = {span[0]: span for span in spans}
    return sum(
        end - start
        for _, parent, name, start, end, _ in spans
        if name == "core.execute"
        and has_ancestor(by_id, parent, "tune.tune")
        and not has_ancestor(by_id, parent, "core.execute")
    )


def layer_metrics(run, spans, wall_s: float, values: dict) -> dict:
    """The ``--trace 1`` metrics, with the per-layer table in the report.

    ``values`` supplies the extra metrics a workload measured; any it
    did not exercise read 0.
    """
    summary = summarize(spans, wall_s)
    run.note(f"layers over {wall_s:.4f} s of traced wall:")
    run.note(
        f"  {'layer':<20} {'calls':>8} {'incl_s':>10} {'self_s':>10} "
        f"{'%wall':>7} {'%self':>7}"
    )
    out = {}
    for layer in LAYER_NAMES:
        row = summary[layer]
        run.note(
            f"  {layer:<20} {row['calls']:>8} {row['incl_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {row['wall_pct']:>7.2f} "
            f"{row['self_pct']:>7.2f}"
        )
        out[f"{layer}_calls"] = row["calls"]
        out[f"{layer}_pct"] = row["wall_pct"]
        out[f"{layer}_self_pct"] = row["self_pct"]
    out.update(values)
    metrics = {}
    for name, unit in per_layer_names():
        metrics[name] = {"value": out.get(name, 0), "unit": unit}
    for name, unit in EXTRA_METRICS:
        if name != "fail_ratio":  # the report's last line states it
            run.note(f"{name}: {metrics[name]['value']} {unit}")
    return metrics
