"""Driver: walk every rank, then run the registered analysis passes.

:func:`verify_compiled` is the package entry point. It mirrors
:func:`repro.tune.model.predict`'s argument conventions (``params``,
``machine``, ``extra_globals``, ``inputs``) so callers can verify
exactly the configuration they would execute — but instead of a cost it
returns a :class:`~repro.analysis.diagnostics.Report`.

Per rank the driver runs a :class:`~repro.analysis.walk.VerifyWalk`.
A walk that cannot finish does not kill verification: data-dependent
control (``ModelError``) yields an ``UNV001`` *warning* — the program
may well be fine, the verifier just cannot tell — while a structural
runtime error (``NodeRuntimeError``: unknown procedure, bad arity,
non-positive step) yields an ``UNV002`` *error*, because the simulator
would die on the same statement. Passes that need every rank's skeleton
(channel balance, deadlock) stay silent when any rank aborted rather
than reason from incomplete evidence.

``UNV001`` abstentions are deduplicated: ranks that abort with the same
cause at the same walk position share one diagnostic carrying the rank
list, and when the compiled program recorded inspector sites
(``compiled.inspector_sites``) the message names the specific indirect
references — array, loop path, and source line — that force the
abstention.
"""

from __future__ import annotations

from repro import perf
from repro.analysis import passes as _passes  # noqa: F401  (registers)
from repro.analysis.diagnostics import PASSES, Report, Severity
from repro.analysis.walk import DEFINED, NotAffine, VerifyWalk
from repro.errors import CompileError, ModelError, NodeRuntimeError
from repro.machine import MachineParams
from repro.spmd import ir
from repro.spmd.abstract import UNKNOWN, LoopAnalysis

_PER_CODE_CAP = 10  # identical-shape findings kept per (code, rank)

# Verification is deterministic in (program, ring, bindings), so reports
# are memoized exactly like the cost model's predictions — the tuner
# re-verifies the same compiled program once per candidate ring size.
# Persistent: a fresh process (CLI rerun, --jobs worker) loads reports
# straight from the shared artifact store.


def _canonical_verify_key(key) -> str | None:
    program, nprocs, machine, globals_items, inputs_items, passes = key
    try:
        from repro.spmd import pretty_program

        text = pretty_program(program)
    except Exception:
        return None
    rest = (
        f"{nprocs}|{machine!r}|{globals_items!r}|{inputs_items!r}|{passes!r}"
    )
    if " at 0x" in rest:  # an object repr leaked an address: not stable
        return None
    return f"verify|{text}|{rest}"


_verify_cache: dict = perf.register_cache(
    "verify", {}, persistent=True, key_fn=_canonical_verify_key,
)


class VerifyContext:
    """Everything the passes share about one verification run."""

    __slots__ = (
        "program", "nprocs", "globals", "walkers", "events", "origins",
        "aborted", "compiled",
    )

    def __init__(
        self, program: ir.NodeProgram, nprocs: int, globals_, compiled=None
    ):
        self.program = program
        self.nprocs = nprocs
        self.globals = dict(globals_)
        self.walkers: list[VerifyWalk | None] = []
        self.events: list[list[tuple]] = []
        self.origins: list[list[tuple]] = []
        self.aborted: dict[int, str] = {}  # rank -> diagnostic code
        self.compiled = compiled  # the CompiledProgram, when available


def verify_compiled(
    compiled,
    nprocs: int,
    params: dict[str, int] | None = None,
    machine: MachineParams | None = None,
    extra_globals: dict[str, object] | None = None,
    inputs: dict[str, object] | None = None,
    metadata: dict | None = None,
    extra_passes: tuple[str, ...] = (),
) -> Report:
    """Statically verify ``compiled`` (a ``CompiledProgram`` or a bare
    :class:`~repro.spmd.ir.NodeProgram`) on ``nprocs`` processors.

    ``extra_passes`` names opt-in registered passes (those declared with
    ``register_pass(..., default=False)``, e.g. ``"locality"``) to run
    in addition to the default safety passes."""
    program = getattr(compiled, "program", compiled)
    params = dict(params or {})
    param_names = getattr(compiled, "param_names", ())
    missing = [name for name in param_names if name not in params]
    if missing:
        raise CompileError(f"missing values for params {missing}")
    machine = machine or MachineParams.ipsc2()
    globals_: dict[str, object] = dict(params)
    globals_.update(extra_globals or {})
    inputs = dict(inputs or {})

    report = Report()
    report.metadata.update(metadata or {})
    report.metadata.setdefault("nprocs", nprocs)

    key = None
    if perf.caches_enabled():
        try:
            key = (
                program,  # identity-hashed
                nprocs,
                machine,
                tuple(sorted(globals_.items())),
                tuple(sorted(inputs.items())),
                tuple(extra_passes),
            )
            cached = _verify_cache.get(key)
        except TypeError:  # unhashable globals/inputs: skip memoization
            key, cached = None, None
        if cached is not None:
            perf.hit("verify")
            report.diagnostics.extend(cached)
            return report
        if key is not None:
            perf.miss("verify")

    ctx = VerifyContext(
        program, nprocs, globals_,
        compiled=compiled if compiled is not program else None,
    )

    analysis = LoopAnalysis(program)
    entry_proc = program.entry_proc()
    # UNV001 abstentions grouped by (cause, walk position): identical
    # sites across ranks collapse into one diagnostic with a rank list.
    abstained: dict[tuple[str, tuple[str, ...]], list[int]] = {}
    for rank in range(nprocs):
        walker = VerifyWalk(program, rank, nprocs, globals_, analysis)
        args: list[object] = []
        for pname in entry_proc.params:
            if pname in entry_proc.array_params:
                args.append(DEFINED)
            else:
                args.append(inputs.get(pname, UNKNOWN))
        try:
            walker.run(args)
        except (ModelError, NotAffine) as err:
            ctx.aborted[rank] = "UNV001"
            abstained.setdefault(
                (str(err), tuple(walker.path)), []
            ).append(rank)
        except NodeRuntimeError as err:
            ctx.aborted[rank] = "UNV002"
            report.add(
                "UNV002", Severity.ERROR, "driver",
                f"rank {rank}: walk aborted by a structural runtime "
                f"error: {err}",
                rank=rank, path=tuple(walker.path),
            )
        ctx.walkers.append(walker)
        ctx.events.append(walker.events)
        ctx.origins.append(walker.origins)
        _add_capped(report, walker.findings)

    sites = _site_summaries(getattr(compiled, "inspector_sites", None))
    for (cause, path), ranks in abstained.items():
        site_note = f"; indirect site(s): {', '.join(sites)}" if sites else ""
        report.add(
            "UNV001", Severity.WARNING, "driver",
            f"{_rank_list(ranks)}: walk incomplete ({cause}){site_note}; "
            "balance and deadlock verdicts are unavailable",
            path=path, ranks=list(ranks), sites=sites,
        )

    unknown = [
        name for name in extra_passes
        if name not in PASSES
    ]
    if unknown:
        raise CompileError(f"unknown analysis pass(es) {unknown}")
    for name, pass_fn in PASSES.items():
        if getattr(pass_fn, "default_enabled", True) or name in extra_passes:
            pass_fn(ctx, report)
    if key is not None:
        # Diagnostics are frozen dataclasses, safe to share between
        # reports; metadata stays per-call and is never cached.
        _verify_cache[key] = tuple(report.diagnostics)
    return report


def _rank_list(ranks: list[int]) -> str:
    """``rank 3`` / ``ranks 0-3`` / ``ranks 0,2,5`` — compact and exact."""
    ranks = sorted(ranks)
    if len(ranks) == 1:
        return f"rank {ranks[0]}"
    if ranks == list(range(ranks[0], ranks[-1] + 1)):
        return f"ranks {ranks[0]}-{ranks[-1]}"
    return "ranks " + ",".join(str(r) for r in ranks)


def _site_summaries(sites) -> list[str]:
    """One line per recorded indirect site: array, index arrays, loop
    path, source line. Deduplicated preserving discovery order."""
    out: list[str] = []
    for site in sites or ():
        arrays = "+".join(site.get("index_arrays") or ()) or "?"
        text = f"{site.get('kind', '?')} {site.get('array', '?')}[{arrays}]"
        path = site.get("path") or ()
        if path:
            text += f" in {' > '.join(path)}"
        line = site.get("line") or 0
        if line:
            text += f" at line {line}"
        if text not in out:
            out.append(text)
    return out


def _add_capped(report: Report, findings) -> None:
    """Copy walk findings, capping repeats of one code on one rank.

    A bad site inside an ``N``-trip loop fires once per iteration; the
    first few carry all the forensic value."""
    counts: dict[tuple, int] = {}
    for diag in findings:
        key = (diag.code, diag.rank)
        seen = counts.get(key, 0)
        if seen >= _PER_CODE_CAP:
            continue
        counts[key] = seen + 1
        report.diagnostics.append(diag)
