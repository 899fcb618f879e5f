"""Skeleton extraction: one abstract walk per rank, columnar output.

The replay backend rests on the property PR 4's cost model proved and
the static verifier re-verified: generated control flow never depends on
array *data*. Loop bounds, guards, and communication partners are pure
index arithmetic over ``mynode()``/``nprocs()``/params, so the exact
sequence of effects a rank will push through the simulator — compute
bursts, sends, receives — is a *static skeleton* that can be extracted
once per (program, ring, bindings) and replayed any number of times
without executing a single array operation.

The walk here subclasses the abstract tree walker
(:class:`repro.spmd.abstract.AbstractWalk`), which accumulates cost as
**integer (ops, mems) counters**.  The compiled backend's flush charges
``ops * op_us + mems * mem_us`` — two multiplies and one add on integer
totals — so carrying the counters through extraction and synthesizing
the float cost with the *same expression* at replay time makes compute
costs bit-identical to the compiled backend for **any** machine
parameters, not just the dyadic iPSC/2 defaults.  The closed-form loop
fast path is exact integer arithmetic: ``count * trips``.

Carrying counters instead of costs has a second payoff: extraction is
**machine-independent**.  The skeleton cache is keyed only on (program,
ring size, globals, entry scalars) and one cached skeleton serves every
machine model a sweep replays it under.

Events are stored columnar — flat parallel numpy arrays per rank — so
the replayer can synthesize costs, match FIFOs, and aggregate statistics
as array expressions (:mod:`repro.replay.engine`).

Abstention: any walk failure (data-dependent control raising
:class:`~repro.errors.ModelError`, but also structural errors the
simulator might *not* reach — e.g. an invalid partner behind a receive
that deadlocks first) raises :class:`ReplayAbstention`; the caller falls
back to the compiled backend so replay never changes observable
behaviour, only speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.errors import ReproError
from repro.spmd import ir
from repro.spmd.abstract import (
    ARRAY,
    UNKNOWN,
    AbstractWalk,
    BodyInfo,
    LoopAnalysis,
    expr_reads,
    expr_vars,
)

try:  # guarded: interp/compiled must keep working without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

#: Event kinds in the columnar ``kind`` array.
KIND_COMPUTE = 0
KIND_SEND = 1
KIND_RECV = 2


class ReplayAbstention(ReproError):
    """The extractor cannot produce a skeleton; fall back to compiled."""


def _require_numpy():
    if np is None:
        raise ReproError(
            "backend 'replay' requires numpy (install numpy>=1.22) — "
            "the 'interp' and 'compiled' backends work without it"
        )


@dataclass(frozen=True)
class RankSkeleton:
    """One rank's event stream as parallel columns.

    ``kind``
        int8, one of :data:`KIND_COMPUTE`/:data:`KIND_SEND`/
        :data:`KIND_RECV`.
    ``peer``
        int32 partner rank: destination for sends, source for receives,
        ``-1`` for compute events.
    ``chan``
        int32 index into :attr:`ProgramSkeleton.channels` (``-1`` for
        compute events).
    ``plen``
        int64 payload length in scalars (sends only, else 0).
    ``ops``/``mems``
        int64 operation / memory-access counts (compute events only,
        else 0) — the compiled backend's integer flush counters.
    """

    kind: "np.ndarray"
    peer: "np.ndarray"
    chan: "np.ndarray"
    plen: "np.ndarray"
    ops: "np.ndarray"
    mems: "np.ndarray"

    def __len__(self) -> int:
        return self.kind.shape[0]


@dataclass(frozen=True)
class ProgramSkeleton:
    """All ranks' skeletons plus the shared channel-name table."""

    nprocs: int
    channels: tuple[str, ...]
    ranks: tuple[RankSkeleton, ...]

    @property
    def total_events(self) -> int:
        return sum(len(r) for r in self.ranks)


def _replicable_body_info(body) -> BodyInfo:
    """Event-uniformity scan: like the cost-uniformity scan of
    :class:`repro.spmd.abstract.LoopAnalysis` but communication does not
    disqualify a body — instead every expression that determines the
    *event stream* (partners, vector bounds, payload values' charge
    structure) is marked sensitive. A loop whose sensitive expressions
    never mention the loop variable, a body-assigned scalar, or array
    data emits the exact same event subsequence on every iteration past
    the first, so the extractor can walk two iterations and replicate.
    """
    info = BodyInfo()

    def sensitive(e: ir.NExpr) -> None:
        info.sensitive_vars |= expr_vars(e)
        if expr_reads(e):
            info.sensitive_reads = True

    def scan_shortcircuit(e: ir.NExpr) -> None:
        for node in ir.walk_exprs(e):
            if isinstance(node, ir.NBin) and node.op in ("and", "or"):
                sensitive(node)

    def scan_target(target) -> None:
        if isinstance(target, ir.VarLV):
            info.assigned.add(target.name)
        else:
            for index in target.indices:
                scan_shortcircuit(index)

    def merge(sub: BodyInfo) -> None:
        info.impure |= sub.impure
        info.assigned |= sub.assigned
        info.sensitive_vars |= sub.sensitive_vars
        info.sensitive_reads |= sub.sensitive_reads

    for stmt in body:
        if isinstance(stmt, ir.NAssign):
            scan_shortcircuit(stmt.value)
            scan_target(stmt.target)
        elif isinstance(stmt, (ir.NAllocIs, ir.NAllocBuf)):
            for dim in stmt.shape:
                scan_shortcircuit(dim)
        elif isinstance(stmt, ir.NFor):
            info.assigned.add(stmt.var)
            sensitive(stmt.lo)
            sensitive(stmt.hi)
            sensitive(stmt.step)
            merge(_replicable_body_info(stmt.body))
        elif isinstance(stmt, ir.NIf):
            sensitive(stmt.cond)
            merge(_replicable_body_info(stmt.then_body))
            merge(_replicable_body_info(stmt.else_body))
        elif isinstance(stmt, ir.NSend):
            sensitive(stmt.dst)
            for value in stmt.values:
                scan_shortcircuit(value)
        elif isinstance(stmt, ir.NRecv):
            sensitive(stmt.src)
            for target in stmt.targets:
                scan_target(target)
        elif isinstance(stmt, ir.NSendVec):
            sensitive(stmt.dst)
            sensitive(stmt.lo)
            sensitive(stmt.hi)
        elif isinstance(stmt, ir.NRecvVec):
            sensitive(stmt.src)
            sensitive(stmt.lo)
            sensitive(stmt.hi)
        elif isinstance(stmt, ir.NCoerce):
            sensitive(stmt.owner)
            sensitive(stmt.dest)
            scan_shortcircuit(stmt.value)
            scan_target(stmt.target)
        elif isinstance(stmt, ir.NBroadcast):
            sensitive(stmt.owner)
            scan_shortcircuit(stmt.value)
            scan_target(stmt.target)
        elif isinstance(stmt, ir.NComment):
            pass
        else:
            # Procedure calls and returns still disqualify.
            info.impure = True
    return info


class _ReplicationAnalysis:
    """Per-loop verdict: is the body's *event stream* iteration-invariant
    (communication allowed)? Plus the full set of scalars the body may
    assign — including receive/coerce/broadcast targets, which the cost
    model's ``assigned()`` never collects because communication already
    disqualified the loop there. Keyed by statement identity; holds the
    program so ids stay valid."""

    def __init__(self, program: ir.NodeProgram):
        self._program = program
        self._replicable: dict[int, bool] = {}
        self._assigned: dict[int, frozenset[str]] = {}
        for proc in program.procs.values():
            for stmt in ir.walk_stmts(proc.body):
                if isinstance(stmt, ir.NFor):
                    info = _replicable_body_info(stmt.body)
                    iter_state = info.assigned | {stmt.var}
                    self._replicable[id(stmt)] = (
                        not info.impure
                        and not info.sensitive_reads
                        and not (info.sensitive_vars & iter_state)
                    )
                    self._assigned[id(stmt)] = frozenset(info.assigned)

    def replicable(self, stmt: ir.NFor) -> bool:
        return self._replicable[id(stmt)]

    def assigned(self, stmt: ir.NFor) -> frozenset[str]:
        return self._assigned[id(stmt)]


class _SkeletonRank(AbstractWalk):
    """The abstract tree walker with loop shortcuts.

    Its ``flush`` records a ``("c", ops, mems)`` event exactly where the
    compiled backend would yield its flushed ``Compute`` — before every
    communication and at the end of the entry procedure — so the event
    streams align one-to-one. The closed-form loop fast path multiplies
    *counts* by the trip count (exact integers), and event-invariant
    communicating loops are walked twice and replicated, keeping
    extraction O(events), not O(iterations).
    """

    def __init__(self, program, rank, nprocs, globals_, analysis, replication):
        super().__init__(program, rank, nprocs, globals_, analysis)
        self.replication = replication

    def exec_for(self, stmt, frame) -> None:
        bounds = self.loop_bounds(stmt, frame)
        if bounds is None:
            return
        lo, hi, step = bounds
        trips = (hi - lo) // step + 1
        if trips > 1 and self.analysis.uniform(stmt):
            # Closed form over integer counters: sample one iteration,
            # multiply the count deltas by the trip count. Exact — no
            # float rounding question even arises.
            before_ops = self.pending_ops
            before_mems = self.pending_mems
            self.charge_op()  # increment + bound test
            frame.scalars[stmt.var] = lo
            self.exec_body(stmt.body, frame)
            self.pending_ops = before_ops + (self.pending_ops - before_ops) * trips
            self.pending_mems = (
                before_mems + (self.pending_mems - before_mems) * trips
            )
            for name in self.analysis.assigned(stmt):
                frame.scalars[name] = UNKNOWN
            frame.scalars[stmt.var] = lo + (trips - 1) * step
            return
        if trips > 1 and self.replication.replicable(stmt):
            # Communicating loop with an iteration-invariant event
            # stream: walk the first iteration for real (its leading
            # flush merges compute pending from *before* the loop),
            # walk the second for real (its leading flush merges the
            # first iteration's trailing compute — the steady state),
            # then replicate the second iteration's event slice for the
            # rest. Flush boundaries stay exactly where the compiled
            # backend puts them, which bit-identity of the clock chain
            # depends on.
            self.charge_op()  # increment + bound test
            frame.scalars[stmt.var] = lo
            self.exec_body(stmt.body, frame)
            tail_ops = self.pending_ops
            tail_mems = self.pending_mems
            mark = len(self.events)
            self.charge_op()
            frame.scalars[stmt.var] = lo + step
            self.exec_body(stmt.body, frame)
            if len(self.events) > mark:
                # The steady-state iteration communicated, so its
                # trailing compute pending is iteration-invariant
                # already; only the events need replicating.
                self.events.extend(self.events[mark:] * (trips - 2))
            else:
                # Every send/receive was guarded off (guards are
                # iteration-invariant): the loop degenerated to pure
                # compute and pending grows linearly instead.
                self.pending_ops += (self.pending_ops - tail_ops) * (trips - 2)
                self.pending_mems += (
                    (self.pending_mems - tail_mems) * (trips - 2)
                )
            for name in self.replication.assigned(stmt):
                frame.scalars[name] = UNKNOWN
            frame.scalars[stmt.var] = lo + (trips - 1) * step
            return
        self.iterate(stmt, frame, lo, hi, step)


def columnize(events: list[tuple], chan_ids: dict[str, int],
              channels: list[str]) -> RankSkeleton:
    """Pack one rank's ``("c"|"s"|"r", ...)`` event list into columns.

    ``chan_ids``/``channels`` intern channel names across ranks so the
    whole program shares one table; both are mutated in place.
    """
    _require_numpy()
    n = len(events)
    kind = np.zeros(n, dtype=np.int8)
    peer = np.full(n, -1, dtype=np.int32)
    chan = np.full(n, -1, dtype=np.int32)
    plen = np.zeros(n, dtype=np.int64)
    ops = np.zeros(n, dtype=np.int64)
    mems = np.zeros(n, dtype=np.int64)
    for i, ev in enumerate(events):
        tag = ev[0]
        if tag == "c":
            ops[i] = ev[1]
            mems[i] = ev[2]
        else:
            name = ev[2]
            cid = chan_ids.get(name)
            if cid is None:
                cid = chan_ids[name] = len(channels)
                channels.append(name)
            peer[i] = ev[1]
            chan[i] = cid
            if tag == "s":
                kind[i] = KIND_SEND
                plen[i] = ev[3]
            else:
                kind[i] = KIND_RECV
    return RankSkeleton(kind=kind, peer=peer, chan=chan, plen=plen,
                        ops=ops, mems=mems)


def build_skeleton(nprocs: int, per_rank_events: list[list[tuple]],
                   ) -> ProgramSkeleton:
    """Assemble a :class:`ProgramSkeleton` from raw event lists.

    Used by the extractor below and by unit tests that hand-build
    skeletons to pin the columnar FIFO arithmetic.
    """
    chan_ids: dict[str, int] = {}
    channels: list[str] = []
    ranks = tuple(
        columnize(events, chan_ids, channels) for events in per_rank_events
    )
    return ProgramSkeleton(
        nprocs=nprocs, channels=tuple(channels), ranks=ranks
    )


def _canonical_skeleton_key(key) -> str | None:
    """Process-independent string form of a skeleton cache key.

    The in-memory key leans on identity hashing (the program object)
    and an opaque array marker whose repr embeds a memory address —
    both meaningless across processes. For the disk tier the program is
    fingerprinted by its pretty-printed source (deterministic: verified
    stable across hash seeds), the marker becomes a fixed token, and
    anything whose repr still smells like an address refuses
    persistence rather than poisoning the store.
    """
    program, nprocs, globals_items, args = key
    try:
        from repro.spmd import pretty_program

        text = pretty_program(program)
    except Exception:
        return None
    args_c = repr(
        tuple(
            tuple("<ARRAY>" if a is ARRAY else a for a in row)
            for row in args
        )
    )
    rest = f"{nprocs}|{globals_items!r}|{args_c}"
    if " at 0x" in rest:  # an object repr leaked an address: not stable
        return None
    return f"skeleton|{text}|{rest}"


_skeleton_cache: dict = perf.register_cache(
    "replay_skeleton", {}, persistent=True,
    key_fn=_canonical_skeleton_key,
)


def extract_skeletons(program, nprocs: int, make_args,
                      globals_: dict[str, object]) -> ProgramSkeleton:
    """Extract (or fetch from the ``replay_skeleton`` cache) all ranks.

    ``program`` is a :class:`~repro.spmd.ir.NodeProgram` or a callable
    ``rank -> NodeProgram`` (specialized programs); ``make_args(rank)``
    supplies entry arguments exactly as :func:`repro.spmd.interp.
    run_spmd` receives them — array arguments are replaced by an opaque
    marker (their *values* cannot influence the skeleton), scalars are
    tracked concretely.

    Raises :class:`ReplayAbstention` whenever the walk cannot complete;
    callers fall back to the compiled backend with the reason recorded.
    """
    _require_numpy()
    per_rank_programs = callable(program)

    programs = []
    abstract_args: list[list[object]] = []
    for rank in range(nprocs):
        node_program = program(rank) if per_rank_programs else program
        programs.append(node_program)
        entry = node_program.entry_proc()
        raw = list(make_args(rank))
        if len(raw) == len(entry.params):
            raw = [
                ARRAY if pname in entry.array_params else value
                for pname, value in zip(entry.params, raw)
            ]
        abstract_args.append(raw)

    # Specialized programs are rebuilt per run, so identity-keyed
    # memoization would never hit; skip it rather than leak entries.
    use_cache = perf.caches_enabled() and not per_rank_programs
    key = None
    if use_cache:
        try:
            key = (
                program,  # identity-hashed, like the tune_predict cache
                nprocs,
                tuple(sorted(globals_.items())),
                tuple(tuple(args) for args in abstract_args),
            )
            cached = _skeleton_cache.get(key)
        except TypeError:  # unhashable globals or entry scalars
            key, cached = None, None
        if cached is not None:
            perf.hit("replay_skeleton")
            return cached
        if key is not None:
            perf.miss("replay_skeleton")

    with perf.phase("replay_extract"):
        analyses: dict[int, tuple[LoopAnalysis, _ReplicationAnalysis]] = {}
        chan_ids: dict[str, int] = {}
        channels: list[str] = []
        ranks = []
        for rank in range(nprocs):
            node_program = programs[rank]
            pair = analyses.get(id(node_program))
            if pair is None:
                pair = analyses[id(node_program)] = (
                    LoopAnalysis(node_program),
                    _ReplicationAnalysis(node_program),
                )
            walker = _SkeletonRank(
                node_program, rank, nprocs, globals_, pair[0], pair[1]
            )
            try:
                events = walker.run(abstract_args[rank])
            except ReproError as err:
                # ModelError: genuinely data-dependent control.  Other
                # ReproErrors (invalid partner, unbound name...): the
                # simulator raises them only if the rank *reaches* the
                # offending event — a run may deadlock first — so the
                # compiled backend must arbitrate those too.
                raise ReplayAbstention(
                    f"rank {rank}: {type(err).__name__}: {err}"
                ) from err
            except Exception as err:  # defensive: never change behaviour
                raise ReplayAbstention(
                    f"rank {rank}: {type(err).__name__}: {err}"
                ) from err
            ranks.append(columnize(events, chan_ids, channels))
        skeleton = ProgramSkeleton(
            nprocs=nprocs, channels=tuple(channels), ranks=tuple(ranks)
        )

    if key is not None:
        _skeleton_cache[key] = skeleton
    return skeleton
