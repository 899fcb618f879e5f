"""Abstract per-rank walks of SPMD node programs.

Generated control flow is **pure index arithmetic**: loop bounds, guards
and communication partners are computed from ``mynode()``, ``nprocs()``,
params and loop variables — never from array *data*. A walk that tracks
scalars concretely and treats every array element as the opaque
:data:`UNKNOWN` therefore reconstructs each rank's exact event skeleton

    [Compute, Send(dst, channel, plen), Recv(src, channel), ...]

without the scheduler: no receive can influence a branch, so a rank's
walk is straight-line recording. Where that assumption breaks (a
branch, bound or partner that depends on data), the walk raises
:class:`~repro.errors.ModelError` rather than guessing.

Both engines here charge exactly what the node interpreter charges —
one op per expression node and loop iteration, one memory access per
array access and vector element — as **integer** ``(ops, mems)``
counters that are flushed before every communication and at the end of
the entry procedure, the compiled backend's convention:

* :class:`AbstractWalk` is the tree walker. The static verifier
  (:class:`repro.analysis.walk.VerifyWalk`) and the replay extractor
  (:class:`repro.replay.skeleton._SkeletonRank`) subclass it; its flush
  records ``("c", ops, mems)``.
* :class:`CompiledWalk` translates a program to closures once per ring
  size and bindings and runs them for every rank (``mynode()`` is read
  from per-run state). Its flush records ``("c", ops * op_us + mems *
  mem_us)`` — the compiled backend's flush expression, so costs are
  bit-identical to ``execute(backend="compiled")`` for any machine
  constants. The cost model (:func:`repro.tune.model.predict`) runs it.

:class:`LoopAnalysis` finds the loops whose per-iteration cost is
provably invariant; both engines charge those in closed form (one
sampled iteration's counts times the trip count), which is exact on
integers.
"""

from __future__ import annotations

import operator

from repro import perf
from repro.errors import ModelError, NodeRuntimeError
from repro.lang.builtins import apply_builtin, is_builtin
from repro.spmd import ir
from repro.spmd.interp import _binop

_MAX_CALL_DEPTH = 64  # keep in sync with repro.spmd.interp


class _Unknown:
    """Opaque stand-in for array-element values.

    Arithmetic on it yields itself; asking for its truth value means a
    branch depends on data, which the walk cannot predict."""

    __slots__ = ()

    def __bool__(self) -> bool:
        raise ModelError(
            "control flow depends on array data; the analytic model only "
            "handles data-independent control"
        )

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()

#: Marker for an opaque local array or buffer.
ARRAY = object()

_INDIRECT = (
    "indirect access: communication schedule depends on array data"
)


class WalkReturn(Exception):
    """Unwinds a walked procedure at its ``return``."""


def _span(lo, hi) -> int:
    """A vector message's element count for bounds ``lo..hi``."""
    if lo is UNKNOWN or hi is UNKNOWN:
        raise ModelError("vector bounds depend on array data")
    return max(0, hi - lo + 1)


# ---------------------------------------------------------------------------
# Cost-uniformity analysis (the closed-form fast path's precondition)
# ---------------------------------------------------------------------------


class BodyInfo:
    __slots__ = ("impure", "assigned", "sensitive_vars", "sensitive_reads")

    def __init__(self):
        self.impure = False
        self.assigned: set[str] = set()
        # Variables whose value can change a body's *cost*: branch
        # conditions, inner loop bounds, and short-circuit operands.
        self.sensitive_vars: set[str] = set()
        self.sensitive_reads = False


def expr_vars(e: ir.NExpr) -> set[str]:
    return {n.name for n in ir.walk_exprs(e) if isinstance(n, ir.NVar)}


def expr_reads(e: ir.NExpr) -> bool:
    return any(
        isinstance(n, (ir.NIsRead, ir.NBufRead)) for n in ir.walk_exprs(e)
    )


def _body_info(body) -> BodyInfo:
    info = BodyInfo()

    def sensitive(e: ir.NExpr) -> None:
        info.sensitive_vars |= expr_vars(e)
        if expr_reads(e):
            info.sensitive_reads = True

    def scan_shortcircuit(e: ir.NExpr) -> None:
        for node in ir.walk_exprs(e):
            if isinstance(node, ir.NBin) and node.op in ("and", "or"):
                sensitive(node)

    def merge(sub: BodyInfo) -> None:
        info.impure |= sub.impure
        info.assigned |= sub.assigned
        info.sensitive_vars |= sub.sensitive_vars
        info.sensitive_reads |= sub.sensitive_reads

    for stmt in body:
        if isinstance(stmt, ir.NAssign):
            scan_shortcircuit(stmt.value)
            if isinstance(stmt.target, ir.VarLV):
                info.assigned.add(stmt.target.name)
            else:
                for index in stmt.target.indices:
                    scan_shortcircuit(index)
        elif isinstance(stmt, (ir.NAllocIs, ir.NAllocBuf)):
            for dim in stmt.shape:
                scan_shortcircuit(dim)
        elif isinstance(stmt, ir.NFor):
            info.assigned.add(stmt.var)
            sensitive(stmt.lo)
            sensitive(stmt.hi)
            sensitive(stmt.step)
            merge(_body_info(stmt.body))
        elif isinstance(stmt, ir.NIf):
            sensitive(stmt.cond)
            merge(_body_info(stmt.then_body))
            merge(_body_info(stmt.else_body))
        elif isinstance(stmt, ir.NComment):
            pass
        else:
            # Communication, procedure calls, and returns all disqualify
            # a body from closed-form costing.
            info.impure = True
    return info


class LoopAnalysis:
    """Per-loop verdict: is the body's per-iteration cost invariant?

    A loop qualifies for the closed-form fast path when its body is free
    of communication/calls/returns and no cost-determining expression
    (branch condition, inner bound, short-circuit operand) mentions the
    loop variable, a scalar assigned inside the body, or array data.
    Keyed by statement identity; holds the program so ids stay valid."""

    def __init__(self, program: ir.NodeProgram):
        self._program = program
        self._uniform: dict[int, bool] = {}
        self._assigned: dict[int, frozenset[str]] = {}
        for proc in program.procs.values():
            self._scan(proc.body)

    def _scan(self, body) -> None:
        for stmt in ir.walk_stmts(body):
            if isinstance(stmt, ir.NFor):
                info = _body_info(stmt.body)
                iter_state = info.assigned | {stmt.var}
                self._uniform[id(stmt)] = (
                    not info.impure
                    and not info.sensitive_reads
                    and not (info.sensitive_vars & iter_state)
                )
                self._assigned[id(stmt)] = frozenset(info.assigned)

    def uniform(self, stmt: ir.NFor) -> bool:
        return self._uniform[id(stmt)]

    def assigned(self, stmt: ir.NFor) -> frozenset[str]:
        return self._assigned[id(stmt)]


# ---------------------------------------------------------------------------
# The tree walker
# ---------------------------------------------------------------------------


class Frame:
    __slots__ = ("scalars", "arrays")

    def __init__(self):
        self.scalars: dict[str, object] = {}
        self.arrays: dict[str, object] = {}


class AbstractWalk:
    """Record one rank's event skeleton by abstract tree interpretation.

    Mirrors :class:`repro.spmd.interp._NodeMachine` statement by
    statement — the same charge points in the same order — but records
    effects into ``self.events`` instead of yielding them: because no
    branch may depend on a received value, the walk never needs the
    scheduler. Every loop is iterated; subclasses add their own loop
    shortcuts by overriding :meth:`exec_for`."""

    def __init__(
        self,
        program: ir.NodeProgram,
        rank: int,
        nprocs: int,
        globals_: dict[str, object],
        analysis: LoopAnalysis,
    ):
        self.program = program
        self.rank = rank
        self.nprocs = nprocs
        self.globals = dict(globals_)
        self.analysis = analysis
        self.events: list[tuple] = []
        self.pending_ops = 0
        self.pending_mems = 0
        self.depth = 0

    # -- cost plumbing -----------------------------------------------------
    def charge_op(self, count: int = 1) -> None:
        self.pending_ops += count

    def charge_mem(self, count: int = 1) -> None:
        self.pending_mems += count

    def flush(self) -> None:
        if self.pending_ops or self.pending_mems:
            self.events.append(("c", self.pending_ops, self.pending_mems))
            self.pending_ops = 0
            self.pending_mems = 0

    def emit_send(self, dst, channel: str, plen: int) -> None:
        if dst is UNKNOWN:
            raise ModelError("send destination depends on array data")
        if not 0 <= dst < self.nprocs:
            raise NodeRuntimeError(
                f"send to invalid processor {dst}", self.rank
            )
        if dst == self.rank:
            raise NodeRuntimeError(
                f"self-send on channel {channel!r}", self.rank
            )
        self.flush()
        self.events.append(("s", dst, channel, plen))

    def emit_recv(self, src, channel: str) -> None:
        if src is UNKNOWN:
            raise ModelError("receive source depends on array data")
        if not 0 <= src < self.nprocs:
            raise NodeRuntimeError(
                f"recv from invalid processor {src}", self.rank
            )
        if src == self.rank:
            raise NodeRuntimeError(
                f"self-receive on channel {channel!r}", self.rank
            )
        self.flush()
        self.events.append(("r", src, channel))

    # -- entry -------------------------------------------------------------
    def run(self, args: list[object]) -> list[tuple]:
        self.call(self.program.entry_proc().name, args)
        self.flush()
        return self.events

    def call(self, name: str, args: list[object]) -> None:
        proc = self.program.procs.get(name)
        if proc is None:
            raise NodeRuntimeError(f"unknown node procedure {name!r}", self.rank)
        if len(args) != len(proc.params):
            raise NodeRuntimeError(
                f"{name} expects {len(proc.params)} arguments, got {len(args)}",
                self.rank,
            )
        self.depth += 1
        if self.depth > _MAX_CALL_DEPTH:
            raise NodeRuntimeError(f"call depth exceeded in {name}", self.rank)
        frame = Frame()
        for pname, arg in zip(proc.params, args):
            if pname in proc.array_params:
                frame.arrays[pname] = arg
            else:
                frame.scalars[pname] = arg
        try:
            self.exec_body(proc.body, frame)
        except WalkReturn:
            pass
        finally:
            self.depth -= 1

    # -- statements --------------------------------------------------------
    def exec_body(self, body, frame: Frame) -> None:
        for stmt in body:
            self.exec_stmt(stmt, frame)

    def exec_stmt(self, stmt: ir.NStmt, frame: Frame) -> None:
        if isinstance(stmt, ir.NAssign):
            self.store(stmt.target, self.eval(stmt.value, frame), frame)
        elif isinstance(stmt, (ir.NAllocIs, ir.NAllocBuf)):
            for dim in stmt.shape:
                self.eval(dim, frame)
            frame.arrays[stmt.name] = ARRAY
        elif isinstance(stmt, ir.NFor):
            self.exec_for(stmt, frame)
        elif isinstance(stmt, ir.NIf):
            if self.eval(stmt.cond, frame):
                self.exec_body(stmt.then_body, frame)
            else:
                self.exec_body(stmt.else_body, frame)
        elif isinstance(stmt, ir.NSend):
            for value in stmt.values:
                self.eval(value, frame)
            dst = self.eval(stmt.dst, frame)
            self.emit_send(dst, stmt.channel, len(stmt.values))
        elif isinstance(stmt, ir.NRecv):
            src = self.eval(stmt.src, frame)
            self.emit_recv(src, stmt.channel)
            for target in stmt.targets:
                self.store(target, UNKNOWN, frame)
        elif isinstance(stmt, ir.NSendVec):
            self.buffer(stmt.buf, frame)
            lo = self.eval(stmt.lo, frame)
            hi = self.eval(stmt.hi, frame)
            dst = self.eval(stmt.dst, frame)
            plen = _span(lo, hi)
            self.charge_mem(plen)
            self.emit_send(dst, stmt.channel, plen)
        elif isinstance(stmt, ir.NRecvVec):
            src = self.eval(stmt.src, frame)
            self.buffer(stmt.buf, frame)
            lo = self.eval(stmt.lo, frame)
            hi = self.eval(stmt.hi, frame)
            self.emit_recv(src, stmt.channel)
            self.charge_mem(_span(lo, hi))
        elif isinstance(stmt, ir.NCoerce):
            self.exec_coerce(stmt, frame)
        elif isinstance(stmt, ir.NBroadcast):
            self.exec_broadcast(stmt, frame)
        elif isinstance(stmt, ir.NCallProc):
            args = [
                self.array(a, frame) if isinstance(a, str)
                else self.eval(a, frame)
                for a in stmt.args
            ]
            self.call(stmt.proc, args)
            if stmt.array_result is not None:
                frame.arrays[stmt.array_result] = ARRAY
            elif stmt.result is not None:
                self.store(stmt.result, UNKNOWN, frame)
        elif isinstance(stmt, ir.NReturn):
            if stmt.value is not None and not isinstance(stmt.value, str):
                self.eval(stmt.value, frame)
            raise WalkReturn()
        elif isinstance(stmt, ir.NComment):
            pass
        elif isinstance(
            stmt,
            (
                ir.NExchange,
                ir.NResolve,
                ir.NAccum,
                ir.NScatterFlush,
                ir.NAccumLocal,
            ),
        ):
            # Inspector/executor nodes: who talks to whom is decided by
            # index-array *contents* at run time, which the abstract walk
            # cannot see. Abstain — the caller reports this as an
            # "analysis unavailable" diagnostic, never a wrong verdict.
            raise ModelError(_INDIRECT)
        elif isinstance(stmt, ir.NArrayAlias):
            frame.arrays[stmt.name] = ARRAY
        else:
            raise NodeRuntimeError(f"unknown statement {stmt!r}", self.rank)

    def loop_bounds(self, stmt: ir.NFor, frame: Frame):
        """Evaluate and check a loop's bounds; ``None`` if it never runs."""
        lo = self.eval(stmt.lo, frame)
        hi = self.eval(stmt.hi, frame)
        step = self.eval(stmt.step, frame)
        if lo is UNKNOWN or hi is UNKNOWN or step is UNKNOWN:
            raise ModelError("loop bound depends on array data")
        if step <= 0:
            raise NodeRuntimeError(f"non-positive loop step {step}", self.rank)
        if hi < lo:
            return None
        return lo, hi, step

    def exec_for(self, stmt: ir.NFor, frame: Frame) -> None:
        bounds = self.loop_bounds(stmt, frame)
        if bounds is not None:
            self.iterate(stmt, frame, *bounds)

    def iterate(self, stmt: ir.NFor, frame: Frame, lo, hi, step) -> None:
        for v in range(lo, hi + 1, step):
            self.charge_op()  # increment + bound test
            frame.scalars[stmt.var] = v
            self.exec_body(stmt.body, frame)

    def exec_coerce(self, stmt: ir.NCoerce, frame: Frame) -> None:
        owner = self.eval(stmt.owner, frame)
        dest = self.eval(stmt.dest, frame)
        self.charge_op(2)  # the two membership tests every processor makes
        if owner is UNKNOWN or dest is UNKNOWN:
            raise ModelError("coerce partner depends on array data")
        if owner == dest:
            if self.rank == dest:
                self.store(stmt.target, self.eval(stmt.value, frame), frame)
            return
        if self.rank == owner:
            self.eval(stmt.value, frame)
            self.emit_send(dest, stmt.channel, 1)
        elif self.rank == dest:
            self.emit_recv(owner, stmt.channel)
            self.store(stmt.target, UNKNOWN, frame)

    def exec_broadcast(self, stmt: ir.NBroadcast, frame: Frame) -> None:
        owner = self.eval(stmt.owner, frame)
        self.charge_op()
        if owner is UNKNOWN:
            raise ModelError("broadcast owner depends on array data")
        if self.rank == owner:
            value = self.eval(stmt.value, frame)
            self.store(stmt.target, value, frame)
            self.flush()
            for q in range(self.nprocs):
                if q != self.rank:
                    self.events.append(("s", q, stmt.channel, 1))
        else:
            self.emit_recv(owner, stmt.channel)
            self.store(stmt.target, UNKNOWN, frame)

    # -- values ------------------------------------------------------------
    def array(self, name: str, frame: Frame):
        found = frame.arrays.get(name)
        if found is None:
            found = self.globals.get(name)
        if found is None:
            raise NodeRuntimeError(f"unknown array {name!r}", self.rank)
        return found

    def buffer(self, name: str, frame: Frame):
        return self.array(name, frame)

    def store(self, target, value, frame: Frame) -> None:
        if isinstance(target, ir.VarLV):
            frame.scalars[target.name] = value
        elif isinstance(target, ir.IsLV):
            self.array(target.array, frame)
            for index in target.indices:
                self.eval(index, frame)
            self.charge_mem()
        elif isinstance(target, ir.BufLV):
            self.buffer(target.buf, frame)
            for index in target.indices:
                self.eval(index, frame)
            self.charge_mem()
        else:
            raise NodeRuntimeError(f"unknown lvalue {target!r}", self.rank)

    def eval(self, e: ir.NExpr, frame: Frame):
        if isinstance(e, ir.NConst):
            return e.value
        if isinstance(e, ir.NVar):
            if e.name in frame.scalars:
                return frame.scalars[e.name]
            if e.name in self.globals:
                return self.globals[e.name]
            raise NodeRuntimeError(f"unbound variable {e.name!r}", self.rank)
        if isinstance(e, ir.NMyNode):
            return self.rank
        if isinstance(e, ir.NNProcs):
            return self.nprocs
        if isinstance(e, ir.NBin):
            left = self.eval(e.left, frame)
            if e.op == "and":
                self.charge_op()
                # bool(UNKNOWN) raises ModelError, exactly when the
                # interpreter's short-circuit would depend on data.
                return bool(left) and bool(self.eval(e.right, frame))
            if e.op == "or":
                self.charge_op()
                return bool(left) or bool(self.eval(e.right, frame))
            right = self.eval(e.right, frame)
            self.charge_op()
            if left is UNKNOWN or right is UNKNOWN:
                return UNKNOWN
            return _binop(e.op, left, right, self.rank)
        if isinstance(e, ir.NUn):
            value = self.eval(e.operand, frame)
            self.charge_op()
            if value is UNKNOWN:
                return UNKNOWN
            return (not value) if e.op == "not" else -value
        if isinstance(e, ir.NCall):
            args = [self.eval(a, frame) for a in e.args]
            if not is_builtin(e.func):
                raise NodeRuntimeError(
                    f"unknown builtin {e.func!r} in expression", self.rank
                )
            self.charge_op()
            if any(a is UNKNOWN for a in args):
                return UNKNOWN
            return apply_builtin(e.func, args)
        if isinstance(e, ir.NIsRead):
            self.array(e.array, frame)
            for index in e.indices:
                self.eval(index, frame)
            self.charge_mem()
            return UNKNOWN
        if isinstance(e, ir.NBufRead):
            self.buffer(e.buf, frame)
            for index in e.indices:
                self.eval(index, frame)
            self.charge_mem()
            return UNKNOWN
        if isinstance(e, ir.NIndirect):
            raise ModelError(_INDIRECT)
        raise NodeRuntimeError(f"unknown expression {e!r}", self.rank)


# ---------------------------------------------------------------------------
# The compiled walk
# ---------------------------------------------------------------------------
#
# Each expression compiles to an _Expr: a closure ``fn(st, fr)`` plus
# what is known about it statically —
#
# * ``ops``/``mems``: its full cost, charged by whoever evaluates it
#   (``fn`` charges nothing); ``ops is None`` when the cost depends on a
#   short-circuit operand, and then ``fn`` charges its own cost;
# * ``const``: its value when folded at compile time (``UNKNOWN`` is a
#   legitimate folded value: every array read is one), else _NOTCONST —
#   a folded expression is always pure;
# * ``pure``: evaluating it can neither raise nor charge dynamically, so
#   a caller that does not need the value may skip the call entirely.
#
# Statements compile to ``(fn, ops, mems)`` with the same convention, and
# a body fuses runs of statically costed statements into one charge.
# Nothing inside a statically costed statement can flush, so charging
# its count before or after running it lands in the same flush — and the
# flushed float is the compiled backend's ``ops * op_us + mems * mem_us``.

_UNSET = object()  # empty frame slot
_NOTCONST = object()  # "no compile-time value" marker

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "div": operator.floordiv,
    "mod": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_DIVIDING = frozenset(("/", "div", "mod"))


class _WalkState:
    """Per-rank mutable state shared by every closure of one run."""

    __slots__ = ("rank", "ops", "mems", "op_us", "mem_us", "events",
                 "depth")

    def __init__(self, rank, op_us, mem_us):
        self.rank = rank
        self.ops = 0
        self.mems = 0
        self.op_us = op_us
        self.mem_us = mem_us
        self.events: list[tuple] = []
        self.depth = 0


def _flush(st) -> None:
    ops = st.ops
    mems = st.mems
    if ops or mems:
        st.ops = 0
        st.mems = 0
        cost = ops * st.op_us + mems * st.mem_us
        if cost > 0.0:
            st.events.append(("c", cost))


class _Expr:
    __slots__ = ("fn", "ops", "mems", "const", "pure")

    def __init__(self, fn, ops, mems, const=_NOTCONST, pure=False):
        self.fn = fn
        self.ops = ops
        self.mems = mems
        self.const = const
        self.pure = pure


def _const(value, ops=0, mems=0) -> _Expr:
    def fn(st, fr, _v=value):
        return _v

    return _Expr(fn, ops, mems, value, True)


def _charged(ex: _Expr):
    """A closure that charges ``ex``'s static cost and evaluates it."""
    fn, ops, mems = ex.fn, ex.ops, ex.mems
    if ops is None or (ops == 0 and mems == 0):
        return fn

    def charged(st, fr):
        st.ops += ops
        st.mems += mems
        return fn(st, fr)
    return charged


def _effects(exprs):
    """Split expressions evaluated for their effects only.

    Returns ``(fns, ops, mems)``: the closures that must still run (in
    order — impure static ones uncharged, dynamic ones self-charging)
    and the aggregated static cost of the rest."""
    fns = []
    ops = 0
    mems = 0
    for ex in exprs:
        if ex.ops is None:
            fns.append(ex.fn)
            continue
        ops += ex.ops
        mems += ex.mems
        if not ex.pure:
            fns.append(ex.fn)
    return tuple(fns), ops, mems


def _noop(st, fr):
    return None


def _seq(fns):
    fns = tuple(f for f in fns if f is not _noop)
    if not fns:
        return _noop
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        f0, f1 = fns

        def run2(st, fr):
            f0(st, fr)
            f1(st, fr)
        return run2

    def run(st, fr):
        for f in fns:
            f(st, fr)
    return run


def _charge_then(fn, ops, mems):
    if ops == 0 and mems == 0:
        return fn

    def run(st, fr):
        st.ops += ops
        st.mems += mems
        fn(st, fr)
    return run


def _self_charging(compiled):
    fn, ops, mems = compiled
    return fn if ops is None else _charge_then(fn, ops, mems)


def _returns(stmt) -> bool:
    return any(isinstance(s, ir.NReturn) for s in ir.walk_stmts([stmt]))


class _ProcCompiler:
    """Compiles one procedure; tracks slots and definite assignment."""

    def __init__(self, walk: "CompiledWalk", proc: ir.NodeProc):
        self.nprocs = walk.nprocs
        self.globals = walk.globals
        self.analysis = walk.analysis
        self.procs = walk.procs
        scalars: dict[str, int] = {}
        arrays: dict[str, int] = {}

        def scalar(name):
            if name not in scalars:
                scalars[name] = len(scalars) + len(arrays)

        def array(name):
            if name not in arrays:
                arrays[name] = len(scalars) + len(arrays)

        for pname in proc.params:
            if pname in proc.array_params:
                array(pname)
            else:
                scalar(pname)
        for stmt in ir.walk_stmts(list(proc.body)):
            if isinstance(stmt, ir.NAssign):
                if isinstance(stmt.target, ir.VarLV):
                    scalar(stmt.target.name)
            elif isinstance(stmt, (ir.NAllocIs, ir.NAllocBuf)):
                array(stmt.name)
            elif isinstance(stmt, ir.NFor):
                scalar(stmt.var)
            elif isinstance(stmt, ir.NRecv):
                for target in stmt.targets:
                    if isinstance(target, ir.VarLV):
                        scalar(target.name)
            elif isinstance(stmt, (ir.NCoerce, ir.NBroadcast)):
                if isinstance(stmt.target, ir.VarLV):
                    scalar(stmt.target.name)
            elif isinstance(stmt, ir.NCallProc):
                if stmt.array_result is not None:
                    array(stmt.array_result)
                elif isinstance(stmt.result, ir.VarLV):
                    scalar(stmt.result.name)
            elif isinstance(stmt, ir.NArrayAlias):
                array(stmt.name)
        self.scalar_slots = scalars
        self.array_slots = arrays
        self.nslots = len(scalars) + len(arrays)
        # Names bound on every path to the statement being compiled.
        self.defined = {p for p in proc.params if p not in proc.array_params}
        self.defined_arrays = set(proc.array_params)

    # -- names -------------------------------------------------------------
    def var(self, name) -> _Expr:
        slot = self.scalar_slots.get(name)
        gval = self.globals.get(name, _UNSET)
        if slot is None:
            if gval is not _UNSET:
                return _const(gval)

            def unbound(st, fr):
                raise NodeRuntimeError(f"unbound variable {name!r}", st.rank)
            return _Expr(unbound, 0, 0)
        if name in self.defined:
            def read(st, fr):
                return fr[slot]
            return _Expr(read, 0, 0, pure=True)
        if gval is not _UNSET:
            def read_or_global(st, fr):
                v = fr[slot]
                return gval if v is _UNSET else v
            return _Expr(read_or_global, 0, 0, pure=True)

        def read_checked(st, fr):
            v = fr[slot]
            if v is _UNSET:
                raise NodeRuntimeError(f"unbound variable {name!r}", st.rank)
            return v
        return _Expr(read_checked, 0, 0)

    def array(self, name):
        """The array lookup's closure, or None when it cannot fail."""
        slot = self.array_slots.get(name)
        bound_globally = self.globals.get(name) is not None
        if bound_globally or name in self.defined_arrays:
            return None
        if slot is None:
            def missing(st, fr):
                raise NodeRuntimeError(f"unknown array {name!r}", st.rank)
            return missing

        def lookup(st, fr):
            if fr[slot] is _UNSET:
                raise NodeRuntimeError(f"unknown array {name!r}", st.rank)
        return lookup

    def array_value(self, name):
        """A closure producing the array bound to ``name`` (call args)."""
        slot = self.array_slots.get(name)
        gval = self.globals.get(name)
        if slot is None:
            if gval is not None:
                return lambda st, fr: gval

            def missing(st, fr):
                raise NodeRuntimeError(f"unknown array {name!r}", st.rank)
            return missing

        def get(st, fr):
            v = fr[slot]
            if v is _UNSET:
                if gval is None:
                    raise NodeRuntimeError(
                        f"unknown array {name!r}", st.rank
                    )
                return gval
            return v
        return get

    # -- expressions -------------------------------------------------------
    def expr(self, e) -> _Expr:
        if isinstance(e, ir.NConst):
            return _const(e.value)
        if isinstance(e, ir.NVar):
            return self.var(e.name)
        if isinstance(e, ir.NMyNode):
            return _Expr(lambda st, fr: st.rank, 0, 0, pure=True)
        if isinstance(e, ir.NNProcs):
            return _const(self.nprocs)
        if isinstance(e, ir.NBin):
            if e.op in ("and", "or"):
                return self.shortcircuit(e)
            return self.binop(e)
        if isinstance(e, ir.NUn):
            return self.unop(e)
        if isinstance(e, ir.NCall):
            return self.call(e)
        if isinstance(e, ir.NIsRead):
            return self.read(e.array, e.indices)
        if isinstance(e, ir.NBufRead):
            return self.read(e.buf, e.indices)
        if isinstance(e, ir.NIndirect):
            def indirect(st, fr):
                raise ModelError(_INDIRECT)
            return _Expr(indirect, 0, 0)

        def bad(st, fr):
            raise NodeRuntimeError(f"unknown expression {e!r}", st.rank)
        return _Expr(bad, 0, 0)

    def read(self, name, indices) -> _Expr:
        lookup = self.array(name)
        compiled = [self.expr(i) for i in indices]
        fns, ops, mems = _effects(compiled)
        if lookup is not None:
            fns = (lookup, *fns)
        mems += 1
        if not fns:
            return _const(UNKNOWN, ops, mems)

        def read(st, fr):
            for f in fns:
                f(st, fr)
            return UNKNOWN
        if all(i.ops is not None for i in compiled):
            return _Expr(read, ops, mems)

        def read_dynamic(st, fr):
            st.ops += ops
            st.mems += mems
            return read(st, fr)
        return _Expr(read_dynamic, None, None)

    def binop(self, e) -> _Expr:
        left = self.expr(e.left)
        right = self.expr(e.right)
        op = e.op
        f = _ARITH.get(op)
        if f is None:
            def unknown_op(st, fr):
                left.fn(st, fr)
                right.fn(st, fr)
                raise NodeRuntimeError(f"unknown operator {op!r}", st.rank)
            return _Expr(unknown_op, None, None)
        lc, rc = left.const, right.const
        if left.ops is not None and right.ops is not None:
            ops = left.ops + right.ops + 1
            mems = left.mems + right.mems
            if left.pure and right.pure and (lc is UNKNOWN or rc is UNKNOWN):
                return _const(UNKNOWN, ops, mems)
            if lc is not _NOTCONST and rc is not _NOTCONST:
                try:
                    return _const(f(lc, rc), ops, mems)
                except Exception:
                    pass  # keep the run-time error
            return _Expr(self._binop_fn(op, f, left, right), ops, mems,
                         pure=left.pure and right.pure and (
                             op not in _DIVIDING
                             or (rc is not _NOTCONST and rc != 0)
                         ))
        # A short-circuit operand makes the cost dynamic: each side
        # charges itself and this node adds its own op.
        inner = self._binop_fn(op, f, _Expr(_charged(left), 0, 0),
                               _Expr(_charged(right), 0, 0))

        def dynamic(st, fr):
            v = inner(st, fr)
            st.ops += 1
            return v
        return _Expr(dynamic, None, None)

    @staticmethod
    def _binop_fn(op, f, left, right):
        lf, rf = left.fn, right.fn
        rc = right.const
        if op in _DIVIDING and (
            rc is _NOTCONST or rc is UNKNOWN or rc == 0
        ):
            # Defer to the interpreter's operator for its exact errors.
            def divide(st, fr):
                a = lf(st, fr)
                b = rf(st, fr)
                if a is UNKNOWN or b is UNKNOWN:
                    return UNKNOWN
                return _binop(op, a, b, st.rank)
            return divide

        if rc is not _NOTCONST and rc is not UNKNOWN:
            def with_const(st, fr):
                a = lf(st, fr)
                return UNKNOWN if a is UNKNOWN else f(a, rc)
            return with_const
        lc = left.const
        if lc is not _NOTCONST and lc is not UNKNOWN:
            def const_with(st, fr):
                b = rf(st, fr)
                return UNKNOWN if b is UNKNOWN else f(lc, b)
            return const_with

        def arith(st, fr):
            a = lf(st, fr)
            b = rf(st, fr)
            if a is UNKNOWN or b is UNKNOWN:
                return UNKNOWN
            return f(a, b)
        return arith

    def shortcircuit(self, e) -> _Expr:
        # The right operand is charged only when evaluated, so the cost is
        # dynamic; the left operand's static cost joins the operator's op.
        left = self.expr(e.left)
        lf = left.fn
        lops = 1 + (left.ops if left.ops is not None else 0)
        lmems = left.mems if left.ops is not None else 0
        rf = _charged(self.expr(e.right))
        # bool(UNKNOWN) raises ModelError, exactly when the interpreter's
        # short-circuit would depend on data.
        if e.op == "and":
            def fn(st, fr):
                v = lf(st, fr)
                st.ops += lops
                st.mems += lmems
                return bool(v) and bool(rf(st, fr))
        else:
            def fn(st, fr):
                v = lf(st, fr)
                st.ops += lops
                st.mems += lmems
                return bool(v) or bool(rf(st, fr))
        return _Expr(fn, None, None)

    def unop(self, e) -> _Expr:
        operand = self.expr(e.operand)
        is_not = e.op == "not"

        def apply(v):
            if v is UNKNOWN:
                return UNKNOWN
            return (not v) if is_not else -v

        if operand.ops is not None:
            ops = operand.ops + 1
            if operand.const is not _NOTCONST:
                try:
                    return _const(apply(operand.const), ops, operand.mems)
                except Exception:
                    pass
            of = operand.fn

            def fn(st, fr):
                return apply(of(st, fr))
            return _Expr(fn, ops, operand.mems, pure=operand.pure)
        of = operand.fn

        def dynamic(st, fr):
            v = of(st, fr)
            st.ops += 1
            return apply(v)
        return _Expr(dynamic, None, None)

    def call(self, e) -> _Expr:
        args = [self.expr(a) for a in e.args]
        func = e.func
        static = all(a.ops is not None for a in args)
        if not is_builtin(func):
            fns = tuple(_charged(a) for a in args)

            def unknown_builtin(st, fr):
                for f in fns:
                    f(st, fr)
                raise NodeRuntimeError(
                    f"unknown builtin {func!r} in expression", st.rank
                )
            return _Expr(unknown_builtin, None, None)

        def apply(vals):
            if any(v is UNKNOWN for v in vals):
                return UNKNOWN
            return apply_builtin(func, vals)

        if static:
            ops = sum(a.ops for a in args) + 1
            mems = sum(a.mems for a in args)
            if all(a.const is not _NOTCONST for a in args):
                try:
                    return _const(apply([a.const for a in args]), ops, mems)
                except Exception:
                    pass
            fns = tuple(a.fn for a in args)

            def fn(st, fr):
                return apply([f(st, fr) for f in fns])
            return _Expr(fn, ops, mems)
        fns = tuple(_charged(a) for a in args)

        def dynamic(st, fr):
            vals = [f(st, fr) for f in fns]
            st.ops += 1
            return apply(vals)
        return _Expr(dynamic, None, None)

    # -- stores ------------------------------------------------------------
    def store(self, target):
        """A self-charging ``store(st, fr, value)`` for an l-value.

        Element stores discard the value (array contents are opaque)
        and keep only the lookup, index evaluation and memory charge."""
        if isinstance(target, ir.VarLV):
            slot = self.scalar_slots[target.name]

            def store_var(st, fr, value):
                fr[slot] = value
            return store_var
        if isinstance(target, ir.IsLV):
            name = target.array
        elif isinstance(target, ir.BufLV):
            name = target.buf
        else:
            def bad(st, fr, value):
                raise NodeRuntimeError(f"unknown lvalue {target!r}", st.rank)
            return bad
        run = _self_charging(self.element(name, target.indices))

        def store_elem(st, fr, value):
            run(st, fr)
        return store_elem

    def element(self, name, indices):
        """``(fn, ops, mems)`` for an element access whose value is unused."""
        lookup = self.array(name)
        compiled = [self.expr(i) for i in indices]
        fns, ops, mems = _effects(compiled)
        if lookup is not None:
            fns = (lookup, *fns)
        fn = _seq(fns)
        if all(i.ops is not None for i in compiled):
            return fn, ops, mems + 1
        return _charge_then(fn, ops, mems + 1), None, None

    # -- statements --------------------------------------------------------
    def body(self, stmts):
        """Compile a statement list to ``(fn, ops, mems)``."""
        compiled = [(stmt, *self.stmt(stmt)) for stmt in stmts]
        if all(ops is not None for _, _, ops, _ in compiled) and not any(
            _returns(stmt) for stmt in stmts[:-1]
        ):
            return (
                _seq([fn for _, fn, _, _ in compiled]),
                sum(ops for _, _, ops, _ in compiled),
                sum(mems for _, _, _, mems in compiled),
            )
        # Fuse runs of statically costed statements into one charge each.
        # A run ends at a statement that may return: whatever follows it
        # must not be charged before it runs.
        steps = []
        group = []
        gops = gmems = 0
        for stmt, fn, ops, mems in compiled:
            if ops is None:
                steps.append(_charge_then(_seq(group), gops, gmems))
                group, gops, gmems = [], 0, 0
                steps.append(fn)
                continue
            group.append(fn)
            gops += ops
            gmems += mems
            if _returns(stmt):
                steps.append(_charge_then(_seq(group), gops, gmems))
                group, gops, gmems = [], 0, 0
        steps.append(_charge_then(_seq(group), gops, gmems))
        return _seq(steps), None, None

    def branch(self, stmts, defined, arrays):
        """Compile a branch body from the given definite-assignment sets;
        returns the compiled body and the sets after it."""
        self.defined, self.defined_arrays = set(defined), set(arrays)
        compiled = self.body(stmts)
        return compiled, self.defined, self.defined_arrays

    def stmt(self, stmt):
        method = _STMTS.get(type(stmt))
        if method is not None:
            return method(self, stmt)

        def bad(st, fr):
            raise NodeRuntimeError(f"unknown statement {stmt!r}", st.rank)
        return bad, None, None

    def s_assign(self, stmt):
        value = self.expr(stmt.value)
        target = stmt.target
        if isinstance(target, ir.VarLV):
            slot = self.scalar_slots[target.name]
            self.defined.add(target.name)
            vf = value.fn  # self-charging when the cost is dynamic

            def assign(st, fr):
                fr[slot] = vf(st, fr)
            return assign, value.ops, value.mems
        if not isinstance(target, (ir.IsLV, ir.BufLV)):
            store = self.store(target)
            vf = _charged(value)

            def assign_bad(st, fr):
                store(st, fr, vf(st, fr))
            return assign_bad, None, None
        # An element store: the value only matters for its cost and errors.
        name = target.array if isinstance(target, ir.IsLV) else target.buf
        efn, eops, emems = self.element(name, target.indices)
        if value.ops is None or eops is None:
            run = _seq([_charged(value), _self_charging((efn, eops, emems))])
            return run, None, None
        return (
            _seq([_noop if value.pure else value.fn, efn]),
            value.ops + eops,
            value.mems + emems,
        )

    def s_alloc(self, stmt):
        dims = [self.expr(d) for d in stmt.shape]
        fns, ops, mems = _effects(dims)
        slot = self.array_slots[stmt.name]
        self.defined_arrays.add(stmt.name)

        def alloc(st, fr):
            for f in fns:
                f(st, fr)
            fr[slot] = ARRAY
        if all(d.ops is not None for d in dims):
            return alloc, ops, mems
        return _charge_then(alloc, ops, mems), None, None

    def s_for(self, stmt):
        bounds = [self.expr(x) for x in (stmt.lo, stmt.hi, stmt.step)]
        slot = self.scalar_slots[stmt.var]
        outer = (set(self.defined), set(self.defined_arrays))
        self.defined.add(stmt.var)
        bfn, bops, bmems = self.body(stmt.body)
        self.defined, self.defined_arrays = outer
        uniform = self.analysis.uniform(stmt)
        forget = tuple(
            self.scalar_slots[name] for name in self.analysis.assigned(stmt)
        ) if uniform else ()
        returns = any(_returns(s) for s in stmt.body)
        if all(b.ops is not None for b in bounds):
            pre_ops = sum(b.ops for b in bounds)
            pre_mems = sum(b.mems for b in bounds)
            lof, hif, stepf = (b.fn for b in bounds)
        else:
            pre_ops = pre_mems = 0
            lof, hif, stepf = (_charged(b) for b in bounds)
        static = bops is not None and not returns
        per_ops = 1 + bops if static else None
        bcharged = _self_charging((bfn, bops, bmems))

        def loop(st, fr):
            st.ops += pre_ops
            st.mems += pre_mems
            lo = lof(st, fr)
            hi = hif(st, fr)
            step = stepf(st, fr)
            if lo is UNKNOWN or hi is UNKNOWN or step is UNKNOWN:
                raise ModelError("loop bound depends on array data")
            if step <= 0:
                raise NodeRuntimeError(f"non-positive loop step {step}",
                                       st.rank)
            if hi < lo:
                return
            trips = (hi - lo) // step + 1
            if trips > 1 and uniform:
                # Closed form: the body is comm-free and its cost provably
                # invariant across iterations, so one sampled iteration
                # prices all of them — exactly, on integer counts.
                if static:
                    st.ops += trips * per_ops
                    st.mems += trips * bmems
                    fr[slot] = lo
                    bfn(st, fr)
                else:
                    ops0 = st.ops
                    mems0 = st.mems
                    st.ops += 1
                    fr[slot] = lo
                    bcharged(st, fr)
                    st.ops = ops0 + (st.ops - ops0) * trips
                    st.mems = mems0 + (st.mems - mems0) * trips
                # Body-assigned scalars are iteration-dependent: forget
                # them so a stale first-iteration value never steers
                # later control. The loop variable's final value is known.
                for i in forget:
                    fr[i] = UNKNOWN
                fr[slot] = lo + (trips - 1) * step
            elif static:
                st.ops += trips * per_ops
                st.mems += trips * bmems
                if bfn is _noop:
                    fr[slot] = lo + (trips - 1) * step
                else:
                    for v in range(lo, hi + 1, step):
                        fr[slot] = v
                        bfn(st, fr)
            else:
                for v in range(lo, hi + 1, step):
                    st.ops += 1  # increment + bound test
                    fr[slot] = v
                    bcharged(st, fr)
        return loop, None, None

    def s_if(self, stmt):
        cond = self.expr(stmt.cond)
        before = (self.defined, self.defined_arrays)
        then, then_vars, then_arrays = self.branch(stmt.then_body, *before)
        other, else_vars, else_arrays = self.branch(stmt.else_body, *before)
        if cond.const is not _NOTCONST and cond.const is not UNKNOWN:
            # Folded guard: the branch is known, its test still charged.
            if cond.const:
                chosen, self.defined, self.defined_arrays = \
                    then, then_vars, then_arrays
            else:
                chosen, self.defined, self.defined_arrays = \
                    other, else_vars, else_arrays
            fn, ops, mems = chosen
            if ops is not None:
                return fn, cond.ops + ops, cond.mems + mems
            return _charge_then(fn, cond.ops, cond.mems), None, None
        self.defined = then_vars & else_vars
        self.defined_arrays = then_arrays & else_arrays
        cf = _charged(cond)
        tf = _self_charging(then)
        ef = _self_charging(other)

        def branch(st, fr):
            if cf(st, fr):  # bool(UNKNOWN) raises ModelError
                tf(st, fr)
            else:
                ef(st, fr)
        return branch, None, None

    def s_send(self, stmt):
        dst = self.expr(stmt.dst)
        fns, ops, mems = _effects([self.expr(v) for v in stmt.values])
        dstf = dst.fn
        if dst.ops is not None:
            ops += dst.ops
            mems += dst.mems
        send = self.sender(stmt.channel)
        plen = len(stmt.values)

        def run(st, fr):
            st.ops += ops
            st.mems += mems
            for f in fns:
                f(st, fr)
            send(st, dstf(st, fr), plen)
        return run, None, None

    def s_recv(self, stmt):
        srcf = _charged(self.expr(stmt.src))
        stores = tuple(self.store(t) for t in stmt.targets)
        self.defined.update(
            t.name for t in stmt.targets if isinstance(t, ir.VarLV)
        )
        recv = self.receiver(stmt.channel)

        def run(st, fr):
            recv(st, srcf(st, fr))
            for store in stores:
                store(st, fr, UNKNOWN)
        return run, None, None

    def s_sendvec(self, stmt):
        lookup = self.array(stmt.buf) or _noop
        lof, hif, dstf = (
            _charged(self.expr(x)) for x in (stmt.lo, stmt.hi, stmt.dst)
        )
        send = self.sender(stmt.channel)

        def run(st, fr):
            lookup(st, fr)
            lo = lof(st, fr)
            hi = hif(st, fr)
            dst = dstf(st, fr)
            plen = _span(lo, hi)
            st.mems += plen
            send(st, dst, plen)
        return run, None, None

    def s_recvvec(self, stmt):
        srcf = _charged(self.expr(stmt.src))
        lookup = self.array(stmt.buf) or _noop
        lof = _charged(self.expr(stmt.lo))
        hif = _charged(self.expr(stmt.hi))
        recv = self.receiver(stmt.channel)

        def run(st, fr):
            src = srcf(st, fr)
            lookup(st, fr)
            lo = lof(st, fr)
            hi = hif(st, fr)
            recv(st, src)
            st.mems += _span(lo, hi)
        return run, None, None

    def s_coerce(self, stmt):
        owner = self.expr(stmt.owner)
        dest = self.expr(stmt.dest)
        value = self.expr(stmt.value)
        if owner.ops is not None and dest.ops is not None:
            pre_ops = owner.ops + dest.ops
            pre_mems = owner.mems + dest.mems
            ownerf, destf = owner.fn, dest.fn
        else:
            pre_ops = pre_mems = 0
            ownerf, destf = _charged(owner), _charged(dest)
        pre_ops += 2  # the two membership tests every processor makes
        valuef = _charged(value)
        if value.pure:  # the owner's evaluation before sending is a charge
            vops, vmems = value.ops, value.mems

            def evaluate(st, fr):
                st.ops += vops
                st.mems += vmems
        else:
            evaluate = valuef
        store = self.store(stmt.target)
        send = self.sender(stmt.channel)
        recv = self.receiver(stmt.channel)

        def run(st, fr):
            st.ops += pre_ops
            st.mems += pre_mems
            o = ownerf(st, fr)
            d = destf(st, fr)
            if o is UNKNOWN or d is UNKNOWN:
                raise ModelError("coerce partner depends on array data")
            rank = st.rank
            if o == d:
                if rank == d:
                    store(st, fr, valuef(st, fr))
            elif rank == o:
                evaluate(st, fr)
                send(st, d, 1)
            elif rank == d:
                recv(st, o)
                store(st, fr, UNKNOWN)
        return run, None, None

    def s_broadcast(self, stmt):
        ownerf = _charged(self.expr(stmt.owner))
        valuef = _charged(self.expr(stmt.value))
        store = self.store(stmt.target)
        if isinstance(stmt.target, ir.VarLV):
            self.defined.add(stmt.target.name)
        recv = self.receiver(stmt.channel)
        channel = stmt.channel
        nprocs = self.nprocs

        def run(st, fr):
            o = ownerf(st, fr)
            st.ops += 1
            if o is UNKNOWN:
                raise ModelError("broadcast owner depends on array data")
            rank = st.rank
            if rank == o:
                store(st, fr, valuef(st, fr))
                _flush(st)
                st.events.extend(
                    ("s", q, channel, 1) for q in range(nprocs) if q != rank
                )
            else:
                recv(st, o)
                store(st, fr, UNKNOWN)
        return run, None, None

    def s_callproc(self, stmt):
        argfns = tuple(
            self.array_value(a) if isinstance(a, str)
            else _charged(self.expr(a))
            for a in stmt.args
        )
        procs = self.procs
        name = stmt.proc
        if stmt.array_result is not None:
            slot = self.array_slots[stmt.array_result]
            self.defined_arrays.add(stmt.array_result)

            def bind(st, fr):
                fr[slot] = ARRAY
        elif stmt.result is not None:
            store = self.store(stmt.result)
            if isinstance(stmt.result, ir.VarLV):
                self.defined.add(stmt.result.name)

            def bind(st, fr):
                store(st, fr, UNKNOWN)
        else:
            bind = _noop

        def run(st, fr):
            args = [f(st, fr) for f in argfns]
            proc = procs.get(name)
            if proc is None:
                raise NodeRuntimeError(
                    f"unknown node procedure {name!r}", st.rank
                )
            proc(st, args)
            bind(st, fr)
        return run, None, None

    def s_return(self, stmt):
        if stmt.value is None or isinstance(stmt.value, str):
            def ret(st, fr):
                raise WalkReturn()
            return ret, 0, 0
        value = self.expr(stmt.value)
        vf = _noop if value.pure else value.fn

        def ret_value(st, fr):
            vf(st, fr)
            raise WalkReturn()
        return ret_value, value.ops, value.mems

    def s_comment(self, stmt):
        return _noop, 0, 0

    def s_alias(self, stmt):
        slot = self.array_slots[stmt.name]
        self.defined_arrays.add(stmt.name)

        def alias(st, fr):
            fr[slot] = ARRAY
        return alias, 0, 0

    def s_inspector(self, stmt):
        # Inspector/executor nodes: their communication schedule is
        # decided by index-array contents the walk cannot see.
        def inspector(st, fr):
            raise ModelError(_INDIRECT)
        return inspector, None, None

    # -- communication -----------------------------------------------------
    def sender(self, channel):
        nprocs = self.nprocs

        def send(st, dst, plen):
            if dst is UNKNOWN:
                raise ModelError("send destination depends on array data")
            if not 0 <= dst < nprocs:
                raise NodeRuntimeError(
                    f"send to invalid processor {dst}", st.rank
                )
            if dst == st.rank:
                raise NodeRuntimeError(
                    f"self-send on channel {channel!r}", st.rank
                )
            _flush(st)
            st.events.append(("s", dst, channel, plen))
        return send

    def receiver(self, channel):
        nprocs = self.nprocs

        def recv(st, src):
            if src is UNKNOWN:
                raise ModelError("receive source depends on array data")
            if not 0 <= src < nprocs:
                raise NodeRuntimeError(
                    f"recv from invalid processor {src}", st.rank
                )
            if src == st.rank:
                raise NodeRuntimeError(
                    f"self-receive on channel {channel!r}", st.rank
                )
            _flush(st)
            st.events.append(("r", src, channel))
        return recv


_STMTS = {
    ir.NAssign: _ProcCompiler.s_assign,
    ir.NAllocIs: _ProcCompiler.s_alloc,
    ir.NAllocBuf: _ProcCompiler.s_alloc,
    ir.NFor: _ProcCompiler.s_for,
    ir.NIf: _ProcCompiler.s_if,
    ir.NSend: _ProcCompiler.s_send,
    ir.NRecv: _ProcCompiler.s_recv,
    ir.NSendVec: _ProcCompiler.s_sendvec,
    ir.NRecvVec: _ProcCompiler.s_recvvec,
    ir.NCoerce: _ProcCompiler.s_coerce,
    ir.NBroadcast: _ProcCompiler.s_broadcast,
    ir.NCallProc: _ProcCompiler.s_callproc,
    ir.NReturn: _ProcCompiler.s_return,
    ir.NComment: _ProcCompiler.s_comment,
    ir.NArrayAlias: _ProcCompiler.s_alias,
    ir.NExchange: _ProcCompiler.s_inspector,
    ir.NResolve: _ProcCompiler.s_inspector,
    ir.NAccum: _ProcCompiler.s_inspector,
    ir.NScatterFlush: _ProcCompiler.s_inspector,
    ir.NAccumLocal: _ProcCompiler.s_inspector,
}


def _compile_proc(walk: "CompiledWalk", proc: ir.NodeProc):
    pc = _ProcCompiler(walk, proc)
    body = _self_charging(pc.body(list(proc.body)))
    nslots = pc.nslots
    nparams = len(proc.params)
    name = proc.name
    pslots = tuple(
        pc.array_slots[p] if p in proc.array_params else pc.scalar_slots[p]
        for p in proc.params
    )

    def call(st, args):
        if len(args) != nparams:
            raise NodeRuntimeError(
                f"{name} expects {nparams} arguments, got {len(args)}",
                st.rank,
            )
        st.depth += 1
        if st.depth > _MAX_CALL_DEPTH:
            raise NodeRuntimeError(f"call depth exceeded in {name}", st.rank)
        fr = [_UNSET] * nslots
        for i, arg in zip(pslots, args):
            fr[i] = arg
        try:
            body(st, fr)
        except WalkReturn:
            pass
        finally:
            st.depth -= 1
    return call


class CompiledWalk:
    """A program compiled once for every rank of one ring.

    ``globals_`` (params and run-time knobs such as ``blksize``) and the
    ring size are folded in at compile time; the rank is not, so one
    compilation serves all ranks. Each compilation counts once in the
    ``walk.compile`` perf counter."""

    def __init__(
        self,
        program: ir.NodeProgram,
        nprocs: int,
        globals_: dict[str, object],
        analysis: LoopAnalysis,
    ):
        perf.incr("walk.compile")
        self.nprocs = nprocs
        self.globals = dict(globals_)
        self.analysis = analysis
        self.procs: dict[str, object] = {}
        for name, proc in program.procs.items():
            self.procs[name] = _compile_proc(self, proc)
        self.entry = program.entry_proc().name

    def run(self, rank: int, args: list[object], op_us: float,
            mem_us: float) -> list[tuple]:
        """One rank's events: ``("c", cost)``, ``("s", dst, channel,
        plen)`` and ``("r", src, channel)``."""
        st = _WalkState(rank, op_us, mem_us)
        self.procs[self.entry](st, list(args))
        _flush(st)
        return st.events
