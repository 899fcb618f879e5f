"""The verifier's per-rank abstract walk.

:class:`VerifyWalk` specializes the abstract tree walker
(:class:`repro.spmd.abstract.AbstractWalk`) for static checking:

* cost accounting is disabled — the event list holds communication
  events only, each paired 1:1 with an *origin*: the stack of enclosing
  ``proc``/``for``/``if`` labels, so balance and deadlock findings can
  say which loop or guard produced an event;
* invalid communication partners (self-sends, ranks outside the ring)
  become guard-coverage findings instead of aborting the walk — the
  offending event is skipped and analysis continues;
* locally allocated I-structures get a :class:`~repro.analysis.
  footprint.Tracker` recording every write and read as an exact index
  set;
* loops are *summarized* whenever possible: the body runs once with the
  loop variable bound to an :class:`Affine` value, every array access
  whose indices stay affine in the loop variable is recorded as one
  block instead of ``trips`` points, and communication with
  rank-constant partners is buffered as a template that is replicated
  ``trips`` times at commit — exact, because any data flow that could
  change which events an iteration emits passes an :class:`Affine`
  through a boolean or non-affine position and raises
  :class:`NotAffine`, rolling the transaction back to concrete
  iteration. Summarization is a pure speedup, never a soundness trade.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.footprint import Prog, Tracker
from repro.errors import ModelError, NodeRuntimeError
from repro.spmd import ir
from repro.spmd.pretty import pretty_expr
from repro.spmd.abstract import ARRAY, UNKNOWN, AbstractWalk, WalkReturn

#: Entry array parameters are scattered from fully defined inputs, so
#: every local element is readable and none is writable again; they are
#: marked rather than tracked.
DEFINED = object()


class NotAffine(Exception):
    """A summarized body produced a value outside the affine domain."""


class Affine:
    """``base + k*delta`` for the ``k``-th iteration of one loop axis.

    Live instances always have ``trips > 1`` and ``delta != 0`` (the
    :func:`affine` factory collapses everything else to a plain int), so
    arithmetic can assume a genuine progression. Any operation that
    leaves the affine-in-one-axis domain — mixing axes, nonlinear terms,
    truth tests, comparisons — raises :class:`NotAffine`."""

    __slots__ = ("base", "delta", "axis", "trips")

    def __init__(self, base: int, delta: int, axis: int, trips: int):
        self.base = base
        self.delta = delta
        self.axis = axis
        self.trips = trips

    def __repr__(self) -> str:
        return f"Affine({self.base}+k*{self.delta}, axis={self.axis})"

    # -- additive ----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, int):
            return Affine(self.base + other, self.delta, self.axis,
                          self.trips)
        if isinstance(other, Affine):
            if other.axis != self.axis:
                raise NotAffine("mixed loop axes")
            return affine(self.base + other.base, self.delta + other.delta,
                          self.axis, self.trips)
        raise NotAffine("non-integer operand")

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return Affine(self.base - other, self.delta, self.axis,
                          self.trips)
        if isinstance(other, Affine):
            if other.axis != self.axis:
                raise NotAffine("mixed loop axes")
            return affine(self.base - other.base, self.delta - other.delta,
                          self.axis, self.trips)
        raise NotAffine("non-integer operand")

    def __rsub__(self, other):
        if isinstance(other, int):
            return Affine(other - self.base, -self.delta, self.axis,
                          self.trips)
        raise NotAffine("non-integer operand")

    def __neg__(self):
        return Affine(-self.base, -self.delta, self.axis, self.trips)

    # -- multiplicative ----------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, int):
            return affine(self.base * other, self.delta * other, self.axis,
                          self.trips)
        raise NotAffine("nonlinear product")

    __rmul__ = __mul__

    def __floordiv__(self, other):
        # (base + k*delta) // c == base//c + k*(delta//c) exactly when c
        # divides delta (k*delta is then a multiple of c).
        if isinstance(other, int) and other > 0 \
                and self.delta % other == 0:
            return affine(self.base // other, self.delta // other,
                          self.axis, self.trips)
        raise NotAffine("floor division off the affine lattice")

    def __mod__(self, other):
        if isinstance(other, int) and other > 0 \
                and self.delta % other == 0:
            return self.base % other
        raise NotAffine("modulo off the affine lattice")

    def __truediv__(self, other):
        raise NotAffine("true division")

    def __rfloordiv__(self, other):
        raise NotAffine("division by a loop-dependent value")

    __rtruediv__ = __rfloordiv__
    __rmod__ = __rfloordiv__

    # -- everything else leaves the domain --------------------------------
    def _escape(self, *_args):
        raise NotAffine("loop-dependent value in a non-affine position")

    __bool__ = _escape
    __eq__ = _escape
    __ne__ = _escape
    __lt__ = _escape
    __le__ = _escape
    __gt__ = _escape
    __ge__ = _escape
    __hash__ = None


def affine(base: int, delta: int, axis: int, trips: int):
    """Build an :class:`Affine`, collapsing degenerate cases to ints."""
    if trips <= 1 or delta == 0:
        return base
    return Affine(base, delta, axis, trips)


class VerifyWalk(AbstractWalk):
    """One rank's walk, recording comm origins and I-structure footprints."""

    def __init__(self, program, rank, nprocs, globals_, analysis):
        super().__init__(program, rank, nprocs, globals_, analysis)
        self.origins: list[tuple[str, ...]] = []  # 1:1 with self.events
        self.findings: list[Diagnostic] = []
        self.trackers: list[Tracker] = []
        self.path: list[str] = []
        self.completed = False
        self._cond_labels: dict[int, str] = {}
        self._next_axis = 0
        self._active_axes: list[tuple[int, int]] = []  # (axis, trips)
        self._txn: list[tuple] = []  # buffered records while summarizing
        self.summarized_loops = 0
        self.iterated_loops = 0
        # Loops that failed to summarize (usually: they communicate).
        # Retrying on every visit would double-execute their prefix each
        # outer iteration, so after a couple of failures we stop trying.
        self._no_summarize: dict[int, int] = {}

    # -- cost plumbing: verification has no clock --------------------------
    def charge_op(self, count: int = 1) -> None:
        pass

    def charge_mem(self, count: int = 1) -> None:
        pass

    def flush(self) -> None:
        pass

    # -- entry -------------------------------------------------------------
    def run(self, args) -> list[tuple]:
        events = super().run(args)
        self.completed = True
        return events

    def call(self, name, args) -> None:
        self.path.append(f"proc {name}")
        try:
            super().call(name, args)
        finally:
            self.path.pop()

    def finding(
        self, code: str, pass_name: str, message: str,
        severity: Severity = Severity.ERROR, **details,
    ) -> None:
        self.findings.append(Diagnostic(
            code=code, severity=severity, pass_name=pass_name,
            message=message, rank=self.rank, path=tuple(self.path),
            details=details,
        ))

    # -- communication events ----------------------------------------------
    def emit_send(self, dst, channel: str, plen: int) -> None:
        if dst is UNKNOWN:
            raise ModelError("send destination depends on array data")
        if isinstance(dst, Affine):
            raise NotAffine("communication inside a summarized loop")
        if dst == self.rank:
            self.finding(
                "GC002", "guard-coverage",
                f"self-send on channel {channel!r}: the owner guard admits "
                f"rank {self.rank} as its own partner",
                channel=channel, partner=dst,
            )
            return
        if not 0 <= dst < self.nprocs:
            self.finding(
                "GC001", "guard-coverage",
                f"send on channel {channel!r} to processor {dst}, outside "
                f"ring 0..{self.nprocs - 1}",
                channel=channel, partner=dst,
            )
            return
        if isinstance(plen, Affine):  # payload length may vary per
            plen = plen.base  # iteration; balance/deadlock ignore it
        self._emit(("s", dst, channel, plen))

    def emit_recv(self, src, channel: str) -> None:
        if src is UNKNOWN:
            raise ModelError("receive source depends on array data")
        if isinstance(src, Affine):
            raise NotAffine("communication inside a summarized loop")
        if src == self.rank:
            self.finding(
                "GC002", "guard-coverage",
                f"self-receive on channel {channel!r}: the owner guard "
                f"admits rank {self.rank} as its own partner",
                channel=channel, partner=src,
            )
            return
        if not 0 <= src < self.nprocs:
            self.finding(
                "GC001", "guard-coverage",
                f"recv on channel {channel!r} from processor {src}, outside "
                f"ring 0..{self.nprocs - 1}",
                channel=channel, partner=src,
            )
            return
        self._emit(("r", src, channel))

    def _emit(self, event: tuple) -> None:
        """Record one communication event.

        Inside a summarized loop the partner is necessarily
        rank-constant (an :class:`Affine` partner raised before we got
        here), so every iteration emits this exact event: buffer it in
        the transaction and let the commit replicate it ``trips``
        times."""
        if self._active_axes:
            self._txn.append(("ev", event, tuple(self.path)))
        else:
            self.events.append(event)
            self.origins.append(tuple(self.path))

    def exec_broadcast(self, stmt: ir.NBroadcast, frame) -> None:
        owner = self.eval(stmt.owner, frame)
        if owner is UNKNOWN:
            raise ModelError("broadcast owner depends on array data")
        if self.rank == owner:
            value = self.eval(stmt.value, frame)
            self.store(stmt.target, value, frame)
            for q in range(self.nprocs):
                if q != self.rank:
                    self._emit(("s", q, stmt.channel, 1))
        else:
            self.emit_recv(owner, stmt.channel)
            self.store(stmt.target, UNKNOWN, frame)

    # -- statements --------------------------------------------------------
    def exec_stmt(self, stmt: ir.NStmt, frame) -> None:
        if isinstance(stmt, ir.NIf):
            taken = stmt.then_body if self.eval(stmt.cond, frame) \
                else stmt.else_body
            self.path.append(self._cond_label(stmt))
            try:
                self.exec_body(taken, frame)
            finally:
                self.path.pop()
            return
        if isinstance(stmt, ir.NAllocIs):
            shape = [self.eval(dim, frame) for dim in stmt.shape]
            if not self._active_axes and all(
                isinstance(s, int) and s >= 0 for s in shape
            ):
                tracker = Tracker(stmt.name, shape, self.rank)
                self.trackers.append(tracker)
                frame.arrays[stmt.name] = tracker
            else:  # unanalyzable or per-iteration allocation
                frame.arrays[stmt.name] = ARRAY
            return
        super().exec_stmt(stmt, frame)

    def _cond_label(self, stmt: ir.NIf) -> str:
        label = self._cond_labels.get(id(stmt))
        if label is None:
            label = self._cond_labels[id(stmt)] = \
                f"if {pretty_expr(stmt.cond)}"
        return label

    def exec_for(self, stmt: ir.NFor, frame) -> None:
        lo = self.eval(stmt.lo, frame)
        hi = self.eval(stmt.hi, frame)
        step = self.eval(stmt.step, frame)
        if isinstance(lo, Affine) or isinstance(hi, Affine) \
                or isinstance(step, Affine):
            raise NotAffine("loop bounds vary with an outer summarized loop")
        if lo is UNKNOWN or hi is UNKNOWN or step is UNKNOWN:
            raise ModelError("loop bound depends on array data")
        if step <= 0:
            raise NodeRuntimeError(f"non-positive loop step {step}", self.rank)
        if hi < lo:
            return
        trips = (hi - lo) // step + 1
        slot = len(self.path)
        self.path.append("")
        try:
            if trips > 1 and self._no_summarize.get(id(stmt), 0) < 2:
                self.path[slot] = f"for {stmt.var}={lo}..{hi}"
                if self._try_summarize(stmt, frame, lo, step, trips):
                    self.summarized_loops += 1
                    return
                self._no_summarize[id(stmt)] = \
                    self._no_summarize.get(id(stmt), 0) + 1
            self.iterated_loops += 1
            for v in range(lo, hi + 1, step):
                self.path[slot] = f"for {stmt.var}={v}"
                frame.scalars[stmt.var] = v
                self.exec_body(stmt.body, frame)
        finally:
            self.path.pop()

    def _try_summarize(self, stmt, frame, lo, step, trips) -> bool:
        """Run the body once over an Affine loop variable. True on success;
        on failure the frame and footprint records are rolled back.

        A ``return`` from inside the body (``WalkReturn``) also rolls back:
        it would end the loop mid-iteration, which only the concrete
        walk can place correctly."""
        axis = self._next_axis
        self._next_axis += 1
        saved_scalars = dict(frame.scalars)
        mark = len(self._txn)
        self._active_axes.append((axis, trips))
        try:
            frame.scalars[stmt.var] = Affine(lo, step, axis, trips)
            self.exec_body(stmt.body, frame)
        except (NotAffine, WalkReturn):
            del self._txn[mark:]
            frame.scalars.clear()
            frame.scalars.update(saved_scalars)
            return False
        finally:
            self._active_axes.pop()
        # Every iteration of this loop emits the buffered event template
        # verbatim (rank-varying partners raised NotAffine above), so
        # the exact per-rank event sequence is the template repeated.
        segment = self._txn[mark:]
        template = [rec for rec in segment if rec[0] == "ev"]
        if template:
            footprints = [rec for rec in segment if rec[0] != "ev"]
            self._txn[mark:] = footprints + template * trips
        # Body-assigned scalars are iteration-dependent; like the cost
        # model, forget them so a stale Affine value never leaks out.
        for name in self.analysis.assigned(stmt):
            frame.scalars[name] = UNKNOWN
        frame.scalars[stmt.var] = lo + (trips - 1) * step
        if not self._active_axes:
            records, self._txn = self._txn, []
            for record in records:
                if record[0] == "ev":
                    self.events.append(record[1])
                    self.origins.append(record[2])
                else:
                    self._commit(*record)
        return True

    # -- I-structure footprints --------------------------------------------
    def store(self, target, value, frame) -> None:
        if isinstance(target, ir.VarLV):
            frame.scalars[target.name] = value
            return
        if isinstance(target, ir.IsLV):
            arr = self.array(target.array, frame)
            dims = [self.eval(index, frame) for index in target.indices]
            if isinstance(arr, Tracker):
                self._record("w", arr, dims)
            elif arr is DEFINED:
                # Writing a scattered entry array would re-define an
                # element; record against a virtual full footprint.
                self._record_defined_write(target.array, dims)
            return
        if isinstance(target, ir.BufLV):
            self.buffer(target.buf, frame)
            for index in target.indices:
                self.eval(index, frame)
            return
        raise NodeRuntimeError(f"unknown lvalue {target!r}", self.rank)

    def eval(self, e: ir.NExpr, frame):
        if isinstance(e, ir.NIsRead):
            arr = self.array(e.array, frame)
            dims = [self.eval(index, frame) for index in e.indices]
            if isinstance(arr, Tracker):
                self._record("r", arr, dims)
            return UNKNOWN
        return super().eval(e, frame)

    def _record_defined_write(self, name: str, dims) -> None:
        self.findings.append(Diagnostic(
            code="IS001", severity=Severity.ERROR,
            pass_name="single-assignment",
            message=f"write to entry array {name!r}: every element of a "
                    "scattered input is already defined",
            rank=self.rank, path=tuple(self.path),
            details={"array": name},
        ))

    def _record(self, kind: str, tracker: Tracker, dims) -> None:
        if tracker.inexact:
            return
        progs = []
        axes_seen = set()
        for value in dims:
            if isinstance(value, int):
                progs.append(Prog(value, 0, 1))
            elif isinstance(value, Affine):
                if value.axis in axes_seen:
                    raise NotAffine("loop axis used in two dimensions")
                axes_seen.add(value.axis)
                progs.append(Prog(value.base, value.delta, value.trips))
            else:  # UNKNOWN or non-integer: give up on this array
                tracker.inexact = True
                self.finding(
                    "IS004", "single-assignment",
                    f"array {tracker.name!r}: index not statically "
                    "analyzable; single-assignment tracking abandoned",
                    severity=Severity.WARNING, array=tracker.name,
                )
                return
        dims_t = tuple(progs)
        if kind == "w":
            # A write whose indices miss an active summarized axis is
            # repeated verbatim on every iteration of that loop: a
            # certain double write, reported without committing.
            for axis, trips in self._active_axes:
                if axis not in axes_seen and trips > 1:
                    self.finding(
                        "IS001", "single-assignment",
                        f"{tracker.name}[{', '.join(map(repr, dims_t))}] "
                        f"is written on every one of {trips} iterations "
                        "of the enclosing loop",
                        array=tracker.name,
                        element=tuple(p.base for p in dims_t),
                    )
                    return
            bad_dim = tracker.out_of_bounds(dims_t)
            if bad_dim is not None:
                self.finding(
                    "IS003", "single-assignment",
                    f"write {tracker.name}[{', '.join(map(repr, dims_t))}] "
                    f"escapes shape {tracker.shape} in dimension "
                    f"{bad_dim + 1}",
                    array=tracker.name, dimension=bad_dim + 1,
                )
                return
        origin = tuple(self.path)
        if self._active_axes:
            self._txn.append((kind, tracker, dims_t, origin))
        else:
            self._commit(kind, tracker, dims_t, origin)

    def _commit(self, kind, tracker, dims, origin) -> None:
        if tracker.inexact:
            return
        if kind == "r":
            tracker.record_read(dims, origin)
            return
        conflict = tracker.record_write(dims, origin)
        if conflict is not None:
            other_origin, witness = conflict
            self.findings.append(Diagnostic(
                code="IS001", severity=Severity.ERROR,
                pass_name="single-assignment",
                message=f"{tracker.name}[{', '.join(map(str, witness))}] "
                        "is written twice",
                rank=self.rank, path=origin,
                details={
                    "array": tracker.name, "element": witness,
                    "first_write": " > ".join(other_origin),
                    "second_write": " > ".join(origin),
                },
            ))
