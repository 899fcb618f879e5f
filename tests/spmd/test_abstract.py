"""The compiled abstract walk against the tree walker, program by program.

:class:`~repro.spmd.abstract.CompiledWalk` must record, for every rank,
exactly the events the tree-walking :class:`~repro.spmd.abstract.
AbstractWalk` records under the same closed-form loop rule — costs,
partners, channels and payload lengths — and must fail with the same
error type and message wherever the tree walker fails: ``ModelError``
(abstain) for data-dependent control, ``NodeRuntimeError`` for broken
programs. The hand-built programs below exercise the compiler's
shortcuts (folding, skipped pure evaluations, definite assignment,
statement fusion around returns, closed-form loops) at their edges.
"""

import pytest

from repro.errors import ReproError
from repro.machine import MachineParams
from repro.spmd import ir
from repro.spmd.abstract import (
    ARRAY,
    UNKNOWN,
    AbstractWalk,
    CompiledWalk,
    LoopAnalysis,
)
from repro.spmd.ir import (
    BufLV,
    IsLV,
    NAccum,
    NAllocBuf,
    NAllocIs,
    NAssign,
    NBin,
    NBroadcast,
    NBufRead,
    NCall,
    NCallProc,
    NCoerce,
    NConst,
    NFor,
    NIf,
    NIndirect,
    NIsRead,
    NMyNode,
    NNProcs,
    NodeProc,
    NodeProgram,
    NRecv,
    NRecvVec,
    NReturn,
    NSend,
    NSendVec,
    NUn,
    NVar,
    VarLV,
)

# Charges that are not binary fractions, so any deviation from flushing
# integer counts with ``ops * op_us + mems * mem_us`` would show.
MACHINE = MachineParams(op_us=0.1, mem_us=0.3)


def c(value):
    return NConst(value)


def v(name):
    return NVar(name)


def b(op, left, right):
    return NBin(op, left, right)


ME = NMyNode()
S = NNProcs()
RIGHT = b("mod", b("+", ME, c(1)), S)
LEFT = b("mod", b("+", ME, b("-", S, c(1))), S)


class ClosedFormWalk(AbstractWalk):
    """The tree walker plus the cost model's closed-form loop rule."""

    def exec_for(self, stmt, frame):
        bounds = self.loop_bounds(stmt, frame)
        if bounds is None:
            return
        lo, hi, step = bounds
        trips = (hi - lo) // step + 1
        if trips > 1 and self.analysis.uniform(stmt):
            ops0, mems0 = self.pending_ops, self.pending_mems
            self.charge_op()
            frame.scalars[stmt.var] = lo
            self.exec_body(stmt.body, frame)
            self.pending_ops = ops0 + (self.pending_ops - ops0) * trips
            self.pending_mems = mems0 + (self.pending_mems - mems0) * trips
            for name in self.analysis.assigned(stmt):
                frame.scalars[name] = UNKNOWN
            frame.scalars[stmt.var] = lo + (trips - 1) * step
            return
        self.iterate(stmt, frame, lo, hi, step)


def program(body, params=(), array_params=(), extra_procs=()):
    """A ``main`` entry taking ``params`` then ``array_params``."""
    procs = {"main": NodeProc("main", (*params, *array_params),
                              frozenset(array_params), body)}
    for proc in extra_procs:
        procs[proc.name] = proc
    return NodeProgram(name="t", procs=procs, entry="main")


def tree_outcome(prog, nprocs, globals_, args):
    analysis = LoopAnalysis(prog)
    out = []
    for rank in range(nprocs):
        walker = ClosedFormWalk(prog, rank, nprocs, globals_, analysis)
        try:
            events = walker.run(list(args))
        except ReproError as err:
            out.append((type(err).__name__, str(err)))
            continue
        priced = []
        for ev in events:
            if ev[0] == "c":
                cost = ev[1] * MACHINE.op_us + ev[2] * MACHINE.mem_us
                if cost > 0.0:
                    priced.append(("c", cost))
            else:
                priced.append(ev)
        out.append(priced)
    return out


def compiled_outcome(prog, nprocs, globals_, args):
    walk = CompiledWalk(prog, nprocs, globals_, LoopAnalysis(prog))
    out = []
    for rank in range(nprocs):
        try:
            out.append(walk.run(rank, list(args), MACHINE.op_us,
                                MACHINE.mem_us))
        except ReproError as err:
            out.append((type(err).__name__, str(err)))
    return out


def agree(prog, nprocs=3, globals_=None, args=()):
    globals_ = {"N": 6} if globals_ is None else globals_
    expected = tree_outcome(prog, nprocs, globals_, args)
    assert compiled_outcome(prog, nprocs, globals_, args) == expected
    return expected


def ring_exchange(value):
    return [
        NSend(RIGHT, "x", (value,)),
        NRecv(LEFT, "x", (VarLV("got"),)),
    ]


def test_uniform_loop_is_closed_form_and_forgets_its_scalars():
    outcome = agree(program(
        [
            NAllocIs("A", (v("N"),)),
            NFor("i", c(1), v("N"), c(1), (
                NAssign(VarLV("t"), b("*", v("i"), c(2))),
                NAssign(IsLV("A", (v("i"),)),
                        b("+", NIsRead("B", (v("i"),)), v("t"))),
            )),
            NAssign(VarLV("x"), b("+", v("t"), c(1))),
            *ring_exchange(v("x")),
        ],
        array_params=("B",),
    ), args=[ARRAY])
    assert all(isinstance(events, list) and events for events in outcome)


def test_forgotten_scalar_steering_a_branch_abstains():
    outcome = agree(program([
        NFor("i", c(1), v("N"), c(1), (NAssign(VarLV("t"), v("i")),)),
        NIf(b(">", v("t"), c(3)), ring_exchange(c(1))),
    ]))
    assert outcome[0][0] == "ModelError"


def test_iterated_loop_keeps_its_final_values():
    agree(program([
        NAllocBuf("A", (v("N"),)),
        NFor("i", c(1), v("N"), c(1), (
            NAssign(VarLV("t"), v("i")),
            NIf(b("==", b("mod", v("t"), c(2)), c(0)),
                (NAssign(BufLV("A", (v("i"),)), c(1)),)),
        )),
        NIf(b(">", v("t"), c(3)), ring_exchange(v("t"))),
    ]))


def test_rank_dependent_nests_with_communication():
    agree(program(
        [
            NAllocIs("A", (v("N"), v("N"))),
            NFor("j", b("+", ME, c(1)), v("N"), S, (
                NFor("i", c(1), v("j"), c(1), (
                    NAssign(IsLV("A", (v("i"), v("j"))),
                            NIsRead("B", (v("i"), v("j")))),
                )),
                NIf(b("<", v("j"), v("N")), (
                    NSend(RIGHT, "row", (NIsRead("A", (c(1), v("j"))),)),
                    NRecv(LEFT, "row", (IsLV("A", (c(2), v("j"))),)),
                )),
            )),
        ],
        array_params=("B",),
    ), nprocs=4, args=[ARRAY])


def test_uniform_outer_loop_over_an_inner_loop():
    agree(program([
        NAllocBuf("A", (v("N"),)),
        NFor("i", c(1), c(4), c(1), (
            NFor("j", c(1), v("N"), c(1), (
                NAssign(BufLV("A", (v("j"),)), b("+", v("i"), v("j"))),
            )),
            NAssign(VarLV("t"), NBufRead("A", (c(1),))),
        )),
        *ring_exchange(c(0)),
    ]))


def test_return_from_a_loop_in_a_callee():
    find = NodeProc("find", ("k",), frozenset(), (
        NFor("i", c(1), c(10), c(1), (
            NAssign(VarLV("t"), b("*", v("i"), v("i"))),
            NIf(b("==", v("i"), v("k")), (NReturn(v("t")),)),
            NAssign(VarLV("u"), b("+", v("t"), c(1))),
        )),
        NAssign(VarLV("never"), c(0)),
    ))
    agree(program(
        [
            NCallProc("find", (c(3),), VarLV("r")),
            NAssign(VarLV("x"), b("+", v("r"), c(1))),
            NCallProc("find", (b("+", ME, c(1)),)),
            *ring_exchange(v("x")),
        ],
        extra_procs=(find,),
    ))


def test_nothing_after_a_return_is_charged():
    early = NodeProc("early", (), frozenset(), (
        NAssign(VarLV("x"), b("+", v("N"), c(1))),
        NIf(b("==", v("N"), c(6)), (NReturn(),)),  # folded guard
        NAssign(VarLV("y"), b("*", v("x"), b("*", v("x"), v("x")))),
    ))
    plain = NodeProc("plain", (), frozenset(), (
        NAssign(VarLV("a"), b("+", c(1), v("N"))),
        NReturn(),
        NAssign(VarLV("z"), b("+", c(2), v("N"))),
    ))
    agree(program(
        [
            NCallProc("early", ()),
            *ring_exchange(c(1)),
            NCallProc("plain", ()),
            *ring_exchange(c(2)),
        ],
        extra_procs=(early, plain),
    ))


def test_name_errors():
    unbound = agree(program([
        NAssign(VarLV("x"), b("+", v("y"), c(1))),
        NAssign(VarLV("y"), c(2)),
    ]))
    assert unbound[0] == ("NodeRuntimeError",
                          "[proc 0] unbound variable 'y'")
    # A local not yet assigned falls back to the global of that name.
    agree(program([
        NAssign(VarLV("x"), b("+", v("N"), c(1))),
        NAssign(VarLV("N"), c(5)),
        *ring_exchange(b("+", v("N"), v("x"))),
    ]))
    missing = agree(program([
        NAssign(IsLV("A", (c(1),)), c(2)),
        NAllocIs("A", (c(3),)),
    ]))
    assert missing[1][0] == "NodeRuntimeError"
    agree(program([NAssign(VarLV("x"), v("nowhere"))]))
    one_branch = agree(program([
        NIf(b("==", ME, c(0)), (NAssign(VarLV("y"), c(1)),)),
        NAssign(VarLV("x"), b("+", v("y"), c(1))),
    ]))
    assert one_branch[1][0] == "NodeRuntimeError"

    agree(program([NSend(RIGHT, "x", (NIsRead("nowhere", (c(1),)),))]))


def test_data_dependent_control_abstains():
    outcome = agree(program(
        [NIf(b(">", NIsRead("B", (c(1),)), c(0)), ring_exchange(c(1)))],
        array_params=("B",),
    ), args=[ARRAY])
    assert {o[0] for o in outcome} == {"ModelError"}
    agree(program(
        [NRecv(NIsRead("B", (c(1),)), "x", (VarLV("y"),))],
        array_params=("B",),
    ), args=[ARRAY])
    agree(program(
        [NFor("i", c(1), NIsRead("B", (c(1),)), c(1), ())],
        array_params=("B",),
    ), args=[ARRAY])


def test_invalid_partners():
    assert agree(program([NSend(b("+", ME, S), "x", (c(1),))]))[0][0] \
        == "NodeRuntimeError"
    agree(program([NSend(ME, "x", (c(1),))]))
    agree(program([NRecv(ME, "x", (VarLV("y"),))]))
    agree(program([NRecv(b("-", ME, c(1)), "x", (VarLV("y"),))]))


def test_division():
    zero = agree(program([
        NAssign(VarLV("x"), b("div", c(5), b("-", ME, ME))),
    ]))
    assert zero[0] == ("NodeRuntimeError", "[proc 0] division by zero")
    agree(program([NAssign(VarLV("x"), b("mod", c(5), c(0)))]))
    # An UNKNOWN operand wins before the divisor is ever checked.
    agree(program(
        [
            NAssign(VarLV("x"), b("div", NIsRead("B", (c(1),)), c(0))),
            NAssign(VarLV("y"), b("mod", b("+", v("x"), c(1)), b("-", ME, ME))),
            NAssign(VarLV("z"), b("div", b("*", ME, c(7)), c(2))),
            *ring_exchange(v("z")),
        ],
        array_params=("B",),
    ), args=[ARRAY])


def test_short_circuits_and_builtins():
    data = NIsRead("B", (c(1),))
    agree(program(
        [
            NIf(b("and", b("==", ME, c(0)), b(">", data, c(0))),
                ring_exchange(c(1))),
        ],
        array_params=("B",),
    ), args=[ARRAY])
    agree(program(
        [
            NIf(b("or", b(">=", ME, c(0)), data), ring_exchange(c(1))),
            NIf(b("and", b("==", c(1), c(1)), b("==", ME, c(1))),
                ring_exchange(c(2))),
            NIf(b("or", b("==", c(1), c(1)), data), ring_exchange(c(3))),
            NAssign(VarLV("m"), NCall("max", (ME, c(1)))),
            NAssign(VarLV("n"), NCall("min", (data, c(1)))),
            NAssign(VarLV("q"), NUn("-", NCall("abs", (b("-", ME, c(9)),)))),
            NIf(NUn("not", b("==", v("m"), c(1))), ring_exchange(v("q"))),
        ],
        array_params=("B",),
    ), args=[ARRAY])
    agree(program([NAssign(VarLV("x"), NCall("bogus", (ME,)))]))
    agree(program([NIf(b("and", c(UNKNOWN), c(True)), ())]))


def test_broadcast_and_coerce():
    outcome = agree(program(
        [
            NBroadcast(VarLV("x"), NIsRead("B", (c(1),)), c(0), "bc"),
            NCoerce(VarLV("y"), NIsRead("B", (c(2),)), c(1), c(2), "co"),
            NCoerce(VarLV("z"), b("+", ME, c(4)), c(1), c(1), "same"),
            NCoerce(VarLV("w"), c(3), b("mod", ME, c(2)), c(0), "var"),
            NIf(b("==", ME, c(1)), ring_exchange(v("z"))),
        ],
        array_params=("B",),
    ), nprocs=4, args=[ARRAY])
    assert all(isinstance(events, list) for events in outcome)
    # Only the destination stores a coerced value.
    agree(program([
        NCoerce(VarLV("z"), c(4), c(1), c(1), "same"),
        NIf(b("==", v("z"), c(4)), ring_exchange(c(1))),
    ]))
    agree(program(
        [NCoerce(VarLV("y"), c(1), NIsRead("B", (c(2),)), c(0), "co")],
        array_params=("B",),
    ), args=[ARRAY])


def test_vector_messages():
    agree(program([
        NAllocBuf("buf", (v("N"),)),
        NSendVec(RIGHT, "v", "buf", b("+", ME, c(1)), v("N")),
        NRecvVec(LEFT, "v", "buf", c(1), b("-", c(4), ME)),
        NSendVec(RIGHT, "empty", "buf", c(5), c(2)),
    ]))
    agree(program([NSendVec(RIGHT, "v", "nobuf", c(1), c(2))]))
    agree(program(
        [
            NAllocBuf("buf", (v("N"),)),
            NRecvVec(LEFT, "v", "buf", c(1), NIsRead("B", (c(1),))),
        ],
        array_params=("B",),
    ), args=[ARRAY])


def test_indirect_access_abstains():
    assert agree(program([
        NAssign(VarLV("x"), NIndirect("s", "A", c(1))),
    ]))[0][0] == "ModelError"
    agree(program([NAccum("s", "A", c(1), c(2))]))


def test_structural_errors():
    agree(program([NFor("i", c(1), c(3), c(0), ())]))
    agree(program([NFor("i", c(3), c(1), c(1), (NSend(ME, "x", ()),))]))
    rec = NodeProc("rec", (), frozenset(), (NCallProc("rec", ()),))
    agree(program([NCallProc("rec", ())], extra_procs=(rec,)))
    agree(program([NCallProc("rec", (c(1),))], extra_procs=(rec,)))
    agree(program([NCallProc("absent", ())]))


def test_arrays_pass_by_reference_and_alias():
    fill = NodeProc("fill", ("A", "n"), frozenset({"A"}), (
        NFor("i", c(1), v("n"), c(1), (
            NAssign(IsLV("A", (v("i"),)), v("i")),
        )),
        NReturn("A"),
    ))
    agree(program(
        [
            NAllocIs("A", (v("N"),)),
            NCallProc("fill", ("A", v("N")), array_result="R"),
            NSend(RIGHT, "r", (NIsRead("R", (c(1),)),)),
            ir.NArrayAlias("Q", "R"),
            NRecv(LEFT, "r", (IsLV("Q", (c(2),)),)),
        ],
        extra_procs=(fill,),
    ))


@pytest.mark.parametrize("k", [UNKNOWN, 3])
def test_entry_scalars(k):
    agree(program(
        [NIf(b(">", v("k"), c(2)), ring_exchange(v("k")))],
        params=("k",),
    ), args=[k])
