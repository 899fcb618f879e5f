"""Differential tests: the compiled backend vs the reference interpreter.

The compiled backend (`repro.spmd.compile`) must be observationally
identical to the tree-walking interpreter — same simulated times, same
message statistics, same I-structure contents, same errors. These tests
pin that contract, including a property test over random problem sizes,
ring widths, and strategies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from repro.bench.harness import STRATEGY_ORDER, measure
from repro.errors import IStructureError
from repro.machine import MachineParams
from repro.runtime import IStructure, LocalArray
from repro.spmd import (
    NAssign,
    NBin,
    NConst,
    NIf,
    NMyNode,
    NodeProc,
    NodeProgram,
    NReturn,
    NVar,
    VarLV,
    compiled_node,
    run_spmd,
)
from repro.spmd.compile import _rd1, _rd2, _wr1, _wr2


def _tiny_program():
    """return (mynode() + 1) * 2 via a scalar temp."""
    body = [
        NAssign(VarLV("x"), NBin("+", NMyNode(), NConst(1))),
        NReturn(NBin("*", NVar("x"), NConst(2))),
    ]
    return NodeProgram(
        name="tiny",
        procs={"main": NodeProc("main", (), body=tuple(body))},
        entry="main",
    )


class TestReturnCharging:
    def test_nothing_after_a_rank_folded_return_is_charged(self):
        """``if (mynode() == 0) return;`` folds per rank; the statements
        after it must not be charged to the rank that returns."""
        body = (
            NIf(NBin("==", NMyNode(), NConst(0)), (NReturn(),)),
            NAssign(VarLV("y"), NBin("*", NConst(3), NVar("N"))),
            NAssign(VarLV("z"), NBin("+", NVar("y"), NConst(1))),
        )
        program = NodeProgram(
            name="early", procs={"main": NodeProc("main", (), body=body)},
            entry="main",
        )
        finish = {
            backend: run_spmd(
                program, 2, lambda rank: [], globals_={"N": 4},
                backend=backend,
            ).sim.finish_times_us
            for backend in ("interp", "compiled")
        }
        assert finish["compiled"] == finish["interp"]
        assert finish["interp"][0] < finish["interp"][1]


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_spmd(_tiny_program(), 2, lambda rank: [], backend="fast")

    def test_both_backends_accept_and_agree(self):
        program = _tiny_program()
        results = {
            backend: run_spmd(
                program, 3, lambda rank: [], backend=backend
            )
            for backend in ("interp", "compiled")
        }
        assert results["interp"].returned == results["compiled"].returned
        assert results["interp"].returned == [2, 4, 6]
        assert (
            results["interp"].makespan_us == results["compiled"].makespan_us
        )


class TestCompilationCache:
    def test_same_program_rank_reuses_compilation(self):
        program = _tiny_program()
        assert compiled_node(program, 0, 2) is compiled_node(program, 0, 2)

    def test_distinct_ranks_compile_separately(self):
        program = _tiny_program()
        assert compiled_node(program, 0, 2) is not compiled_node(
            program, 1, 2
        )

    def test_structurally_equal_programs_not_confused(self):
        # NodeProgram hashes by identity: two separately built programs
        # must each get their own compilation.
        assert compiled_node(_tiny_program(), 0, 2) is not compiled_node(
            _tiny_program(), 0, 2
        )


def _signature(point):
    return (point.time_us, point.messages, point.bytes)


class TestDifferentialOnStrategies:
    @pytest.mark.parametrize("strategy", STRATEGY_ORDER)
    def test_bitwise_identical_measurements(self, strategy):
        interp = measure(strategy, 12, 3, blksize=4, backend="interp")
        compiled = measure(strategy, 12, 3, blksize=4, backend="compiled")
        assert _signature(interp) == _signature(compiled)

    @pytest.mark.parametrize("strategy", STRATEGY_ORDER)
    def test_per_channel_stats_identical(self, strategy):
        from repro.bench.harness import _compiled as compile_strategy
        from repro.apps import gauss_seidel as gs
        from repro.core.runner import execute
        from repro.spmd.layout import make_full

        if strategy == "handwritten":
            pytest.skip("channel stats covered via measure() signature")
        compiled = compile_strategy(strategy, gs.SOURCE, 2)
        outcomes = {
            backend: execute(
                compiled,
                2,
                inputs={"Old": make_full((10, 10), 1, name="Old")},
                params={"N": 10},
                extra_globals={"blksize": 4},
                backend=backend,
            )
            for backend in ("interp", "compiled")
        }
        a, b = outcomes["interp"].sim.stats, outcomes["compiled"].sim.stats
        assert dict(a.per_channel) == dict(b.per_channel)
        assert dict(a.per_channel_bytes) == dict(b.per_channel_bytes)
        assert (
            outcomes["interp"].value.to_list()
            == outcomes["compiled"].value.to_list()
        )

    @pytest.mark.parametrize("strategy", ["runtime", "compile", "optI"])
    def test_structured_traces_bit_identical(self, strategy):
        """Fig-6 wavefront: both backends emit identical event streams.

        TraceEvent is a value type, so list equality pins every field of
        every event — kinds, ranks, channels, payload sizes, timings,
        wait and queue attributions.
        """
        from repro.bench.harness import _compiled as compile_strategy
        from repro.apps import gauss_seidel as gs
        from repro.core.runner import execute
        from repro.spmd.layout import make_full

        compiled = compile_strategy(strategy, gs.SOURCE, 2)
        traces = {}
        for backend in ("interp", "compiled"):
            outcome = execute(
                compiled,
                3,
                inputs={"Old": make_full((12, 12), 1, name="Old")},
                params={"N": 12},
                extra_globals={"blksize": 4},
                trace=True,
                backend=backend,
            )
            traces[backend] = outcome.sim.trace
        assert traces["interp"], "the wavefront must communicate"
        assert traces["interp"] == traces["compiled"]

    @settings(max_examples=12, deadline=None)
    @given(
        n=hs.integers(min_value=4, max_value=14),
        nprocs=hs.integers(min_value=1, max_value=4),
        blksize=hs.integers(min_value=1, max_value=8),
        strategy=hs.sampled_from(STRATEGY_ORDER),
    )
    def test_backends_agree_on_random_configurations(
        self, n, nprocs, blksize, strategy
    ):
        machine = MachineParams.ipsc2()
        interp = measure(
            strategy, n, nprocs, blksize=blksize, machine=machine,
            backend="interp",
        )
        compiled = measure(
            strategy, n, nprocs, blksize=blksize, machine=machine,
            backend="compiled",
        )
        assert _signature(interp) == _signature(compiled)


class TestArrayFastPathParity:
    """The compiled backend's inlined array accessors must raise the
    exact errors of the slow path they replace."""

    def test_read_fast_path_matches_read(self):
        arr = IStructure((3, 4), name="A")
        arr.write(2, 3, 7)
        assert _rd2(arr, 2, 3) == arr.read(2, 3) == 7
        vec = IStructure((5,), name="v")
        vec.write(4, 9)
        assert _rd1(vec, 4) == vec.read(4) == 9

    @pytest.mark.parametrize("indices", [(0, 1), (4, 1), (1, 5)])
    def test_read_out_of_bounds_error_identical(self, indices):
        arr = IStructure((3, 4), name="A")
        with pytest.raises(IStructureError) as fast:
            _rd2(arr, *indices)
        with pytest.raises(IStructureError) as slow:
            arr.read(*indices)
        assert str(fast.value) == str(slow.value)

    def test_read_undefined_error_identical(self):
        arr = IStructure((2, 2), name="A")
        with pytest.raises(IStructureError, match="undefined") as fast:
            _rd2(arr, 1, 1)
        with pytest.raises(IStructureError) as slow:
            arr.read(1, 1)
        assert str(fast.value) == str(slow.value)

    def test_write_fast_path_matches_write(self):
        arr = IStructure((2, 3), name="A")
        _wr2(arr, 1, 2, 5)
        assert arr.read(1, 2) == 5
        assert arr.defined_count == 1
        vec = IStructure((4,), name="v")
        _wr1(vec, 3, 8)
        assert vec.read(3) == 8

    def test_second_write_error_identical(self):
        arr = IStructure((2, 2), name="A")
        arr.write(1, 1, 1)
        with pytest.raises(IStructureError) as fast:
            _wr2(arr, 1, 1, 2)
        with pytest.raises(IStructureError) as slow:
            arr.write(1, 1, 2)
        assert str(fast.value) == str(slow.value)

    def test_write_coerces_float_indices_like_write(self):
        # IStructure.write int()-coerces indices; the fast path must too.
        arr = IStructure((3,), name="v")
        _wr1(arr, 2.0, 11)
        assert arr.read(2) == 11

    def test_local_array_rewrites_allowed(self):
        buf = LocalArray((3,), name="b")
        _wr1(buf, 1, 1)
        _wr1(buf, 1, 2)
        assert _rd1(buf, 1) == 2

    def test_never_written_buffer_slot_error_identical(self):
        buf = LocalArray((2,), name="b")
        with pytest.raises(IStructureError) as fast:
            _rd1(buf, 2)
        with pytest.raises(IStructureError) as slow:
            buf.read(2)
        assert str(fast.value) == str(slow.value)


class TestRuntimeErrorParity:
    def _run(self, program, backend):
        return run_spmd(program, 1, lambda rank: [], backend=backend)

    def test_division_by_zero_same_message(self):
        from repro.errors import NodeRuntimeError

        program = NodeProgram(
            name="div0",
            procs={
                "main": NodeProc(
                    "main", (),
                    body=(NReturn(NBin("div", NConst(1), NConst(0))),),
                )
            },
            entry="main",
        )
        errors = {}
        for backend in ("interp", "compiled"):
            with pytest.raises(NodeRuntimeError) as err:
                self._run(program, backend)
            errors[backend] = str(err.value)
        assert errors["interp"] == errors["compiled"]

    def test_unbound_variable_same_message(self):
        from repro.errors import NodeRuntimeError

        program = NodeProgram(
            name="unbound",
            procs={
                "main": NodeProc("main", (), body=(NReturn(NVar("nope")),))
            },
            entry="main",
        )
        errors = {}
        for backend in ("interp", "compiled"):
            with pytest.raises(NodeRuntimeError) as err:
                self._run(program, backend)
            errors[backend] = str(err.value)
        assert errors["interp"] == errors["compiled"]
