"""The analytic cost model must agree with the simulator *exactly*.

The model's design claim (docs/INTERNALS.md section 11) is that generated
SPMD control flow never depends on array data, so an abstract per-rank
walk reproduces the simulator's event stream exactly — per-channel
message counts and bytes are asserted with ``==``, not a tolerance. The
makespan and every per-rank finish, busy and communication time are
bit-exact too, on the default machine and on one whose charges are not
binary fractions: the model flushes integer op/memory counts with the
compiled backend's own expression. Configurations the real simulator
cannot run (the jacobi/jam deadlock, block_grid's unbound-variable
fallback) must be *predicted* infeasible, never silently mispredicted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.apps import gauss_seidel as gs
from repro.apps import jacobi
from repro.core.runner import execute
from repro.errors import ReproError
from repro.machine import MachineParams
from repro.spmd.layout import make_full
from repro.tune.model import predict
from repro.tune.search import _compile_config
from repro.tune.space import DEFAULT_DISTS, STRATEGIES, TuneConfig

APPS = {
    "gauss_seidel": (gs.SOURCE, None),
    "jacobi": (jacobi.SOURCE_WRAPPED, "jacobi_step"),
}

MACHINE = MachineParams.ipsc2()
# Charges that are not binary fractions: repeated float accumulation of
# op_us/mem_us would drift from the compiled backend's integer counts.
NON_DYADIC = MachineParams(op_us=0.1, mem_us=0.3, per_byte_us=0.07)


def simulate(source, entry, config, n, machine=MACHINE):
    """Run one configuration on the real simulator; return its outcome."""
    compiled = _compile_config(source, entry, config)
    return execute(
        compiled,
        config.nprocs,
        inputs={"Old": make_full((n, n), 1, name="Old")},
        params={"N": n},
        machine=machine,
        extra_globals={"blksize": config.blksize},
    )


def model(source, entry, config, n, machine=MACHINE):
    compiled = _compile_config(source, entry, config)
    return predict(
        compiled,
        config.nprocs,
        params={"N": n},
        machine=machine,
        extra_globals={"blksize": config.blksize},
    )


def assert_agreement(app, dist, strategy, nprocs, n, blksize=4,
                     machine=MACHINE):
    source, entry = APPS[app]
    config = TuneConfig(dist, strategy, nprocs, blksize)
    try:
        prediction = model(source, entry, config, n, machine)
    except ReproError:
        # Predicted infeasible: the simulator must fail too.
        with pytest.raises(ReproError):
            simulate(source, entry, config, n, machine)
        return
    outcome = simulate(source, entry, config, n, machine)
    stats = outcome.sim.stats
    assert dict(stats.per_channel) == prediction.per_channel
    assert dict(stats.per_channel_bytes) == prediction.per_channel_bytes
    assert stats.total_messages == prediction.total_messages
    assert stats.total_bytes == prediction.total_bytes
    assert outcome.makespan_us == prediction.makespan_us
    assert outcome.sim.finish_times_us == prediction.finish_times_us
    assert outcome.sim.busy_times_us == prediction.busy_times_us
    assert outcome.sim.comm_times_us == prediction.comm_times_us


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("dist", DEFAULT_DISTS)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_exact_equality(app, dist, strategy):
    for nprocs in (2, 4, 8):
        assert_agreement(app, dist, strategy, nprocs, n=10)


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("dist", DEFAULT_DISTS)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_exact_equality_non_dyadic(app, dist, strategy):
    for n in (16, 32):
        assert_agreement(app, dist, strategy, 4, n=n, machine=NON_DYADIC)


@pytest.mark.parametrize("blksize", [1, 2, 8, 16])
def test_exact_equality_non_dyadic_across_blksizes(blksize):
    assert_agreement(
        "gauss_seidel", "wrapped_cols", "optIII", 4, n=12, blksize=blksize,
        machine=NON_DYADIC,
    )


def test_program_compiles_once_per_prediction():
    """One compilation serves every rank: a regression to per-rank (or
    per-iteration) compilation would multiply the counter."""
    source, entry = APPS["gauss_seidel"]
    config = TuneConfig("wrapped_cols", "optIII", 4, 4)
    compiled = _compile_config(source, entry, config)
    with perf.caches_disabled():
        before = perf.counter("walk.compile")
        for _ in range(2):
            predict(compiled, 4, params={"N": 12}, machine=MACHINE,
                    extra_globals={"blksize": 4})
        assert perf.counter("walk.compile") - before == 2
    perf.clear_caches()
    before = perf.counter("walk.compile")
    for _ in range(2):  # the second call is a tune_predict cache hit
        predict(compiled, 4, params={"N": 12}, machine=MACHINE,
                extra_globals={"blksize": 4})
    assert perf.counter("walk.compile") - before == 1


@pytest.mark.parametrize("blksize", [1, 2, 8, 16])
def test_exact_equality_across_blksizes(blksize):
    assert_agreement(
        "gauss_seidel", "wrapped_cols", "optIII", 4, n=12, blksize=blksize
    )


def test_predicts_the_blockgrid_compile_failure():
    """block_grid under compile-time resolution trips a pre-existing
    compiler fallback bug; the model must not pretend otherwise."""
    assert_agreement("gauss_seidel", "block_grid(2)", "compile", 4, n=8)


def test_predicts_the_jacobi_jam_deadlock():
    """Loop jamming assumes the wavefront dependence; jacobi (all-old)
    genuinely deadlocks under it. The model must predict the deadlock."""
    assert_agreement("jacobi", "wrapped_cols", "optII", 4, n=8)


@given(
    n=st.integers(4, 14),
    nprocs=st.sampled_from([2, 3, 4, 8]),
    dist=st.sampled_from(DEFAULT_DISTS),
    strategy=st.sampled_from(sorted(STRATEGIES)),
    app=st.sampled_from(sorted(APPS)),
)
@settings(max_examples=40, deadline=None)
def test_exact_equality_property(n, nprocs, dist, strategy, app):
    assert_agreement(app, dist, strategy, nprocs, n=n)


def test_prediction_resource_breakdown_is_consistent():
    source, entry = APPS["gauss_seidel"]
    config = TuneConfig("wrapped_cols", "optIII", 4, 4)
    prediction = model(source, entry, config, 12)
    assert prediction.nprocs == 4
    assert prediction.makespan_us == max(prediction.finish_times_us)
    assert len(prediction.busy_times_us) == 4
    assert 0.0 <= prediction.comm_frac <= 1.0
    assert 0.0 <= prediction.idle_frac < 1.0
    assert sum(prediction.per_channel.values()) == prediction.total_messages
    assert (
        sum(prediction.per_channel_bytes.values()) == prediction.total_bytes
    )
