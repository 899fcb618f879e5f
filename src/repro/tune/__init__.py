"""Auto-decomposition tuner: analytic cost model + configuration search.

The paper treats the ``<map, local, alloc>`` triple as an *input* to
process decomposition and notes (§4) that "the best block size depends
on the size of the matrix" — every knob is the programmer's burden.
This subsystem automates the choice:

* :mod:`repro.tune.model` predicts per-configuration message counts,
  bytes, and makespan *without simulation* by walking the compiled SPMD
  IR abstractly (all exact: the compiled backend's numbers);
* :mod:`repro.tune.space` enumerates candidate configurations
  (distribution x strategy x blksize);
* :mod:`repro.tune.search` ranks the space with the predictor and
  confirms only the top-k candidates on the real simulator.
"""

from repro.tune.model import Prediction, predict
from repro.tune.space import (
    TuneConfig,
    default_space,
    register_strategy,
    retarget_source,
)
from repro.tune.serialize import candidate_payload, report_payload

__all__ = [
    "Prediction",
    "predict",
    "TuneConfig",
    "default_space",
    "register_strategy",
    "retarget_source",
    "Candidate",
    "TuneReport",
    "spearman",
    "tune",
    "candidate_payload",
    "report_payload",
]

_SEARCH = frozenset(("Candidate", "TuneReport", "spearman", "tune"))


def __getattr__(name):
    # The search module imports the verifier, the locality analyzer and
    # the bench harness; importing it on first use keeps ``repro.tune.space``
    # (the service's and the benchmarks' configuration vocabulary) cheap.
    if name in _SEARCH:
        from repro.tune import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
