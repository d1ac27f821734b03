"""Records of d-dimensional point streams: detection, exact laws, simulation.

The package has three layers that deliberately overlap in what they can
compute, so each can be checked against the others:

* :mod:`chainrec.records` -- streaming detectors for chain, weak, strong
  and marginal records under the componentwise partial order.
* :mod:`chainrec.exact` -- record probabilities, expected counts and
  limit-law moments in exact rational (or controlled high-precision)
  arithmetic.
* :mod:`chainrec.samplers` / :mod:`chainrec.stats` -- three independent
  simulators of the chain-record count plus the estimation and testing
  harness that cross-validates them against the exact engine.

``chainrec.cli`` wires everything into the ``chainrec`` command; the
``verify`` subcommand runs the acceptance suite.
"""

from chainrec.records import (
    RecordDetector,
    RecordFlags,
    chain_record_indices,
    classify_sequence,
    dominates,
    height,
    log_transform,
)
from chainrec.exact import (
    CapExceededError,
    chain_record_prob,
    chain_record_prob_table,
    expected_chain_count,
    expected_strong_count,
    expected_weak_count,
    expected_weak_count_table,
    height_factor_cdf,
    height_factor_density,
    limit_moment,
    mellin,
    moment_series,
    poisson_weighted_chain_prob,
    stationary_density,
    strong_record_prob,
    weak_record_prob,
    weak_record_prob_table,
)
from chainrec.rng import make_stream, stream_id
from chainrec.samplers import (
    ChainRecordTrace,
    LimitProcessWindow,
    sample_chain_counts,
    sample_height_factor,
    sample_limit_process,
    sample_limit_variable,
    sample_limit_variables,
    simulate_direct,
    simulate_insertion,
    simulate_sojourn,
)
from chainrec.stats import (
    CltDiagnostics,
    ExperimentSummary,
    TestResult,
    clt_diagnostics,
    estimate,
    regression_slope,
    two_sample_test,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ChainRecordTrace",
    "CltDiagnostics",
    "ExperimentSummary",
    "LimitProcessWindow",
    "RecordDetector",
    "RecordFlags",
    "TestResult",
    "chain_record_indices",
    "chain_record_prob",
    "chain_record_prob_table",
    "classify_sequence",
    "clt_diagnostics",
    "dominates",
    "estimate",
    "expected_chain_count",
    "expected_strong_count",
    "expected_weak_count",
    "expected_weak_count_table",
    "height",
    "height_factor_cdf",
    "height_factor_density",
    "limit_moment",
    "log_transform",
    "make_stream",
    "mellin",
    "moment_series",
    "poisson_weighted_chain_prob",
    "regression_slope",
    "sample_chain_counts",
    "sample_height_factor",
    "sample_limit_process",
    "sample_limit_variable",
    "sample_limit_variables",
    "simulate_direct",
    "simulate_insertion",
    "simulate_sojourn",
    "stationary_density",
    "stream_id",
    "strong_record_prob",
    "two_sample_test",
    "weak_record_prob",
    "weak_record_prob_table",
    "__version__",
]
