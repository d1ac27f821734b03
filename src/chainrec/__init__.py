"""Records of d-dimensional point streams: detection, exact laws, simulation.

The package has three layers that deliberately overlap in what they can
compute, so each can be checked against the others:

* :mod:`chainrec.records` -- streaming detectors for chain, weak, strong
  and marginal records under the componentwise partial order.
* :mod:`chainrec.exact` -- record probabilities, expected counts and
  limit-law moments in exact rational (or controlled high-precision)
  arithmetic.
* :mod:`chainrec.samplers` / :mod:`chainrec.stats` -- three independent
  simulators of the chain-record count plus the summaries and the
  chi-square test that cross-validate them against the exact engine.

``chainrec.cli`` wires everything into the ``chainrec`` command; the
``verify`` subcommand runs the acceptance suite.  The package keeps only
what the commands and the criteria run: the scalar cross-checks that the
tests alone use (the partial order, the log-transform route to chain
records, the harmonic recursion for weak counts, the height-factor laws
and the limit process drawn point by point) live in ``tests/oracles.py``.

``import chainrec`` itself loads none of these modules.  Each name below
is imported from its home module on first use (PEP 562), so a program
that uses only :mod:`chainrec.exact` never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {
    "CapExceededError": "exact",
    "chain_record_prob_table": "exact",
    "expected_chain_count": "exact",
    "limit_moment": "exact",
    "moment_series": "exact",
    "poisson_weighted_chain_prob": "exact",
    "strong_record_prob": "exact",
    "weak_record_prob_table": "exact",
    "RecordDetector": "records",
    "make_stream": "rng",
    "stream_id": "rng",
    "ChainRecordTrace": "samplers",
    "sample_chain_counts": "samplers",
    "sample_limit_variables": "samplers",
    "simulate_direct": "samplers",
    "simulate_sojourn": "samplers",
    "TestResult": "stats",
    "regression_slope": "stats",
    "two_sample_test": "stats",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
