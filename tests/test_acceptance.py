"""Acceptance gate: every criterion at its stated tolerance.

Each case prints one PASS/FAIL line per criterion entry (through the
capture, so the lines always appear in the terminal).  Tolerances are
pinned in the table ``verify.TOLERANCES``; nothing here loosens them.
"""

import functools
import inspect
import math
import numbers
import re
from fractions import Fraction
from itertools import count, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate

from chainrec import exact, samplers, verify
from chainrec.cli import main
from oracles import height_factor_density

CRITERIA = list(verify.CRITERIA)
README = Path(__file__).resolve().parents[1] / "README.md"


@functools.cache
def _measured(cid):
    """The measurements of criterion ``cid`` at ``DEFAULT_SEED``, drawn once per session."""
    return verify.CRITERIA[cid](verify.DEFAULT_SEED, 1)


def _judged(criterion, overrides=None):
    """The measurements of ``criterion`` at ``DEFAULT_SEED``, judged as ``run_suite`` does."""
    return [verify._judge(m, overrides or {}) for m in criterion(verify.DEFAULT_SEED, 1)]


@pytest.mark.parametrize("cid", CRITERIA)
def test_criterion(cid, capsys):
    measurements = _measured(cid)
    # each measurement carries its raw values, a non-empty list that only _judge reduces
    for key, name, oracle, values in measurements:
        assert isinstance(values, list) and values, (key, values)
        assert all(isinstance(v, numbers.Real) for v in values), (key, values)
    results = [verify._judge(m, {}) for m in measurements]
    with capsys.disabled():
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"\n[{status}] {r.criterion}: {r.name} "
                f"(value={r.value:.6g}, target={r.target:.6g}, tolerance={r.tolerance:.6g})",
                end="",
            )
    failed = [r.as_dict() for r in results if not r.passed]
    assert not failed, failed
    # each reported key is in the table, with the table's default (a level
    # is split evenly over a Bonferroni family of tests)
    for r in results:
        kind, default = verify.TOLERANCES[r.criterion]
        tests = round(default / r.tolerance) if kind == "level" else 1
        assert r.tolerance == default / tests, (r.criterion, r.tolerance)


def test_each_tolerance_key_is_reported_by_exactly_one_criterion():
    # c06 reports c07 too, judged on the same draws: a key need not name
    # the function that reports it, but no key is reported twice or never
    reported = [key for cid in CRITERIA for key, *_ in _measured(cid)]
    assert sorted(reported) == sorted(verify.TOLERANCES)


def test_the_oracle_suite_draws_each_chain_count_sample_once(monkeypatch):
    # c07 reads c06's direct draws: 3 simulators x 6 (d, n), and no c07 label
    run_chunked = samplers._run_chunked
    drawn = []

    def few(chunk_fn, total, seed, label, workers):
        drawn.append((label, total))
        return run_chunked(chunk_fn, 200, seed, label, workers)

    monkeypatch.setattr(samplers, "_run_chunked", few)
    verify.run_suite("oracle")
    chain_counts = [(label, total) for label, total in drawn
                    if label.startswith(("verify:c06", "verify:c07"))]
    assert chain_counts == [(f"verify:c06:{m}:d={d}:n={n}", 100_000)
                      for d, n in product((1, 2, 3), (10, 100))
                      for m in ("direct", "sojourn", "insertion")]


def test_no_criterion_reduces_its_own_values():
    # _judge is the one reducer: a criterion returns every value it computed
    for cid, criterion in verify.CRITERIA.items():
        source = inspect.getsource(criterion)
        assert not re.search(r"\b(max|min)\(|worst", source), cid


def test_judge_holds_a_bound_to_the_max_of_its_values():
    values = [np.float64(0.5), 3.5, 2.0]
    result = verify._judge(("c07", "name", "oracle", values), {})
    assert (result.value, result.target, result.tolerance, result.passed) == (3.5, 0.0, 4.0, True)
    assert type(result.value) is float and result.oracle == "oracle"
    # one infinite value among finite ones fails the bound, at any finite tolerance
    result = verify._judge(("c07", "name", "oracle", [0.5, math.inf, 2.0]), {"c07": 1e300})
    assert (result.value, result.passed) == (math.inf, False)


def test_judge_holds_a_level_to_the_min_of_its_values_against_level_over_k():
    alpha = 0.01 / 4
    values = [0.5, np.float64(0.003), 0.2, 0.9]
    result = verify._judge(("c06", "name", "oracle", values), {})
    assert (result.value, result.target, result.tolerance) == (0.003, alpha, alpha)
    assert result.passed is True
    assert type(result.value) is float
    assert result.oracle == f"oracle; pass iff min p-value >= {alpha:.2e}"
    result = verify._judge(("c06", "name", "oracle", [0.5, 0.002, 0.2, 0.9]), {})
    assert (result.value, result.passed) == (0.002, False)
    # a lone p-value is held to the level itself, and its oracle text is kept
    lone = verify._judge(("c11", "name", "oracle", [0.009]), {})
    assert (lone.tolerance, lone.passed, lone.oracle) == (0.01, False, "oracle")


@pytest.mark.parametrize("key, values", [
    ("c07", [1.0, math.nan]), ("c07", [math.nan, 1.0]),
    ("c06", [0.5, math.nan]), ("c06", [math.nan, 0.5]),
], ids=["bound-last", "bound-first", "level-last", "level-first"])
def test_judge_fails_a_nan_in_any_position(key, values):
    result = verify._judge((key, "name", "oracle", values), {})
    assert math.isnan(result.value) and result.passed is False


def test_c02_counts_an_exact_mismatch_as_an_infinite_z(monkeypatch):
    table = exact.chain_record_prob_table

    def wrong_at_d3(d, n_max, **kwargs):
        probs = table(d, n_max, **kwargs)
        return probs[:1] + (Fraction(1, 7),) + probs[2:] if d == 3 else probs

    monkeypatch.setattr(exact, "chain_record_prob_table", wrong_at_d3)
    [(_, _, _, values)] = verify.c02_second_index(verify.DEFAULT_SEED)
    assert values[1:] == [math.inf] and values[0] < 4
    [result] = _judged(verify.c02_second_index, {"c02": 1e300})
    assert (result.value, result.passed) == (math.inf, False)


def test_the_readme_states_each_tolerance_key_and_its_default():
    section = README.read_text().partition("## What the acceptance suite checks")[2]
    section = section.partition("\n## ")[0]
    stated = re.findall(r"`(c\d\d(?:-[a-z]+)?)` (<=|p >=) ([\d.e-]+)", section)
    kinds = {"<=": "bound", "p >=": "level"}
    assert len(stated) == len(verify.TOLERANCES)
    assert {key: (kinds[sign], float(default)) for key, sign, default in stated} == (
        verify.TOLERANCES)


def test_suite_registry_covers_every_criterion():
    assert set(verify.SUITES["all"]) == set(CRITERIA)
    listed = [c for s in ("exact", "oracle", "asymptotic", "limit", "repro")
              for c in verify.SUITES[s]]
    assert sorted(listed) == sorted(CRITERIA)


@pytest.mark.parametrize("workers", [0, -3])
def test_run_suite_rejects_a_worker_count_below_one_before_any_criterion_runs(
    workers, monkeypatch
):
    # c01-c05 start no sampler, whose driver would reject the count itself
    def no_runs(*args):
        raise AssertionError("ran a criterion before checking the worker count")

    monkeypatch.setattr(verify, "CRITERIA", dict.fromkeys(verify.CRITERIA, no_runs))
    with pytest.raises(ValueError, match="workers must be >= 1"):
        verify.run_suite("exact", workers=workers)


@pytest.mark.parametrize("tolerance", [None, 5.0])
@pytest.mark.parametrize("cid", ["c01", "c03"])
def test_exact_count_criteria_pass_iff_the_count_is_within_the_tolerance(
    cid, tolerance, monkeypatch
):
    # one wrong d=1 entry: p_5 = 1 is neither 1/5 nor at most the weak p_5 = 1/5
    table = exact.chain_record_prob_table

    def one_wrong_entry(d, n_max, **kwargs):
        probs = table(d, n_max, **kwargs)
        return probs[:4] + (Fraction(1),) + probs[5:] if d == 1 else probs

    monkeypatch.setattr(exact, "chain_record_prob_table", one_wrong_entry)
    overrides = {} if tolerance is None else {cid: tolerance}
    [result] = _judged(verify.CRITERIA[cid], overrides)
    assert (result.value, result.tolerance) == (1.0, tolerance or 0.0)
    assert result.passed is (tolerance is not None)


def test_c12_passes_iff_the_mismatches_are_within_the_tolerance(monkeypatch):
    def fake_cli(args, cwd):
        # every file of a run holds its arguments: the worker variants differ
        out = args[args.index("--out") + 1]
        text = repr([a for a in args if a != out])
        for suffix in ("", ".json", ".csv"):
            Path(out + suffix).write_text(text)

    monkeypatch.setattr(verify, "_cli", fake_cli)
    [strict] = _judged(verify.c12_reproducibility)
    [loose] = _judged(verify.c12_reproducibility, {"c12": 2.0})
    assert (strict.value, strict.passed) == (2.0, False)
    assert (loose.value, loose.tolerance, loose.passed) == (2.0, 2.0, True)


def test_cli_child_runs_the_callers_package(tmp_path, monkeypatch):
    # a relative PYTHONPATH does not resolve from the child's temp cwd
    monkeypatch.setenv("PYTHONPATH", "src")
    child = tmp_path / "t.csv"
    verify._cli(["exact", "--d", "2", "--n", "6", "--out", str(child)], tmp_path)
    here = tmp_path / "here.csv"
    assert main(["exact", "--d", "2", "--n", "6", "--out", str(here)]) == 0
    assert child.read_bytes() == here.read_bytes()


@pytest.mark.parametrize("d, beta, t", list(product((1, 2), (1, 2), (0.5, 1.0, 2.0))))
def test_c05_laguerre_integral_matches_adaptive_quadrature(d, beta, t):
    # the integral in s on (0, 1] that the Gauss-Laguerre rule replaced
    def integrand(s):
        return s**beta * exact.moment_series(d, beta, t * s) * height_factor_density(d, s)

    reference, _ = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert abs(verify._renewal_integral(d, beta, t) - reference) < 1e-10


def test_c04_passes_when_its_tolerance_equals_its_value():
    [result] = _judged(verify.c04_poisson_mixture)
    assert result.value > 0.0
    [at_value] = _judged(verify.c04_poisson_mixture, {"c04": result.value})
    assert (at_value.tolerance, at_value.passed) == (result.value, True)


# a planted defect each Monte Carlo criterion must catch at DEFAULT_SEED


def test_c11_fails_when_the_image_window_is_twice_as_long_in_time(monkeypatch):
    sample = samplers.sample_window_counts

    def stretched(d, window, replicates, *, label, **kwargs):
        if label == "verify:c11:image":
            s_lo, s_hi, t_hi = window
            window = (s_lo, s_hi, 2 * t_hi)
        return sample(d, window, replicates, label=label, **kwargs)

    monkeypatch.setattr(samplers, "sample_window_counts", stretched)
    [result] = [r for r in _judged(verify.c11_hyperbolic_invariance) if r.criterion == "c11"]
    assert not result.passed
    assert result.value < 1e-30, result.value


def test_c11_mean_fails_when_every_arrival_time_is_ten_percent_late(monkeypatch):
    # clean: 1.24 and 0.15; this defect: 5.33 and 4.36 (bound 4).  It acts on
    # both windows alike, so c11 passes it (p = 0.37)
    chunk = samplers._window_points_chunk

    def late(gen, d, window, truncation_tol, m):
        s_lo, s_hi, t_hi = window
        rows, xi, sigma = chunk(gen, d, (s_lo, s_hi, t_hi / 1.1), truncation_tol, m)
        return rows, xi, 1.1 * sigma

    monkeypatch.setattr(samplers, "_window_points_chunk", late)
    c11, c11_mean = _judged(verify.c11_hyperbolic_invariance)
    assert (c11.criterion, c11.passed) == ("c11", True)
    assert (c11_mean.criterion, c11_mean.passed) == ("c11-mean", False)
    assert c11_mean.value > c11_mean.tolerance, c11_mean.value


def test_c09_fails_when_the_path_integrals_are_two_percent_large(monkeypatch):
    # clean: 0.30; this defect: 8.15 (bound 4)
    chunk = samplers._poisson_paced_chunk

    def inflated(*args):
        counts, integrals, states = chunk(*args)
        return counts, integrals * 1.02, states

    monkeypatch.setattr(samplers, "_poisson_paced_chunk", inflated)
    [result] = _judged(verify.c09_compensator)
    assert not result.passed
    assert result.value > 2 * result.tolerance, result.value


def test_c08_fails_when_the_limit_series_stops_at_a_tolerance_of_one_percent(monkeypatch):
    # the clean sampler reads 2.32 at DEFAULT_SEED, this defect 7.68 (bound 4)
    chunk = samplers._limit_variable_chunk

    def truncated(gen, d, tolerance, m):
        return chunk(gen, d, 1e-2, m)

    monkeypatch.setattr(samplers, "_limit_variable_chunk", truncated)
    [result] = _judged(verify.c08_limit_moments)
    assert not result.passed
    assert result.value > result.tolerance, result.value


def test_c10_fails_when_the_sojourn_heights_have_one_factor_too_many(monkeypatch):
    # clean: c10-mean 0.014 and c10-var 0.023; this defect: 0.50 and 0.75
    chunk = samplers._sojourn_counts_chunk

    def one_more_factor(gen, d, n, m):
        return chunk(gen, d + 1, n, m)

    monkeypatch.setattr(samplers, "_sojourn_counts_chunk", one_more_factor)
    results = _judged(verify.c10_growth_slopes)
    assert [r.criterion for r in results] == ["c10-mean", "c10-var"]
    for result in results:
        assert not result.passed
        assert result.value > 3 * result.tolerance, (result.criterion, result.value)


def test_c06_fails_when_the_insertion_kernel_draws_its_first_height_with_one_factor_too_many(
    monkeypatch
):
    # clean: min p 0.0116; this defect: 0.0 (pass bar 0.01/18 = 5.56e-4)
    chunk = samplers._insertion_counts_chunk
    column = samplers._height_factor_column

    def one_more_first_factor(gen, d, n, m):
        calls = count()  # the kernel's first column is the first height

        def first_one_more(gen, d, m):
            return column(gen, d + (next(calls) == 0), m)

        with mock.patch.object(samplers, "_height_factor_column", first_one_more):
            return chunk(gen, d, n, m)

    monkeypatch.setattr(samplers, "_insertion_counts_chunk", one_more_first_factor)
    [result] = [r for r in _judged(verify.c06_three_simulators) if r.criterion == "c06"]
    assert not result.passed
    assert result.value < 1e-10, result.value


class _NumpyKeepingTheFirstRow:
    """numpy, except that ``copyto`` leaves row 0 of its destination as it was.

    In ``samplers`` only the direct kernel's record update calls ``copyto``:
    a beat then moves every coordinate of the record but the first.
    """

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def copyto(dst, src, where):
        first = dst[0].copy()
        np.copyto(dst, src, where=where)
        dst[0] = first


def test_c07_fails_when_the_direct_kernel_never_moves_the_records_first_coordinate(monkeypatch):
    # clean: 2.51; this defect: 497 (bound 4).  Ties have probability zero, so
    # "<" for "<=" in the beat test would change no count: 2.51 again
    monkeypatch.setattr(samplers, "np", _NumpyKeepingTheFirstRow())
    [result] = [r for r in _judged(verify.c06_three_simulators) if r.criterion == "c07"]
    assert not result.passed
    assert result.value > 10 * result.tolerance, result.value
