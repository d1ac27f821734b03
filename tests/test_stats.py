"""Harness tests: summaries, the two-sample test, growth diagnostics.

The estimates below run the samplers' chunked driver directly and report
through ``summarize``, as the ``simulate`` command does.
"""

import math
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from chainrec import exact, samplers
from chainrec.rng import make_stream, stream_id
from chainrec.samplers import _run_chunked
from chainrec.stats import (
    _chi_square_tail,
    moments,
    regression_slope,
    summarize,
    two_sample_test,
)
from conftest import joined

SEED = 424242


def _scalar_draws(draw, replicates, label, workers=1, seed=SEED):
    """``draw(gen)`` once per replicate, replicate i on substream i of ``label``."""
    chunk = lambda gen, m: np.array([draw(gen) for _ in range(m)], dtype=float)
    with mock.patch.object(samplers, "_CHUNK", 1):
        return joined(_run_chunked(chunk, replicates, seed, label, workers))


# ---------------------------------------------------------------------------
# summaries and the chunked driver


def test_constant_sampler():
    values = _scalar_draws(lambda gen: 1.0, 100, "test:const")
    mean, se = summarize([values])
    assert mean == 1.0
    assert se == 0.0
    assert values.size == 100


def test_estimate_is_deterministic_and_worker_invariant():
    draw = lambda gen: float(gen.random())
    a = _scalar_draws(draw, 500, "test:det")
    b = _scalar_draws(draw, 500, "test:det")
    c = _scalar_draws(draw, 500, "test:det", workers=4)
    assert summarize([a]) == summarize([b]) == summarize([c])
    assert np.array_equal(a, c)
    other = _scalar_draws(draw, 500, "test:det", seed=SEED + 1)
    assert other.mean() != a.mean()


@pytest.mark.parametrize("chunk_size", [1, 3])
@pytest.mark.parametrize("workers", [1, 3])
def test_run_chunked_chunk_i_draws_substream_i(chunk_size, workers, monkeypatch):
    monkeypatch.setattr(samplers, "_CHUNK", chunk_size)
    chunks = [*_run_chunked(lambda gen, m: gen.random(m), 7, SEED, "test:layout", workers)]
    values = joined(chunks)
    sid = stream_id("test:layout")
    sizes = [chunk_size] * (7 // chunk_size) + [7 % chunk_size] * bool(7 % chunk_size)
    expected = np.concatenate([make_stream(SEED, sid, i).random(m) for i, m in enumerate(sizes)])
    assert np.array_equal(values, expected)
    # one chunk gives numpy's figures exactly; merged chunks agree to rounding
    mean, se = summarize([values])
    assert mean == float(expected.mean())
    assert se == float(expected.std(ddof=1) / math.sqrt(7))
    assert summarize(chunks) == pytest.approx((mean, se), rel=1e-14, abs=0)


def test_run_chunked_draws_as_it_is_read_and_at_most_two_chunks_per_worker_ahead(monkeypatch):
    monkeypatch.setattr(samplers, "_CHUNK", 1)
    started = []

    def chunk(gen, m):
        started.append(m)
        return gen.random(m)

    results = _run_chunked(chunk, 40, SEED, "test:ahead", 3)
    assert started == []
    values = []
    for read, value in enumerate(results, 1):
        assert len(started) < read + 2 * 3, (read, len(started))
        values.append(value)
    assert np.array_equal(np.concatenate(values),
                          joined(_run_chunked(chunk, 40, SEED, "test:ahead", 1)))


def test_estimate_log_height_factor():
    # the mean negative log height factor is the dimension
    logs = -np.log(_scalar_draws(lambda gen: samplers._height_factor_column(gen, 3, 1)[0], 4000,
                                 "test:logw"))
    mean, se = summarize([logs])
    assert abs(mean - 3.0) < 4 * se


def test_estimate_count_mean_against_exact():
    counts = _scalar_draws(lambda gen: samplers.simulate_sojourn(gen, 2, 7).count, 5000,
                           "test:n7")
    mean, se = summarize([counts])
    target = float(exact.expected_chain_count(2, 7))
    assert abs(mean - target) < 4 * se


def test_standard_error_scaling():
    # doubling the replicates shrinks the standard error by about sqrt(2)
    draw = lambda gen: samplers._height_factor_column(gen, 2, 1)[0]
    _, small = summarize([_scalar_draws(draw, 4000, "test:se")])
    _, large = summarize([_scalar_draws(draw, 8000, "test:se")])
    ratio = large / small
    assert abs(ratio - 1 / math.sqrt(2)) < 0.1 / math.sqrt(2)


def test_summarize_single_value_has_no_se():
    mean, se = summarize([np.array([2.5])])
    assert mean == 2.5
    assert se is None


def test_summarize_of_no_values_raises():
    with pytest.raises(ValueError, match="at least one value"):
        summarize([])


@given(st.one_of(
    hnp.arrays(np.int64, st.integers(1, 500), elements=st.integers(-10**9, 10**9)),
    hnp.arrays(np.bool_, st.integers(1, 500)),
    hnp.arrays(np.float64, st.integers(1, 500), elements=st.floats(-1e9, 1e9)),
))
def test_one_chunk_gives_numpys_mean_and_standard_error_exactly(values):
    mean, se = summarize([values])
    assert mean == float(values.mean())
    if values.size >= 2:
        assert se == float(values.std(ddof=1) / math.sqrt(values.size))
    else:
        assert se is None


# 9,500 values in chunks of 1,000: nine full chunks and a short one
FOLDED_DRAWS = {
    "int": lambda gen, m: gen.integers(0, 50, size=m),
    "bool": lambda gen, m: gen.random(m) < 0.3,
    "float": lambda gen, m: gen.exponential(size=m) + 1e3,
}


@pytest.mark.parametrize("kind", sorted(FOLDED_DRAWS))
def test_several_chunks_agree_with_numpy_on_the_joined_sample(kind, monkeypatch):
    monkeypatch.setattr(samplers, "_CHUNK", 1000)
    chunks = lambda workers: _run_chunked(FOLDED_DRAWS[kind], 9500, SEED, "test:fold", workers)
    values = joined(chunks(1)).astype(float)
    n, mean, m2 = moments(chunks(1))
    assert n == 9500
    assert mean == pytest.approx(values.mean(), rel=1e-14, abs=0)
    assert m2 == pytest.approx(((values - values.mean()) ** 2).sum(), rel=1e-14, abs=0)
    summary = summarize(chunks(1))
    assert summary == pytest.approx(
        (values.mean(), values.std(ddof=1) / math.sqrt(9500)), rel=1e-14, abs=0)
    assert summarize(chunks(3)) == summary


def test_stacked_rows_fold_as_each_row_alone(monkeypatch):
    # c08 folds y and y^2 in one pass, as the rows of one chunk
    monkeypatch.setattr(samplers, "_CHUNK", 1000)
    chunks = [*_run_chunked(FOLDED_DRAWS["float"], 9500, SEED, "test:rows", 1)]
    means, ses = summarize(np.stack((y, y * y)) for y in chunks)
    assert (means[0], ses[0]) == summarize(chunks)
    assert (means[1], ses[1]) == summarize(y * y for y in chunks)


# ---------------------------------------------------------------------------
# two-sample tests


def test_identical_samples_do_not_reject():
    ints = np.arange(1000) % 7
    assert two_sample_test(ints, ints.copy()).pvalue >= 0.01
    assert two_sample_test(ints.astype(float), ints.copy()).pvalue >= 0.01
    # continuous data is for a Kolmogorov-Smirnov test, here scipy's
    floats = make_stream(SEED, 1).random(1000)
    assert scipy.stats.ks_2samp(floats, floats.copy()).pvalue >= 0.01


def test_power_uniform_vs_height_factor():
    gen = make_stream(SEED, 2)
    uniforms = gen.random(10000)
    factors = np.exp(np.log(gen.random((10000, 2))).sum(axis=1))
    assert scipy.stats.ks_2samp(uniforms, factors).pvalue < 0.01


def test_power_integer_case():
    gen = make_stream(SEED, 3)
    a = gen.poisson(3.0, size=20000)
    b = gen.poisson(3.3, size=20000)
    assert two_sample_test(a, b).pvalue < 0.01


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 7, 8, 25, 60])
def test_chi_square_tail_matches_scipy(dof):
    import scipy.special

    for stat in [0.0, 1e-9, *np.geomspace(1e-3, 1000.0, 400)]:
        reference = float(scipy.special.chdtrc(dof, stat))
        if reference > 1e-250:
            assert _chi_square_tail(dof, float(stat)) == pytest.approx(reference, rel=1e-12, abs=0)


def test_chi_square_matches_scipy_on_per_value_counts():
    # every value is common enough that no bins pool: the test is then the
    # plain chi-square of the 2 x values table, counted value by value here
    gen = make_stream(SEED, 5)
    a = gen.integers(-3, 4, size=3000)
    b = np.concatenate([gen.integers(-3, 4, size=4500), np.full(40, 9)])  # 9 only in b
    values = np.union1d(a, b)
    table = np.array([[(s == v).sum() for v in values] for s in (a, b)])
    reference = scipy.stats.chi2_contingency(table, correction=False)
    res = two_sample_test(a, b)
    assert res.statistic == pytest.approx(reference.statistic, rel=1e-12)
    assert res.pvalue == pytest.approx(reference.pvalue, rel=1e-9)


def test_chi_square_depends_only_on_the_order_of_the_values():
    # an increasing relabelling, here to negative values 10^12 apart, keeps
    # every bin and so the statistic
    gen = make_stream(SEED, 6)
    a = gen.poisson(2.0, size=2000)
    b = gen.poisson(2.2, size=1500)
    res = two_sample_test(a, b)
    for relabel in (lambda v: v - 7, lambda v: v * 10**12 - 10**15):
        assert two_sample_test(relabel(a), relabel(b)) == res


def test_direct_vs_sojourn_does_not_reject():
    a = joined(samplers.sample_chain_counts("direct", 2, 100, 20000, seed=SEED,
                                            label="test:h0:a"))
    b = joined(samplers.sample_chain_counts("sojourn", 2, 100, 20000, seed=SEED,
                                            label="test:h0:b"))
    assert two_sample_test(a, b).pvalue >= 0.01


def test_two_sample_validation():
    with pytest.raises(ValueError):
        two_sample_test([], [1.0])
    with pytest.raises(ValueError, match="integer-valued"):
        two_sample_test([1.0, 2.5], [1.0, 2.0])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="integer-valued"):
            two_sample_test([1, 2], [1.0, bad])


def test_false_positive_rate_is_controlled():
    # same law on both sides: the 0.01-level test should rarely reject
    gen = make_stream(SEED, 4)
    rejects = 0
    for _ in range(60):
        a = gen.integers(0, 6, size=2000)
        b = gen.integers(0, 6, size=2000)
        rejects += two_sample_test(a, b).pvalue < 0.01
    assert rejects <= 4


# ---------------------------------------------------------------------------
# growth diagnostics


def test_regression_slope_exact_points():
    pairs = [(x, x / 2) for x in (1.0, 3.0, 6.0, 9.0)]
    assert regression_slope(pairs) == pytest.approx(0.5)


def test_regression_slope_validation():
    with pytest.raises(ValueError):
        regression_slope([(1.0, 1.0), (2.0, 2.0), (8.0, 8.0)])
    with pytest.raises(ValueError):
        regression_slope([(1.0, 1.0), (1.5, 2.0), (2.0, 2.5), (2.5, 3.0)])


def test_mean_count_slope_dimension_two():
    pairs = []
    for n in (10**3, 10**4, 10**5, 10**6):
        counts = joined(samplers.sample_chain_counts(
            "sojourn", 2, n, 10000, seed=SEED, label=f"test:slope:{n}"
        ))
        pairs.append((math.log(n), float(counts.mean())))
    slope = regression_slope(pairs)
    assert abs(slope - 0.5) / 0.5 < 0.05


def test_variance_slope_dimension_two():
    pairs = []
    for n in (10**3, 10**4, 10**5, 10**6):
        counts = joined(samplers.sample_chain_counts(
            "sojourn", 2, n, 10000, seed=SEED, label=f"test:vslope:{n}"
        ))
        pairs.append((math.log(n), float(counts.var(ddof=1))))
    slope = regression_slope(pairs)
    assert abs(slope - 0.25) / 0.25 < 0.15


def _clt_shape(counts, n):
    """mean/log n and var/log n (targets 1/d and 1/d**2) and the skewness."""
    counts = np.asarray(counts, dtype=float)
    centred = counts - counts.mean()
    skewness = (centred**3).mean() / (centred**2).mean() ** 1.5
    return counts.mean() / math.log(n), counts.var(ddof=1) / math.log(n), skewness


def test_clt_diagnostics_bands():
    for d, mean_target, var_target, band in ((1, 1.0, 1.0, 0.10), (2, 0.5, 0.25, 0.15)):
        counts = joined(samplers.sample_chain_counts(
            "sojourn", d, 10**6, 10000, seed=SEED, label=f"test:clt:{d}"
        ))
        mean_over_log_n, var_over_log_n, skewness = _clt_shape(counts, 10**6)
        assert abs(mean_over_log_n - mean_target) / mean_target < band
        assert abs(var_over_log_n - var_target) / var_target < band
        assert math.isfinite(skewness)


def test_clt_shape_improves_with_horizon():
    small = joined(samplers.sample_chain_counts("sojourn", 2, 10**3, 10000, seed=SEED,
                                                label="t:s"))
    large = joined(samplers.sample_chain_counts("sojourn", 2, 10**6, 10000, seed=SEED,
                                                label="t:l"))
    skew_small = _clt_shape(small, 10**3)[2]
    skew_large = _clt_shape(large, 10**6)[2]
    assert abs(skew_large) < abs(skew_small)
