"""Harness tests: estimation, two-sample decisions, growth diagnostics."""

import math

import numpy as np
import pytest

from chainrec import exact, samplers
from chainrec.rng import make_stream, stream_id
from chainrec.stats import (
    _chi_square_tail,
    bonferroni,
    clt_diagnostics,
    estimate,
    regression_slope,
    summarize,
    two_sample_test,
)

SEED = 424242


# ---------------------------------------------------------------------------
# estimate


def test_constant_sampler():
    summary = estimate(lambda gen: 1.0, 100, SEED, label="test:const")
    assert summary.value == 1.0
    assert summary.std_error == 0.0
    assert summary.replicates == 100


def test_estimate_requires_two_replicates():
    with pytest.raises(ValueError):
        estimate(lambda gen: 1.0, 1, SEED)


def test_estimate_is_deterministic_and_worker_invariant():
    sampler = lambda gen: float(gen.random())
    a = estimate(sampler, 500, SEED, label="test:det")
    b = estimate(sampler, 500, SEED, label="test:det")
    c = estimate(sampler, 500, SEED, label="test:det", workers=4)
    assert a == b == c
    other = estimate(sampler, 500, SEED + 1, label="test:det")
    assert other.value != a.value


def test_estimate_replicate_i_draws_substream_i():
    summary = estimate(lambda gen: float(gen.random()), 7, SEED, label="test:layout", workers=3)
    sid = stream_id("test:layout")
    draws = np.array([make_stream(SEED, sid, i).random() for i in range(7)])
    assert summary.value == float(draws.mean())
    assert summary.std_error == float(draws.std(ddof=1) / math.sqrt(7))


def test_estimate_log_height_factor():
    # the mean negative log height factor is the dimension
    summary = estimate(
        lambda gen: -math.log(samplers.sample_height_factor(gen, 3)),
        4000,
        SEED,
        label="test:logw",
        params={"d": 3},
    )
    assert abs(summary.value - 3.0) < 4 * summary.std_error


def test_estimate_count_mean_against_exact():
    summary = estimate(
        lambda gen: float(samplers.simulate_sojourn(gen, 2, 7).count),
        5000,
        SEED,
        label="test:n7",
    )
    target = float(exact.expected_chain_count(2, 7))
    assert abs(summary.value - target) < 4 * summary.std_error


def test_standard_error_scaling():
    # doubling the replicates shrinks the standard error by about sqrt(2)
    sampler = lambda gen: float(samplers.sample_height_factor(gen, 2))
    small = estimate(sampler, 4000, SEED, label="test:se")
    large = estimate(sampler, 8000, SEED, label="test:se")
    ratio = large.std_error / small.std_error
    assert abs(ratio - 1 / math.sqrt(2)) < 0.1 / math.sqrt(2)


def test_summarize_single_value_has_no_se():
    summary = summarize(np.array([2.5]), "one", SEED)
    assert summary.value == 2.5
    assert summary.std_error is None


# ---------------------------------------------------------------------------
# two-sample tests


def test_identical_samples_do_not_reject():
    ints = np.arange(1000) % 7
    res = two_sample_test(ints, ints.copy())
    assert res.kind == "chisq" and not res.reject
    floats = make_stream(SEED, 1).random(1000)
    res = two_sample_test(floats, floats.copy())
    assert res.kind == "ks" and not res.reject


def test_power_uniform_vs_height_factor():
    gen = make_stream(SEED, 2)
    uniforms = gen.random(10000)
    factors = np.exp(np.log(gen.random((10000, 2))).sum(axis=1))
    res = two_sample_test(uniforms, factors, significance=0.01)
    assert res.kind == "ks" and res.reject


def test_power_integer_case():
    gen = make_stream(SEED, 3)
    a = gen.poisson(3.0, size=20000)
    b = gen.poisson(3.3, size=20000)
    res = two_sample_test(a, b, significance=0.01)
    assert res.kind == "chisq" and res.reject


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 7, 8, 25, 60])
def test_chi_square_tail_matches_scipy(dof):
    import scipy.special

    for stat in [0.0, 1e-9, *np.geomspace(1e-3, 1000.0, 400)]:
        reference = float(scipy.special.chdtrc(dof, stat))
        if reference > 1e-250:
            assert _chi_square_tail(dof, float(stat)) == pytest.approx(reference, rel=1e-12, abs=0)


def test_direct_vs_sojourn_does_not_reject():
    a = samplers.sample_chain_counts("direct", 2, 100, 20000, seed=SEED, label="test:h0:a")
    b = samplers.sample_chain_counts("sojourn", 2, 100, 20000, seed=SEED, label="test:h0:b")
    res = two_sample_test(a, b, significance=0.01)
    assert not res.reject


def test_two_sample_validation():
    with pytest.raises(ValueError):
        two_sample_test([], [1.0])
    with pytest.raises(ValueError):
        two_sample_test([1.0], [1.0], significance=0.0)
    with pytest.raises(ValueError):
        two_sample_test([1.0], [1.0], kind="anova")


def test_false_positive_rate_is_controlled():
    # same law on both sides: the 0.01-level test should rarely reject
    gen = make_stream(SEED, 4)
    rejects = 0
    for _ in range(60):
        a = gen.integers(0, 6, size=2000)
        b = gen.integers(0, 6, size=2000)
        rejects += two_sample_test(a, b, significance=0.01).reject
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
        counts = samplers.sample_chain_counts(
            "sojourn", 2, n, 10000, seed=SEED, label=f"test:slope:{n}"
        )
        pairs.append((math.log(n), float(counts.mean())))
    slope = regression_slope(pairs)
    assert abs(slope - 0.5) / 0.5 < 0.05


def test_variance_slope_dimension_two():
    pairs = []
    for n in (10**3, 10**4, 10**5, 10**6):
        counts = samplers.sample_chain_counts(
            "sojourn", 2, n, 10000, seed=SEED, label=f"test:vslope:{n}"
        )
        pairs.append((math.log(n), float(counts.var(ddof=1))))
    slope = regression_slope(pairs)
    assert abs(slope - 0.25) / 0.25 < 0.15


def test_clt_diagnostics_bands():
    for d, mean_target, var_target, band in ((1, 1.0, 1.0, 0.10), (2, 0.5, 0.25, 0.15)):
        counts = samplers.sample_chain_counts(
            "sojourn", d, 10**6, 10000, seed=SEED, label=f"test:clt:{d}"
        )
        diag = clt_diagnostics(counts, d, 10**6)
        assert abs(diag.mean_over_log_n - mean_target) / mean_target < band
        assert abs(diag.var_over_log_n - var_target) / var_target < band
        assert math.isfinite(diag.skewness)
        assert math.isfinite(diag.excess_kurtosis)
        assert 0 <= diag.ks_distance_to_fitted_normal <= 1


def test_clt_shape_improves_with_horizon():
    small = samplers.sample_chain_counts("sojourn", 2, 10**3, 10000, seed=SEED, label="t:s")
    large = samplers.sample_chain_counts("sojourn", 2, 10**6, 10000, seed=SEED, label="t:l")
    skew_small = clt_diagnostics(small, 2, 10**3).skewness
    skew_large = clt_diagnostics(large, 2, 10**6).skewness
    assert abs(skew_large) < abs(skew_small)


def test_clt_diagnostics_validation():
    with pytest.raises(ValueError):
        clt_diagnostics(np.ones(2000), 1, 100)  # horizon too small
    with pytest.raises(ValueError):
        clt_diagnostics(np.ones(10), 1, 10**6)  # too few replicates
    with pytest.raises(ValueError):
        clt_diagnostics(np.ones(2000), 1, 10**6)  # degenerate


def test_bonferroni():
    assert bonferroni(0.01, 18) == pytest.approx(0.01 / 18)
    with pytest.raises(ValueError):
        bonferroni(0.01, 0)
