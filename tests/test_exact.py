"""Exact-engine tests: frozen closed-form values plus dual-route oracles."""

import itertools
import math
import re
from fractions import Fraction

import pytest
import scipy.integrate

from chainrec import exact
from chainrec.exact import (
    CapExceededError,
    chain_record_prob_table,
    expected_chain_count,
    format_decimal15,
    limit_moment,
    moment_series,
    poisson_weighted_chain_prob,
    strong_record_prob,
    weak_record_prob_table,
)
from oracles import (
    alternating_weak_prob,
    expected_strong_count,
    expected_weak_count_table,
    height_factor_cdf,
    height_factor_density,
    mellin,
    stationary_density,
)


# ---------------------------------------------------------------------------
# oracles: the same quantities by naive Fraction evaluation / enumeration


def naive_chain_prob(d, n):
    total = Fraction(0)
    c = Fraction(1)
    for k in range(n):
        if k:
            c *= 1 - Fraction(1, (k + 1) ** d)
        term = math.comb(n - 1, k) * c
        total += -term if k % 2 else term
    return total


def enumerated_weak_count(d, n):
    total = Fraction(0)
    for tup in itertools.combinations_with_replacement(range(1, n + 1), d):
        total += Fraction(1, math.prod(tup))
    return total


# ---------------------------------------------------------------------------
# the transform


def test_mellin_values():
    assert mellin(2, 1) == Fraction(1, 4)
    assert mellin(1, 0) == 1
    assert mellin(3, 2) == Fraction(1, 27)
    assert mellin(2, Fraction(1, 2)) == Fraction(4, 9)


def test_mellin_pole():
    with pytest.raises(ValueError):
        mellin(2, -1)


def test_log_moments_by_exact_finite_differences():
    # mean and variance of the negative log height factor both equal d;
    # differentiate the transform at 0 in exact rationals, so the only
    # error is the O(h^2) truncation
    h = Fraction(1, 10**5)
    for d in range(1, 6):
        g = lambda lam: mellin(d, lam)
        mu = -float((g(h) - g(-h)) / (2 * h))
        second = float((g(h) - 2 * g(0) + g(-h)) / h**2)
        var = second - mu**2
        assert abs(mu - d) < 1e-6
        assert abs(var - d) < 1e-6


# ---------------------------------------------------------------------------
# per-index probabilities


def test_chain_prob_frozen_values():
    assert chain_record_prob_table(1, 5)[4] == Fraction(1, 5)
    assert chain_record_prob_table(2, 7)[6] == Fraction(1, 14)
    assert chain_record_prob_table(3, 2)[1] == Fraction(1, 8)
    assert chain_record_prob_table(4, 1) == (1,)


def test_chain_prob_matches_naive_fraction_route():
    for d in range(1, 7):
        table = chain_record_prob_table(d, 80)
        for n in range(1, 81):
            assert table[n - 1] == naive_chain_prob(d, n)


def test_chain_prob_closed_forms_low_dimension():
    one, two = chain_record_prob_table(1, 59), chain_record_prob_table(2, 59)
    for n in range(2, 60):
        assert one[n - 1] == Fraction(1, n)
        assert two[n - 1] == Fraction(1, 2 * n)


def test_strong_prob():
    assert strong_record_prob(2, 3) == Fraction(1, 9)
    assert strong_record_prob(3, 1) == 1


def test_weak_prob():
    assert weak_record_prob_table(1, 4)[3] == Fraction(1, 4)
    assert weak_record_prob_table(5, 1) == (1,)
    for d in range(1, 7):
        table = weak_record_prob_table(d, 80)
        for n in range(1, 81):
            assert table[n - 1] == alternating_weak_prob(d, n)


def test_weak_prob_table_sums_to_the_harmonic_recursion():
    # two independent routes: the difference table of (k+1)**-d and the
    # iterated-harmonic recursion for the expected weak count
    for d in (2, 3):
        running = Fraction(0)
        for p, expected in zip(weak_record_prob_table(d, 300), expected_weak_count_table(d, 300)):
            running += p
            assert running == expected


def test_weak_prob_is_classical_at_dimension_one():
    assert weak_record_prob_table(1, 39) == tuple(Fraction(1, n) for n in range(1, 40))


def test_probability_ordering_small():
    for d in range(1, 4):
        chain = chain_record_prob_table(d, 30)
        weak = weak_record_prob_table(d, 30)
        for n in range(1, 31):
            assert strong_record_prob(d, n) <= chain[n - 1] <= weak[n - 1]


def test_chain_prob_strictly_decreasing():
    for d in range(1, 6):
        table = chain_record_prob_table(d, 100)
        for n in range(2, 100):
            assert table[n] < table[n - 1]


def test_cap_is_enforced_and_configurable(monkeypatch):
    with pytest.raises(CapExceededError):
        chain_record_prob_table(2, 501)
    assert chain_record_prob_table(1, 501, n_cap=501)[-1] == Fraction(1, 501)
    with pytest.raises(CapExceededError):
        weak_record_prob_table(2, 501)
    assert weak_record_prob_table(1, 501, n_cap=501)[-1] == Fraction(1, 501)
    with pytest.raises(ValueError):
        chain_record_prob_table(2, 0)
    # the other functions read the module's cap when they are called
    monkeypatch.setattr(exact, "DEFAULT_N_CAP", 10)
    assert expected_chain_count(1, 10) == sum(Fraction(1, n) for n in range(1, 11))
    with pytest.raises(CapExceededError, match="n=11 exceeds the cap 10"):
        expected_chain_count(1, 11)
    # the Poisson(5) mixture needs indices well past 10
    with pytest.raises(CapExceededError, match="past the cap 10"):
        poisson_weighted_chain_prob(1, 5.0)


# ---------------------------------------------------------------------------
# expected counts


def test_expected_counts_frozen_values():
    assert expected_strong_count(2, 3) == Fraction(49, 36)
    assert expected_weak_count_table(1, 3)[-1] == Fraction(11, 6)
    assert expected_chain_count(2, 3) == Fraction(17, 12)


def test_expected_weak_count_matches_enumeration():
    for d in range(1, 4):
        for n in range(1, 9):
            assert expected_weak_count_table(d, n)[-1] == enumerated_weak_count(d, n)


def test_expected_weak_count_table_matches_pointwise():
    table = expected_weak_count_table(3, 15)
    assert len(table) == 15
    for n in range(1, 16):
        assert table[n - 1] == enumerated_weak_count(3, n) if n <= 8 else True
        assert table[n - 1] == expected_weak_count_table(3, n)[-1]


def test_expected_chain_count_is_prefix_sum():
    table = chain_record_prob_table(3, 12)
    assert expected_chain_count(3, 12) == sum(table, Fraction(0))


# ---------------------------------------------------------------------------
# the moment function


def test_moment_series_at_zero():
    for d, beta in itertools.product((1, 2, 3), (1, 2)):
        assert moment_series(d, beta, 0.0) == 1.0


def test_moment_series_closed_form_dimension_one():
    # at d=1, beta=1 the coefficients collapse to 1/(k+1), so the series
    # sums to (1 - exp(-t))/t
    for t in (0.25, 1.0, 2.0, 7.5, 30.0):
        assert abs(moment_series(1, 1, t) - (1 - math.exp(-t)) / t) < 1e-12
    assert abs(moment_series(1, 1, 1.0) - 0.6321205588285577) < 1e-12


# (d, beta, t, value) computed by the arbitrary-precision series at the
# same working precision before it moved to the standard decimal module
MOMENT_SERIES_FROZEN = [
    (1, 1, 0.5, 0.7869386805747332),
    (1, 2, 30.0, 0.002222222222215776),
    (1, 3, 1000.0, 6e-09),
    (2, 1, 2.0, 0.28383382080915315),
    (2, 1, 200.0, 0.0025),
    (2, 2, 10.0, 0.006693603958325741),
    (2, 3, 0.1, 0.9106076689239772),
    (3, 1, 1.0, 0.43650718460390997),
    (3, 1, 200.0, 0.0016671619342738854),
    (3, 2, 30.0, 0.00041732273138506636),
    (3, 3, 500.0, 6.332151356289607e-09),
    (5, 1, 5.0, 0.02719124363321192),
    (5, 2, 100.0, 2.090419791315674e-05),
    (5, 3, 1000.0, 4.248147041893858e-10),
]


@pytest.mark.parametrize("d, beta, t, value", MOMENT_SERIES_FROZEN)
def test_moment_series_frozen_values(d, beta, t, value):
    assert moment_series(d, beta, t) == value


def test_moment_series_nonincreasing():
    grid = [0.0, 0.3, 1.0, 2.5, 6.0, 15.0]
    for d, beta in ((1, 1), (2, 1), (2, 2), (3, 2)):
        values = [moment_series(d, beta, t) for t in grid]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_moment_series_matches_poisson_mixture():
    lhs = moment_series(2, 1, 2.0)
    rhs = poisson_weighted_chain_prob(2, 2.0)
    assert abs(lhs - rhs) < 1e-12


def test_moment_series_digit_ceiling(monkeypatch):
    moment_series(2, 1, 50.0)  # default ceiling is ample
    monkeypatch.setattr(exact, "DEFAULT_DIGIT_CEILING", 30)
    with pytest.raises(CapExceededError, match="ceiling 30"):
        moment_series(2, 1, 50.0)


def test_moment_series_large_t_asymptotics():
    for d in (1, 2, 3):
        value = 1000.0 * moment_series(d, 1, 1000.0)
        assert abs(value - 1 / d) < 0.05 / d


def test_moment_series_rejects_bad_args():
    with pytest.raises(ValueError):
        moment_series(2, 0, 1.0)
    with pytest.raises(ValueError):
        moment_series(2, 1, -1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("call", [lambda t: moment_series(2, 1, t),
                                  lambda t: poisson_weighted_chain_prob(2, t)],
                         ids=["moment_series", "poisson_weighted_chain_prob"])
def test_moment_functions_reject_a_non_finite_t(call, t):
    # inf used to give nan or OverflowError, and nan a nan or a failed int()
    with pytest.raises(ValueError, match=f"t must be finite and nonnegative, got {t!r}"):
        call(t)


# ---------------------------------------------------------------------------
# limit moments


def test_limit_moment_values():
    assert limit_moment(1, 1) == 1
    assert limit_moment(2, 1) == Fraction(1, 2)
    assert limit_moment(2, 2) == Fraction(2, 3)
    assert limit_moment(3, 1) == Fraction(1, 3)
    assert limit_moment(3, 2) == Fraction(8, 21)
    # exponential moments at d=1: E[Y^beta] = beta!
    for beta in range(1, 6):
        assert limit_moment(1, beta) == math.factorial(beta)


def test_limit_moment_is_series_limit():
    # t**beta * m(t) approaches the limit moment
    for d, beta in ((2, 1), (2, 2), (3, 1)):
        value = 2000.0**beta * moment_series(d, beta, 2000.0)
        target = float(limit_moment(d, beta))
        assert abs(value - target) / target < 0.02


@pytest.mark.parametrize("beta", [0, -1, 1.0, 2.5, "1"])
@pytest.mark.parametrize("call", [lambda beta: moment_series(2, beta, 1.0),
                                  lambda beta: limit_moment(2, beta)],
                         ids=["moment_series", "limit_moment"])
def test_moment_functions_reject_a_beta_that_is_not_a_positive_integer(call, beta):
    message = f"beta must be a positive integer, got {beta!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(beta)


# ---------------------------------------------------------------------------
# height-factor distribution and its stationary version


def test_height_factor_cdf_values():
    assert height_factor_cdf(1, 0.3) == 0.3
    for d in (1, 2, 4):
        assert height_factor_cdf(d, 1.0) == 1.0


def test_height_factor_cdf_integrates_density():
    for d in (2, 3):
        for s in (0.1, 0.5, 0.9):
            integral, _ = scipy.integrate.quad(
                lambda u: height_factor_density(d, u), 1e-12, s
            )
            assert abs(integral - height_factor_cdf(d, s)) < 1e-8


def test_density_normalisation():
    for d in (1, 2, 3, 4):
        total, _ = scipy.integrate.quad(lambda s: height_factor_density(d, s), 1e-14, 1)
        assert abs(total - 1.0) < 1e-7


def test_stationary_density_dimension_one_is_uniform():
    for s in (0.05, 0.37, 0.99, 1.0):
        assert abs(stationary_density(1, s) - 1.0) < 1e-15


def test_stationary_density_normalisation():
    for d in (2, 3):
        total, _ = scipy.integrate.quad(lambda s: stationary_density(d, s), 1e-14, 1)
        assert abs(total - 1.0) < 1e-7


def test_stationary_density_equals_gamma_mixture():
    # change of variables of the sampling mixture: (1/d) sum_{i<d} x^i e^-x / i!
    # at x = -log s, divided by s
    for d in (1, 2, 3, 5):
        for s in (0.05, 0.3, 0.7, 0.95):
            x = -math.log(s)
            mixture = sum(x**i * math.exp(-x) / math.factorial(i) for i in range(d)) / d
            assert abs(stationary_density(d, s) - mixture / s) < 1e-12


def test_domain_errors():
    with pytest.raises(ValueError):
        height_factor_cdf(2, 0.0)
    with pytest.raises(ValueError):
        height_factor_cdf(2, 1.5)
    with pytest.raises(ValueError):
        stationary_density(2, -0.1)


# ---------------------------------------------------------------------------
# formatting


def test_format_decimal15():
    assert format_decimal15(Fraction(1, 4)) == "0.25"
    assert format_decimal15(Fraction(1, 6)) == "0.166666666666667"
    assert format_decimal15(Fraction(49, 36)) == "1.36111111111111"
    assert format_decimal15(Fraction(1)) == "1"
