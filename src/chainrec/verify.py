"""The acceptance suite: every gated cross-check, grouped into suites.

Each criterion compares one computational route against an independent
oracle -- a closed form, the exact rational engine, or another simulator
of the same law -- and reports {value, target, tolerance, pass}.  Monte
Carlo comparisons use 4 standard errors; families of distribution tests
run at a Bonferroni-corrected 0.01.  c06 and c11 compare integer counts
with the chi-square test of :mod:`chainrec.stats`, whose tail is a closed
form.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import chainrec
from chainrec import exact, samplers, stats
from chainrec.rng import make_stream, stream_id

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    name: str
    oracle: str
    value: float
    target: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        # plain builtins only: numpy scalars serialize badly (JSON, repr)
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "target", float(self.target))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))

    def as_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "name": self.name,
            "oracle": self.oracle,
            "value": self.value,
            "target": self.target,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _tol(overrides, key, default):
    return float(overrides.get(key, default)) if overrides else default


def _bounded(criterion, name, oracle, value, overrides, default=0.0):
    """A result with target 0 that passes iff ``value`` is at most its tolerance."""
    tolerance = _tol(overrides, criterion, default)
    return CriterionResult(criterion, name, oracle, value, 0.0, tolerance, value <= tolerance)


def _significant(criterion, name, oracle, pvalue, alpha):
    """A result with target and tolerance ``alpha`` that passes iff ``pvalue >= alpha``."""
    return CriterionResult(criterion, name, oracle, pvalue, alpha, alpha, pvalue >= alpha)


def _z_score(sample_mean, target, sample_sd, n):
    se = sample_sd / math.sqrt(n)
    diff = abs(sample_mean - target)
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


# ---------------------------------------------------------------------------
# exact suite


def c01_closed_forms(seed, overrides, workers=1):
    """Chain probabilities equal 1/n at d=1 and 1/(2n) at d=2, n=2..200."""
    mismatches = 0
    table1 = exact.chain_record_prob_table(1, 200)
    table2 = exact.chain_record_prob_table(2, 200)
    for n in range(2, 201):
        if table1[n - 1] != Fraction(1, n):
            mismatches += 1
        if table2[n - 1] != Fraction(1, 2 * n):
            mismatches += 1
    return [
        _bounded(
            "c01",
            "exact chain probabilities match the low-dimension closed forms",
            "closed forms 1/n (d=1) and 1/(2n) (d=2), exact rational equality",
            mismatches,
            overrides,
        )
    ]


def c02_second_index(seed, overrides, workers=1):
    """p_2 = 2^-d exactly for d<=6; Monte Carlo beat frequency at d=3."""
    mismatches = sum(
        1 for d in range(1, 7) if exact.chain_record_prob(d, 2) != Fraction(1, 2**d)
    )
    reps = 100_000
    gen = make_stream(seed, stream_id("verify:c02:beat-frequency:d=3"))
    marks = gen.random((reps, 2, 3))
    first, second = marks[:, 0, :], marks[:, 1, :]
    beats = (second <= first).all(axis=1) & (second < first).any(axis=1)
    phat = float(beats.mean())
    z = _z_score(phat, 0.125, float(beats.std(ddof=1)), reps)
    value = z if mismatches == 0 else math.inf
    return [
        _bounded(
            "c02",
            "second-index record probability is 2^-d, exactly and empirically",
            "exact equality for d=1..6 plus direct-sampling beat frequency at d=3 "
            f"({reps} replicates, z-units)",
            value,
            overrides,
            4.0,
        )
    ]


def c03_probability_ordering(seed, overrides, workers=1):
    """strong <= chain <= weak probabilities, exact, n<=100 and d<=5."""
    violations = 0
    for d in range(1, 6):
        chain = exact.chain_record_prob_table(d, 100)
        weak = exact.weak_record_prob_table(d, 100)
        for n in range(1, 101):
            if not exact.strong_record_prob(d, n) <= chain[n - 1] <= weak[n - 1]:
                violations += 1
    return [
        _bounded(
            "c03",
            "record probabilities are ordered strong <= chain <= weak",
            "exact rational comparison for n <= 100, d <= 5",
            violations,
            overrides,
        )
    ]


def c04_poisson_mixture(seed, overrides, workers=1):
    """Moment function equals the Poisson-weighted exact probabilities."""
    worst = 0.0
    for d, t in product((1, 2, 3), (0.5, 1.0, 2.0, 5.0)):
        lhs = exact.moment_series(d, 1, t)
        rhs = exact.poisson_weighted_chain_prob(d, t)
        worst = max(worst, abs(lhs - rhs))
    return [
        _bounded(
            "c04",
            "series moment function agrees with the Poisson mixture of exact probabilities",
            "two independent exact routes, max abs difference over d<=3, t in {0.5,1,2,5}",
            worst,
            overrides,
            1e-10,
        )
    ]


def _renewal_integral(d, beta, t):
    """int_0^1 s**beta m(t s) f_d(s) ds (f_d the height-factor density) by Gauss-Laguerre.

    s = exp(-u) gives exp(-(beta+1) u) u**(d-1)/(d-1)! m(t exp(-u)) on (0, inf); 40
    nodes reach c05's finite-difference floor (~8e-12), where 20 leave 2.4e-8.
    """
    from numpy.polynomial.laguerre import laggauss

    u, w = laggauss(40)
    return sum(
        wi * math.exp(-beta * ui) * ui ** (d - 1) / math.factorial(d - 1)
        * exact.moment_series(d, beta, t * math.exp(-ui))
        for ui, wi in zip(u.tolist(), w.tolist())
    )


def c05_renewal_equation(seed, overrides, workers=1):
    """The moment function satisfies its renewal-type ODE to 1e-6."""
    worst = 0.0
    for d, beta, t in product((1, 2), (1, 2), (0.5, 1.0, 2.0)):
        h = 1e-5
        m_plus = exact.moment_series(d, beta, t + h)
        m_minus = exact.moment_series(d, beta, t - h)
        deriv = (m_plus - m_minus) / (2 * h)
        m_t = exact.moment_series(d, beta, t)
        worst = max(worst, abs(deriv + m_t - _renewal_integral(d, beta, t)))
    return [
        _bounded(
            "c05",
            "moment function satisfies its renewal-type differential equation",
            "central finite difference plus Gauss-Laguerre residual, beta<=2, d<=2, t in {0.5,1,2}",
            worst,
            overrides,
            1e-6,
        )
    ]


# ---------------------------------------------------------------------------
# oracle suite


def c06_three_simulators(seed, overrides, workers=1):
    """Direct, sojourn and insertion counts are pairwise indistinguishable."""
    reps = 100_000
    family_alpha = _tol(overrides, "c06", 0.01)
    combos = list(product((1, 2, 3), (10, 100)))
    pairs = [("direct", "sojourn"), ("direct", "insertion"), ("sojourn", "insertion")]
    alpha = stats.bonferroni(family_alpha, len(combos) * len(pairs))
    min_p = 1.0
    for d, n in combos:
        counts = {
            m: samplers.sample_chain_counts(
                m, d, n, reps, seed=seed, label=f"verify:c06:{m}:d={d}:n={n}", workers=workers
            )
            for m in ("direct", "sojourn", "insertion")
        }
        for m1, m2 in pairs:
            res = stats.two_sample_test(counts[m1], counts[m2], significance=alpha)
            min_p = min(min_p, res.pvalue)
    return [
        _significant(
            "c06",
            "three-simulator distributional agreement on the record count",
            "pairwise chi-square over pooled bins, 18 tests, "
            f"{reps} replicates each; pass iff min p-value >= {alpha:.2e}",
            min_p,
            alpha,
        )
    ]


def c07_monte_carlo_vs_exact(seed, overrides, workers=1):
    """Empirical record frequencies and count means match the exact engine."""
    reps = 100_000
    worst = 0.0
    for d in (1, 2, 3):
        totals = samplers.sample_chain_flag_totals(
            d, 20, reps, seed=seed, label=f"verify:c07:flags:d={d}", workers=workers
        )
        table = exact.chain_record_prob_table(d, 20)
        for n in range(1, 21):
            phat = totals[n - 1] / reps
            target = float(table[n - 1])
            sd = math.sqrt(phat * (1 - phat))
            worst = max(worst, _z_score(phat, target, sd, reps))
    for d in (1, 2, 3):
        counts = samplers.sample_chain_counts(
            "direct", d, 100, reps, seed=seed, label=f"verify:c07:mean:d={d}", workers=workers
        )
        target = float(exact.expected_chain_count(d, 100))
        worst = max(worst, _z_score(float(counts.mean()), target, float(counts.std(ddof=1)), reps))
    return [
        _bounded(
            "c07",
            "direct-simulation frequencies and means match the exact engine",
            "exact per-index probabilities (n<=20, d<=3) and the exact expected count "
            f"at n=100, {reps} replicates, z-units",
            worst,
            overrides,
            4.0,
        )
    ]


def c08_limit_moments(seed, overrides, workers=1):
    """Sampled limit-variable moments match their exact closed forms."""
    reps = 1_000_000
    worst = 0.0
    for d in (1, 2, 3):
        values, _ = samplers.sample_limit_variables(
            d, reps, tolerance=1e-6, seed=seed, label=f"verify:c08:d={d}", workers=workers
        )
        for beta, data in ((1, values), (2, values**2)):
            target = float(exact.limit_moment(d, beta))
            worst = max(worst, _z_score(float(data.mean()), target, float(data.std(ddof=1)), reps))
    return [
        _bounded(
            "c08",
            "limit-variable moments match the exact moment formula",
            f"series sampler vs exact moments, beta<=2, d<=3, {reps} draws, z-units",
            worst,
            overrides,
            4.0,
        )
    ]


def c09_compensator(seed, overrides, workers=1):
    """Path integral of the paced height process compensates its jump count."""
    reps = 100_000
    counts, integrals, _ = samplers.sample_poisson_paced_terminals(
        2, 5.0, reps, seed=seed, label="verify:c09", workers=workers
    )
    diff = integrals - counts
    z = _z_score(float(diff.mean()), 0.0, float(diff.std(ddof=1)), reps)
    return [
        _bounded(
            "c09",
            "path integral compensates the jump count of the paced process",
            f"paired mean difference over {reps} paths at t=5, d=2, z-units",
            z,
            overrides,
            4.0,
        )
    ]


# ---------------------------------------------------------------------------
# asymptotic suite


def c10_growth_slopes(seed, overrides, workers=1):
    """Count means and variances grow like log(n)/d and log(n)/d^2."""
    reps = 10_000
    horizons = (10**3, 10**4, 10**5, 10**6)
    worst_mean = 0.0
    worst_var = 0.0
    for d in (1, 2):
        mean_pairs = []
        var_pairs = []
        for n in horizons:
            counts = samplers.sample_chain_counts(
                "sojourn", d, n, reps, seed=seed, label=f"verify:c10:d={d}:n={n}", workers=workers
            )
            mean_pairs.append((math.log(n), float(counts.mean())))
            var_pairs.append((math.log(n), float(counts.var(ddof=1))))
        slope_mean = stats.regression_slope(mean_pairs)
        slope_var = stats.regression_slope(var_pairs)
        worst_mean = max(worst_mean, abs(slope_mean - 1 / d) * d)
        worst_var = max(worst_var, abs(slope_var - 1 / d**2) * d**2)
    return [
        _bounded(
            "c10-mean",
            "mean record count grows with slope 1/d in log n",
            "least-squares slope over n in {1e3..1e6}, sojourn simulator, "
            f"{reps} replicates per point, relative error",
            worst_mean,
            overrides,
            0.05,
        ),
        _bounded(
            "c10-var",
            "count variance grows with slope 1/d^2 in log n",
            "least-squares slope over n in {1e3..1e6}, sojourn simulator, "
            f"{reps} replicates per point, relative error",
            worst_var,
            overrides,
            0.15,
        ),
    ]


# ---------------------------------------------------------------------------
# limit suite


def c11_hyperbolic_invariance(seed, overrides, workers=1):
    """Window counts of the limit process are invariant under (s,t)->(2s,t/2)."""
    reps = 10_000
    alpha = _tol(overrides, "c11", 0.01)
    base = (0.25, 1.0, 4.0)
    image = (0.5, 2.0, 2.0)  # the base window mapped by (s, t) -> (2s, t/2)
    counts_a = samplers.sample_window_counts(
        2, base, reps, seed=seed, label="verify:c11:base", workers=workers
    )
    counts_b = samplers.sample_window_counts(
        2, image, reps, seed=seed, label="verify:c11:image", workers=workers
    )
    res = stats.two_sample_test(counts_a, counts_b, significance=alpha)
    return [
        _significant(
            "c11",
            "limit-process window counts are invariant under hyperbolic shifts",
            f"chi-square on counts in a window vs its (2s, t/2) image, {reps} draws each",
            res.pvalue,
            alpha,
        )
    ]


# ---------------------------------------------------------------------------
# reproducibility suite


def _cli(args, cwd):
    """Run ``python -m chainrec *args`` in a fresh interpreter, in ``cwd``.

    The child's ``PYTHONPATH`` starts with the absolute directory that holds
    this ``chainrec`` package, so the child runs the caller's code: a
    relative ``PYTHONPATH`` entry (which would not resolve from ``cwd``) or
    another installed copy cannot take its place.  A failed child raises
    :class:`ChildProcessError` with the child's stderr.
    """
    import subprocess

    import_root = str(Path(chainrec.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join([import_root, inherited]) if inherited else import_root
    proc = subprocess.run(
        [sys.executable, "-m", "chainrec", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise ChildProcessError(f"chainrec {' '.join(args)} failed:\n{proc.stderr}")


def c12_reproducibility(seed, overrides, workers=1):
    """Repeated CLI runs with one seed are byte-identical, any worker count.

    Each of the six runs is a separate ``python -m chainrec`` process that
    imports the caller's package (see :func:`_cli`), so nothing cached in
    this interpreter is reused and per-process state such as the string-hash
    seed differs between the runs being compared.
    """
    import tempfile

    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = [
            (
                "simulate",
                ["simulate", "--what", "chain-count", "--method", "sojourn", "--d", "2",
                 "--n", "100", "--replicates", "2000", "--seed", str(seed)],
                [["--workers", "1"], ["--workers", "4"]],
                ["{out}.json", "{out}.csv"],
            ),
            (
                "exact",
                ["exact", "--d", "2", "--n", "20"],
                [[], []],
                ["{out}"],
            ),
            (
                "limits",
                ["limits", "--kind", "y", "--d", "2", "--replicates", "500",
                 "--seed", str(seed)],
                [["--workers", "1"], ["--workers", "3"]],
                ["{out}"],
            ),
        ]
        for name, base_args, variants, patterns in runs:
            blobs = []
            for i, extra in enumerate(variants):
                out = root / f"{name}_{i}"
                _cli([*base_args, *extra, "--out", str(out)], root)
                blobs.append(
                    b"".join(Path(p.format(out=out)).read_bytes() for p in patterns)
                )
            if blobs[0] != blobs[1]:
                mismatches += 1
    return [
        _bounded(
            "c12",
            "identical seeds give byte-identical outputs under any worker count",
            "CLI reruns of simulate/exact/limits compared byte for byte",
            mismatches,
            overrides,
        )
    ]


# ---------------------------------------------------------------------------
# registry

CRITERIA = {
    "c01": c01_closed_forms,
    "c02": c02_second_index,
    "c03": c03_probability_ordering,
    "c04": c04_poisson_mixture,
    "c05": c05_renewal_equation,
    "c06": c06_three_simulators,
    "c07": c07_monte_carlo_vs_exact,
    "c08": c08_limit_moments,
    "c09": c09_compensator,
    "c10": c10_growth_slopes,
    "c11": c11_hyperbolic_invariance,
    "c12": c12_reproducibility,
}

SUITES = {
    "exact": ["c01", "c02", "c03", "c04", "c05"],
    "oracle": ["c06", "c07", "c08", "c09"],
    "asymptotic": ["c10"],
    "limit": ["c11"],
    "repro": ["c12"],
}
SUITES["all"] = [c for suite in ("exact", "oracle", "asymptotic", "limit", "repro") for c in SUITES[suite]]

TOLERANCE_KEYS = (*(f"c{i:02d}" for i in range(1, 10)), "c10-mean", "c10-var", "c11", "c12")


def run_suite(
    suite: str,
    seed: int = DEFAULT_SEED,
    overrides: dict | None = None,
    workers: int = 1,
    report=None,
) -> list[CriterionResult]:
    """Run one named suite; ``report`` (if given) receives progress lines."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    for key, value in (overrides or {}).items():
        if key not in TOLERANCE_KEYS:
            raise ValueError(f"unknown tolerance key {key!r}; choose from {list(TOLERANCE_KEYS)}")
        if math.isnan(value):
            raise ValueError(f"tolerance {key} must be a number, got {value!r}")
        # c06 and c11 take the family-wise level of their chi-square tests;
        # the others bound an error or a count, which is never negative
        if key in ("c06", "c11"):
            if not 0 < value < 1:
                raise ValueError(f"tolerance {key} must be a level in (0, 1), got {value!r}")
        elif value < 0:
            raise ValueError(f"tolerance {key} must be at least 0, got {value!r}")
    results: list[CriterionResult] = []
    for cid in SUITES[suite]:
        for res in CRITERIA[cid](seed, overrides or {}, workers):
            results.append(res)
            if report is not None:
                status = "PASS" if res.passed else "FAIL"
                report(
                    f"{status} {res.criterion}: {res.name} "
                    f"(value={res.value:.6g}, target={res.target:.6g}, tol={res.tolerance:.6g})"
                )
    return results
