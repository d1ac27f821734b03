"""The acceptance suite: every gated cross-check, grouped into suites.

Each criterion compares one computational route against an independent
oracle -- a closed form, the exact rational engine, or another simulator
of the same law -- and returns its measurements, one ``(key, name,
oracle, values)`` per tolerance key.  ``values`` lists every raw error,
z-value, count or p-value the criterion computed, unreduced: :func:`_judge`
alone turns a measurement into {value, target, tolerance, pass}, by the
key's kind and default in :data:`TOLERANCES`; the chi-square tests of
:mod:`chainrec.stats` give p-values, not verdicts.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

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

    def as_dict(self) -> dict:
        """The fields by name, with ``passed`` reported as ``pass``."""
        fields = asdict(self)
        fields["pass"] = fields.pop("passed")
        return fields


# each tolerance key: whether it is a level, a p-value floor in (0, 1), or a
# bound, a ceiling on an error or a count (never negative); and its default
TOLERANCES = {
    "c01": ("bound", 0.0),
    "c02": ("bound", 4.0),
    "c03": ("bound", 0.0),
    "c04": ("bound", 1e-10),
    "c05": ("bound", 1e-6),
    "c06": ("level", 0.01),
    "c07": ("bound", 4.0),
    "c08": ("bound", 4.0),
    "c09": ("bound", 4.0),
    "c10-mean": ("bound", 0.05),
    "c10-var": ("bound", 0.15),
    "c11": ("level", 0.01),
    "c11-mean": ("bound", 4.0),
    "c12": ("bound", 0.0),
}


def _judge(measurement, overrides):
    """The result of a ``(key, name, oracle, values)`` by the key's rule in :data:`TOLERANCES`.

    The suite's one reducer, and the one constructor of
    :class:`CriterionResult`.  ``values`` is a non-empty list.  A bound's
    values are errors, z-values or counts, which pass iff their max is at
    most the tolerance.  A level's values are k p-values, which pass iff
    their min reaches level/k (Bonferroni: k tests at level/k each hold the
    family at the level).  A NaN among the values is the value, and fails.
    The value is reported as a Python float: numpy scalars serialize badly
    (JSON, repr).
    """
    key, name, oracle, values = measurement
    kind, default = TOLERANCES[key]
    tolerance = float(overrides.get(key, default))
    # max and min would skip a NaN unless it came first
    value = math.nan if any(map(math.isnan, values)) else float(
        (max if kind == "bound" else min)(values))
    if kind == "bound":
        return CriterionResult(key, name, oracle, value, 0.0, tolerance, value <= tolerance)
    alpha = tolerance / len(values)
    if len(values) > 1:
        oracle += f"; pass iff min p-value >= {alpha:.2e}"
    return CriterionResult(key, name, oracle, value, alpha, alpha, value >= alpha)


def _z_score(mean, se, target):
    if se == 0.0:
        return 0.0 if mean == target else math.inf
    return abs(mean - target) / se


# ---------------------------------------------------------------------------
# exact suite


def c01_closed_forms(seed, workers=1):
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
        (
            "c01",
            "exact chain probabilities match the low-dimension closed forms",
            "closed forms 1/n (d=1) and 1/(2n) (d=2), exact rational equality",
            [mismatches],
        )
    ]


def c02_second_index(seed, workers=1):
    """p_2 = 2^-d exactly for d<=6; Monte Carlo beat frequency at d=3."""
    mismatches = sum(
        1 for d in range(1, 7) if exact.chain_record_prob_table(d, 2)[1] != Fraction(1, 2**d)
    )
    reps = 100_000
    gen = make_stream(seed, stream_id("verify:c02:beat-frequency:d=3"))
    marks = gen.random((reps, 2, 3))
    first, second = marks[:, 0, :], marks[:, 1, :]
    beats = (second <= first).all(axis=1) & (second < first).any(axis=1)
    z = _z_score(*stats.summarize([beats]), 0.125)
    return [
        (
            "c02",
            "second-index record probability is 2^-d, exactly and empirically",
            "exact equality for d=1..6 plus direct-sampling beat frequency at d=3 "
            f"({reps} replicates, z-units)",
            [z] + [math.inf] * mismatches,  # an exact mismatch is an infinite z
        )
    ]


def c03_probability_ordering(seed, workers=1):
    """strong <= chain <= weak probabilities, exact, n<=100 and d<=5."""
    violations = 0
    for d in range(1, 6):
        chain = exact.chain_record_prob_table(d, 100)
        weak = exact.weak_record_prob_table(d, 100)
        for n in range(1, 101):
            if not exact.strong_record_prob(d, n) <= chain[n - 1] <= weak[n - 1]:
                violations += 1
    return [
        (
            "c03",
            "record probabilities are ordered strong <= chain <= weak",
            "exact rational comparison for n <= 100, d <= 5",
            [violations],
        )
    ]


def c04_poisson_mixture(seed, workers=1):
    """Moment function equals the Poisson-weighted exact probabilities."""
    errors = [
        abs(exact.moment_series(d, 1, t) - exact.poisson_weighted_chain_prob(d, t))
        for d, t in product((1, 2, 3), (0.5, 1.0, 2.0, 5.0))
    ]
    return [
        (
            "c04",
            "series moment function agrees with the Poisson mixture of exact probabilities",
            "two independent exact routes, max abs difference over d<=3, t in {0.5,1,2,5}",
            errors,
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


def c05_renewal_equation(seed, workers=1):
    """The moment function satisfies its renewal-type ODE."""
    errors = []
    for d, beta, t in product((1, 2), (1, 2), (0.5, 1.0, 2.0)):
        h = 1e-5
        m_plus = exact.moment_series(d, beta, t + h)
        m_minus = exact.moment_series(d, beta, t - h)
        deriv = (m_plus - m_minus) / (2 * h)
        m_t = exact.moment_series(d, beta, t)
        errors.append(abs(deriv + m_t - _renewal_integral(d, beta, t)))
    return [
        (
            "c05",
            "moment function satisfies its renewal-type differential equation",
            "central finite difference plus Gauss-Laguerre residual, beta<=2, d<=2, t in {0.5,1,2}",
            errors,
        )
    ]


# ---------------------------------------------------------------------------
# oracle suite


def c06_three_simulators(seed, workers=1):
    """The simulators agree (c06); their direct draws at n=100 match the exact engine (c07)."""
    reps = 100_000
    pairs = [("direct", "sojourn"), ("direct", "insertion"), ("sojourn", "insertion")]
    pvalues, frequency_zs, mean_zs = [], [], []
    for d, n in product((1, 2, 3), (10, 100)):
        direct, totals = zip(*samplers.sample_chain_flag_totals(
            d, n, reps, seed=seed, label=f"verify:c06:direct:d={d}:n={n}", workers=workers
        ))
        counts = {"direct": np.concatenate(direct)} | {
            m: np.concatenate([*samplers.sample_chain_counts(
                m, d, n, reps, seed=seed, label=f"verify:c06:{m}:d={d}:n={n}", workers=workers
            )])
            for m in ("sojourn", "insertion")
        }
        pvalues += [stats.two_sample_test(counts[m1], counts[m2]).pvalue for m1, m2 in pairs]
        if n == 100:
            table = exact.chain_record_prob_table(d, 20)
            for phat, p in zip((sum(totals)[:20] / reps).tolist(), table):
                se = math.sqrt(phat * (1 - phat)) / math.sqrt(reps)
                frequency_zs.append(_z_score(phat, se, float(p)))
            target = float(exact.expected_chain_count(d, 100))
            mean_zs.append(_z_score(*stats.summarize([counts["direct"]]), target))
    return [
        (
            "c06",
            "three-simulator distributional agreement on the record count",
            f"pairwise chi-square over pooled bins, 18 tests, {reps} replicates each",
            pvalues,
        ),
        (
            "c07",
            "direct-simulation frequencies and means match the exact engine",
            "exact per-index probabilities (n<=20, d<=3) and the exact expected count "
            f"at n=100, {reps} replicates, z-units",
            frequency_zs + mean_zs,
        ),
    ]


def c08_limit_moments(seed, workers=1):
    """Sampled limit-variable moments match their exact closed forms."""
    reps = 1_000_000
    zs = []
    for d in (1, 2, 3):
        chunks = samplers.sample_limit_variables(
            d, reps, tolerance=1e-6, seed=seed, label=f"verify:c08:d={d}", workers=workers
        )
        summaries = zip(*stats.summarize(np.stack((y, y * y)) for y, _ in chunks))
        for beta, (mean, se) in zip((1, 2), summaries):
            zs.append(_z_score(mean, se, float(exact.limit_moment(d, beta))))
    return [
        (
            "c08",
            "limit-variable moments match the exact moment formula",
            f"series sampler vs exact moments, beta<=2, d<=3, {reps} draws, z-units",
            zs,
        )
    ]


def c09_compensator(seed, workers=1):
    """Path integral of the paced height process compensates its jump count."""
    reps = 100_000
    chunks = samplers.sample_poisson_paced_terminals(
        2, 5.0, reps, seed=seed, label="verify:c09", workers=workers
    )
    z = _z_score(*stats.summarize(integrals - counts for counts, integrals, _ in chunks), 0.0)
    return [
        (
            "c09",
            "path integral compensates the jump count of the paced process",
            f"paired mean difference over {reps} paths at t=5, d=2, z-units",
            [z],
        )
    ]


# ---------------------------------------------------------------------------
# asymptotic suite


def c10_growth_slopes(seed, workers=1):
    """Count means and variances grow like log(n)/d and log(n)/d^2."""
    reps = 10_000
    horizons = (10**3, 10**4, 10**5, 10**6)
    mean_errors = []
    var_errors = []
    for d in (1, 2):
        mean_pairs = []
        var_pairs = []
        for n in horizons:
            count, mean, m2 = stats.moments(samplers.sample_chain_counts(
                "sojourn", d, n, reps, seed=seed, label=f"verify:c10:d={d}:n={n}", workers=workers
            ))
            mean_pairs.append((math.log(n), mean))
            var_pairs.append((math.log(n), m2 / (count - 1)))
        mean_errors.append(abs(stats.regression_slope(mean_pairs) - 1 / d) * d)
        var_errors.append(abs(stats.regression_slope(var_pairs) - 1 / d**2) * d**2)
    oracle = ("least-squares slope over n in {1e3..1e6}, sojourn simulator, "
              f"{reps} replicates per point, relative error")
    return [
        ("c10-mean", "mean record count grows with slope 1/d in log n", oracle, mean_errors),
        ("c10-var", "count variance grows with slope 1/d^2 in log n", oracle, var_errors),
    ]


# ---------------------------------------------------------------------------
# limit suite


# the exact mean count of c11's base window at d=2, and so of its image
_C11_WINDOW_MEAN = 0.5318795864410745


def c11_hyperbolic_invariance(seed, workers=1):
    """Window counts of the limit process are invariant under (s,t)->(2s,t/2).

    The same draws bound each window's mean count against its exact value.
    """
    reps = 10_000
    windows = {"base": (0.25, 1.0, 4.0), "image": (0.5, 2.0, 2.0)}
    counts_a, counts_b = (np.concatenate([*samplers.sample_window_counts(
        2, window, reps, seed=seed, label=f"verify:c11:{name}", workers=workers
    )]) for name, window in windows.items())
    return [
        (
            "c11",
            "limit-process window counts are invariant under hyperbolic shifts",
            f"chi-square on counts in a window vs its (2s, t/2) image, {reps} draws each",
            [stats.two_sample_test(counts_a, counts_b).pvalue],
        ),
        (
            "c11-mean",
            "limit-process window counts have the exact mean",
            f"|z| of each window's mean count vs the exact mean {_C11_WINDOW_MEAN:.6f}",
            [_z_score(*stats.summarize([c]), _C11_WINDOW_MEAN) for c in (counts_a, counts_b)],
        ),
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


def c12_reproducibility(seed, workers=1):
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
        (
            "c12",
            "identical seeds give byte-identical outputs under any worker count",
            "CLI reruns of simulate/exact/limits compared byte for byte",
            [mismatches],
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
    "c08": c08_limit_moments,
    "c09": c09_compensator,
    "c10": c10_growth_slopes,
    "c11": c11_hyperbolic_invariance,
    "c12": c12_reproducibility,
}

SUITES = {
    "exact": ["c01", "c02", "c03", "c04", "c05"],
    "oracle": ["c06", "c08", "c09"],
    "asymptotic": ["c10"],
    "limit": ["c11"],
    "repro": ["c12"],
}
SUITES["all"] = [c for suite in ("exact", "oracle", "asymptotic", "limit", "repro") for c in SUITES[suite]]


def run_suite(
    suite: str,
    seed: int = DEFAULT_SEED,
    overrides: dict | None = None,
    workers: int = 1,
    report=None,
) -> list[CriterionResult]:
    """Run and judge one named suite; ``report`` (if given) receives progress lines."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    # c01-c05 start no sampler, whose driver would reject the count itself
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # every override is checked, whether or not the suite reads it
    for key, value in (overrides or {}).items():
        if key not in TOLERANCES:
            raise ValueError(f"unknown tolerance key {key!r}; choose from {list(TOLERANCES)}")
        if math.isnan(value):
            raise ValueError(f"tolerance {key} must be a number, got {value!r}")
        if TOLERANCES[key][0] == "level":
            if not 0 < value < 1:
                raise ValueError(f"tolerance {key} must be a level in (0, 1), got {value!r}")
        elif value < 0:
            raise ValueError(f"tolerance {key} must be at least 0, got {value!r}")
    results: list[CriterionResult] = []
    for cid in SUITES[suite]:
        for measurement in CRITERIA[cid](seed, workers):
            res = _judge(measurement, overrides or {})
            results.append(res)
            if report is not None:
                status = "PASS" if res.passed else "FAIL"
                report(
                    f"{status} {res.criterion}: {res.name} "
                    f"(value={res.value:.6g}, target={res.target:.6g}, tol={res.tolerance:.6g})"
                )
    return results
