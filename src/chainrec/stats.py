"""Summaries, the chi-square two-sample test and growth-slope fits.

These are what the commands and the acceptance criteria run: ``simulate``
and the z-valued criteria fold sampler chunks as they come through
:func:`summarize`, c06 and c11 compare integer counts with
:func:`two_sample_test`, whose p-values ``verify`` alone holds to a level,
and c10 fits log-n growth of :func:`moments` with :func:`regression_slope`.
Each returns numbers, never a verdict.  The chi-square tail is in closed
form, so the module needs numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class TestResult:
    """Statistic and p-value of a two-sample equality-in-distribution test."""

    statistic: float
    pvalue: float


def moments(chunks: Iterable[np.ndarray]) -> tuple[int, Any, Any]:
    """Count, mean and sum of squared deviations of the values along the chunks' last axis.

    Each chunk's figures are numpy's, merged in chunk order by the pairwise
    update of Chan, Golub & LeVeque (1983): one chunk gives numpy's bit for bit.
    """
    n, mean, m2 = 0, 0.0, 0.0
    for chunk in chunks:
        values = np.asarray(chunk, dtype=float)
        k = values.shape[-1]
        chunk_mean = values.mean(axis=-1)
        deviations = values - chunk_mean[..., None]
        delta = chunk_mean - mean
        n += k
        mean = mean + delta * (k / n)
        m2 = m2 + (deviations * deviations).sum(axis=-1) + delta * delta * ((n - k) * k / n)
    return n, mean, m2


def summarize(chunks: Iterable[np.ndarray]) -> tuple[Any, Any]:
    """Mean and standard error (None below 2 values) of :func:`moments`; ValueError if empty."""
    n, mean, m2 = moments(chunks)
    if not n:
        raise ValueError("summarize needs at least one value")
    return mean.tolist(), (np.sqrt(m2 / (n - 1)) / math.sqrt(n)).tolist() if n >= 2 else None


def _is_integer_valued(a: np.ndarray) -> bool:
    if np.issubdtype(a.dtype, np.integer):
        return True
    # an infinity equals its rounding but has no int64 bin
    return bool(np.all(np.isfinite(a) & (a == np.round(a))))


def two_sample_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Chi-square test of whether two integer-valued samples share a law.

    The bins are the values, adjacent values pooled until both expected
    counts of a bin reach 5.  Returns the statistic and the p-value; the
    caller decides which p-value fails.  Raises ValueError on a sample
    with a non-integer value.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    if not (_is_integer_valued(a) and _is_integer_valued(b)):
        raise ValueError("the chi-square test needs integer-valued samples")
    stat, pvalue = _chi_square_two_sample(a.astype(np.int64), b.astype(np.int64))
    return TestResult(statistic=float(stat), pvalue=float(pvalue))


def _chi_square_tail(dof: int, stat: float) -> float:
    """P(X > stat) for X chi-square with an integer ``dof`` >= 1, in closed form.

    Abramowitz & Stegun 26.4.4-26.4.5: with x = stat/2, an even ``dof``
    gives exp(-x) * sum_{r < dof/2} x^r / r!, an odd one gives
    erfc(sqrt(x)) + sqrt(2 stat / pi) exp(-x) * sum_{r < (dof-1)/2}
    stat^r / (3 * 5 * ... * (2r+1)).  Every term is positive, so the sums
    lose no precision to cancellation.
    """
    x = stat / 2
    if dof % 2 == 0:
        term = total = math.exp(-x)
        for r in range(1, dof // 2):
            term *= x / r
            total += term
        return total
    term = math.sqrt(2 * stat / math.pi) * math.exp(-x)
    total = math.erfc(math.sqrt(x))
    for r in range(1, (dof + 1) // 2):
        total += term
        term *= stat / (2 * r + 1)
    return total


def _chi_square_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    # counts per distinct value, in increasing value order
    values, index = np.unique(np.concatenate([a, b]), return_inverse=True)
    oa = np.bincount(index[: a.size], minlength=values.size).astype(float)
    ob = np.bincount(index[a.size :], minlength=values.size).astype(float)
    na, nb = float(a.size), float(b.size)
    share_a, share_b = na / (na + nb), nb / (na + nb)
    # pool adjacent value bins until both expected counts reach 5
    bins_a: list[float] = []
    bins_b: list[float] = []
    acc_a = acc_b = 0.0
    for x, y in zip(oa, ob):
        acc_a += x
        acc_b += y
        col = acc_a + acc_b
        if col * share_a >= 5 and col * share_b >= 5:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0.0
    if len(bins_a) < 2:
        return 0.0, 1.0  # everything pooled into one bin: no evidence either way
    bins_a[-1] += acc_a  # counts left over join the last bin
    bins_b[-1] += acc_b
    obs_a = np.array(bins_a)
    obs_b = np.array(bins_b)
    col_totals = obs_a + obs_b
    exp_a = col_totals * share_a
    exp_b = col_totals * share_b
    stat = float(((obs_a - exp_a) ** 2 / exp_a).sum() + ((obs_b - exp_b) ** 2 / exp_b).sum())
    dof = len(bins_a) - 1
    return stat, _chi_square_tail(dof, stat)


def regression_slope(pairs: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of (x, y) pairs, for log-n growth coefficients.

    Requires at least 4 points whose x values span at least log(100),
    i.e. two decades of the underlying horizon; the intercept absorbs
    additive constants so the slope isolates the growth coefficient.
    """
    pts = [(float(x), float(y)) for x, y in pairs]
    if len(pts) < 4:
        raise ValueError("need at least 4 grid points")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if xs.max() - xs.min() < math.log(100):
        raise ValueError("grid must span at least two decades")
    return float(np.polyfit(xs, ys, 1)[0])

