"""Record probabilities, expected counts and limit moments, exactly.

The per-index chain and weak record probabilities are binomial transforms
``p_n = sum_k (-1)^k C(n-1, k) a_k`` that cancel catastrophically in double
precision (visibly wrong near n = 60).  Over one common integer
denominator, p_1..p_N are the heads of the rows of one finite-difference
table of the a_k (the discrete side of Rice's integrals; Flajolet &
Sedgewick, TCS 1995), so each table is built in exact rational arithmetic
from O(N^2) integer subtractions.  The continuous-argument moment function
is an alternating series whose intermediate terms reach ~exp(t); it is
evaluated in the standard library's arbitrary-precision decimals, with the
working precision chosen from that a-priori bound.

Resource ceilings are hard errors, never a silent fall back to floating
point.  The tables take an ``n_cap``; the other functions read
``DEFAULT_N_CAP`` or ``DEFAULT_DIGIT_CEILING`` when called.
"""

from __future__ import annotations

import math
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

DEFAULT_N_CAP = 500
DEFAULT_DIGIT_CEILING = 10_000
_MOMENT_TOL = 1e-12  # error target of moment_series
_POISSON_TAIL = 1e-12  # Poisson mass left out of poisson_weighted_chain_prob


class CapExceededError(ValueError):
    """A configured resource cap would be exceeded; refuse rather than degrade."""


def _check_dim(d: int) -> None:
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")


def _check_beta(beta: int) -> None:
    if not isinstance(beta, int) or beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta!r}")


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")


def _check_n(n: int, n_cap: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"index must be a positive integer, got {n!r}")
    if n > n_cap:
        raise CapExceededError(
            f"n={n} exceeds the cap {n_cap}; pass a larger n_cap to allow the "
            f"bigger exact computation"
        )


def _binomial_transform(numerators: list[int], denominator: int) -> tuple[Fraction, ...]:
    """Every ``p_{m+1} = sum_k (-1)^k C(m, k) a_k``, m < N, with a_k = numerators[k] / denominator.

    ``p_{m+1}`` heads row m of the difference table of the ``a_k``: O(N^2)
    integer subtractions and one ``Fraction`` per row.
    """
    b = list(numerators)
    out = []
    for m in range(len(b)):
        out.append(Fraction(b[0], denominator))
        for k in range(len(b) - 1 - m):
            b[k] -= b[k + 1]
    return tuple(out)


def chain_record_prob_table(
    d: int, n_max: int, *, n_cap: int = DEFAULT_N_CAP
) -> tuple[Fraction, ...]:
    """Chain-record probabilities for n = 1..n_max (index i holds n = i+1)."""
    _check_dim(d)
    _check_n(n_max, n_cap)
    # (n_max!)**d * prod_{j=2}^{k+1} (1 - j**-d) = prod_{j<=k+1} (j**d - 1) * prod_{j>k+1} j**d;
    # from k = n_max-1 down, each step trades one factor j**d - 1 for j**d
    numerators = [math.prod(j**d - 1 for j in range(2, n_max + 1))]
    for j in range(n_max, 1, -1):
        numerators.append(numerators[-1] // (j**d - 1) * j**d)
    return _binomial_transform(numerators[::-1], math.factorial(n_max) ** d)


def strong_record_prob(d: int, n: int) -> Fraction:
    """Exact probability of a strong record at index n: n**(-d)."""
    _check_dim(d)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"index must be a positive integer, got {n!r}")
    return Fraction(1, n**d)


def weak_record_prob_table(
    d: int, n_max: int, *, n_cap: int = DEFAULT_N_CAP
) -> tuple[Fraction, ...]:
    """Weak-record probabilities for n = 1..n_max (index i holds n = i+1)."""
    _check_dim(d)
    _check_n(n_max, n_cap)
    # a_k = (k+1)**-d over the common denominator lcm(1..n_max)**d
    lcm = math.lcm(*range(1, n_max + 1))
    return _binomial_transform([(lcm // (k + 1)) ** d for k in range(n_max)], lcm**d)


def expected_chain_count(d: int, n: int) -> Fraction:
    """Exact expected number of chain records among the first n marks.

    No closed form is available; this is the partial sum of the per-index
    probabilities, exact by linearity of expectation.
    """
    return sum(chain_record_prob_table(d, n, n_cap=DEFAULT_N_CAP), Fraction(0))


def moment_series(d: int, beta: int, t: float) -> float:
    """Moment of order beta of the continuous-time record-height process.

    Evaluates sum_k (-t)^k/k! * prod_{j<k}(1 - (j+beta+1)**-d) to within
    a fixed 1e-12.  The value is 1 at t=0 and nonincreasing in t.  Working
    precision grows linearly with t; past ``DEFAULT_DIGIT_CEILING`` decimal
    digits the evaluation refuses -- for such t use the large-t asymptotics
    instead (t**beta * m -> limit_moment(d, beta)).
    """
    _check_dim(d)
    _check_beta(beta)
    _check_time(t)
    if t == 0:
        return 1.0
    digits = int(t / math.log(10)) + int(-math.log10(_MOMENT_TOL)) + 21
    if digits > DEFAULT_DIGIT_CEILING:
        raise CapExceededError(
            f"t={t} needs ~{digits} working digits (> ceiling {DEFAULT_DIGIT_CEILING}); "
            f"use the asymptotic value t**-beta * limit_moment(d, beta) instead"
        )
    with localcontext() as ctx:
        ctx.prec = digits
        tm = Decimal(t)
        term = total = Decimal(1)
        cut = Decimal(1).scaleb(-(digits - 10))
        k = 1
        while True:
            # term *= (-t/k) * (1 - (k+beta)**-d), as one exact-integer ratio
            power = (k + beta) ** d
            term = term * -tm * (power - 1) / (k * power)
            total += term
            if k >= t and abs(term) < cut:
                break
            k += 1
        return float(total)


def poisson_weighted_chain_prob(d: int, t: float) -> float:
    """Chain-record probability at index 1 + Poisson(t), averaged exactly.

    This is an independent route to ``moment_series(d, 1, t)``; acceptance
    criterion c04 compares the two.
    The Poisson mixture is truncated once its remaining mass drops below
    1e-12.
    """
    _check_dim(d)
    _check_time(t)
    weight = math.exp(-t)
    weights = [weight]
    cum = weight
    n = 0
    while 1.0 - cum > _POISSON_TAIL:
        n += 1
        if n + 1 > DEFAULT_N_CAP:
            raise CapExceededError(
                f"Poisson truncation at t={t} needs indices past the cap {DEFAULT_N_CAP}"
            )
        weight *= t / n
        weights.append(weight)
        cum += weight
    table = chain_record_prob_table(d, n + 1, n_cap=DEFAULT_N_CAP)
    return float(sum(w * float(p) for w, p in zip(weights, table)))


def limit_moment(d: int, beta: int) -> Fraction:
    """Exact beta-th moment of the scaled record-height limit variable.

    Equals (beta!)^(d+1) / (beta*d) * prod_{r=2}^{beta} 1/(r^d - 1), the
    limit of t**beta * moment_series(d, beta, t) as t grows.
    """
    _check_dim(d)
    _check_beta(beta)
    den = beta * d
    for r in range(2, beta + 1):
        den *= r**d - 1
    return Fraction(math.factorial(beta) ** (d + 1), den)


def format_decimal15(value: Fraction) -> str:
    """Decimal form of an exact rational: 15 significant digits, half-even."""
    with localcontext() as ctx:
        ctx.prec = 15
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))
