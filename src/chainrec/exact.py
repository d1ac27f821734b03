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

Resource ceilings (``n_cap``, ``max_digits``) are hard errors, never a
silent fall back to floating point.
"""

from __future__ import annotations

import math
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

DEFAULT_N_CAP = 500
DEFAULT_DIGIT_CEILING = 10_000


class CapExceededError(ValueError):
    """A configured resource cap would be exceeded; refuse rather than degrade."""


def _check_dim(d: int) -> None:
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")


def _check_n(n: int, n_cap: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"index must be a positive integer, got {n!r}")
    if n > n_cap:
        raise CapExceededError(
            f"n={n} exceeds the cap {n_cap}; pass a larger n_cap to allow the "
            f"bigger exact computation"
        )


def mellin(d: int, lam) -> Fraction:
    """Moment E[V^lam] of the height factor V, exactly: (lam+1)**(-d).

    V is the height of a uniform mark, i.e. a product of d independent
    uniforms.  ``lam`` may be any rational except the pole at -1.
    """
    _check_dim(d)
    lam = Fraction(lam)
    if lam == -1:
        raise ValueError("pole at lam = -1")
    return (lam + 1) ** (-d)


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


def chain_record_prob(d: int, n: int, *, n_cap: int = DEFAULT_N_CAP) -> Fraction:
    """Exact probability that the mark at index n is a chain record."""
    return chain_record_prob_table(d, n, n_cap=n_cap)[n - 1]


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


def weak_record_prob(d: int, n: int, *, n_cap: int = DEFAULT_N_CAP) -> Fraction:
    """Exact probability of a weak record at index n."""
    return weak_record_prob_table(d, n, n_cap=n_cap)[n - 1]


def weak_record_prob_table(
    d: int, n_max: int, *, n_cap: int = DEFAULT_N_CAP
) -> tuple[Fraction, ...]:
    """Weak-record probabilities for n = 1..n_max (index i holds n = i+1)."""
    _check_dim(d)
    _check_n(n_max, n_cap)
    # a_k = (k+1)**-d over the common denominator lcm(1..n_max)**d
    lcm = math.lcm(*range(1, n_max + 1))
    return _binomial_transform([(lcm // (k + 1)) ** d for k in range(n_max)], lcm**d)


def expected_strong_count(d: int, n: int) -> Fraction:
    """Exact expected number of strong records among the first n marks."""
    _check_dim(d)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"index must be a positive integer, got {n!r}")
    return sum(Fraction(1, j**d) for j in range(1, n + 1))


def expected_weak_count(d: int, n: int, *, n_cap: int = DEFAULT_N_CAP) -> Fraction:
    """Exact expected number of weak records among the first n marks.

    The d-fold nested sum over ordered index tuples is evaluated by the
    iterated-harmonic recursion (O(d*n) rational operations); enumerating
    the tuples directly would be exponential in d.
    """
    return expected_weak_count_table(d, n, n_cap=n_cap)[n - 1]


def expected_weak_count_table(
    d: int, n_max: int, *, n_cap: int = DEFAULT_N_CAP
) -> tuple[Fraction, ...]:
    """Expected weak-record counts for n = 1..n_max in one recursion pass."""
    _check_dim(d)
    _check_n(n_max, n_cap)
    level = [Fraction(0)] * (n_max + 1)
    for j in range(1, n_max + 1):
        level[j] = level[j - 1] + Fraction(1, j)
    for _ in range(d - 1):
        nxt = [Fraction(0)] * (n_max + 1)
        for j in range(1, n_max + 1):
            nxt[j] = nxt[j - 1] + level[j] / j
        level = nxt
    return tuple(level[1:])


def expected_chain_count(d: int, n: int, *, n_cap: int = DEFAULT_N_CAP) -> Fraction:
    """Exact expected number of chain records among the first n marks.

    No closed form is available; this is the partial sum of the per-index
    probabilities, exact by linearity of expectation.
    """
    table = chain_record_prob_table(d, n, n_cap=n_cap)
    return sum(table, Fraction(0))


def moment_series(
    d: int,
    beta: int,
    t: float,
    *,
    tolerance: float = 1e-12,
    max_digits: int = DEFAULT_DIGIT_CEILING,
) -> float:
    """Moment of order beta of the continuous-time record-height process.

    Evaluates sum_k (-t)^k/k! * prod_{j<k}(1 - mellin(d, j+beta)) to within
    ``tolerance``.  The value is 1 at t=0 and nonincreasing in t.  Working
    precision grows linearly with t; past ``max_digits`` decimal digits the
    evaluation refuses -- for such t use the large-t asymptotics instead
    (t**beta * m -> limit_moment(d, beta)).
    """
    _check_dim(d)
    if not isinstance(beta, int) or beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta!r}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must be in (0, 1)")
    if t == 0:
        return 1.0
    digits = max(30, int(t / math.log(10)) + int(-math.log10(tolerance)) + 21)
    if digits > max_digits:
        raise CapExceededError(
            f"t={t} needs ~{digits} working digits (> ceiling {max_digits}); "
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


def poisson_weighted_chain_prob(
    d: int, t: float, *, tail_tol: float = 1e-12, n_cap: int = DEFAULT_N_CAP
) -> float:
    """Chain-record probability at index 1 + Poisson(t), averaged exactly.

    This is an independent route to ``moment_series(d, 1, t)`` -- the two
    must agree to ~1e-10, which is one of the acceptance cross-checks.
    The Poisson mixture is truncated once its remaining mass drops below
    ``tail_tol``.
    """
    _check_dim(d)
    if t < 0:
        raise ValueError("t must be nonnegative")
    weight = math.exp(-t)
    weights = [weight]
    cum = weight
    n = 0
    while 1.0 - cum > tail_tol:
        n += 1
        if n + 1 > n_cap:
            raise CapExceededError(
                f"Poisson truncation at t={t} needs indices past the cap {n_cap}"
            )
        weight *= t / n
        weights.append(weight)
        cum += weight
    table = chain_record_prob_table(d, n + 1, n_cap=n_cap)
    return float(sum(w * float(p) for w, p in zip(weights, table)))


def limit_moment(d: int, beta: int) -> Fraction:
    """Exact beta-th moment of the scaled record-height limit variable.

    Equals (beta!)^(d+1) / (beta*d) * prod_{r=2}^{beta} 1/(r^d - 1), the
    limit of t**beta * moment_series(d, beta, t) as t grows.
    """
    _check_dim(d)
    if not isinstance(beta, int) or beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta!r}")
    den = beta * d
    for r in range(2, beta + 1):
        den *= r**d - 1
    return Fraction(math.factorial(beta) ** (d + 1), den)


def height_factor_cdf(d: int, s: float) -> float:
    """CDF of the height factor (product of d uniforms) at s in (0, 1]."""
    _check_dim(d)
    if not 0 < s <= 1:
        raise ValueError(f"s must lie in (0, 1], got {s!r}")
    x = -math.log(s)
    acc = 0.0
    term = 1.0
    for i in range(d):
        if i:
            term *= x / i
        acc += term
    return s * acc


def height_factor_density(d: int, s: float) -> float:
    """Density (-log s)^(d-1)/(d-1)! of the height factor on (0, 1]."""
    _check_dim(d)
    if not 0 < s <= 1:
        raise ValueError(f"s must lie in (0, 1], got {s!r}")
    return (-math.log(s)) ** (d - 1) / math.factorial(d - 1)


def stationary_density(d: int, s: float) -> float:
    """Stationary density of the height stick-breaking chain: CDF(s)/(s*d)."""
    return height_factor_cdf(d, s) / (s * d)


def format_decimal15(value: Fraction) -> str:
    """Decimal form of an exact rational: 15 significant digits, half-even."""
    with localcontext() as ctx:
        ctx.prec = 15
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))
