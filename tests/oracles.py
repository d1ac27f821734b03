"""Independent scalar oracles that the tests check the package against.

Each function computes by a route the package does not take: a direct
Python loop, a plain rational recursion or a closed form.  None of them is
run by a ``chainrec`` command or criterion, so they live with the tests.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Sequence

Point = Sequence[float]


# ---------------------------------------------------------------------------
# the exact laws


def mellin(d: int, lam) -> Fraction:
    """Moment E[V^lam] of the height factor V, exactly: (lam+1)**(-d).

    V is the height of a uniform mark, i.e. a product of d independent
    uniforms.  ``lam`` may be any rational except the pole at -1.
    """
    lam = Fraction(lam)
    if lam == -1:
        raise ValueError("pole at lam = -1")
    return (lam + 1) ** (-d)


def alternating_weak_prob(d: int, n: int) -> Fraction:
    """Weak-record probability at index n by its alternating binomial sum."""
    total = Fraction(0)
    for k in range(n):
        term = math.comb(n - 1, k) * Fraction(1, (k + 1) ** d)
        total += -term if k % 2 else term
    return total


def expected_strong_count(d: int, n: int) -> Fraction:
    """Expected number of strong records among the first n marks: sum of j**-d."""
    return sum(Fraction(1, j**d) for j in range(1, n + 1))


def expected_weak_count_table(d: int, n_max: int) -> tuple[Fraction, ...]:
    """Expected weak-record counts for n = 1..n_max by the iterated-harmonic recursion.

    The d-fold nested sum over ordered index tuples takes O(d*n) rational
    operations this way; enumerating the tuples would be exponential in d.
    """
    level = [Fraction(0)] * (n_max + 1)
    for j in range(1, n_max + 1):
        level[j] = level[j - 1] + Fraction(1, j)
    for _ in range(d - 1):
        nxt = [Fraction(0)] * (n_max + 1)
        for j in range(1, n_max + 1):
            nxt[j] = nxt[j - 1] + level[j] / j
        level = nxt
    return tuple(level[1:])


def _check_unit(s: float) -> None:
    if not 0 < s <= 1:
        raise ValueError(f"s must lie in (0, 1], got {s!r}")


def height_factor_cdf(d: int, s: float) -> float:
    """CDF of the height factor (product of d uniforms) at s in (0, 1]."""
    _check_unit(s)
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
    _check_unit(s)
    return (-math.log(s)) ** (d - 1) / math.factorial(d - 1)


def stationary_density(d: int, s: float) -> float:
    """Stationary density of the height stick-breaking chain: CDF(s)/(s*d)."""
    return height_factor_cdf(d, s) / (s * d)


# ---------------------------------------------------------------------------
# the partial order and chain records


def dominates(x: Point, y: Point) -> bool:
    """True when ``x`` beats ``y``: the points differ and x[i] <= y[i] for all i."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    strict = False
    for a, b in zip(x, y):
        if a > b:
            return False
        if a < b:
            strict = True
    return strict


def log_transform(marks: Iterable[Point]) -> list[tuple[float, ...]]:
    """Map every mark to its componentwise negative logarithm.

    Lower chain records of the input are exactly the upper chain records
    of the image (:func:`chain_record_indices` with ``upper=True``).
    Raises on nonpositive coordinates.
    """
    out = []
    for i, m in enumerate(marks, 1):
        if any(c <= 0.0 for c in m):
            raise ValueError(f"mark {i}: nonpositive coordinate, log transform undefined")
        out.append(tuple(-math.log(c) for c in m))
    return out


def chain_record_indices(points: Iterable[Point], upper: bool = False) -> list[int]:
    """1-based chain-record indices of a point sequence, one comparison at a time.

    With ``upper=True`` the reversed order is used: a point beats the
    current record when every coordinate is at or above it.
    """
    out: list[int] = []
    rec: tuple[float, ...] | None = None
    for i, p in enumerate(points, 1):
        q = tuple(p)
        if rec is None or (dominates(rec, q) if upper else dominates(q, rec)):
            rec = q
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# the limit process


def limit_process_points(rng, d: int, window, truncation_tol: float = 1e-9):
    """One draw of the scaling-limit point process in a window, in Python floats.

    Draws what the window kernel draws at m=1, in the same order, one
    scalar or height factor at a time: the straddle of level 1, the
    backward steps until the largest height passes ``s_hi`` and the tail
    bound (1/height)/(e^d - 1) falls below ``truncation_tol``, one
    exponential per grid point from the deepest point up, then forward
    steps.  Each grid step moves -log(height) by the log of a product of d
    uniforms.  Returns the (height, arrival time) points in
    ``window = (s_lo, s_hi, t_hi)``.
    """
    s_lo, s_hi, t_hi = window
    straddle = float(rng.gamma(d + 1, size=1)[0])
    x0 = float(rng.random(1)[0]) * straddle
    # ascending -log(height); grid[0] is the deepest backward point
    grid = [x0 - straddle, x0]
    tail_const = math.exp(-d) / -math.expm1(-d)  # 1/(e^d - 1), as the kernel takes it
    while True:
        top = math.exp(-grid[0])  # largest height collected so far
        if top > s_hi and tail_const / top < truncation_tol:
            break
        grid.insert(0, grid[0] + math.log(math.prod(rng.random(d))))

    points = []
    sigma = 0.0  # neglected tail below the truncation index counts as zero
    for x in grid:
        xi = math.exp(-x)
        sigma += float(rng.exponential()) / xi
        if s_lo <= xi <= s_hi and sigma <= t_hi:
            points.append((xi, sigma))
    x = grid[-1]
    while sigma <= t_hi:
        x -= math.log(math.prod(rng.random(d)))
        xi = math.exp(-x)
        sigma += float(rng.exponential()) / xi
        if xi < s_lo:
            break
        if xi <= s_hi and sigma <= t_hi:
            points.append((xi, sigma))
    return points


def _limit_log_mellin(d: int):
    """s -> log E[Y^s] of the limit variable Y, for complex s with Re(s) > -1.

    E[Y^s] = Gamma(1+s) * prod_{j=1..d-1} Gamma(1+s) Gamma(1-w_j) / Gamma(1+s-w_j)
    over the d-th roots of unity w_j other than 1 (see :func:`limit_cdf`).
    """
    from scipy.special import loggamma

    roots = [cmath.exp(2j * math.pi * j / d) for j in range(1, d)]
    return lambda s: complex(loggamma(1 + s) + sum(
        loggamma(1 + s) + loggamma(1 - w) - loggamma(1 + s - w) for w in roots))


def _gil_pelaez_cdf(log_mellin, y: float) -> float:
    """CDF at y > 0 of a positive variable X with log E[X^s] = ``log_mellin(s)``.

    With x = log y, F(y) = 1/2 - (1/pi) * int_0^inf Im(exp(-iu x) E[X^(iu)]) / u du.
    The integral stops at u = 60: the integrands here decay like a power of
    u times exp(-pi u / 2).
    """
    from scipy.integrate import quad

    x = math.log(y)

    def integrand(u):
        return cmath.exp(log_mellin(1j * u) - 1j * u * x).imag / u

    value, _ = quad(integrand, 0.0, 60.0, limit=400, epsabs=1e-13, epsrel=1e-12)
    return 0.5 - value / math.pi


def limit_cdf(d: int, y: float) -> float:
    """CDF of the limit variable Y at y > 0, by Gil-Pelaez inversion.

    Y = E * W in law, with E ~ Exp(1) independent of W on [0, 1] and
    E[W^s] = prod_{j=1..d-1} Gamma(1+s) Gamma(1-w_j) / Gamma(1+s-w_j) over
    the d-th roots of unity w_j other than 1; these moments are
    ``exact.limit_moment(d, beta)``.  So E[Y^(iu)] is a product of complex
    Gamma values, which :func:`_gil_pelaez_cdf` inverts.
    """
    if d < 1 or not y > 0:
        raise ValueError("need d >= 1 and y > 0")
    return _gil_pelaez_cdf(_limit_log_mellin(d), y)


def window_mean(d: int, window) -> float:
    """Exact mean number of limit-process points in ``window = (s_lo, s_hi, t_hi)``.

    The -log heights form a stationary renewal grid with Gamma(d, 1) steps,
    so grid points have intensity 1/d per unit of log-height.  For a point
    at height xi, sigma * xi has the Palm law Z of the scaled arrival time,
    and Y = P * Z in law with P the stationary height factor independent of
    Z, E[P^s] = (1/d) * sum_{k=1..d} (1+s)^(-k).  So
    E[Z^s] = E[Y^s] / E[P^s], and the mean count is
    (1/d) * int_{log s_lo}^{log s_hi} F_Z(t_hi * e^u) du.
    """
    from scipy.integrate import quad

    if d < 1:
        raise ValueError("need d >= 1")
    s_lo, s_hi, t_hi = window
    log_mellin_y = _limit_log_mellin(d)

    def log_mellin_z(s):
        return log_mellin_y(s) - cmath.log(sum((1 + s) ** -k for k in range(1, d + 1)) / d)

    value, _ = quad(lambda u: _gil_pelaez_cdf(log_mellin_z, t_hi * math.exp(u)),
                    math.log(s_lo), math.log(s_hi), epsabs=1e-11, epsrel=1e-11)
    return value / d
