"""Random generation: height factors, record traces and limit laws.

Three simulators produce the chain-record count by different mechanisms
and must agree in distribution:

* ``simulate_direct``   -- detect records on n sampled marks, cost O(n*d);
* ``simulate_sojourn``  -- stick-break the record heights and draw the
  geometric sojourns between records, cost O(log(n)/d) records;
* ``_insertion_counts_chunk`` -- screen a uniform sequence and replace
  first hits below the current height, the partition-style counting oracle.

Each law has one kernel, an array function of m replicates drawn from one
generator (``_height_factor_column`` and the ``_*_chunk`` functions), and a
single draw is its kernel at m=1 (``sample_window_points`` for the window
kernel).  Two laws keep a second path, held equal to the first by tests:

* direct detection runs the block kernel ``_direct_counts_chunk`` for
  batches up to n=4096 and the growing-block scan ``_direct_scan`` above
  that and for traces;
* ``simulate_sojourn`` walks its records in Python floats: through the
  array kernel a lone trace runs some fifteen distinct array operations,
  each slow to bring back into cache after other array work, which would
  cost the sojourn simulator its speed at large n.

Every height factor, the product U1*...*Ud by which a stick-breaking step
multiplies a height, is one :func:`_height_factor_column` draw; the
log-space kernels (sojourn, renewal, window) take its log, and one that
underflows to 0 ends its row.  Both limit-law kernels start from the one
gamma draw, :func:`_straddle`'s Gamma(d+1), as its product form would
underflow from d near 700; every exponential is ``standard_exponential``.

A kernel draws a value only for a replicate that uses it: the kernels
that stop early keep an index array of the rows still active (the window
kernel one per backward level, whose exponentials it draws deepest first),
and the insertion kernel draws a height factor only for each row a term hit.
Each kernel's docstring gives its draw order.

Scalar functions take a generator from :func:`chainrec.rng.make_stream`,
a PCG64DXSM stream keyed through ``SeedSequence``, and are pure given it.
Every batch result comes from one driver, :func:`_run_chunked`: chunk i
of a task draws from substream i of the task's label, and it yields chunk
results in order, at most 2 * workers in flight, so output is bit-identical
for any worker count.  Every ``sample_*`` function checks its arguments and
returns that iterator, and its callers reduce each chunk as it comes.
Sizes are constants, not options, as chunk sizes decide which substream
draws each replicate: ``_CHUNK`` replicates per chunk for every driver and
``_SCAN_BLOCK`` for the scan.  Within a chunk each kernel bounds memory by
its tiles or active rows: the direct kernel holds one index-major tile of
``_TILE`` indices at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from chainrec.rng import make_stream, stream_id

_CHUNK = 8192  # replicates per chunk of every batch driver
_SCAN_BLOCK = 1 << 16  # marks per block of the growing-block direct scan
_TILE = 64  # indices per contiguous tile of the direct and insertion kernels


# ---------------------------------------------------------------------------
# trace types


@dataclass(frozen=True)
class ChainRecordTrace:
    """Chain-record times and heights of one replicate up to ``horizon``."""

    record_times: tuple[int, ...]
    heights: tuple[float, ...]
    horizon: int
    dim: int

    @property
    def count(self) -> int:
        return len(self.record_times)


# ---------------------------------------------------------------------------
# scalar samplers


def _check_horizon(d, n):
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")


def _check_tolerance(d, tolerance):
    if d < 1:
        raise ValueError("need d >= 1")
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be finite and positive")


def _check_window(d, window, truncation_tol):
    _check_tolerance(d, truncation_tol)
    s_lo, s_hi, t_hi = window
    if not (0 < s_lo < s_hi < math.inf and t_hi > 0):
        raise ValueError("window must satisfy 0 < s_lo < s_hi < inf and t_hi > 0")


def _direct_scan(rng, d, n):
    """Chain-record times and heights among n marks.

    Blocks grow geometrically from 1024 marks to ``_SCAN_BLOCK``, since
    records are dense early and waiting times are heavy tailed.
    """
    times: list[int] = []
    heights: list[float] = []
    rec = None
    produced = 0
    grow = 1024
    while produced < n:
        m = min(grow, _SCAN_BLOCK, n - produced)
        grow *= 2
        block = rng.random((m, d))
        i = 0
        if rec is None:
            rec = block[0].copy()
            times.append(1)
            heights.append(float(rec.prod()))
            i = 1
        while i < m:
            sub = block[i:]
            le = sub[:, 0] <= rec[0]
            lt = sub[:, 0] < rec[0]
            for c in range(1, d):
                le &= sub[:, c] <= rec[c]
                lt |= sub[:, c] < rec[c]
            mask = le & lt
            j = int(mask.argmax())
            if not mask[j]:
                break
            rec = sub[j].copy()
            times.append(produced + i + j + 1)
            heights.append(float(rec.prod()))
            i += j + 1
        produced += m
    return times, heights


def simulate_direct(rng: np.random.Generator, d: int, n: int) -> ChainRecordTrace:
    """Chain-record trace of n uniform marks by direct detection, O(n*d).

    Consumes exactly n*d uniforms in mark order.
    """
    _check_horizon(d, n)
    times, heights = _direct_scan(rng, d, n)
    return ChainRecordTrace(tuple(times), tuple(heights), n, d)


@np.errstate(divide="ignore")
def simulate_sojourn(rng: np.random.Generator, d: int, n: int) -> ChainRecordTrace:
    """Chain-record trace equal in law to the direct one, in O(log(n)/d).

    Heights are stick-breaking products carried in log space, each factor
    the log of a :func:`_height_factor_column` draw at m=1; the sojourn
    to the next record is geometric on {1,2,...} with success probability
    equal to the current height, drawn by inverse CDF
    ceil(log(1-V)/log1p(-h)) so that heights near underflow stay safe.

    It counts what :func:`_sojourn_counts_chunk` counts at m=1 on the same
    stream only up to about n = 10^9: this loop takes ``math.exp`` and
    ``math.log1p``, the kernel numpy's, and a one-ulp difference in a height
    moves a gap of 10^13 or more by one, so by n = 10^15 some record times
    differ.  Both are draws of the same law.
    """
    _check_horizon(d, n)
    times, heights, t, log_h = [], [], 1, 0.0
    while True:
        log_h += float(np.log(_height_factor_column(rng, d, 1))[0])
        times.append(t)
        heights.append(math.exp(log_h))
        v = float(rng.random())
        denom = math.log1p(-heights[-1])
        if denom == 0.0:
            # height underflowed: the next sojourn exceeds any feasible horizon
            break
        t += max(1, math.ceil(math.log1p(-v) / denom))
        if t > n:
            break
    return ChainRecordTrace(tuple(times), tuple(heights), n, d)


def _straddle(rng, d, m):
    """-log of the stationary renewal-grid heights on both sides of level 1.

    The step across the unit level is length biased (Gamma(d+1, 1) in log
    space) and split uniformly, which reproduces the equilibrium law on
    both sides.  Returns arrays ``(x_above, x_at_or_below)`` of m draws
    with x_above < 0 and x_at_or_below >= 0.
    """
    straddle = rng.gamma(d + 1, size=m)
    x0 = rng.random(m) * straddle
    return x0 - straddle, x0


# ---------------------------------------------------------------------------
# chunked batch drivers


def _run_chunked(chunk_fn, total, seed, label, workers):
    """An iterator of ``chunk_fn(gen, m)`` over ``total`` replicates in chunks, in order.

    Chunk i holds ``_CHUNK`` replicates (the last one the remainder) from substream i
    of ``label``.  ``total``, ``workers`` and the seed are checked on the call; each
    chunk is drawn as the iterator is read, at most 2 * workers ahead.
    """
    if total < 1:
        raise ValueError("replicates must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    sid = stream_id(label)
    make_stream(seed, sid)  # rng's key check, before any chunk is asked for
    count = len(range(0, total, _CHUNK))
    one = lambda i: chunk_fn(make_stream(seed, sid, i), min(_CHUNK, total - i * _CHUNK))
    if workers <= 1:
        return map(one, range(count))
    return _pooled(one, count, workers)


def _pooled(one, count, workers):
    """``one(i)`` for i < count, in order, on a pool that runs at most 2 * workers ahead."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = [pool.submit(one, i) for i in range(min(2 * workers, count))]
        for i in range(2 * workers, count + 2 * workers):
            yield ahead.pop(0).result()
            if i < count:
                ahead.append(pool.submit(one, i))


def _height_factor_column(gen, d, m):
    """m height factors U1*...*Ud, one per row of an (m, d) uniform draw.

    Column products give ``prod(axis=1)`` bit for bit, several times faster.
    """
    u = gen.random((m, d))
    factors = u[:, 0].copy()
    for c in range(1, d):
        factors *= u[:, c]
    return factors


def _direct_counts_chunk(gen, d, n, m):
    """Direct detection on m replicates of n marks.

    Returns the per-replicate counts and an n-vector whose entry j counts
    the replicates with a chain record at index j+1.  Draw order: index
    major, one (T, d, m) array per tile of T <= ``_TILE`` indices, so every
    per-index step compares contiguous (d, m) rows and reduces over the d
    rows only.  The kernel holds one tile, ``_TILE*d*m`` doubles (8 MB at
    d=2 and m=8192), whatever n is.  At m=1 it draws what
    :func:`_direct_scan` draws.
    """
    counts = np.ones(m, dtype=np.int64)
    totals = np.zeros(n, dtype=np.int64)
    totals[0] = m
    for t0 in range(0, n, _TILE):
        tile = gen.random((min(_TILE, n - t0), d, m))
        if t0 == 0:
            rec = tile[0].copy()
        for j in range(max(t0, 1), t0 + len(tile)):
            x = tile[j - t0]
            beat = (x <= rec).all(axis=0) & (x < rec).any(axis=0)
            counts += beat
            totals[j] = np.count_nonzero(beat)
            np.copyto(rec, x, where=beat)
    return counts, totals


@np.errstate(divide="ignore", invalid="ignore")
def _sojourn_counts_chunk(gen, d, n, m):
    """The sojourn kernel: chain-record counts of m replicates, O(log(n)/d) steps.

    Draw order: the first height column for all m rows, then per step one
    uniform for each row still active and one height-factor row for each
    row whose sojourn landed within n.  ``rows``, ``t`` and ``log_h`` hold
    the active rows only, so a step costs what its active rows cost.  At
    m=1 this draws exactly what :func:`simulate_sojourn` draws.

    Each gap is capped at the room left, n + 1 - t, so ``t`` never passes
    n + 1.  A float gap is cast to int64 only once clipped to 2^63 - 1024,
    the largest double below 2^63, so that is the largest n counted.
    """
    top = 2.0**63 - 1024
    if n > top:
        raise ValueError(f"the sojourn kernel counts up to n = 2^63 - 1024 = {int(top)}, got n = {n}")
    counts = np.empty(m, dtype=np.int64)
    rows, t, log_h = np.arange(m), np.ones(m, dtype=np.int64), np.zeros(m)  # the active rows
    records = 0
    while rows.size:
        records += 1
        log_h = log_h + np.log(_height_factor_column(gen, d, rows.size))
        v = gen.random(rows.size)
        gap = np.ceil(np.log1p(-v) / np.log1p(-np.exp(log_h)))
        # an underflowed height's nan or inf gap goes to top, then to the room left
        gap = np.maximum(np.where(gap < top, gap, top), 1.0)
        t = t + np.minimum(gap.astype(np.int64), n + 1 - t)
        counts[rows[np.flatnonzero(t > n)]] = records
        landed = np.flatnonzero(t <= n)
        rows, t, log_h = rows[landed], t[landed], log_h[landed]
    return counts


def _insertion_counts_chunk(gen, d, n, m):
    """The insertion kernel: chain-record counts of m replicates.

    Screens terms 2..n of each replicate; the first term is always
    replaced by the first stick-breaking height, and afterwards every
    first hit below the current height is replaced by the next one.  The
    number of replaced terms equals the chain-record count in law.

    Draw order: the first height column, then the screened uniforms as
    contiguous (_TILE, m) tiles, term-major, and after each term one
    height-factor row for each row it hit, in row order.  A tile holds
    _TILE * m doubles (4 MB at m = 8192): the kernel never holds an (m, n)
    block.
    """
    thresh = _height_factor_column(gen, d, m)
    counts = np.ones(m, dtype=np.int64)
    for t0 in range(1, n, _TILE):
        for row in gen.random((min(_TILE, n - t0), m)):
            hit = np.flatnonzero(row < thresh)
            if hit.size:
                thresh[hit] *= _height_factor_column(gen, d, hit.size)
                counts[hit] += 1
    return counts


@np.errstate(divide="ignore")
def _renewal_counts_chunk(gen, d, n, m):
    """Renewal counts of m replicates: stick-breaking heights above 1/n.

    Draw order: the first height-factor row of all m rows, then per step
    one height-factor row for each row whose height is still above 1/n.
    """
    log_n = math.log(n)
    counts = np.zeros(m, dtype=np.int64)
    rows, x = np.arange(m), np.zeros(m)  # the active rows and -log of their heights
    while rows.size:
        x = x - np.log(_height_factor_column(gen, d, rows.size))
        above = np.flatnonzero(x < log_n)
        rows, x = rows[above], x[above]
        counts[rows] += 1
    return counts


def _poisson_paced_chunk(gen, d, t_end, b0, m):
    """Jump counts, path integrals and terminal states of m paced paths on [0, t_end].

    The state b jumps at rate b to b times a height factor.  Draw order:
    per step one exponential for each row still running, then one
    height-factor row for each row whose jump fell within ``t_end``.
    """
    counts = np.zeros(m, dtype=np.int64)
    integral = np.zeros(m)
    b = np.full(m, float(b0))
    rows, t = np.arange(m), np.zeros(m)  # the running rows and their times
    while rows.size:
        state = b[rows]
        hold = gen.standard_exponential(rows.size) / state
        t_new = t + hold
        over = t_new > t_end
        end, jump = np.flatnonzero(over), np.flatnonzero(~over)
        integral[rows[end]] += state[end] * (t_end - t[end])
        rows, t, state = rows[jump], t_new[jump], state[jump]
        integral[rows] += state * hold[jump]
        counts[rows] += 1
        b[rows] = state * _height_factor_column(gen, d, rows.size)
    return counts, integral, b


def _limit_variable_chunk(gen, d, tolerance, m):
    """The limit-variable kernel: m draws and the series stop index of each.

    The variable is the series sum_k E_k * P_k with independent standard
    exponentials E_k and P_k the running product of one stationary factor,
    :func:`_straddle`'s lower side, and then ordinary height factors.  Its
    -log, U * Gamma(d+1), has density Gamma(d, x)/d!, the mean of the
    Gamma(1..d) densities: the height chain's equilibrium law.  The series
    stops once the expected remainder P_k/(2^d - 1) drops below ``tolerance``.

    Draw order: the straddle's gamma and uniform columns and the first
    exponentials for all m rows, then per step one height-factor row and
    one exponential for each row still active.  ``rows``, ``p`` and
    ``y_rows`` hold the active rows only, so the kernel draws ``depth.sum()``
    height-factor rows in all, and at m=1 it draws what a lone series draws.
    """
    t = math.ldexp(1.0, -d)
    tail_ratio = t / (1 - t)  # 1/(2^d - 1), which overflows from d = 1024
    p = np.exp(-_straddle(gen, d, m)[1])
    y = gen.standard_exponential(m) * p
    depth = np.zeros(m, dtype=np.int64)
    rows = np.flatnonzero(p * tail_ratio >= tolerance)
    p, y_rows = p[rows], y[rows]
    step = 0
    while rows.size:
        step += 1
        p = p * _height_factor_column(gen, d, rows.size)
        y_rows = y_rows + gen.standard_exponential(rows.size) * p
        going = p * tail_ratio < tolerance
        if going.any():
            # integer indices: a boolean mask index is several times slower
            gone, stay = np.flatnonzero(going), np.flatnonzero(~going)
            y[rows[gone]] = y_rows[gone]
            depth[rows[gone]] = step
            rows, p, y_rows = rows[stay], p[stay], y_rows[stay]
    return y, depth


@np.errstate(divide="ignore", over="ignore")
def _window_points_chunk(gen, d, window, truncation_tol, m):
    """The window kernel: the in-window points of m limit-process draws.

    Heights form the stationary multiplicative renewal grid; each arrival
    time is the backward sum of exponentials over inverse heights,
    truncated when its expected remainder bound (1/height)/(e^d - 1) -- a
    typical-growth approximation using realized heights -- falls below
    ``truncation_tol``.  It holds only its active rows, each backward level
    as a (rows, -log heights) pair.  Draw order: the straddle of level 1;
    per backward step a height-factor row for each row the stopping rule
    keeps; per level, deepest first, an exponential for each row that has
    it, so each row sums from its deepest point up; then per forward step a
    height-factor row and an exponential for each row still within ``t_hi``
    and not below ``s_lo``.

    ``window = (s_lo, s_hi, t_hi)`` is the rectangle [s_lo, s_hi] x
    [0, t_hi] in the (height, time) plane.  Returns arrays
    ``(rows, xi, sigma)``, one entry per point in the window, in draw
    order: a row's points have decreasing heights ``xi`` and increasing
    arrival times ``sigma``.
    """
    s_lo, s_hi, t_hi = window
    x_above, x0 = _straddle(gen, d, m)
    # levels[k]: the rows with a k-th grid point counted backward (x0, x_above,
    # then one per backward step) and that point's -log height
    rows = np.arange(m)
    levels = [(rows, x0), (rows, x_above)]
    tail_const = math.exp(-d) / -math.expm1(-d)  # 1/(e^d - 1), which overflows from d = 710
    x = x_above
    while True:
        top = np.exp(-x)  # largest height collected so far
        keep = np.flatnonzero(~((top > s_hi) & (tail_const / top < truncation_tol)))
        if not keep.size:
            break
        rows = rows[keep]
        x = x[keep] + np.log(_height_factor_column(gen, d, rows.size))
        levels.append((rows, x))

    sigma = np.zeros(m)  # neglected tail below the truncation index counts as zero
    arrivals = []  # (rows, heights, arrival times) of each step, in draw order
    for rows, x in reversed(levels):
        xi = np.exp(-x)
        sigma[rows] += gen.standard_exponential(rows.size) / xi
        arrivals.append((rows, xi, sigma[rows]))
    x = x0.copy()
    rows = np.flatnonzero(sigma <= t_hi)
    while rows.size:
        x[rows] -= np.log(_height_factor_column(gen, d, rows.size))
        xi = np.exp(-x[rows])
        sigma[rows] += gen.standard_exponential(rows.size) / xi
        arrivals.append((rows, xi, sigma[rows]))
        rows = rows[(xi >= s_lo) & (arrivals[-1][2] <= t_hi)]
    rows, xi, times = (np.concatenate(column) for column in zip(*arrivals))
    inside = (s_lo <= xi) & (xi <= s_hi) & (times <= t_hi)
    return rows[inside], xi[inside], times[inside]


def sample_chain_counts(
    method: str,
    d: int,
    n: int,
    replicates: int,
    *,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> Iterator[np.ndarray]:
    """Chain-record counts at horizon n from one of the three simulators, per chunk.

    ``method`` is ``"direct"``, ``"sojourn"`` or ``"insertion"``.  The
    three outputs are equal in distribution; pairwise tests over them are
    the core cross-validation of the whole package.
    """
    if method not in ("direct", "sojourn", "insertion"):
        raise ValueError(f"unknown method {method!r}")
    _check_horizon(d, n)
    label = label or f"chain-counts:{method}:d={d}:n={n}"
    if method == "direct" and n <= 4096:
        fn = lambda gen, k: _direct_counts_chunk(gen, d, n, k)[0]
    elif method == "direct":
        fn = lambda gen, k: np.array(
            [len(_direct_scan(gen, d, n)[0]) for _ in range(k)], dtype=np.int64
        )
    elif method == "sojourn":
        fn = lambda gen, k: _sojourn_counts_chunk(gen, d, n, k)
    else:
        fn = lambda gen, k: _insertion_counts_chunk(gen, d, n, k)
    return _run_chunked(fn, replicates, seed, label, workers)


def sample_chain_flag_totals(
    d: int,
    n: int,
    replicates: int,
    *,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chain-record counts and per-index totals of direct detection, per chunk.

    ``counts`` equals ``sample_chain_counts("direct", ...)`` under one label
    for n <= 4096.  Entry j of a chunk's ``totals`` counts its replicates with
    a chain record at index j+1: their sum over ``replicates`` estimates its probability.
    """
    _check_horizon(d, n)
    label = label or f"chain-flags:d={d}:n={n}"
    fn = lambda gen, k: _direct_counts_chunk(gen, d, n, k)
    return _run_chunked(fn, replicates, seed, label, workers)


def sample_renewal_counts(
    d: int,
    n: int,
    replicates: int,
    *,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> Iterator[np.ndarray]:
    """Renewal counts: stick-breaking heights above 1/n, per replicate, per chunk."""
    _check_horizon(d, n)
    label = label or f"renewal-counts:d={d}:n={n}"
    fn = lambda gen, k: _renewal_counts_chunk(gen, d, n, k)
    return _run_chunked(fn, replicates, seed, label, workers)


def sample_poisson_paced_terminals(
    d: int,
    t_horizon: float,
    replicates: int,
    *,
    b0: float = 1.0,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Jump counts, path integrals and terminal states of the paced process, per chunk."""
    if d < 1 or not (0 < t_horizon < math.inf and 0 < b0 < math.inf):
        raise ValueError("need d >= 1, t_horizon > 0 and b0 > 0")
    label = label or f"poisson-paced:d={d}:t={t_horizon}:b0={b0}"
    fn = lambda gen, k: _poisson_paced_chunk(gen, d, t_horizon, b0, k)
    return _run_chunked(fn, replicates, seed, label, workers)


def sample_limit_variables(
    d: int,
    replicates: int,
    *,
    tolerance: float = 1e-6,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Limit-variable draws plus the series stop index of each draw, per chunk."""
    _check_tolerance(d, tolerance)
    label = label or f"limit-variable:d={d}:tol={tolerance}"
    fn = lambda gen, k: _limit_variable_chunk(gen, d, tolerance, k)
    return _run_chunked(fn, replicates, seed, label, workers)


def sample_window_counts(
    d: int,
    window: tuple[float, float, float],
    replicates: int,
    *,
    truncation_tol: float = 1e-9,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> Iterator[np.ndarray]:
    """Point counts of independent limit-process draws in a fixed window, per chunk."""
    _check_window(d, window, truncation_tol)
    label = label or f"window-counts:d={d}:window={window}:tol={truncation_tol}"
    fn = lambda gen, k: np.bincount(
        _window_points_chunk(gen, d, window, truncation_tol, k)[0], minlength=k)
    return _run_chunked(fn, replicates, seed, label, workers)


def sample_window_points(
    rng: np.random.Generator,
    d: int,
    window: tuple[float, float, float],
    truncation_tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Heights and arrival times of one limit-process draw in a window.

    :func:`_window_points_chunk` at m=1: the points in draw order, heights
    decreasing and arrival times increasing.
    """
    _check_window(d, window, truncation_tol)
    return _window_points_chunk(rng, d, window, truncation_tol, 1)[1:]
