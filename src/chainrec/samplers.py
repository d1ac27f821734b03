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

The insertion kernel ``_insertion_counts_chunk`` draws the first height
column, then the screened uniforms in (_TILE, m) tiles, with each height
factor column drawn the first time a row needs it.  So a chunk holds one
tile and its factor columns, never its (m, n) uniform block: 4 MB at
m = 8192 where the block held 65.5 MB at n = 1000.

Scalar functions take a generator from :func:`chainrec.rng.make_stream`
and are pure given that stream.  Every batch result -- the ``sample_*``
functions -- comes from one driver, :func:`_run_chunked`: chunk i of a
task draws from substream i of the task's label and chunk results are
merged in chunk order, so output is bit-identical for any worker count.
Sizes are constants, not options, as chunk sizes decide which substream
draws each replicate: :func:`_chunk` (``_CHUNK`` within ``_CHUNK_BUDGET``),
``_WINDOW_CHUNK`` for window counts and ``_SCAN_BLOCK`` for the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chainrec.rng import make_stream, stream_id

_CHUNK = 8192  # replicates per chunk of a batch driver
_CHUNK_BUDGET = 1 << 24  # doubles per chunk: bounds the chunk of the direct and insertion kernels
_WINDOW_CHUNK = 1024  # replicates per chunk of the window-count driver
_SCAN_BLOCK = 1 << 16  # marks per block of the growing-block direct scan
_SUB_BLOCK = 1 << 22  # doubles drawn at once inside one direct-detection chunk
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


def _direct_scan(rng, d, max_marks, max_records):
    """Chain records among up to ``max_marks`` marks, stopping at ``max_records``.

    Blocks grow geometrically from 1024 marks to ``_SCAN_BLOCK``, since
    records are dense early and waiting times are heavy tailed.  Returns
    the record times, their heights and the number of marks drawn.
    """
    times: list[int] = []
    heights: list[float] = []
    rec = None
    produced = 0
    grow = 1024
    while produced < max_marks and len(times) < max_records:
        m = min(grow, _SCAN_BLOCK, max_marks - produced)
        grow *= 2
        block = rng.random((m, d))
        i = 0
        if rec is None:
            rec = block[0].copy()
            times.append(1)
            heights.append(float(rec.prod()))
            i = 1
        while i < m and len(times) < max_records:
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
    return times, heights, produced


def simulate_direct(rng: np.random.Generator, d: int, n: int) -> ChainRecordTrace:
    """Chain-record trace of n uniform marks by direct detection, O(n*d).

    Consumes exactly n*d uniforms in mark order.
    """
    _check_horizon(d, n)
    # n marks hold at most n records, so the scan draws all of them
    times, heights, _ = _direct_scan(rng, d, n, n)
    return ChainRecordTrace(tuple(times), tuple(heights), n, d)


def simulate_sojourn(rng: np.random.Generator, d: int, n: int) -> ChainRecordTrace:
    """Chain-record trace equal in law to the direct one, in O(log(n)/d).

    Heights are stick-breaking products carried in log space; the sojourn
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
    log_h = float(np.log(rng.random(d)).sum())
    times = [1]
    heights = [math.exp(log_h)]
    t = 1
    while True:
        h = heights[-1]
        v = float(rng.random())
        denom = math.log1p(-h)
        if denom == 0.0:
            # height underflowed: the next sojourn exceeds any feasible horizon
            break
        gap = max(1, math.ceil(math.log1p(-v) / denom))
        t += gap
        if t > n:
            break
        log_h += float(np.log(rng.random(d)).sum())
        times.append(t)
        heights.append(math.exp(log_h))
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


def _chunk(doubles_per_replicate=1):
    """Replicates per chunk: ``_CHUNK``, fewer where a chunk would pass ``_CHUNK_BUDGET`` doubles."""
    return max(1, min(_CHUNK, _CHUNK_BUDGET // doubles_per_replicate))


def _run_chunked(chunk_fn, total, seed, label, chunk, workers):
    """``chunk_fn(gen, m)`` over ``total`` replicates in chunks, merged in order.

    Chunks hold ``chunk`` replicates (the last one the remainder) and chunk
    i draws from substream i of ``label``.  Chunk results are arrays, or
    tuples of arrays, concatenated along their first axis.
    """
    if total < 1:
        raise ValueError("replicates must be >= 1")
    sid = stream_id(label)
    sizes = [min(chunk, total - lo) for lo in range(0, total, chunk)]

    def one(i):
        return chunk_fn(make_stream(seed, sid, i), sizes[i])

    if workers <= 1:
        parts = [one(i) for i in range(len(sizes))]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, range(len(sizes))))
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*parts))
    return np.concatenate(parts)


def _log_sum_rows(u):
    """``np.log(u).sum(axis=1)`` for an (m, d) array, bit for bit.

    Below 8 columns numpy adds a row's terms left to right, so adding whole
    log columns gives the same doubles without a reduction over the short
    axis.  From 8 columns numpy adds in pairwise blocks, which column adds
    would not reproduce, so the reduction stays.
    """
    logs = np.log(u)
    if u.shape[1] >= 8:
        return logs.sum(axis=1)
    total = logs[:, 0].copy()
    for c in range(1, u.shape[1]):
        total += logs[:, c]
    return total


def _height_factor_column(gen, d, m):
    return np.exp(_log_sum_rows(gen.random((m, d))))


def _direct_counts_chunk(gen, d, n, m):
    """Direct detection on m replicates of n marks.

    Returns the per-replicate counts and a (1, n) row whose entry j counts
    the replicates with a chain record at index j+1.  Replicates are drawn
    in consecutive (k, n, d) sub-blocks of at most ``_SUB_BLOCK`` doubles
    (32 MB), one alive at a time, which consume the stream exactly as one
    (m, n, d) draw would.
    Each sub-block is scanned in tiles of ``_TILE`` indices, transposed
    to a contiguous (_TILE, d, k) copy, so that every per-index step
    compares contiguous (d, k) rows and reduces over the d rows only.  A
    tile holds at most _TILE/n of its sub-block: 2^31/n bytes, 2.1 MB at
    n = 1000.
    """
    counts = np.ones(m, dtype=np.int64)
    totals = np.zeros((1, n), dtype=np.int64)
    totals[0, 0] = m
    step = max(1, _SUB_BLOCK // (n * d))
    for lo in range(0, m, step):
        u = gen.random((min(step, m - lo), n, d))
        rec = u[:, 0, :].T.copy()
        block_counts = counts[lo : lo + len(u)]
        for t0 in range(0, n, _TILE):
            tile = np.ascontiguousarray(u[:, t0 : t0 + _TILE, :].transpose(1, 2, 0))
            for j in range(max(t0, 1), t0 + len(tile)):
                x = tile[j - t0]
                beat = (x <= rec).all(axis=0) & (x < rec).any(axis=0)
                block_counts += beat
                totals[0, j] += np.count_nonzero(beat)
                np.copyto(rec, x, where=beat)
        del u, tile  # free this sub-block before the next one is drawn
    return counts, totals


def _sojourn_counts_chunk(gen, d, n, m):
    counts = np.ones(m, dtype=np.int64)
    t = np.ones(m, dtype=np.int64)
    log_h = _log_sum_rows(gen.random((m, d)))
    active = np.ones(m, dtype=bool)
    beyond = float(n + 1)
    while active.any():
        h = np.exp(log_h)
        v = gen.random(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.ceil(np.log1p(-v) / np.log1p(-h))
        gap = np.where(np.isfinite(gap), gap, beyond)
        gap = np.minimum(np.maximum(gap, 1.0), beyond).astype(np.int64)
        t_new = t + gap
        landed = active & (t_new <= n)
        counts[landed] += 1
        t = np.where(active, t_new, t)
        active = landed
        log_h += _log_sum_rows(gen.random((m, d)))
    return counts


def _insertion_counts_chunk(gen, d, n, m):
    """The insertion kernel: chain-record counts of m replicates.

    Screens terms 2..n of each replicate; the first term is always
    replaced by the first stick-breaking height, and afterwards every
    first hit below the current height is replaced by the next one.  The
    number of replaced terms equals the chain-record count in law.

    Draw order: the first height column, then the screened uniforms as
    contiguous (_TILE, m) tiles, term-major.  Height factors are drawn on
    demand, one (m,) column of a growing (K, m) array the first time some
    row needs its K-th factor, so a row's factors are gathered by its own
    count.  A tile holds _TILE * m doubles (4 MB at m = 8192): the kernel
    never holds an (m, n) block.
    """
    thresh = _height_factor_column(gen, d, m)
    counts = np.ones(m, dtype=np.int64)
    factors = np.empty((8, m))
    drawn = 0  # factor columns drawn so far
    for t0 in range(1, n, _TILE):
        tile = gen.random((min(_TILE, n - t0), m))
        for row in tile:
            hit = np.flatnonzero(row < thresh)
            if not hit.size:
                continue
            need = counts[hit] - 1  # index of each hit row's next factor
            while drawn <= need.max():
                if drawn == len(factors):
                    factors = np.concatenate([factors, np.empty_like(factors)])
                factors[drawn] = _height_factor_column(gen, d, m)
                drawn += 1
            thresh[hit] *= factors[need, hit]
            counts[hit] += 1
    return counts


def _renewal_counts_chunk(gen, d, n, m):
    log_n = math.log(n)
    x = -_log_sum_rows(gen.random((m, d)))
    counts = np.zeros(m, dtype=np.int64)
    while True:
        above = x < log_n
        if not above.any():
            return counts
        counts[above] += 1
        x -= _log_sum_rows(gen.random((m, d)))


def _poisson_paced_chunk(gen, d, t_end, b0, m):
    b = np.full(m, float(b0))
    tcur = np.zeros(m)
    integral = np.zeros(m)
    counts = np.zeros(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)
    while active.any():
        hold = gen.exponential(size=m) / b
        t_new = tcur + hold
        finish = active & (t_new > t_end)
        integral[finish] += b[finish] * (t_end - tcur[finish])
        cont = active & ~finish
        integral[cont] += b[cont] * hold[cont]
        counts[cont] += 1
        tcur = np.where(cont, t_new, tcur)
        w = _height_factor_column(gen, d, m)
        b = np.where(cont, b * w, b)
        active = cont
    return counts, integral, b


def _limit_variable_chunk(gen, d, tolerance, m):
    """The limit-variable kernel: m draws and the series stop index of each.

    The variable is the series sum_k E_k * P_k with independent standard
    exponentials E_k and P_k the running product of one stationary factor
    followed by ordinary height factors.  The stationary factor's negative
    log is Gamma(k, 1) with k uniform on {1..d}, the equilibrium law of the
    height stick-breaking chain.  The series stops once the expected
    remainder P_k/(2^d - 1) drops below ``tolerance``.
    """
    tail_ratio = 1.0 / (2**d - 1)
    shapes = gen.integers(1, d + 1, size=m)
    p = np.exp(-gen.gamma(shapes))
    y = gen.exponential(size=m) * p
    depth = np.zeros(m, dtype=np.int64)
    active = p * tail_ratio >= tolerance
    while active.any():
        p = p * _height_factor_column(gen, d, m)
        e = gen.exponential(size=m)
        np.add(y, e * p, out=y, where=active)
        depth += active
        active &= p * tail_ratio >= tolerance
    return y, depth


def _window_points_chunk(gen, d, window, truncation_tol, m):
    """The window kernel: the in-window points of m limit-process draws.

    Heights form the stationary multiplicative renewal grid; each arrival
    time is the backward sum of exponentials over inverse heights,
    truncated when its expected remainder bound (1/height)/(e^d - 1) -- a
    typical-growth approximation using realized heights -- falls below
    ``truncation_tol``.  Each step draws only for the rows still active:
    the straddle of level 1, the backward Gamma(d) steps under that
    stopping rule, one exponential per grid point from each row's deepest
    point up, then the forward steps until the arrival time passes
    ``t_hi`` or the height drops below ``s_lo``.

    ``window = (s_lo, s_hi, t_hi)`` is the rectangle [s_lo, s_hi] x
    [0, t_hi] in the (height, time) plane.  Returns arrays
    ``(rows, xi, sigma)``, one entry per point in the window, in draw
    order: a row's points have decreasing heights ``xi`` and increasing
    arrival times ``sigma``.
    """
    s_lo, s_hi, t_hi = window
    x_above, x0 = _straddle(gen, d, m)
    # levels[k][r]: -log height of row r's k-th grid point counted backward
    # (0 at or below level 1, 1 above it, then one per backward step); row r
    # holds depth[r] points and ignores the entries past them
    levels = [x0, x_above]
    depth = np.full(m, 2)
    tail_const = 1.0 / math.expm1(d)
    deep = x_above.copy()
    rows = np.arange(m)
    while True:
        top = np.exp(-deep[rows])  # largest height collected so far
        rows = rows[~((top > s_hi) & (tail_const / top < truncation_tol))]
        if not rows.size:
            break
        deep[rows] -= gen.gamma(d, size=rows.size)
        levels.append(deep.copy())
        depth[rows] += 1

    grid = np.array(levels)
    sigma = np.zeros(m)  # neglected tail below the truncation index counts as zero
    arrivals = []  # (rows, heights, arrival times) of each step, in draw order
    for s in range(len(grid)):
        rows = np.flatnonzero(depth > s)
        xi = np.exp(-grid[depth[rows] - 1 - s, rows])
        sigma[rows] += gen.exponential(size=rows.size) / xi
        arrivals.append((rows, xi, sigma[rows]))
    x = x0.copy()
    rows = np.flatnonzero(sigma <= t_hi)
    while rows.size:
        x[rows] += gen.gamma(d, size=rows.size)
        xi = np.exp(-x[rows])
        sigma[rows] += gen.exponential(size=rows.size) / xi
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
) -> np.ndarray:
    """Chain-record counts at horizon n from one of the three simulators.

    ``method`` is ``"direct"``, ``"sojourn"`` or ``"insertion"``.  The
    three outputs are equal in distribution; pairwise tests over them are
    the core cross-validation of the whole package.
    """
    if method not in ("direct", "sojourn", "insertion"):
        raise ValueError(f"unknown method {method!r}")
    _check_horizon(d, n)
    label = label or f"chain-counts:{method}:d={d}:n={n}"
    if method == "direct":
        if n <= 4096:
            m = _chunk(n * d)
            fn = lambda gen, k: _direct_counts_chunk(gen, d, n, k)[0]
        else:
            m = _chunk()
            fn = lambda gen, k: np.array(
                [len(_direct_scan(gen, d, n, n)[0]) for _ in range(k)], dtype=np.int64
            )
    elif method == "sojourn":
        m = _chunk()
        fn = lambda gen, k: _sojourn_counts_chunk(gen, d, n, k)
    else:
        m = _chunk(n)
        fn = lambda gen, k: _insertion_counts_chunk(gen, d, n, k)
    return _run_chunked(fn, replicates, seed, label, m, workers)


def sample_chain_flag_totals(
    d: int,
    n: int,
    replicates: int,
    *,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Per-index chain-record totals over replicates of direct detection.

    Entry j is the number of replicates whose mark at index j+1 was a
    chain record; dividing by ``replicates`` estimates the per-index
    probability.
    """
    _check_horizon(d, n)
    label = label or f"chain-flags:d={d}:n={n}"
    fn = lambda gen, k: _direct_counts_chunk(gen, d, n, k)[1]
    return _run_chunked(fn, replicates, seed, label, _chunk(n * d), workers).sum(axis=0)


def sample_renewal_counts(
    d: int,
    n: int,
    replicates: int,
    *,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Renewal counts: stick-breaking heights above 1/n, per replicate."""
    _check_horizon(d, n)
    label = label or f"renewal-counts:d={d}:n={n}"
    fn = lambda gen, k: _renewal_counts_chunk(gen, d, n, k)
    return _run_chunked(fn, replicates, seed, label, _chunk(), workers)


def sample_poisson_paced_terminals(
    d: int,
    t_horizon: float,
    replicates: int,
    *,
    b0: float = 1.0,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jump counts, path integrals and terminal states of the paced process."""
    if d < 1 or not (0 < t_horizon < math.inf and 0 < b0 < math.inf):
        raise ValueError("need d >= 1, t_horizon > 0 and b0 > 0")
    label = label or f"poisson-paced:d={d}:t={t_horizon}:b0={b0}"
    fn = lambda gen, k: _poisson_paced_chunk(gen, d, t_horizon, b0, k)
    return _run_chunked(fn, replicates, seed, label, _chunk(), workers)


def sample_limit_variables(
    d: int,
    replicates: int,
    *,
    tolerance: float = 1e-6,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Limit-variable draws plus the series stop index of each draw."""
    _check_tolerance(d, tolerance)
    label = label or f"limit-variable:d={d}:tol={tolerance}"
    fn = lambda gen, k: _limit_variable_chunk(gen, d, tolerance, k)
    return _run_chunked(fn, replicates, seed, label, _chunk(), workers)


def sample_window_counts(
    d: int,
    window: tuple[float, float, float],
    replicates: int,
    *,
    truncation_tol: float = 1e-9,
    seed: int,
    label: str | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Point counts of independent limit-process draws in a fixed window."""
    _check_window(d, window, truncation_tol)
    label = label or f"window-counts:d={d}:window={window}:tol={truncation_tol}"
    fn = lambda gen, k: np.bincount(
        _window_points_chunk(gen, d, window, truncation_tol, k)[0], minlength=k)
    return _run_chunked(fn, replicates, seed, label, _WINDOW_CHUNK, workers)


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
