"""Simulator tests: law checks against the exact engine and each other."""

import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from chainrec import exact, samplers, stats, verify
from chainrec.rng import make_stream
from chainrec.samplers import (
    sample_chain_counts,
    sample_limit_variables,
    sample_poisson_paced_terminals,
    sample_renewal_counts,
    sample_window_counts,
    sample_window_points,
    simulate_direct,
    simulate_sojourn,
)
from conftest import joined
from oracles import (
    chain_record_indices,
    expected_weak_count_table,
    height_factor_cdf,
    limit_cdf,
    limit_process_points,
    log_transform,
    mellin,
    window_mean,
)

SEED = 8612


def zscore(values, target):
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size)
    return abs(values.mean() - target) / se


# ---------------------------------------------------------------------------
# determinism


def test_identical_streams_give_identical_traces():
    a = simulate_direct(make_stream(3, 7), 2, 500)
    b = simulate_direct(make_stream(3, 7), 2, 500)
    assert a == b
    c = simulate_sojourn(make_stream(3, 8), 2, 10**6)
    d = simulate_sojourn(make_stream(3, 8), 2, 10**6)
    assert c == d
    assert simulate_direct(make_stream(3, 9), 2, 500) != simulate_direct(
        make_stream(4, 9), 2, 500
    )


def test_streams_are_pcg64dxsm_keyed_by_the_seed_sequence_triple():
    gen = make_stream(3, 7, 2)
    assert isinstance(gen.bit_generator, np.random.PCG64DXSM)
    keyed = np.random.PCG64DXSM(np.random.SeedSequence(3, spawn_key=(7, 2)))
    assert gen.bit_generator.state == keyed.state
    assert make_stream(3, 7, 2).random(8).tolist() == gen.random(8).tolist()
    # seeds are not reduced modulo 2^64: 2^64 has a stream of its own
    triples = [(0, 0, 0), (2**64, 0, 0), (1, 0, 0), (2**64 - 1, 0, 0), (0, 1, 0), (0, 0, 1),
               (0, 2**64 - 1, 0), (3, 7, 2), (3, 2, 7)]
    firsts = {make_stream(*key).random(4).tobytes() for key in triples}
    assert len(firsts) == len(triples)


@pytest.mark.parametrize("seed", [-1, -(2**64)])
def test_a_negative_seed_is_rejected(seed):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        make_stream(seed)


def test_stream_keys_whose_words_could_collide_are_rejected():
    # SeedSequence flattens (stream, substream) into 32-bit words, so an
    # unbounded substream would give this key the words of (0, 2^33, 7)
    make_stream(0, 2**33, 7)
    with pytest.raises(ValueError, match="substream must be >= 0 and below 2\\^32"):
        make_stream(0, 0, 2 + 7 * 2**32)
    # and a seed past 2^128 would spill its fifth word into the stream's place
    with pytest.raises(ValueError, match="seed must be >= 0 and below 2\\^128"):
        make_stream(5 * 2**128, 3, 7)
    make_stream(0, 5 + 3 * 2**32, 7)
    make_stream(2**128 - 1, 2**64 - 1, 2**32 - 1)
    for key in ((0, 2**64, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="stream must be >= 0"):
            make_stream(*key)


def test_a_key_that_is_not_an_integer_is_not_truncated():
    for key, name in [((1.5,), "seed"), ((0, 2.0), "stream"), ((0, 0, 2.7), "substream"),
                      ((np.float64(3.0),), "seed")]:
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            make_stream(*key)
    with pytest.raises(TypeError, match="^seed must be an integer, got 1.9$"):
        joined(sample_chain_counts("sojourn", 2, 100, 5, seed=1.9))


def test_numpy_integer_keys_draw_the_stream_of_their_value():
    assert make_stream(np.int64(3)).random(4).tolist() == make_stream(3).random(4).tolist()
    assert (make_stream(np.uint64(3), np.int32(7), np.uint8(2)).random(4).tolist()
            == make_stream(3, 7, 2).random(4).tolist())


def test_batch_counts_independent_of_worker_count(monkeypatch):
    # 3,000 replicates in chunks of 700: four full chunks and a short one
    monkeypatch.setattr(samplers, "_CHUNK", 700)
    kwargs = dict(seed=SEED, label="test:workers")
    for method in ("direct", "sojourn", "insertion"):
        one = joined(sample_chain_counts(method, 2, 50, 3000, workers=1, **kwargs))
        four = joined(sample_chain_counts(method, 2, 50, 3000, workers=4, **kwargs))
        assert np.array_equal(one, four)


# ---------------------------------------------------------------------------
# the batch driver


BATCH_DRIVERS = {
    **{
        f"chain-counts-{method}": lambda r, method=method, **run: sample_chain_counts(
            method, 2, 10, r, seed=SEED, **run)
        for method in ("direct", "sojourn", "insertion")
    },
    "chain-flag-totals": lambda r, **run: samplers.sample_chain_flag_totals(
        2, 10, r, seed=SEED, **run),
    "renewal-counts": lambda r, **run: sample_renewal_counts(2, 10, r, seed=SEED, **run),
    "poisson-paced": lambda r, **run: sample_poisson_paced_terminals(2, 1.0, r, seed=SEED, **run),
    "limit-variables": lambda r, **run: sample_limit_variables(2, r, seed=SEED, **run),
    "window-counts": lambda r, **run: sample_window_counts(
        2, (0.25, 1.0, 4.0), r, seed=SEED, **run),
}


@pytest.mark.parametrize("replicates", [0, -3])
@pytest.mark.parametrize("driver", sorted(BATCH_DRIVERS))
def test_batch_drivers_reject_nonpositive_replicates(driver, replicates):
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        BATCH_DRIVERS[driver](replicates)


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("driver", sorted(BATCH_DRIVERS))
def test_batch_drivers_reject_a_worker_count_below_one(driver, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        BATCH_DRIVERS[driver](5, workers=workers)


@pytest.mark.parametrize("method", ["direct", "sojourn", "insertion"])
def test_chain_counts_reject_an_empty_horizon(method):
    with pytest.raises(ValueError, match="n >= 1"):
        sample_chain_counts(method, 2, 0, 10, seed=SEED)


# the renewal and paced drivers are checked through the CLI in
# tests/test_cli.py, the inputs on which their loops never end in a child
# process
EMPTY_SIZES = {
    "chain-flag-totals-d0": lambda: samplers.sample_chain_flag_totals(0, 10, 5, seed=SEED),
    "chain-flag-totals-n0": lambda: samplers.sample_chain_flag_totals(2, 0, 5, seed=SEED),
    "limit-variables-d0": lambda: sample_limit_variables(0, 5, seed=SEED),
    "window-counts-d0": lambda: sample_window_counts(0, (0.25, 1.0, 4.0), 5, seed=SEED),
}


@pytest.mark.parametrize("case", sorted(EMPTY_SIZES))
def test_batch_drivers_reject_an_empty_dimension_or_horizon(case):
    with pytest.raises(ValueError, match="need d >= 1"):
        EMPTY_SIZES[case]()


# ---------------------------------------------------------------------------
# the height factor


def test_height_factor_moments():
    gen = make_stream(SEED, 1)
    draws = np.array([samplers._height_factor_column(gen, 1, 1)[0] for _ in range(20000)])
    assert zscore(draws, 0.5) < 4
    gen = make_stream(SEED, 2)
    d2 = samplers._height_factor_column(gen, 2, 100000)
    assert zscore(d2, float(mellin(2, 1))) < 4


def test_height_factor_log_moments():
    # mean and variance of -log(factor) are both d
    for d in (1, 2, 3):
        gen = make_stream(SEED, 10 + d)
        x = -np.log(gen.random((100000, d))).sum(axis=1)
        assert zscore(x, d) < 4
        sq = (x - x.mean()) ** 2
        assert zscore(sq, d) < 4


def test_height_factor_matches_cdf():
    gen = make_stream(SEED, 15)
    for d in (2, 3):
        draws = samplers._height_factor_column(gen, d, 20000)
        res = scipy.stats.kstest(draws, lambda s, d=d: np.vectorize(
            lambda u: height_factor_cdf(d, max(u, 1e-300)))(s))
        assert res.pvalue > 1e-3, (d, res)


@pytest.mark.parametrize("d", range(1, 13))
def test_height_factor_is_the_row_product_bit_for_bit(d):
    factors = samplers._height_factor_column(make_stream(SEED, 16), d, 5000)
    u = make_stream(SEED, 16).random((5000, d))
    assert factors.tobytes() == u.prod(axis=1).tobytes()
    assert factors[:100].tolist() == [math.prod(row) for row in u[:100]]


# ---------------------------------------------------------------------------
# direct simulation


def test_direct_single_mark():
    tr = simulate_direct(make_stream(SEED, 30), 3, 1)
    assert tr.record_times == (1,)
    assert len(tr.heights) == 1


def test_direct_matches_records_module_per_seed(monkeypatch):
    tr = simulate_direct(make_stream(SEED, 31), 2, 2000)
    marks = make_stream(SEED, 31).random((2000, 2))  # the uniforms the scan draws
    assert tuple(chain_record_indices(marks)) == tr.record_times
    monkeypatch.setattr(samplers, "_SCAN_BLOCK", 100)
    assert simulate_direct(make_stream(SEED, 31), 2, 2000) == tr
    for t, h in zip(tr.record_times, tr.heights):
        assert abs(math.prod(marks[t - 1]) - h) < 1e-15


def test_direct_mean_count_matches_exact():
    counts = joined(sample_chain_counts("direct", 2, 7, 30000, seed=SEED, label="test:n7"))
    assert zscore(counts, float(exact.expected_chain_count(2, 7))) < 4


def test_direct_per_index_probabilities():
    reps = 30000
    _, totals = zip(*samplers.sample_chain_flag_totals(2, 10, reps, seed=SEED, label="test:flags"))
    totals = sum(totals)
    table = exact.chain_record_prob_table(2, 10)
    assert totals[0] == reps
    for n in range(2, 11):
        phat = totals[n - 1] / reps
        se = math.sqrt(phat * (1 - phat) / reps)
        assert abs(phat - float(table[n - 1])) < 4 * se


@pytest.mark.parametrize("chunk", [None, 700])
def test_flag_totals_count_what_the_direct_counts_driver_counts(chunk, monkeypatch):
    # c06 tests these counts against the other simulators, c07 their totals
    # against the exact engine: one draw serves both
    if chunk is not None:
        monkeypatch.setattr(samplers, "_CHUNK", chunk)  # four full chunks and a short one
    for d, n in ((1, 10), (2, 100), (3, 65)):
        kwargs = dict(seed=SEED, label=f"test:flags:d={d}:n={n}")
        counts, totals = zip(*samplers.sample_chain_flag_totals(d, n, 3000, workers=2, **kwargs))
        counts, totals = joined(counts), sum(totals)
        assert np.array_equal(counts, joined(sample_chain_counts("direct", d, n, 3000, **kwargs)))
        assert counts.dtype == totals.dtype == np.int64
        assert totals.shape == (n,) and totals[0] == 3000
        assert counts.sum() == totals.sum()


class GridStream:
    """Generator stub: the uniforms of ``gen`` floored to a grid of 4 values.

    Draws consume ``gen`` exactly as the real uniforms would, and marks
    tie in some coordinate at almost every comparison.
    """

    def __init__(self, gen):
        self.gen = gen

    def random(self, size):
        return np.floor(self.gen.random(size) * 4) / 4


def _stream(grid, key):
    gen = make_stream(SEED, key)
    return GridStream(gen) if grid else gen


@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "grid"])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_tiled_direct_kernel_equals_the_scalar_scan(d, n, grid):
    # at m=1 the index-major tiles are the scan's marks in mark order
    for key in range(5):
        counts, totals = samplers._direct_counts_chunk(_stream(grid, 35 + key), d, n, 1)
        times, _ = samplers._direct_scan(_stream(grid, 35 + key), d, n)
        assert counts.tolist() == [len(times)]
        assert (np.flatnonzero(totals) + 1).tolist() == times


def _tiled_marks(gen, d, n, m):
    """The (n, d, m) marks of the direct kernel: one (T, d, m) tile per ``_TILE`` indices."""
    return np.concatenate([gen.random((min(samplers._TILE, n - t0), d, m))
                           for t0 in range(0, n, samplers._TILE)])


@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "grid"])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_tiled_direct_kernel_equals_a_per_column_oracle(d, n, grid):
    # replicate r is column r of every tile, scanned one comparison at a time
    m = 40
    counts, totals = samplers._direct_counts_chunk(_stream(grid, 36), d, n, m)
    marks = _tiled_marks(_stream(grid, 36), d, n, m)
    records = [chain_record_indices(marks[:, :, r].tolist()) for r in range(m)]
    assert counts.tolist() == [len(times) for times in records]
    flags = np.bincount([t - 1 for times in records for t in times], minlength=n)
    assert totals.tolist() == flags.tolist()


def _reduction_mask_scan(rng, d, max_marks, max_records, block_size=1 << 16):
    """The direct scan with its mask built by reductions over each row: the oracle.

    It stops at ``max_records`` records or ``max_marks`` marks, whichever
    comes first.
    """
    times, heights = [], []
    rec = None
    produced = 0
    grow = 1024
    while produced < max_marks and len(times) < max_records:
        m = min(grow, block_size, max_marks - produced)
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
            mask = (sub <= rec).all(axis=1) & (sub < rec).any(axis=1)
            if not mask.any():
                break
            j = int(mask.argmax())
            rec = sub[j].copy()
            times.append(produced + i + j + 1)
            heights.append(float(rec.prod()))
            i += j + 1
        produced += m
    return times, heights


@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "grid"])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_direct_scan_equals_the_reduction_mask(d, grid, monkeypatch):
    for key in range(37, 47):
        for n, block_size in ((5000, 1 << 16), (2500, 100)):
            monkeypatch.setattr(samplers, "_SCAN_BLOCK", block_size)
            fast = samplers._direct_scan(_stream(grid, key), d, n)
            assert fast == _reduction_mask_scan(_stream(grid, key), d, n, n, block_size)


def test_log_transform_correspondence_on_simulated_marks():
    tr = simulate_direct(make_stream(SEED, 33), 3, 1500)
    marks = [tuple(m) for m in make_stream(SEED, 33).random((1500, 3))]
    upper = chain_record_indices(log_transform(marks), upper=True)
    assert tuple(upper) == tr.record_times


# ---------------------------------------------------------------------------
# sojourn simulation


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_sojourn_kernel_at_one_replicate_counts_the_scalar_trace(d):
    """The same stream through the array kernel and the Python-float loop.

    They agree per stream only up to about n = 10^9.  The loop takes its
    heights and gaps from ``math``, the kernel from numpy, and the two may
    differ by one ulp; once gaps reach about 10^13 that moves
    ``ceil(log1p(-v) / log1p(-h))`` by one, so by n = 10^15 some record
    times differ (5 of 500 streams at d=1).  Both are draws of the same law.
    """
    for i in range(1000):
        n = (10**5, 10**9)[i % 2]
        count = samplers._sojourn_counts_chunk(make_stream(SEED, 48, i), d, n, 1)
        assert count.tolist() == [simulate_sojourn(make_stream(SEED, 48, i), d, n).count], i


@pytest.mark.parametrize("n", [6 * 10**18, 2**63 - 1024])
def test_sojourn_kernel_counts_horizons_past_2_to_the_62(n):
    # t + gap passes 2^63 here unless each gap is capped at the room left, n + 1 - t
    kernel = joined(sample_chain_counts("sojourn", 2, n, 2000, seed=SEED,
                                        label="test:sojourn:huge"))
    gen = make_stream(SEED, 49)
    loop = [simulate_sojourn(gen, 2, n).count for _ in range(2000)]
    res = stats.two_sample_test(kernel, np.array(loop))
    assert res.pvalue >= 0.001, res


def test_sojourn_kernel_rejects_a_horizon_past_its_largest():
    start = time.perf_counter()
    samplers._sojourn_counts_chunk(make_stream(SEED, 50), 2, 2**63 - 1024, 1000)
    assert time.perf_counter() - start < 5
    for n in (2**63 - 1023, 2**63 - 1, 2**64):
        with pytest.raises(ValueError, match=r"n = 2\^63 - 1024 = 9223372036854774784"):
            joined(sample_chain_counts("sojourn", 2, n, 10, seed=SEED))


def test_sojourn_single_mark():
    tr = simulate_sojourn(make_stream(SEED, 40), 2, 1)
    assert tr.record_times == (1,)


def test_sojourn_matches_direct_distribution():
    a = joined(sample_chain_counts("direct", 2, 100, 30000, seed=SEED, label="test:eq:a"))
    b = joined(sample_chain_counts("sojourn", 2, 100, 30000, seed=SEED, label="test:eq:b"))
    res = stats.two_sample_test(a, b)
    assert res.pvalue >= 0.001, res


def test_sojourn_huge_horizon():
    tr = simulate_sojourn(make_stream(SEED, 41), 2, 10**9)
    assert tr.record_times[0] == 1
    assert all(t2 > t1 for t1, t2 in zip(tr.record_times, tr.record_times[1:]))
    assert all(h2 < h1 for h1, h2 in zip(tr.heights, tr.heights[1:]))
    assert tr.record_times[-1] <= 10**9


def test_sojourn_gaps_are_geometric_given_height():
    # condition on the first height falling in a narrow bin and compare the
    # waiting time to the second record with the geometric law at the
    # realized heights
    lo, hi = 0.5, 0.6
    gaps, hs = [], []
    gen = make_stream(SEED, 42)
    for _ in range(12000):
        tr = simulate_direct(gen, 2, 1000)
        if lo <= tr.heights[0] <= hi and tr.count >= 2:
            gaps.append(tr.record_times[1] - 1)
            hs.append(tr.heights[0])
    gaps = np.array(gaps)
    hs = np.array(hs)
    assert gaps.size > 300
    gmax = int(gaps.max())
    observed = np.bincount(gaps, minlength=gmax + 1)[1:].astype(float)
    expected = np.array(
        [((1 - hs) ** (g - 1) * hs).sum() for g in range(1, gmax + 1)]
    )
    # right tail of each: everything beyond gmax
    observed = np.append(observed, 0.0)
    expected = np.append(expected, ((1 - hs) ** gmax).sum())
    # pool the right tail so every expected count is at least 5
    while expected.size > 2 and expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    stat = ((observed - expected) ** 2 / expected).sum()
    pvalue = scipy.stats.chi2.sf(stat, observed.size - 1)
    assert pvalue > 1e-3, (stat, pvalue)


def test_heights_match_products_of_factors():
    # unconditional law of the k-th record height vs the product of k
    # independent factors (capped reruns are dropped; the cap makes them
    # vanishingly rare)
    gen = make_stream(SEED, 43)
    reps = 4000
    collected = {1: [], 2: [], 3: []}
    for _ in range(reps):
        _, heights = _reduction_mask_scan(gen, 2, 10**7, 3)  # stop at the third record
        for k, h in enumerate(heights, 1):
            collected[k].append(h)
    gen2 = make_stream(SEED, 44)
    for k in (1, 2, 3):
        direct = np.array(collected[k])
        assert direct.size > reps * 0.999
        products = np.exp(np.log(gen2.random((reps, 2 * k))).sum(axis=1))
        res = scipy.stats.ks_2samp(direct, products)
        assert res.pvalue >= 0.001, (k, res)


def test_sojourn_speedup_over_direct():
    n = 10**6
    direct_times, sojourn_times = [], []
    for rep in range(3):
        # streams are built outside the timings: set-up is not sampler work
        direct_gen, sojourn_gen = make_stream(SEED, 50 + rep), make_stream(SEED, 60 + rep)
        t0 = time.perf_counter()
        simulate_direct(direct_gen, 2, n)
        direct_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        simulate_sojourn(sojourn_gen, 2, n)
        sojourn_times.append(time.perf_counter() - t0)
    assert min(direct_times) / min(sojourn_times) >= 50


# ---------------------------------------------------------------------------
# insertion simulation


def _insertion_scan(rng, d, n):
    """The screening scan of the insertion construction in Python floats: the oracle.

    Draws as the insertion kernel does at m=1: the first height, then the
    screened terms 2..n in tiles of ``_TILE`` uniforms, and a height factor
    at each hit.  Returns the screened uniforms and the heights that
    replaced terms (one per replaced term, decreasing).
    """
    heights = [math.prod(rng.random(d))]
    screened = []
    for t0 in range(1, n, samplers._TILE):
        tile = rng.random(min(samplers._TILE, n - t0))
        for x in tile:
            if x < heights[-1]:
                heights.append(heights[-1] * math.prod(rng.random(d)))
        screened.extend(tile)
    return np.array(screened), heights


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_insertion_kernel_equals_the_scalar_scan(d):
    for i in range(1000):
        n = 50 + 50 * (i % 10)
        count = samplers._insertion_counts_chunk(make_stream(SEED, 71, i), d, n, 1)
        _, heights = _insertion_scan(make_stream(SEED, 71, i), d, n)
        assert count.tolist() == [len(heights)], (i, n)


def _insertion_rows(draws, d, n, m):
    """The insertion kernel's counts, replayed from its recorded draws one row at a time.

    ``draws`` are the first height factors of all m rows, then per tile of
    ``_TILE`` terms its (terms, m) uniforms, and after each term that hit
    some row one height-factor row for each row it hit, in row order.
    """
    draws = iter(draws)
    name, first = next(draws)
    assert name == "random" and first.shape == (m, d)
    thresh = [math.prod(f) for f in first]
    counts = [1] * m
    for t0 in range(1, n, samplers._TILE):
        name, tile = next(draws)
        assert name == "random" and tile.shape == (min(samplers._TILE, n - t0), m)
        for term in tile:
            hit = [r for r in range(m) if term[r] < thresh[r]]
            if not hit:
                continue
            name, factors = next(draws)
            assert name == "random" and factors.shape == (len(hit), d)
            for r, f in zip(hit, factors):
                thresh[r] = thresh[r] * math.prod(f)
                counts[r] += 1
    assert next(draws, None) is None
    return counts


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 64, 65, 200])
def test_insertion_kernel_gathers_each_rows_own_factors(d, n):
    # one factor per hit row, in row order: no row draws a factor it does not use
    for key in range(3):
        gen = RecordedDraws(make_stream(SEED, 72, key))
        counts = samplers._insertion_counts_chunk(gen, d, n, 30)
        assert counts.tolist() == _insertion_rows(gen.draws, d, n, 30)


class DrawSizes:
    """Generator proxy that records the size of every array a draw returns."""

    def __init__(self, gen):
        self.gen = gen
        self.sizes = []

    def _record(self, name, out):
        self.sizes.append(np.size(out))

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            out = getattr(self.gen, name)(*args, **kwargs)
            self._record(name, out)
            return out

        return draw


class RecordedDraws(DrawSizes):
    """Generator proxy that also keeps each draw: its method name and a copy of its array."""

    def __init__(self, gen):
        super().__init__(gen)
        self.draws = []

    def _record(self, name, out):
        super()._record(name, out)
        self.draws.append((name, np.array(out)))


# NEP 19 lets a Generator method's values change between numpy releases, so
# each method a kernel calls is one more way a digest could move: every
# kernel draws through three methods at most, and only _straddle draws a gamma.
_KERNEL_METHODS = {
    "direct": (lambda g: samplers._direct_counts_chunk(g, 2, 100, 30), {"random"}),
    "direct-scan": (lambda g: samplers._direct_scan(g, 2, 3000), {"random"}),
    "insertion": (lambda g: samplers._insertion_counts_chunk(g, 2, 200, 30), {"random"}),
    "sojourn": (lambda g: samplers._sojourn_counts_chunk(g, 2, 10**5, 30), {"random"}),
    "sojourn-trace": (lambda g: simulate_sojourn(g, 2, 10**5), {"random"}),
    "renewal": (lambda g: samplers._renewal_counts_chunk(g, 2, 10**4, 30), {"random"}),
    "paced": (lambda g: samplers._poisson_paced_chunk(g, 2, 5.0, 2.0, 30),
              {"random", "standard_exponential"}),
    "limit": (lambda g: samplers._limit_variable_chunk(g, 2, 1e-6, 30),
              {"gamma", "random", "standard_exponential"}),
    "window": (lambda g: samplers._window_points_chunk(g, 2, (0.25, 1.0, 4.0), 1e-9, 30),
               {"gamma", "random", "standard_exponential"}),
    "straddle": (lambda g: samplers._straddle(g, 2, 30), {"gamma", "random"}),
}


@pytest.mark.parametrize("kernel", sorted(_KERNEL_METHODS))
def test_each_kernel_draws_through_its_pinned_generator_methods(kernel):
    draw, methods = _KERNEL_METHODS[kernel]
    gen = RecordedDraws(make_stream(SEED, 106))
    draw(gen)
    assert {name for name, _ in gen.draws} == methods
    # the limit laws' one gamma draw is the straddle that starts them
    assert [name for name, _ in gen.draws].count("gamma") == ("gamma" in methods)


# The batch driver cuts every law into chunks of ``_CHUNK`` replicates and
# leaves memory to the kernels: at one full chunk, no kernel draws a block
# that grows with n.


def test_insertion_kernel_draws_at_most_one_tile_at_a_time():
    gen = DrawSizes(make_stream(SEED, 73))
    samplers._insertion_counts_chunk(gen, 2, 10_000, samplers._CHUNK)
    assert max(gen.sizes) <= samplers._TILE * samplers._CHUNK


def test_direct_kernel_draws_at_most_one_tile_at_a_time():
    gen = DrawSizes(make_stream(SEED, 74))
    samplers._direct_counts_chunk(gen, 3, 4096, samplers._CHUNK)
    assert max(gen.sizes) <= samplers._TILE * 3 * samplers._CHUNK


@pytest.mark.parametrize("window", [(0.25, 1.0, 4.0), (0.5, 2.0, 2.0)])
def test_window_kernel_draws_one_value_per_active_row_at_a_time(window):
    # c11's base and image windows; each draw is one value or one height
    # factor (d uniforms) per active row, and the kernel keeps three entries
    # per exponential drawn
    d = 2
    gen = DrawSizes(make_stream(SEED, 75))
    samplers._window_points_chunk(gen, d, window, 1e-9, samplers._CHUNK)
    assert max(gen.sizes) <= d * samplers._CHUNK
    assert sum(gen.sizes) <= 44 * samplers._CHUNK  # about 34 per row: d + 1 per grid step


def _window_rows(draws, d, window, m, truncation_tol=1e-9):
    """The window kernel's points, replayed from its recorded draws one row at a time.

    ``draws`` are the straddle's gamma and uniform columns, a height-factor
    row for each row still stepping backward, then per level, deepest
    first, an exponential for each row that has that level, then per
    forward step a height-factor row and an exponential for each row still
    going; each draw's entries go to its rows in row order.  Returns the
    in-window ``(row, height, time)`` points in the kernel's draw order.
    """
    s_lo, s_hi, t_hi = window
    tail_const = math.exp(-d) / -math.expm1(-d)
    draws = iter(draws)

    def take(name, rows, shape=()):
        drawn, values = next(draws)
        assert drawn == name and values.shape == (len(rows), *shape)
        return zip(rows, values.tolist())

    everyone = range(m)
    straddle = dict(take("gamma", everyone))
    x0 = {r: u * straddle[r] for r, u in take("random", everyone)}
    grids = {r: [x0[r], x0[r] - straddle[r]] for r in everyone}  # -log heights, backward
    active = list(everyone)
    while True:
        tops = {r: math.exp(-grids[r][-1]) for r in active}  # each row's largest height so far
        active = [r for r in active if not (tops[r] > s_hi and tail_const / tops[r] < truncation_tol)]
        if not active:
            break
        for r, f in take("random", active, (d,)):
            grids[r].append(grids[r][-1] + math.log(math.prod(f)))

    sigma = [0.0] * m
    points = []
    for k in reversed(range(max(map(len, grids.values())))):
        for r, e in take("standard_exponential", [r for r in everyone if len(grids[r]) > k]):
            xi = math.exp(-grids[r][k])
            sigma[r] += e / xi
            points.append((r, xi, sigma[r]))
    x = dict(x0)
    going = [r for r in everyone if sigma[r] <= t_hi]
    while going:
        heights = {}
        for r, f in take("random", going, (d,)):
            x[r] -= math.log(math.prod(f))
            heights[r] = math.exp(-x[r])
        for r, e in take("standard_exponential", going):
            sigma[r] += e / heights[r]
            points.append((r, heights[r], sigma[r]))
        going = [r for r in going if heights[r] >= s_lo and sigma[r] <= t_hi]
    assert next(draws, None) is None
    return [p for p in points if s_lo <= p[1] <= s_hi and p[2] <= t_hi]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("window", [(0.25, 1.0, 4.0), (0.05, 3.0, 10.0)])
def test_window_kernel_draws_its_levels_deepest_first_for_the_rows_that_have_them(d, window):
    # c11's base window and the golden window: the arrival phase draws one
    # exponential per row per level, so its draws grow from the deepest level up
    m = 30
    for key in range(3):
        gen = RecordedDraws(make_stream(SEED, 104, key))
        rows, xi, sigma = samplers._window_points_chunk(gen, d, window, 1e-9, m)
        replay = _window_rows(gen.draws, d, window, m)
        assert rows.tolist() == [r for r, _, _ in replay]
        assert xi.tolist() == pytest.approx([h for _, h, _ in replay], rel=1e-12, abs=0)
        assert sigma.tolist() == pytest.approx([t for _, _, t in replay], rel=1e-12, abs=0)


def _sojourn_rows(draws, d, n, m):
    """The sojourn kernel's counts, replayed from its recorded draws one row at a time.

    ``draws`` are the first height-factor rows of all m rows, then per step
    a uniform for each active row and a height-factor row for each row
    whose sojourn landed within n; each draw's entries go to the active
    rows in row order, so every draw must have as many rows as are active.
    A row's log height grows by the log of its factor row's product.
    """
    (name, first), *steps = draws
    assert name == "random" and first.shape == (m, d)
    log_h = [np.log(math.prod(f)) for f in first]
    t = [1] * m
    counts = [1] * m
    active = list(range(m))
    for i, (name, values) in enumerate(steps):
        assert name == "random" and len(values) == len(active), i
        if i % 2:  # a height-factor row for each row that landed
            assert values.shape == (len(active), d)
            for r, f in zip(active, values):
                log_h[r] = log_h[r] + np.log(math.prod(f))
            continue
        landed = []
        for r, v in zip(active, values):
            with np.errstate(divide="ignore", invalid="ignore"):
                gap = np.ceil(np.log1p(-v) / np.log1p(-np.exp(log_h[r])))
            if np.isfinite(gap) and t[r] + max(int(gap), 1) <= n:
                t[r] += max(int(gap), 1)
                counts[r] += 1
                landed.append(r)
        active = landed
    assert not active
    return counts


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 10**5])
@pytest.mark.parametrize("m", [1, 30])
def test_sojourn_kernel_draws_only_for_its_active_rows(d, n, m):
    for key in range(3):
        gen = RecordedDraws(make_stream(SEED, 77, key))
        counts = samplers._sojourn_counts_chunk(gen, d, n, m)
        assert counts.tolist() == _sojourn_rows(gen.draws, d, n, m)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sojourn_kernel_at_one_replicate_draws_what_the_scalar_trace_draws(d):
    for key in range(20):
        kernel, loop = RecordedDraws(make_stream(SEED, 78, key)), RecordedDraws(make_stream(SEED, 78, key))
        samplers._sojourn_counts_chunk(kernel, d, 10**5, 1)
        simulate_sojourn(loop, d, 10**5)
        assert [v.ravel().tolist() for _, v in kernel.draws] == [
            np.ravel(v).tolist() for _, v in loop.draws]


def test_insertion_single_mark():
    assert samplers._insertion_counts_chunk(make_stream(SEED, 70), 2, 1, 1).tolist() == [1]


def test_insertion_dimension_one_matches_classical_records():
    counts = joined(sample_chain_counts("insertion", 1, 50, 30000, seed=SEED, label="test:ins1"))
    harmonic = float(expected_weak_count_table(1, 50)[-1])  # harmonic number
    assert zscore(counts, harmonic) < 4


def test_three_way_agreement_small():
    samples = {
        m: joined(sample_chain_counts(m, 2, 100, 20000, seed=SEED, label=f"test:threeway:{m}"))
        for m in ("direct", "sojourn", "insertion")
    }
    for a, b in (("direct", "sojourn"), ("direct", "insertion"), ("sojourn", "insertion")):
        res = stats.two_sample_test(samples[a], samples[b])
        assert res.pvalue >= 0.001, (a, b, res)


# ---------------------------------------------------------------------------
# renewal counts


class FixedUniforms:
    """Generator stub whose uniforms are a fixed sequence, in draw order."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self, size):
        return np.array([next(self.values) for _ in range(math.prod(size))]).reshape(size)


def test_renewal_count_frozen_example():
    # factors 0.5, 0.4, 0.25 give heights 0.5, 0.2, 0.05: two above 1/10
    counts = samplers._renewal_counts_chunk(FixedUniforms([0.5, 0.4, 0.25]), 1, 10, 1)
    assert counts.tolist() == [2]


def _renewal_rows(draws, d, n, m):
    """The renewal kernel's counts, replayed from its recorded draws one row at a time.

    ``draws`` are the first height-factor rows of all m rows, then per step
    a height-factor row for each row whose height is still above 1/n, in
    row order, so every draw must have as many rows as are active.  A
    row's -log height grows by -log of its factor row's product.
    """
    (name, first), *steps = draws
    assert name == "random" and first.shape == (m, d)
    log_n = math.log(n)
    x = [-np.log(math.prod(f)) for f in first]
    counts = [0] * m
    active = [r for r in range(m) if x[r] < log_n]
    for name, factors in steps:
        assert name == "random" and factors.shape == (len(active), d)
        for r, f in zip(active, factors):
            counts[r] += 1
            x[r] = x[r] - np.log(math.prod(f))
        active = [r for r in active if x[r] < log_n]
    assert not active
    return counts


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 10**4])
@pytest.mark.parametrize("m", [1, 30])
def test_renewal_kernel_draws_only_for_its_active_rows(d, n, m):
    for key in range(3):
        gen = RecordedDraws(make_stream(SEED, 79, key))
        counts = samplers._renewal_counts_chunk(gen, d, n, m)
        assert counts.tolist() == _renewal_rows(gen.draws, d, n, m)


def test_renewal_count_mean():
    counts = joined(sample_renewal_counts(2, 10**4, 100000, seed=SEED, label="test:renewal"))
    target = math.log(10**4) / 2
    assert abs(counts.mean() - target) / target < 0.10
    assert zscore(counts, counts.mean()) == 0  # sanity: zscore helper


def test_insertion_renewal_sandwich():
    # the unconditional first replacement contributes the +1: every other
    # replacement either consumed a height above 1/n (there are at most
    # `renewal` of those) or was triggered by a uniform below 1/n
    # (the oracle scan gives the kernel's counts, see
    # test_insertion_kernel_equals_the_scalar_scan; its heights extend
    # past the scan until one drops to 1/n)
    gen = make_stream(SEED, 76)
    n = 100
    triples = []
    for _ in range(10000):
        u, heights = _insertion_scan(gen, 2, n)
        count = len(heights)
        while heights[-1] > 1 / n:
            heights.append(heights[-1] * math.prod(gen.random(2)))
        triples.append((count, sum(h > 1 / n for h in heights), int((u < 1 / n).sum())))
    count, renewal, below = np.array(triples).T
    assert (count <= renewal + below + 1).all()
    assert abs(below.mean() - 1.0) < 0.05  # below-1/n hits are ~Poisson(1)


# ---------------------------------------------------------------------------
# the paced process


def _paced_path(gen, d, t_end, b0):
    """Jump times and states of the paced process, one jump at a time: the oracle.

    Draws as the paced kernel does at m=1: an exponential hold, then a
    height factor if the jump falls within ``t_end``.
    """
    jumps, states = [], [b0]
    t = 0.0
    while True:
        t += gen.standard_exponential(1)[0] / states[-1]
        if t > t_end:
            return jumps, states
        jumps.append(t)
        states.append(states[-1] * math.prod(gen.random(d)))


def test_poisson_paced_path_structure():
    for i in range(50):
        count, _, state = samplers._poisson_paced_chunk(make_stream(SEED, 80, i), 2, 50.0, 1.0, 1)
        jumps, states = _paced_path(make_stream(SEED, 80, i), 2, 50.0, 1.0)
        assert (count[0], state[0]) == (len(jumps), states[-1])
        assert all(a < b <= 50.0 for a, b in zip([0.0, *jumps], jumps))
        assert all(0 < b / a < 1 for a, b in zip(states, states[1:]))


def test_poisson_paced_integral_sums_the_segments():
    jumps_seen = 0
    for i in range(50):
        _, integral, _ = samplers._poisson_paced_chunk(make_stream(SEED, 81, i), 1, 10.0, 2.0, 1)
        jumps, states = _paced_path(make_stream(SEED, 81, i), 1, 10.0, 2.0)
        cuts = [0.0, *jumps, 10.0]
        segments = sum((b - a) * s for a, b, s in zip(cuts, cuts[1:], states))
        assert integral[0] == pytest.approx(segments, rel=1e-12)
        jumps_seen += len(jumps)
    assert jumps_seen >= 100


def _paced_rows(draws, d, t_end, b0, m):
    """The paced kernel's counts, integrals and states, replayed one row at a time.

    ``draws`` are per step an exponential for each running row, then a
    height-factor row for each row whose jump fell within ``t_end``, in row
    order, so every draw must have as many rows as use it.
    """
    names = [name for name, _ in draws]
    assert names == ["standard_exponential", "random"] * (len(draws) // 2)
    counts, integral, b, t = [0] * m, [0.0] * m, [float(b0)] * m, [0.0] * m
    active = list(range(m))
    for (_, exponentials), (_, factors) in zip(draws[::2], draws[1::2]):
        assert len(exponentials) == len(active)
        jumped = []
        for r, e in zip(active, exponentials):
            hold = e / b[r]
            if t[r] + hold > t_end:
                integral[r] = integral[r] + b[r] * (t_end - t[r])
                continue
            integral[r] = integral[r] + b[r] * hold
            t[r] = t[r] + hold
            counts[r] += 1
            jumped.append(r)
        assert factors.shape == (len(jumped), d)
        for r, f in zip(jumped, factors):
            b[r] = b[r] * math.prod(f)
        active = jumped
    assert not active
    return counts, integral, b


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t_end, b0", [(0.5, 1.0), (5.0, 2.0)])
@pytest.mark.parametrize("m", [1, 30])
def test_paced_kernel_draws_only_for_its_running_rows(d, t_end, b0, m):
    for key in range(3):
        gen = RecordedDraws(make_stream(SEED, 82, key))
        counts, integral, states = samplers._poisson_paced_chunk(gen, d, t_end, b0, m)
        replayed = _paced_rows(gen.draws, d, t_end, b0, m)
        assert [counts.tolist(), integral.tolist(), states.tolist()] == list(replayed)


def test_compensator_identity_small():
    counts, integrals, _ = joined(sample_poisson_paced_terminals(
        2, 3.0, 30000, seed=SEED, label="test:comp"
    ))
    diff = integrals - counts
    assert zscore(diff, 0.0) < 4


def test_paced_mean_state_matches_moment_series():
    for d in (1, 2):
        for t in (1.0, 2.0, 5.0):
            _, _, states = joined(sample_poisson_paced_terminals(
                d, t, 30000, seed=SEED, label=f"test:bt:{d}:{t}"
            ))
            assert zscore(states, exact.moment_series(d, 1, t)) < 4, (d, t)


def test_paced_self_similarity():
    # scaling time by b and space by 1/b maps the process started at 1 to
    # the process started at b
    _, _, s1 = joined(sample_poisson_paced_terminals(2, 2.0, 10000, b0=1.0, seed=SEED,
                                                     label="test:ss1"))
    _, _, s2 = joined(sample_poisson_paced_terminals(2, 1.0, 10000, b0=2.0, seed=SEED,
                                                     label="test:ss2"))
    res = scipy.stats.ks_2samp(2.0 * s1, s2)
    assert res.pvalue >= 0.01, res


# ---------------------------------------------------------------------------
# stationary factor and the limit variable


class UnitExponentials:
    """Generator stub whose exponentials are all 1; other draws pass through.

    With it, and a tolerance above 1 that stops the series at its first
    term, the limit-variable kernel returns its stationary factors.
    """

    def __init__(self, gen):
        self.gen = gen

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def standard_exponential(self, size):
        return np.ones(size)


def _stationary_factors(key, d, m):
    return samplers._limit_variable_chunk(UnitExponentials(make_stream(SEED, key)), d, 2.0, m)[0]


def test_stationary_factor_dimension_one_is_uniform():
    draws = _stationary_factors(90, 1, 10000)
    assert scipy.stats.kstest(draws, "uniform").pvalue > 1e-3


def _stationary_cdf(d):
    def cdf(s):
        s = np.clip(s, 1e-300, 1.0)
        x = -np.log(s)
        total = np.zeros_like(x)
        term = np.ones_like(x)
        for m in range(d):
            if m:
                term = term * x / m
            total = total + (d - m) * term
        return s * total / d

    return cdf


def test_stationary_factor_matches_density():
    draws = _stationary_factors(91, 3, 20000)
    assert scipy.stats.kstest(draws, _stationary_cdf(3)).pvalue > 1e-3


@pytest.mark.parametrize("d", [1, 2, 3, 30])
def test_limit_kernel_starts_from_the_straddles_lower_side(d):
    # the stationary factor is exp(-x) of the straddle's at-or-below point, bit for bit
    factors = _stationary_factors(105, d, 1000)
    _, x0 = samplers._straddle(make_stream(SEED, 105), d, 1000)
    assert factors.tolist() == np.exp(-x0).tolist()


def test_straddle_pair_invariants_and_law():
    gen = make_stream(SEED, 92)
    above, below = np.exp(-np.array(samplers._straddle(gen, 2, 20000)))
    assert (above > 1).all()
    assert ((0 < below) & (below <= 1)).all()
    # the at-or-below point has the stationary law
    assert scipy.stats.kstest(below, _stationary_cdf(2)).pvalue > 1e-3


def test_limit_variable_moments_small():
    for d in (1, 2):
        values, depths = joined(sample_limit_variables(d, 200000, seed=SEED, label=f"test:y:{d}"))
        assert zscore(values, float(exact.limit_moment(d, 1))) < 4
        assert zscore(values**2, float(exact.limit_moment(d, 2))) < 4
        assert depths.min() >= 0


def test_limit_variable_alternative_sampler_dimension_two():
    # at d=2 the limit variable is an exponential times an independent uniform
    values, _ = joined(sample_limit_variables(2, 50000, seed=SEED, label="test:y:eu"))
    gen = make_stream(SEED, 93)
    alt = gen.exponential(size=50000) * gen.random(50000)
    res = scipy.stats.ks_2samp(values, alt)
    assert res.pvalue >= 0.01, res


def _limit_rows(draws, d, tolerance, m):
    """The limit kernel's values and depths, replayed from its recorded draws one row at a time.

    ``draws`` are the straddle's gamma and uniform columns and the first
    exponentials of all m rows, then per step a height-factor row and an
    exponential for each row still active; each draw's entries go to the
    active rows in row order, so every draw must have as many rows as are
    active.  A row's stationary factor is exp(-U * G) of its straddle.
    """
    tail_ratio = 1.0 / (2**d - 1)
    names = [name for name, _ in draws]
    assert names[:3] == ["gamma", "random", "standard_exponential"]
    assert names[3:] == ["random", "standard_exponential"] * ((len(draws) - 3) // 2)
    (_, straddle), (_, uniforms), (_, first), *steps = draws
    assert straddle.shape == uniforms.shape == first.shape == (m,)
    p = [np.exp(-(u * g)) for u, g in zip(uniforms, straddle)]
    y = [e * pr for e, pr in zip(first, p)]
    depth = [0] * m
    active = [r for r in range(m) if p[r] * tail_ratio >= tolerance]
    for (_, factors), (_, exponentials) in zip(steps[::2], steps[1::2]):
        assert factors.shape == (len(active), d) and len(exponentials) == len(active)
        for r, f, e in zip(active, factors, exponentials):
            p[r] = p[r] * math.prod(f)
            y[r] = y[r] + e * p[r]
            depth[r] += 1
        active = [r for r in active if p[r] * tail_ratio >= tolerance]
    assert not active
    return y, depth


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("tolerance", [1e-6, 2.0])
@pytest.mark.parametrize("m", [1, 30])
def test_limit_kernel_draws_only_for_its_active_rows(d, tolerance, m):
    for key in range(3):
        gen = RecordedDraws(make_stream(SEED, 96, key))
        values, depth = samplers._limit_variable_chunk(gen, d, tolerance, m)
        y, steps = _limit_rows(gen.draws, d, tolerance, m)
        assert values.tolist() == y and depth.tolist() == steps
        # the straddle's uniform column, then one height-factor row per step taken
        assert sum(len(f) for name, f in gen.draws if name == "random") == m + depth.sum()


_LAW_PROBABILITIES = (1e-3, 3e-3, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                      0.9, 0.95, 0.99)


def _limit_law_worst_z(d, tolerance, draws=400_000):
    """Worst z of the sampled limit variable's CDF against ``limit_cdf``.

    The empirical CDF is read at the sample quantiles of
    ``_LAW_PROBABILITIES``, from 0.1% up, so that a truncation bias at small
    values shows.
    """
    values, _ = joined(sample_limit_variables(d, draws, tolerance=tolerance, seed=SEED,
                                              label=f"test:limit-law:d={d}"))
    values.sort()
    at = values[(np.array(_LAW_PROBABILITIES) * draws).astype(int)]
    empirical = np.searchsorted(values, at, side="right") / draws
    exact_cdf = np.array([limit_cdf(d, float(y)) for y in at])
    return float(np.max(np.abs(empirical - exact_cdf) / np.sqrt(exact_cdf * (1 - exact_cdf) / draws)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_limit_variable_matches_its_exact_law(d):
    assert _limit_law_worst_z(d, 1e-6) < 4


@pytest.mark.parametrize("d", [1, 2, 3])
def test_limit_law_check_catches_a_loose_tolerance(d):
    # the stop rule P_k/(2^d - 1) < tolerance biases small values most
    assert _limit_law_worst_z(d, 1e-3) >= 4


def test_limit_cdf_matches_the_closed_forms_at_low_dimension():
    for y in (1e-4, 0.01, 0.5, 2.0, 10.0):
        assert limit_cdf(1, y) == pytest.approx(-math.expm1(-y), abs=1e-12)
        assert limit_cdf(2, y) == pytest.approx(
            -math.expm1(-y) + y * scipy.special.exp1(y), abs=1e-12)


def _one_limit_variable(gen, d, tolerance):
    return samplers._limit_variable_chunk(gen, d, tolerance, 1)[0][0]


def test_limit_variable_scalar_matches_tolerance_contract():
    assert _one_limit_variable(make_stream(SEED, 94), 2, 1e-8) > 0
    loose = np.array([_one_limit_variable(make_stream(SEED, 95, i), 2, 1e-2) for i in range(200)])
    tight = np.array([_one_limit_variable(make_stream(SEED, 95, i), 2, 1e-10) for i in range(200)])
    # same streams, tighter tolerance: the series only gains terms
    assert (tight >= loose - 1e-12).all()


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_limit_variables_reject_a_tolerance_that_is_not_finite_and_positive(tolerance):
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        sample_limit_variables(2, 5, tolerance=tolerance, seed=SEED)


def test_limit_variables_draw_past_the_dimension_where_2_to_the_d_overflows():
    # the tail bound 1/(2^d - 1) overflowed a double from d = 1024; the
    # stationary factor exp(-U * Gamma(d+1)) underflows to 0 in some rows from
    # d near 700 (about a quarter at d = 1000), and such a row stops at once
    for d in (709, 710, 1000, 1023, 1024, 1100):
        y, depth = joined(sample_limit_variables(d, 10, seed=SEED))
        assert np.isfinite(y).all() and (y >= 0).all() and (depth == 0).all(), d


# ---------------------------------------------------------------------------
# the limit point process


def test_window_points_lie_in_window_and_times_increase():
    # every row of one full window chunk
    m = 1024
    rows, xi, sigma = samplers._window_points_chunk(make_stream(SEED, 96), 2, (0.05, 3.0, 10.0),
                                                    1e-9, m)
    assert ((0.05 <= xi) & (xi <= 3.0)).all()
    assert ((0 < sigma) & (sigma <= 10.0)).all()
    # a row's points come in draw order: times increase as heights decrease
    order = np.argsort(rows, kind="stable")
    rows, xi, sigma = rows[order], xi[order], sigma[order]
    same_row = rows[1:] == rows[:-1]
    assert (np.diff(xi)[same_row] < 0).all()
    assert (np.diff(sigma)[same_row] > 0).all()
    assert same_row.sum() > m // 2  # the order checks compare hundreds of pairs


def test_window_counts_hyperbolic_invariance_small():
    a = joined(sample_window_counts(2, (0.25, 1.0, 4.0), 4000, seed=SEED, label="test:w:a"))
    b = joined(sample_window_counts(2, (0.5, 2.0, 2.0), 4000, seed=SEED, label="test:w:b"))
    res = stats.two_sample_test(a, b)
    assert res.pvalue >= 0.001, res


def test_window_rejects_bad_arguments():
    gen = make_stream(SEED, 97)
    with pytest.raises(ValueError):
        sample_window_points(gen, 2, (0.5, 0.2, 1.0))
    with pytest.raises(ValueError):
        sample_window_points(gen, 2, (0.1, 1.0, 1.0), truncation_tol=-1.0)


@pytest.mark.parametrize("window", [(0.25, 1.0, 4.0), (0.5, 2.0, 2.0), (0.05, 3.0, 10.0)])
def test_window_kernel_at_one_replicate_counts_the_points_sampler(window):
    # the c11 base and image windows and the golden window, on the same streams
    for d in (1, 2, 3):
        for i in range(500):
            xi, sigma = sample_window_points(make_stream(SEED, 98, 1000 * d + i), d, window)
            points = limit_process_points(make_stream(SEED, 98, 1000 * d + i), d, window)
            assert len(xi) == len(points), (d, i)
            assert xi.tolist() == pytest.approx([p[0] for p in points], rel=1e-12, abs=0)
            assert sigma.tolist() == pytest.approx([p[1] for p in points], rel=1e-12, abs=0)


def test_window_kernel_rows_have_the_law_of_the_points_sampler():
    window = (0.05, 3.0, 10.0)
    batch = joined(sample_window_counts(2, window, 4000, seed=SEED, label="test:w:batch"))
    gen = make_stream(SEED, 99)
    points = [len(limit_process_points(gen, 2, window)) for _ in range(4000)]
    res = stats.two_sample_test(batch, np.array(points))
    assert res.pvalue >= 0.001, res


# c11's base and image windows, then the golden window
_MEAN_WINDOWS = [(0.25, 1.0, 4.0), (0.5, 2.0, 2.0), (0.05, 3.0, 10.0)]


def _window_mean_z(d, window, draws=100_000):
    counts = joined(sample_window_counts(d, window, draws, seed=SEED,
                                         label=f"test:window-mean:d={d}:window={window}"))
    return zscore(counts, window_mean(d, window))


def test_window_mean_oracle_at_dimension_one_is_the_gamma_two_integral():
    # at d=1 the Palm law of sigma * xi is Gamma(2), with CDF 1 - e^-x (1 + x)
    s_lo, s_hi, t_hi = 0.25, 1.0, 4.0

    def gamma_two_cdf(x):
        return -math.expm1(-x) - x * math.exp(-x)

    reference, _ = scipy.integrate.quad(lambda u: gamma_two_cdf(t_hi * math.exp(u)),
                                        math.log(s_lo), math.log(s_hi), epsabs=1e-13, epsrel=1e-13)
    assert window_mean(1, (s_lo, s_hi, t_hi)) == pytest.approx(reference, rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_window_counts_have_the_exact_mean(d):
    for window in _MEAN_WINDOWS:
        assert _window_mean_z(d, window) < 4, (d, window)


def test_window_mean_check_catches_arrival_times_ten_percent_late(monkeypatch):
    # every arrival time x1.1 acts on c11's two windows alike: c11 passes it,
    # and only the exact mean sees it
    chunk = samplers._window_points_chunk

    def late(gen, d, window, truncation_tol, m):
        s_lo, s_hi, t_hi = window
        rows, xi, sigma = chunk(gen, d, (s_lo, s_hi, t_hi / 1.1), truncation_tol, m)
        return rows, xi, 1.1 * sigma

    monkeypatch.setattr(samplers, "_window_points_chunk", late)
    # c11-mean sees it on c11's own draws (tests/test_acceptance.py)
    c11 = verify._judge(verify.c11_hyperbolic_invariance(verify.DEFAULT_SEED)[0], {})
    assert c11.passed, c11
    for window in _MEAN_WINDOWS[:2]:
        assert _window_mean_z(2, window) > 4, window


def test_c11_window_mean_is_the_exact_mean_of_both_windows():
    # the image window has the base window's mean, by the invariance c11 tests
    for window in _MEAN_WINDOWS[:2]:
        assert window_mean(2, window) == pytest.approx(verify._C11_WINDOW_MEAN, rel=1e-12, abs=0)


@pytest.mark.parametrize("window, tol", [
    ((0.5, 0.2, 1.0), 1e-9), ((0.5, 0.5, 1.0), 1e-9), ((0.0, 1.0, 1.0), 1e-9),
    ((0.1, 1.0, 0.0), 1e-9), ((0.1, 1.0, -1.0), 1e-9), ((0.1, 1.0, 1.0), 0.0),
    ((0.1, 1.0, 1.0), -1.0), ((0.1, 1.0, 1.0), math.nan), ((0.1, 1.0, 1.0), math.inf),
    ((math.nan, 1.0, 1.0), 1e-9), ((0.1, math.nan, 1.0), 1e-9), ((0.1, math.inf, 1.0), 1e-9),
    ((0.1, 1.0, math.nan), 1e-9),
])
def test_window_counts_reject_bad_arguments_before_drawing(window, tol, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before checking its arguments")

    monkeypatch.setattr(samplers, "_run_chunked", no_draws)
    with pytest.raises(ValueError):
        sample_window_counts(2, window, 10, truncation_tol=tol, seed=SEED)


# a bad value of each check the other wrappers make, as they are called
BAD_ARGUMENTS = {
    "chain-counts-d0": lambda: sample_chain_counts("sojourn", 0, 10, 5, seed=SEED),
    "chain-counts-workers0": lambda: sample_chain_counts("direct", 2, 10, 5, seed=SEED, workers=0),
    "chain-flag-totals-replicates0": lambda: samplers.sample_chain_flag_totals(2, 10, 0, seed=SEED),
    "renewal-counts-d0": lambda: sample_renewal_counts(0, 10, 5, seed=SEED),
    "renewal-counts-n0": lambda: sample_renewal_counts(2, 0, 5, seed=SEED),
    "poisson-paced-t-inf": lambda: sample_poisson_paced_terminals(2, math.inf, 5, seed=SEED),
    "poisson-paced-b0-inf": lambda: sample_poisson_paced_terminals(2, 1.0, 5, b0=math.inf,
                                                                   seed=SEED),
    "limit-variables-tolerance-inf": lambda: sample_limit_variables(2, 5, tolerance=math.inf,
                                                                    seed=SEED),
    "limit-variables-workers0": lambda: sample_limit_variables(2, 5, seed=SEED, workers=0),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_sample_wrappers_reject_bad_arguments_on_the_call(case, monkeypatch):
    # the iterator is never read, so a check deferred to its first chunk would not raise
    def no_draws(*args):
        raise AssertionError("drew before checking its arguments")

    monkeypatch.setattr(samplers, "make_stream", no_draws)
    with pytest.raises(ValueError):
        BAD_ARGUMENTS[case]()


@pytest.mark.parametrize("seed, error", [(1.9, TypeError), (-1, ValueError), (2**128, ValueError)],
                         ids=["float", "negative", "2^128"])
@pytest.mark.parametrize("sample", [
    lambda seed: sample_chain_counts("sojourn", 2, 100, 5, seed=seed),
    lambda seed: sample_limit_variables(2, 5, seed=seed),
], ids=["chain-counts", "limit-variables"])
def test_sample_wrappers_reject_a_bad_seed_on_the_call(sample, seed, error):
    # rng's own key check, made before the iterator is read
    with pytest.raises(error, match="seed must be"):
        sample(seed)


def test_window_counts_run_past_the_dimension_where_e_to_the_d_overflows():
    # the tail bound 1/(e^d - 1) overflowed a double from d = 710
    for d in (709, 710):
        counts = joined(sample_window_counts(d, (0.25, 1.0, 4.0), 50, seed=SEED))
        assert counts.shape == (50,) and (counts >= 0).all(), d


# ---------------------------------------------------------------------------
# height factors that underflow: at d = 1000 every product of d uniforms is 0


def test_sojourn_kernel_ends_every_row_at_a_zero_height():
    counts = samplers._sojourn_counts_chunk(make_stream(SEED, 100), 1000, 1000, 50)
    assert counts.tolist() == [1] * 50
    for i in range(20):
        trace = simulate_sojourn(make_stream(SEED, 101, i), 1000, 1000)
        assert trace.heights == (0.0,)
        count = samplers._sojourn_counts_chunk(make_stream(SEED, 101, i), 1000, 1000, 1)
        assert count.tolist() == [trace.count]


def test_renewal_kernel_counts_no_zero_height():
    assert samplers._renewal_counts_chunk(make_stream(SEED, 102), 1000, 1000, 50).tolist() == [0] * 50


def test_window_kernel_returns_on_zero_height_factors():
    # every backward step gives an infinite top and every forward step a zero height
    window = (0.25, 1.0, 4.0)
    rows, xi, sigma = samplers._window_points_chunk(make_stream(SEED, 103), 1000, window, 1e-9,
                                                    samplers._CHUNK)
    assert ((0 <= rows) & (rows < samplers._CHUNK)).all()
    assert ((0.25 <= xi) & (xi <= 1.0) & (0 <= sigma) & (sigma <= 4.0)).all()
