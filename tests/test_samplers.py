"""Simulator tests: law checks against the exact engine and each other."""

import math
import time

import numpy as np
import pytest
import scipy.stats

from chainrec import exact, samplers, stats
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
from oracles import (
    chain_record_indices,
    expected_weak_count_table,
    height_factor_cdf,
    limit_process_points,
    log_transform,
    mellin,
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


def test_batch_counts_independent_of_worker_count(monkeypatch):
    # 3,000 replicates in chunks of 700: four full chunks and a short one
    monkeypatch.setattr(samplers, "_CHUNK", 700)
    kwargs = dict(seed=SEED, label="test:workers")
    for method in ("direct", "sojourn", "insertion"):
        one = sample_chain_counts(method, 2, 50, 3000, workers=1, **kwargs)
        four = sample_chain_counts(method, 2, 50, 3000, workers=4, **kwargs)
        assert np.array_equal(one, four)


# ---------------------------------------------------------------------------
# the batch driver


BATCH_DRIVERS = {
    **{
        f"chain-counts-{method}": lambda r, method=method: sample_chain_counts(
            method, 2, 10, r, seed=SEED)
        for method in ("direct", "sojourn", "insertion")
    },
    "chain-flag-totals": lambda r: samplers.sample_chain_flag_totals(2, 10, r, seed=SEED),
    "renewal-counts": lambda r: sample_renewal_counts(2, 10, r, seed=SEED),
    "poisson-paced": lambda r: sample_poisson_paced_terminals(2, 1.0, r, seed=SEED),
    "limit-variables": lambda r: sample_limit_variables(2, r, seed=SEED),
    "window-counts": lambda r: sample_window_counts(2, (0.25, 1.0, 4.0), r, seed=SEED),
}


@pytest.mark.parametrize("replicates", [0, -3])
@pytest.mark.parametrize("driver", sorted(BATCH_DRIVERS))
def test_batch_drivers_reject_nonpositive_replicates(driver, replicates):
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        BATCH_DRIVERS[driver](replicates)


def test_chunk_rule_caps_a_chunk_at_the_double_budget():
    assert samplers._chunk() == samplers._CHUNK
    assert samplers._chunk(10_000) == samplers._CHUNK_BUDGET // 10_000 < samplers._CHUNK
    assert samplers._chunk(samplers._CHUNK_BUDGET + 1) == 1


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
    d2 = np.exp(np.log(gen.random((100000, 2))).sum(axis=1))
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
        draws = np.exp(np.log(gen.random((20000, d))).sum(axis=1))
        res = scipy.stats.kstest(draws, lambda s, d=d: np.vectorize(
            lambda u: height_factor_cdf(d, max(u, 1e-300)))(s))
        assert res.pvalue > 1e-3, (d, res)


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
    counts = sample_chain_counts("direct", 2, 7, 30000, seed=SEED, label="test:n7")
    assert zscore(counts, float(exact.expected_chain_count(2, 7))) < 4


def test_direct_per_index_probabilities():
    reps = 30000
    totals = samplers.sample_chain_flag_totals(2, 10, reps, seed=SEED, label="test:flags")
    table = exact.chain_record_prob_table(2, 10)
    assert totals[0] == reps
    for n in range(2, 11):
        phat = totals[n - 1] / reps
        se = math.sqrt(phat * (1 - phat) / reps)
        assert abs(phat - float(table[n - 1])) < 4 * se


def test_direct_kernel_sub_blocks_match_one_block_and_the_scalar_scan(monkeypatch):
    d, n, m = 2, 300, 50
    one_block = samplers._direct_counts_chunk(make_stream(SEED, 34), d, n, m)
    monkeypatch.setattr(samplers, "_SUB_BLOCK", 7 * n * d)  # 7 replicates per draw
    sub_blocked = samplers._direct_counts_chunk(make_stream(SEED, 34), d, n, m)
    assert all(np.array_equal(a, b) for a, b in zip(one_block, sub_blocked))
    # replicate r of a chunk is the r-th scalar scan of the same stream
    gen = make_stream(SEED, 34)
    scans = [samplers._direct_scan(gen, d, n, n)[0] for _ in range(m)]
    assert one_block[0].tolist() == [len(times) for times in scans]
    flags = np.bincount([t - 1 for times in scans for t in times], minlength=n)
    assert one_block[1].tolist() == [flags.tolist()]


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
    m = 40
    counts, totals = samplers._direct_counts_chunk(_stream(grid, 35), d, n, m)
    # replicate r of a chunk is the r-th scalar scan of the same stream
    gen = _stream(grid, 35)
    scans = [samplers._direct_scan(gen, d, n, n)[0] for _ in range(m)]
    assert counts.tolist() == [len(times) for times in scans]
    flags = np.bincount([t - 1 for times in scans for t in times], minlength=n)
    assert totals.tolist() == [flags.tolist()]


def _reduction_mask_scan(rng, d, max_marks, max_records, block_size=1 << 16):
    """The direct scan with its mask built by reductions over each row: the oracle."""
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
    return times, heights, produced


@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "grid"])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_direct_scan_equals_the_reduction_mask(d, grid, monkeypatch):
    for key in range(37, 47):
        for max_marks, max_records, block_size in ((5000, 5000, 1 << 16), (3000, 3, 1 << 16),
                                                   (2500, 2500, 100)):
            monkeypatch.setattr(samplers, "_SCAN_BLOCK", block_size)
            fast = samplers._direct_scan(_stream(grid, key), d, max_marks, max_records)
            args = (d, max_marks, max_records, block_size)
            assert fast == _reduction_mask_scan(_stream(grid, key), *args)


@pytest.mark.parametrize("d", range(1, 13))
def test_log_sum_rows_equals_the_numpy_row_sum_bit_for_bit(d):
    u = make_stream(SEED, 38).random((5000, d))
    assert samplers._log_sum_rows(u).tobytes() == np.log(u).sum(axis=1).tobytes()


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


def test_sojourn_single_mark():
    tr = simulate_sojourn(make_stream(SEED, 40), 2, 1)
    assert tr.record_times == (1,)


def test_sojourn_matches_direct_distribution():
    a = sample_chain_counts("direct", 2, 100, 30000, seed=SEED, label="test:eq:a")
    b = sample_chain_counts("sojourn", 2, 100, 30000, seed=SEED, label="test:eq:b")
    res = stats.two_sample_test(a, b, significance=0.001)
    assert not res.reject, res


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
        _, heights, _ = samplers._direct_scan(gen, 2, 10**7, 3)  # stop at the third record
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
    at each hit.  Returns the screened uniforms, the heights that replaced
    terms (one per replaced term, decreasing) and the log of the last
    height.
    """
    log_h = float(np.log(rng.random(d)).sum())
    heights = [math.exp(log_h)]
    screened = []
    for t0 in range(1, n, samplers._TILE):
        tile = rng.random(min(samplers._TILE, n - t0))
        for x in tile:
            if x < heights[-1]:
                log_h += float(np.log(rng.random(d)).sum())
                heights.append(math.exp(log_h))
        screened.extend(tile)
    return np.array(screened), heights, log_h


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_insertion_kernel_equals_the_scalar_scan(d):
    for i in range(1000):
        n = 50 + 50 * (i % 10)
        count = samplers._insertion_counts_chunk(make_stream(SEED, 71, i), d, n, 1)
        _, heights, _ = _insertion_scan(make_stream(SEED, 71, i), d, n)
        assert count.tolist() == [len(heights)], (i, n)


def _insertion_rows(gen, d, n, m):
    """The insertion kernel's draws at m rows, screened one row at a time: the oracle.

    Factor column k is drawn when the first row needs its k-th factor, and
    row r multiplies its threshold by entry r of its own k-th column.
    """
    thresh = np.exp(np.log(gen.random((m, d))).sum(axis=1)).tolist()
    counts = [1] * m
    columns = []
    for t0 in range(1, n, samplers._TILE):
        for term in gen.random((min(samplers._TILE, n - t0), m)):
            for r in range(m):
                if term[r] < thresh[r]:
                    k = counts[r] - 1
                    while len(columns) <= k:
                        columns.append(np.exp(np.log(gen.random((m, d))).sum(axis=1)))
                    thresh[r] *= columns[k][r]
                    counts[r] += 1
    return counts


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 64, 65, 200])
def test_insertion_kernel_gathers_each_rows_own_factors(d, n):
    for key in range(3):
        counts = samplers._insertion_counts_chunk(make_stream(SEED, 72, key), d, n, 30)
        assert counts.tolist() == _insertion_rows(make_stream(SEED, 72, key), d, n, 30)


class DrawSizes:
    """Generator proxy that records the size of every array a draw returns."""

    def __init__(self, gen):
        self.gen = gen
        self.sizes = []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            out = getattr(self.gen, name)(*args, **kwargs)
            self.sizes.append(np.size(out))
            return out

        return draw


def test_insertion_kernel_draws_at_most_one_tile_at_a_time():
    gen = DrawSizes(make_stream(SEED, 73))
    samplers._insertion_counts_chunk(gen, 2, 1000, 8192)
    assert max(gen.sizes) <= samplers._TILE * 8192


def test_insertion_single_mark():
    assert samplers._insertion_counts_chunk(make_stream(SEED, 70), 2, 1, 1).tolist() == [1]


def test_insertion_dimension_one_matches_classical_records():
    counts = sample_chain_counts("insertion", 1, 50, 30000, seed=SEED, label="test:ins1")
    harmonic = float(expected_weak_count_table(1, 50)[-1])  # harmonic number
    assert zscore(counts, harmonic) < 4


def test_three_way_agreement_small():
    samples = {
        m: sample_chain_counts(m, 2, 100, 20000, seed=SEED, label=f"test:threeway:{m}")
        for m in ("direct", "sojourn", "insertion")
    }
    for a, b in (("direct", "sojourn"), ("direct", "insertion"), ("sojourn", "insertion")):
        res = stats.two_sample_test(samples[a], samples[b], significance=0.001)
        assert not res.reject, (a, b, res)


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


def test_renewal_count_mean():
    counts = sample_renewal_counts(2, 10**4, 100000, seed=SEED, label="test:renewal")
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
        u, heights, log_h = _insertion_scan(gen, 2, n)
        count = len(heights)
        while heights[-1] > 1 / n:
            log_h += float(np.log(gen.random(2)).sum())
            heights.append(math.exp(log_h))
        triples.append((count, sum(h > 1 / n for h in heights), int((u < 1 / n).sum())))
    count, renewal, below = np.array(triples).T
    assert (count <= renewal + below + 1).all()
    assert abs(below.mean() - 1.0) < 0.05  # below-1/n hits are ~Poisson(1)


# ---------------------------------------------------------------------------
# the paced process


def _paced_path(gen, d, t_end, b0):
    """Jump times and states of the paced process, one jump at a time: the oracle.

    Draws as the paced kernel does at m=1: an exponential hold, then a
    height factor, until the hold passes ``t_end``.
    """
    jumps, states = [], [b0]
    t = 0.0
    while True:
        t += gen.exponential(size=1)[0] / states[-1]
        w = np.exp(np.log(gen.random((1, d))).sum(axis=1))[0]
        if t > t_end:
            return jumps, states
        jumps.append(t)
        states.append(states[-1] * w)


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


def test_compensator_identity_small():
    counts, integrals, _ = sample_poisson_paced_terminals(
        2, 3.0, 30000, seed=SEED, label="test:comp"
    )
    diff = integrals - counts
    assert zscore(diff, 0.0) < 4


def test_paced_mean_state_matches_moment_series():
    for d in (1, 2):
        for t in (1.0, 2.0, 5.0):
            _, _, states = sample_poisson_paced_terminals(
                d, t, 30000, seed=SEED, label=f"test:bt:{d}:{t}"
            )
            assert zscore(states, exact.moment_series(d, 1, t)) < 4, (d, t)


def test_paced_self_similarity():
    # scaling time by b and space by 1/b maps the process started at 1 to
    # the process started at b
    _, _, s1 = sample_poisson_paced_terminals(2, 2.0, 10000, b0=1.0, seed=SEED, label="test:ss1")
    _, _, s2 = sample_poisson_paced_terminals(2, 1.0, 10000, b0=2.0, seed=SEED, label="test:ss2")
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

    def exponential(self, size):
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


def test_straddle_pair_invariants_and_law():
    gen = make_stream(SEED, 92)
    above, below = np.exp(-np.array(samplers._straddle(gen, 2, 20000)))
    assert (above > 1).all()
    assert ((0 < below) & (below <= 1)).all()
    # the at-or-below point has the stationary law
    assert scipy.stats.kstest(below, _stationary_cdf(2)).pvalue > 1e-3


def test_limit_variable_moments_small():
    for d in (1, 2):
        values, depths = sample_limit_variables(d, 200000, seed=SEED, label=f"test:y:{d}")
        assert zscore(values, float(exact.limit_moment(d, 1))) < 4
        assert zscore(values**2, float(exact.limit_moment(d, 2))) < 4
        assert depths.min() >= 0


def test_limit_variable_alternative_sampler_dimension_two():
    # at d=2 the limit variable is an exponential times an independent uniform
    values, _ = sample_limit_variables(2, 50000, seed=SEED, label="test:y:eu")
    gen = make_stream(SEED, 93)
    alt = gen.exponential(size=50000) * gen.random(50000)
    res = scipy.stats.ks_2samp(values, alt)
    assert res.pvalue >= 0.01, res


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
    a = sample_window_counts(2, (0.25, 1.0, 4.0), 4000, seed=SEED, label="test:w:a")
    b = sample_window_counts(2, (0.5, 2.0, 2.0), 4000, seed=SEED, label="test:w:b")
    res = stats.two_sample_test(a, b, significance=0.001)
    assert not res.reject, res


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
    batch = sample_window_counts(2, window, 4000, seed=SEED, label="test:w:batch")
    gen = make_stream(SEED, 99)
    points = [len(limit_process_points(gen, 2, window)) for _ in range(4000)]
    res = stats.two_sample_test(batch, np.array(points), significance=0.001)
    assert not res.reject, res


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
