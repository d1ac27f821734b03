"""The array formatter of ``limits --kind y`` writes exactly the bytes of ``repr``."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from chainrec import samplers
from chainrec._floatrepr import _shortest, repr_lines
from conftest import joined


def reference(values):
    """The text the formatter must reproduce: one ``repr`` per value, a line each."""
    return "\n".join(map(repr, values.tolist())) + "\n"


def assert_same_text(values):
    values = np.asarray(values, dtype=np.float64)
    assert repr_lines(values) == reference(values)


def certified(values):
    """How many values the array path formats, not ``repr``."""
    return int(_shortest(np.asarray(values, dtype=np.float64))[3].sum())


def bits(value):
    return int(np.float64(value).view(np.uint64))


def with_neighbours(values, ulps=3):
    """Each value and the ``ulps`` doubles on either side of it."""
    out = [np.asarray(values, dtype=np.float64)]
    down, up = out[0], out[0]
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, np.inf, -np.inf, np.nan, -1.2345678901234567e-100]


@given(st.lists(
    st.one_of(
        st.integers(0, 2**64 - 1),  # any double: signs, subnormals, inf and nan included
        st.integers(bits(1e-4) - 2**40, bits(1e16) + 2**40),  # the positional range and its edges
        st.sampled_from([bits(v) for v in SPECIALS]),
    ),
    min_size=1, max_size=300,
))
def test_any_bit_pattern_gives_the_repr_text(words):
    assert_same_text(np.array(words, dtype=np.uint64).view(np.float64))


def test_powers_of_two_and_of_ten_and_their_neighbours():
    twos = 2.0 ** np.arange(-20, 60)
    tens = np.array([10.0**k for k in range(-6, 18)] + [float(f"1e{k}") for k in range(-6, 18)])
    values = with_neighbours(np.concatenate([twos, tens]))
    assert_same_text(values)
    # a power of two is not symmetric in its interval, so repr writes it
    assert certified(twos) == 0
    assert certified(values) > len(values) // 2


def test_the_ends_of_each_decade_and_of_the_positional_range():
    decades = 10.0 ** np.arange(-5, 18)
    values = with_neighbours(np.concatenate([decades, 9.999999999999999 * decades,
                                             1.0000000000000002 * decades, [1e-4, 1e16]]), 40)
    assert_same_text(values)
    assert certified(values) > len(values) // 2
    # 1e16 and up, and below 1e-4, repr writes in exponent form
    assert certified([1e16, 2e16, 9.99999999999999e-05, 1e-5]) == 0
    assert repr_lines(np.array([np.nextafter(1e16, 0), 1e-4])) == "9999999999999998.0\n0.0001\n"


def test_integers():
    rng = np.random.default_rng(1)
    values = np.concatenate([np.arange(1, 5001), rng.integers(1, 2**53, 5000),
                             rng.integers(2**53, 10**16, 5000)]).astype(np.float64)
    assert_same_text(values)
    # every small integer but the 13 powers of two up to 4096 takes the array path;
    # from 2**52 the interval ends fall on integers, so repr writes most of them
    assert certified(values[:5000]) == 5000 - 13


def test_short_decimals():
    rng = np.random.default_rng(2)
    scale = 10.0 ** rng.integers(-4, 16, 20000)
    values = np.concatenate([np.round(rng.random(20000) * scale, k) for k in range(17)])
    values = values[values > 0]
    assert_same_text(values)
    assert certified(values) > len(values) // 2


def test_limit_draws_take_the_array_path():
    for d in (1, 2, 3):
        values, _ = joined(samplers.sample_limit_variables(d, 100_000, seed=d,
                                                           label=f"test:y:d={d}"))
        assert_same_text(values)
        # only draws below 1e-4 and rare near-ties go to repr
        assert certified(values) > 0.99 * len(values)


def test_every_value_taking_the_fallback_gives_the_repr_text():
    rng = np.random.default_rng(3)
    values = np.concatenate([
        SPECIALS, -rng.random(500), rng.random(500) * 1e-5, 2.0 ** rng.integers(-30, 50, 500),
        rng.random(500) * 1e300, np.nextafter(1e16, np.inf) * (1 + rng.random(500)),
    ])
    assert certified(values) == 0
    assert_same_text(values)
