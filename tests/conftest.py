"""Shared fixtures: hand-built mark sequences with pinned record sets, and
:func:`joined`, which reads a sampler's chunks as one sample."""

import numpy as np
import pytest


def joined(chunks):
    """A sampler's chunk results, arrays or tuples of arrays, concatenated in chunk order."""
    chunks = list(chunks)
    if isinstance(chunks[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*chunks))
    return np.concatenate(chunks)


# Four marks in the unit square. Expected classification (from the
# brute-force oracle in test_records): chain records at {1, 2, 4}, weak at
# {1, 2, 3, 4}, strong at {1, 2, 4}.
FOUR_POINT_MARKS = [(0.9, 0.9), (0.5, 0.5), (0.7, 0.2), (0.3, 0.1)]

# Eleven marks constructed so that the record index sets are exactly:
# chain {1, 5, 8}, weak {1, 2, 3, 5, 6, 7, 8, 9}, strong {1}, and marginal
# (in at least one coordinate) {1, 2, 3, 5, 6}.  The interesting point is
# index 8: it extends the chain below point 5 while both of its coordinates
# stay above the running minima (set by points 6 and 3), so it is a chain
# record but neither a strong nor a marginal one.
ELEVEN_POINT_MARKS = [
    (0.60, 0.70),
    (0.90, 0.45),
    (0.75, 0.20),
    (0.95, 0.80),
    (0.30, 0.55),
    (0.10, 0.90),
    (0.45, 0.35),
    (0.22, 0.40),
    (0.35, 0.25),
    (0.40, 0.75),
    (0.80, 0.30),
]

ELEVEN_POINT_CHAIN = [1, 5, 8]
ELEVEN_POINT_WEAK = [1, 2, 3, 5, 6, 7, 8, 9]
ELEVEN_POINT_STRONG = [1]
ELEVEN_POINT_MARGINAL = [1, 2, 3, 5, 6]


@pytest.fixture
def four_point_marks():
    return list(FOUR_POINT_MARKS)


@pytest.fixture
def eleven_point_marks():
    return list(ELEVEN_POINT_MARKS)
