"""Streaming detection of chain, weak, strong and marginal records.

Marks are points of the unit cube compared by the componentwise partial
order: ``x`` beats ``y`` when the two points differ and every coordinate
of ``x`` is at or below the matching coordinate of ``y``.  A chain record
beats the most recent chain record, a weak record is beaten by no earlier
mark (it is Pareto-minimal in the history), a strong record beats every
earlier mark, and a marginal record is a classical strict lower record in
one fixed coordinate.  Index 1 is a record of every kind.

The detector is streaming: it keeps the last chain-record value, the
current Pareto-minimal front and the running coordinate minima, never the
full history.  Exact duplicates of an earlier minimal point are records of
no kind (ties have probability zero under any continuous law, but the
detector must stay deterministic on arbitrary input).

Classification runs one numpy kernel on blocks of marks, in the manner of
block-nested-loops skyline evaluation (Borzsonyi, Kossmann and Stocker,
*The Skyline Operator*, ICDE 2001): a block is tested against the whole
front at once, then its survivors against each other.  Block rows ``B``
are chosen so that its masks, ``(F + B) * B`` booleans with ``F`` the
front size, stay within ``_BLOCK_BUDGET`` (1 MiB): the kernel's working
memory is a few MB whatever the input length.  Only a front larger than
the budget itself forces one-row blocks with masks of ``F`` elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Point = Sequence[float]

_BLOCK_BUDGET = 1 << 20  # mask elements per block: (front + block rows) * block rows


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


def _below(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` mask of ``a[i] <= b[j]`` in every coordinate.

    One 2-D comparison per coordinate, ANDed: a 3-D mask reduced over the
    coordinate axis is about ten times slower.
    """
    mask = a[:, 0, None] <= b[:, 0]
    for k in range(1, a.shape[1]):
        mask &= a[:, k, None] <= b[:, k]
    return mask


def height(x: Point) -> float:
    """Product of the coordinates: the volume of the lower section at ``x``."""
    return math.prod(x)


def log_transform(marks: Iterable[Point]) -> list[tuple[float, ...]]:
    """Map every mark to its componentwise negative logarithm.

    Lower chain records of the input correspond exactly to upper chain
    records of the image (pass ``upper=True`` to
    :func:`chain_record_indices`), which gives an independent route for
    cross-checking the detector.  Raises on nonpositive coordinates.
    """
    out = []
    for i, m in enumerate(marks, 1):
        if any(c <= 0.0 for c in m):
            raise ValueError(f"mark {i}: nonpositive coordinate, log transform undefined")
        out.append(tuple(-math.log(c) for c in m))
    return out


@dataclass(frozen=True)
class RecordFlags:
    """Record classification of a single mark; ``index`` is 1-based."""

    index: int
    chain: bool
    weak: bool
    strong: bool
    marginal: tuple[bool, ...]

    @property
    def marginal_any(self) -> bool:
        return any(self.marginal)


@dataclass
class RecordCounts:
    """Running totals per record type; marginal counts are per coordinate."""

    chain: int = 0
    weak: int = 0
    strong: int = 0
    marginal: list[int] = field(default_factory=list)


class RecordDetector:
    """Single-pass detector for all four record types.

    Memory is constant except for the Pareto front, whose expected size is
    ~(log n)^(d-1)/(d-1)!.  Marks are classified in blocks by one numpy
    kernel (see the module docstring for its memory bound); :meth:`process`
    is a one-row block.  Instances are mutable stream state and not
    thread-safe; use one detector per stream.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self.index = 0
        self.counts = RecordCounts(marginal=[0] * dim)
        self._last_chain: tuple[float, ...] | None = None
        self._front = np.empty((0, dim))
        self._mins = np.full(dim, math.inf)

    @property
    def last_chain_record(self) -> tuple[float, ...] | None:
        return self._last_chain

    @property
    def pareto_front(self) -> tuple[tuple[float, ...], ...]:
        """Current minimal elements of the processed history, insertion order."""
        return tuple(map(tuple, self._front.tolist()))

    @property
    def component_mins(self) -> tuple[float, ...]:
        return tuple(self._mins.tolist())

    def process(self, mark: Point) -> RecordFlags:
        """Classify the next mark and update the stream state."""
        (row,) = self.extend([mark]).tolist()
        return RecordFlags(self.index, row[0], row[1], row[2], tuple(row[3:]))

    def extend(self, marks: Sequence[Point]) -> np.ndarray:
        """Classify the next marks in order and update the stream state.

        Returns an ``(m, 3 + dim)`` boolean array with one row per mark:
        the chain, weak and strong flags, then one marginal flag per
        coordinate.  A mark whose length is not ``dim`` raises
        ``ValueError`` before any state changes.
        """
        x = self._as_rows(marks)
        out = np.empty((len(x), 3 + self.dim), dtype=bool)
        start = 0
        while start < len(x):
            f = len(self._front)
            rows = max(1, (math.isqrt(f * f + 4 * _BLOCK_BUDGET) - f) // 2)
            self._classify_block(x[start:start + rows], out[start:start + rows])
            start += rows
        totals = out.sum(axis=0).tolist()
        self.counts.chain += totals[0]
        self.counts.weak += totals[1]
        self.counts.strong += totals[2]
        for i, total in enumerate(totals[3:]):
            self.counts.marginal[i] += total
        return out

    def _as_rows(self, marks: Sequence[Point]) -> np.ndarray:
        for k, mark in enumerate(marks, self.index + 1):
            if len(mark) != self.dim:
                raise ValueError(
                    f"dimension mismatch at index {k}: got {len(mark)}, expected {self.dim}"
                )
        return np.array(marks, dtype=float).reshape(len(marks), self.dim)

    def _classify_block(self, x: np.ndarray, out: np.ndarray) -> None:
        # mins[j] is the running minimum of every mark before x[j]
        mins = np.fmin.accumulate(np.vstack([self._mins, x]), axis=0)
        marginal = out[:, 3:]
        np.less(x, mins[:-1], out=marginal)
        if self.index == 0:
            marginal[0] = True
        out[:, 2] = marginal.all(axis=1)
        out[:, 1] = weak = self._weak_block(x)
        out[:, 0] = self._chain_block(x, weak)
        self._mins = mins[-1]
        self.index += len(x)

    def _weak_block(self, x: np.ndarray) -> np.ndarray:
        """Weak flags of a block; moves the front past it.

        Some earlier mark is weakly below x iff some front point is
        (transitivity), so the block is tested against the front, and only
        its survivors against earlier survivors: a mark below a mark that
        the front blocks is blocked by the front too.  Equality blocks, so
        exact duplicates are records of no kind.
        """
        survivors = np.flatnonzero(~_below(self._front, x).any(axis=0))
        s = x[survivors]
        weak_rows = survivors[~np.triu(_below(s, s), k=1).any(axis=0)]
        weak = np.zeros(len(x), dtype=bool)
        weak[weak_rows] = True
        new = x[weak_rows]
        # drop front points weakly above a new weak record, and new weak
        # records weakly above a later one; the rest keep insertion order
        old = self._front[~_below(new, self._front).any(axis=0)]
        new = new[~np.tril(_below(new, new), k=-1).any(axis=0)]
        self._front = np.concatenate([old, new])
        return weak

    def _chain_block(self, x: np.ndarray, weak: np.ndarray) -> np.ndarray:
        """Chain flags of a block; moves the last chain record past it.

        Every chain record is a weak record: an earlier mark weakly below
        the first mark to beat the current record would beat the record
        sooner, or lie weakly below the record, which is weak itself.  So
        only the block's weak records are compared with the record, in
        order.  A weak record cannot equal an earlier mark, so one weakly
        below the record beats it.
        """
        chain = np.zeros(len(x), dtype=bool)
        rows = np.flatnonzero(weak)
        for j, point in zip(rows.tolist(), map(tuple, x[rows].tolist())):
            record = self._last_chain
            if record is None or all(a <= b for a, b in zip(point, record)):
                chain[j] = True
                self._last_chain = point
        return chain


def classify_sequence(marks: Iterable[Point]) -> list[RecordFlags]:
    """Classify a whole finite sequence; a pure function of the input.

    Raises on an empty sequence or inhomogeneous dimensions.
    """
    marks = list(marks)
    if not marks:
        raise ValueError("empty sequence")
    flags = RecordDetector(len(marks[0])).extend(marks).tolist()
    return [
        RecordFlags(i, row[0], row[1], row[2], tuple(row[3:]))
        for i, row in enumerate(flags, 1)
    ]


def chain_record_indices(points: Iterable[Point], upper: bool = False) -> list[int]:
    """1-based chain-record indices of a raw point sequence.

    With ``upper=True`` the reversed order is used (a point beats the
    current record when every coordinate is at or above it); this is the
    order under which :func:`log_transform` images must reproduce the
    lower chain records of the original marks.
    """
    out: list[int] = []
    rec: tuple[float, ...] | None = None
    for i, p in enumerate(points, 1):
        q = tuple(p)
        if rec is None or (dominates(rec, q) if upper else dominates(q, rec)):
            rec = q
            out.append(i)
    return out
