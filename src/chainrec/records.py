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
from typing import Sequence

import numpy as np

Point = Sequence[float]

_BLOCK_BUDGET = 1 << 20  # mask elements per block: (front + block rows) * block rows


def _below(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` mask of ``a[i] <= b[j]`` in every coordinate.

    One 2-D comparison per coordinate, ANDed: a 3-D mask reduced over the
    coordinate axis is about ten times slower.
    """
    mask = a[:, 0, None] <= b[:, 0]
    for k in range(1, a.shape[1]):
        mask &= a[:, k, None] <= b[:, k]
    return mask


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
        self._last_chain: tuple[float, ...] | None = None
        self._front = np.empty((0, dim))
        self._mins = np.full(dim, math.inf)

    @property
    def pareto_front(self) -> tuple[tuple[float, ...], ...]:
        """Current minimal elements of the processed history, insertion order."""
        return tuple(map(tuple, self._front.tolist()))

    def process(self, mark: Point) -> np.ndarray:
        """Classify the next mark: one row of :meth:`extend`."""
        return self.extend([mark])[0]

    def extend(self, marks: Sequence[Point]) -> np.ndarray:
        """Classify the next marks in order and update the stream state.

        Returns an ``(m, 3 + dim)`` boolean array with one row per mark:
        the chain, weak and strong flags, then one marginal flag per
        coordinate.  A mark whose shape is not ``(dim,)``, or with a NaN
        coordinate, which no comparison holds for and so would never leave the
        front, raises ``ValueError`` naming its index before any state changes.
        """
        x = self._as_rows(marks)
        nan = np.isnan(x).any(axis=1)
        if nan.any():
            raise ValueError(f"NaN coordinate at index {self.index + 1 + int(nan.argmax())}")
        out = np.empty((len(x), 3 + self.dim), dtype=bool)
        start = 0
        while start < len(x):
            f = len(self._front)
            rows = max(1, (math.isqrt(f * f + 4 * _BLOCK_BUDGET) - f) // 2)
            self._classify_block(x[start:start + rows], out[start:start + rows])
            start += rows
        return out

    def _as_rows(self, marks: Sequence[Point]) -> np.ndarray:
        # numpy reads valid marks; other input is scanned for the first mark
        # of a shape other than (dim,), or else raises numpy's own error
        error = ValueError(f"marks must have shape (m, {self.dim})")
        try:
            x = np.asarray(marks, dtype=float)
            if x.shape[1:] == (self.dim,):
                return x
            if x.shape[:1] == (0,):  # no marks
                return x.reshape(0, self.dim)
        except ValueError as exc:
            error = exc
        for k, mark in enumerate(marks, self.index + 1):
            try:
                shape = np.shape(mark)
            except ValueError:  # numpy's error for a ragged mark
                shape = None
            if shape != (self.dim,):
                got = ("a ragged sequence" if shape is None else "a scalar" if shape == ()
                       else shape[0] if len(shape) == 1 else f"shape {shape}")
                raise ValueError(f"dimension mismatch at index {k}: got {got}, expected {self.dim}")
        raise error

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
