"""Deterministic random streams for reproducible parallel Monte Carlo.

Every stream is a PCG64DXSM generator keyed through ``SeedSequence`` by
``(seed, stream, substream)``: the output sequence is a pure function of
that triple, and distinct keys give statistically independent streams.
Batch drivers give chunk i of a task the key
``(seed, stream_id(label), i)``, so results never depend on how many
workers execute the chunks.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np


def stream_id(label: str) -> int:
    """Stable 64-bit stream id for a task label.

    The label convention for CLI-driven runs is
    ``"<command>:<estimand>:k=v:..."``; the id is the first 8 bytes of the
    label's SHA-256, so it is stable across runs, platforms and versions.
    """
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def make_stream(seed: int, stream: int = 0, substream: int = 0) -> np.random.Generator:
    """Generator for the key ``(seed, stream, substream)`` in [0, 2^128) x [0, 2^64) x [0, 2^32).

    ``SeedSequence`` flattens a key into 32-bit words, not recording how
    many each integer took: wider keys could share their words.  Each key is
    taken as it is, through ``operator.index``: a float is a ``TypeError``.
    """
    key = []
    for name, value, bits in (("seed", seed, 128), ("stream", stream, 64), ("substream", substream, 32)):
        try:
            key.append(operator.index(value))
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
        if not 0 <= key[-1] < 1 << bits:
            raise ValueError(f"{name} must be >= 0 and below 2^{bits}, got {value}")
    seq = np.random.SeedSequence(entropy=key[0], spawn_key=key[1:])
    return np.random.Generator(np.random.PCG64DXSM(seq))
