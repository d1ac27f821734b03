"""Golden manifest: sha256 digests of small fixed-seed outputs.

Each case below produces bytes -- the files a CLI command writes, or the
raw array bytes of a library sampler -- from a fixed seed, and the test
compares their sha256 with ``tests/golden_manifest.json``.  A refactor
that keeps behaviour keeps every digest.  Re-record only for an intended
output change, and log it in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from chainrec import samplers
from chainrec.cli import main
from chainrec.rng import make_stream, stream_id
from conftest import ELEVEN_POINT_MARKS, FOUR_POINT_MARKS, joined

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SEED = 20240917


def _write_marks(path: Path, marks) -> None:
    dim = len(marks[0])
    rows = [",".join(f"x{i}" for i in range(1, dim + 1))]
    rows.extend(",".join(repr(v) for v in m) for m in marks)
    path.write_text("\n".join(rows) + "\n")


def _cli_files(workdir: Path, name: str) -> bytes:
    """Run one case in an empty ``workdir``; return every file in it afterwards."""
    workdir.mkdir()
    previous = os.getcwd()
    os.chdir(workdir)  # relative paths keep the temp dir out of the headers
    try:
        if name in DETECT_MARKS:
            _write_marks(Path("marks.csv"), DETECT_MARKS[name])
        assert main([*CLI_CASES[name], "--out", "out"]) == 0, name
        files = sorted(p for p in Path(".").iterdir() if p.is_file())
        return b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in files)
    finally:
        os.chdir(previous)


_SIM = ["simulate", "--d", "2", "--seed", str(SEED)]

CLI_CASES = {
    **{f"exact-d{d}": ["exact", "--d", str(d), "--n", "40"] for d in (1, 2, 3)},
    "simulate-chain-count": [*_SIM, "--what", "chain-count", "--n", "1000", "--replicates", "2000"],
    "simulate-poisson-count": [*_SIM, "--what", "poisson-count", "--t", "3", "--replicates", "2000"],
    "simulate-poisson-integral": [*_SIM, "--what", "poisson-integral", "--t", "3",
                                  "--replicates", "2000"],
    "simulate-poisson-state": [*_SIM, "--what", "poisson-state", "--t", "3", "--b0", "2",
                               "--replicates", "2000"],
    "simulate-renewal-count": [*_SIM, "--what", "renewal-count", "--n", "10000",
                               "--replicates", "2000"],
    "simulate-limit-variable": [*_SIM, "--what", "limit-variable", "--replicates", "2000"],
    "simulate-direct": [*_SIM, "--method", "direct", "--n", "100", "--replicates", "2000"],
    "simulate-direct-rowwise": [*_SIM, "--method", "direct", "--n", "5000", "--replicates", "12"],
    "simulate-sojourn": [*_SIM, "--method", "sojourn", "--n", "100", "--replicates", "2000"],
    "simulate-insertion": [*_SIM, "--method", "insertion", "--n", "100", "--replicates", "2000"],
    "trace-direct": [*_SIM, "--method", "direct", "--n", "3000", "--replicates", "4",
                     "--trace-out", "trace.csv"],
    "trace-sojourn": [*_SIM, "--method", "sojourn", "--n", "100000", "--replicates", "4",
                      "--trace-out", "trace.csv"],
    **{
        f"limits-y-workers{w}": ["limits", "--kind", "y", "--d", "2", "--replicates", "20000",
                                 "--seed", str(SEED), "--workers", str(w)]
        for w in (1, 2)
    },
    "limits-window": ["limits", "--kind", "window", "--d", "2", "--window", "0.05,3.0,10.0",
                      "--seed", str(SEED)],
    "detect-four": ["detect", "--in", "marks.csv"],
    "detect-eleven": ["detect", "--in", "marks.csv"],
    **{f"verify-{suite}": ["verify", "--suite", suite, "--seed", str(SEED)]
       for suite in ("exact", "asymptotic", "limit")},
}
DETECT_MARKS = {"detect-four": FOUR_POINT_MARKS, "detect-eleven": ELEVEN_POINT_MARKS}


def _streams(label: str, count: int):
    sid = stream_id(label)
    return [make_stream(SEED, sid, i) for i in range(count)]


def _traces(traces) -> bytes:
    return repr([(t.record_times, t.heights, t.horizon) for t in traces]).encode()


def _chunks_of(size):
    """Decorate a case to run with the batch drivers' chunk size set to ``size``."""
    return mock.patch.object(samplers, "_CHUNK", size)


LIBRARY_CASES = {
    "chain-counts-direct": _chunks_of(1500)(lambda: joined(samplers.sample_chain_counts(
        "direct", 3, 30, 5000, seed=SEED, label="golden:direct")).tobytes()),
    "chain-counts-sojourn": _chunks_of(1500)(lambda: joined(samplers.sample_chain_counts(
        "sojourn", 2, 10**5, 5000, seed=SEED, label="golden:sojourn")).tobytes()),
    "chain-counts-insertion": _chunks_of(1500)(lambda: joined(samplers.sample_chain_counts(
        "insertion", 2, 60, 5000, seed=SEED, label="golden:insertion")).tobytes()),
    # one chunk of 2,500 replicates x 1,000 marks x d=2: 5 million doubles; the
    # per-index totals are summed over the chunks
    "chain-flag-totals": lambda: sum(totals for _, totals in samplers.sample_chain_flag_totals(
        2, 1000, 2500, seed=SEED, label="golden:flags")).tobytes(),
    "chain-flag-totals-chunks": _chunks_of(1500)(lambda: sum(
        totals for _, totals in samplers.sample_chain_flag_totals(
            3, 20, 5000, seed=SEED, label="golden:flags", workers=2)).tobytes()),
    "window-counts": _chunks_of(128)(lambda: joined(samplers.sample_window_counts(
        2, (0.25, 1.0, 4.0), 300, seed=SEED, label="golden:window")).tobytes()),
    "simulate-direct-traces": lambda: _traces(
        samplers.simulate_direct(g, 2, 20000) for g in _streams("golden:direct-trace", 5)),
    # single draws: the kernel at m=1, as a Python int or float
    "simulate-insertion-counts": lambda: repr(
        [int(samplers._insertion_counts_chunk(g, 2, 500, 1)[0])
         for g in _streams("golden:insertion", 50)]
    ).encode(),
    "sample-limit-variable": lambda: repr(
        [float(samplers._limit_variable_chunk(g, d, tol, 1)[0][0])
         for d, tol in ((2, 1e-8), (3, 1e-6))
         for g in _streams(f"golden:y:d={d}", 50)]
    ).encode(),
    # heights above and at or below level 1 of the stationary renewal grid
    "stationary-height-pair": lambda: repr(
        [tuple(math.exp(-x[0]) for x in samplers._straddle(g, 3, 1))
         for g in _streams("golden:pair", 50)]
    ).encode(),
}


def digest(name: str, workdir: Path) -> str:
    if name in CLI_CASES:
        data = _cli_files(workdir / name, name)
    else:
        data = LIBRARY_CASES[name]()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted({**CLI_CASES, **LIBRARY_CASES}))
def test_output_matches_golden_digest(name, tmp_path):
    expected = json.loads(MANIFEST.read_text())
    assert name in expected, f"{name} is not recorded in {MANIFEST.name}"
    assert digest(name, tmp_path) == expected[name]


def test_manifest_has_no_stale_entries():
    assert not CLI_CASES.keys() & LIBRARY_CASES.keys()  # a shared name hides the library case
    assert set(json.loads(MANIFEST.read_text())) == {*CLI_CASES, *LIBRARY_CASES}


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: digest(name, Path(tmp)) for name in sorted({**CLI_CASES, **LIBRARY_CASES})}
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {MANIFEST}")
