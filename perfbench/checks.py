"""Output checks for the benchmark's workloads.

Every check takes the bytes a ``chainrec`` command wrote and returns a
list of problems; an empty list means the output is correct.  The checks
do not import ``chainrec``: each compares against an oracle of its own --
a sha256 manifest recorded at the commit that defined the benchmark, a
closed form, or an independent reference implementation.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

MANIFEST_PATH = Path(__file__).with_name("manifest.json")
Z_LIMIT = 4.0


def body_sha256(data: bytes) -> str:
    """sha256 of an output with its ``#`` meta lines removed."""
    lines = [ln for ln in data.split(b"\n") if not ln.startswith(b"#")]
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


def load_manifest() -> dict[str, str]:
    return json.loads(MANIFEST_PATH.read_text())


def check_manifest(data: bytes, key: str, manifest: dict[str, str]) -> list[str]:
    if key not in manifest:
        return [f"no manifest entry for {key!r}"]
    got = body_sha256(data)
    if got != manifest[key]:
        return [f"{key}: sha256 {got[:16]}... differs from manifest {manifest[key][:16]}..."]
    return []


def check_exact_d2(data: bytes) -> list[str]:
    """Closed forms of the d=2 table: p_n = 1/(2n) for n >= 2, strong = 1/n^2."""
    try:
        rows = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
        header = rows[0].split(",")
        i_n, i_p, i_s = (header.index(c) for c in ("n", "p_exact_fraction", "p_strong_fraction"))
        problems = []
        for row in rows[1:]:
            cells = row.split(",")
            n = int(cells[i_n])
            if n >= 2 and Fraction(cells[i_p]) != Fraction(1, 2 * n):
                problems.append(f"exact d=2: p_{n} = {cells[i_p]} is not 1/(2n)")
            if Fraction(cells[i_s]) != Fraction(1, n * n):
                problems.append(f"exact d=2: strong_{n} = {cells[i_s]} is not 1/n^2")
    except (ValueError, IndexError, UnicodeDecodeError, ZeroDivisionError) as exc:
        return [f"exact d=2: unparsable table ({exc})"]
    if len(rows) < 2:
        problems.append("exact d=2: empty table")
    return problems[:5]


def _z_problem(what: str, mean: float, se: float, target: float) -> list[str]:
    if not (math.isfinite(mean) and math.isfinite(se) and se > 0):
        return [f"{what}: mean {mean!r} or SE {se!r} is not a positive finite number"]
    z = abs(mean - target) / se
    if z > Z_LIMIT:
        return [f"{what}: mean {mean:.6g} is {z:.2f} SE from {target:.6g}"]
    return []


def chain_count_mean_d2(n: int) -> float:
    """Expected chain-record count at d=2: 1 + (H_n - 1)/2."""
    return 1.0 + (math.fsum(1.0 / k for k in range(1, n + 1)) - 1.0) / 2.0


def check_chain_count_d2(data: bytes, n: int) -> list[str]:
    """A ``simulate --what chain-count --d 2`` JSON lies within 4 SE of the closed form."""
    try:
        doc = json.loads(data)
        mean, se = float(doc["value"]), float(doc["std_error"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"chain-count: unparsable summary ({exc})"]
    return _z_problem(f"chain-count n={n}", mean, se, chain_count_mean_d2(n))


def limit_moment(d: int, beta: int) -> float:
    """(beta!)^(d+1) / (beta d) * prod_{r=2}^{beta} 1/(r^d - 1)."""
    den = beta * d
    for r in range(2, beta + 1):
        den *= r**d - 1
    return math.factorial(beta) ** (d + 1) / den


def parse_limit_sample(data: bytes) -> np.ndarray:
    lines = data.split(b"\n", 1)
    body = lines[1] if lines[0].startswith(b"#") else data
    return np.array(body.split(), dtype=float)


def check_limit_sample(data: bytes, d: int) -> list[str]:
    """The mean of a ``limits --kind y`` sample lies within 4 SE of limit_moment(d, 1)."""
    try:
        values = parse_limit_sample(data)
    except ValueError as exc:
        return [f"limits y: unparsable sample ({exc})"]
    if values.size < 2:
        return ["limits y: fewer than two draws"]
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    return _z_problem(f"limits y d={d}", float(values.mean()), se, limit_moment(d, 1))


def check_identical(a: bytes, b: bytes, what: str) -> list[str]:
    if a != b:
        return [f"{what}: outputs differ ({len(a)} vs {len(b)} bytes)"]
    return []


def check_verify_report(data: bytes) -> list[str]:
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"verify: unparsable report ({exc})"]
    if doc.get("all_pass") is not True:
        failed = [c.get("criterion") for c in doc.get("criteria", []) if not c.get("pass")]
        return [f"verify: all_pass is not true (failed: {failed})"]
    return []


# ---------------------------------------------------------------------------
# independent record classifier for ``detect`` outputs


def reference_detect_body(marks: np.ndarray) -> bytes:
    """The body ``chainrec detect`` must write for ``marks`` (one row per mark).

    Chain, strong and marginal flags come from running minima and a scan of
    the last chain record; weak flags keep the Pareto-minimal front as a
    numpy array.  A mark is a weak record when no earlier mark is weakly
    below it, which by transitivity holds when no front point is.
    """
    n, d = marks.shape
    prev_min = np.minimum.accumulate(marks, axis=0)
    below = np.ones((n, d), dtype=bool)
    below[1:] = marks[1:] < prev_min[:-1]
    strong = below.all(axis=1)

    rows = marks.tolist()
    chain = [True] * n
    rec = rows[0]
    for j in range(1, n):
        x = rows[j]
        beat = all(a <= b for a, b in zip(x, rec)) and any(a < b for a, b in zip(x, rec))
        chain[j] = beat
        if beat:
            rec = x

    weak = np.zeros(n, dtype=bool)
    front = np.empty((n, d))
    size = 0
    for j in range(n):
        x = marks[j]
        live = front[:size]
        if not (live <= x).all(axis=1).any():
            weak[j] = True
            keep = ~(x <= live).all(axis=1)
            size = int(keep.sum())
            front[:size] = live[keep]
            front[size] = x
            size += 1

    masks = ["".join("1" if b else "0" for b in row) for row in below.tolist()]
    out = ["index,chain,weak,strong,marginal_mask"]
    out.extend(
        f"{j + 1},{int(chain[j])},{int(weak[j])},{int(strong[j])},{masks[j]}" for j in range(n)
    )
    return ("\n".join(out) + "\n").encode()


def check_detect(data: bytes, expected_body: bytes) -> list[str]:
    want = hashlib.sha256(expected_body).hexdigest()
    got = body_sha256(data)
    if got != want:
        return [f"detect: sha256 {got[:16]}... differs from the reference {want[:16]}..."]
    return []
