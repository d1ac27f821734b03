"""Self-test of the benchmark's output checks.

Usage: ``python3 perfbench/selftest.py`` from a checkout with ``src/chainrec``.

Each check must accept a real, small ``chainrec`` output and reject the same
output corrupted: one flipped byte, or a mean shifted by 5 standard errors.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time

import checks
from run import WORK, Runner, detect_marks

failures = 0


def expect(case: str, problems: list[str], should_fail: bool) -> None:
    global failures
    ok = bool(problems) == should_fail
    failures += not ok
    verdict = "rejected" if problems else "accepted"
    print(f"{'PASS' if ok else 'FAIL'} {case}: {verdict}" + (f" ({problems[0]})" if problems else ""))


def flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


def body_offset(data: bytes, line: int) -> int:
    """Offset of the first byte of ``line`` (0-based, counting the meta line)."""
    return len(b"\n".join(data.split(b"\n")[:line])) + 1


def main() -> int:
    work = WORK / f"selftest-{os.getpid()}"
    (work / "out").mkdir(parents=True)
    try:
        runner = Runner(work, time.monotonic() + 170.0)
        out = work / "out"

        def cli(*argv):
            rc = runner.run(["-m", "chainrec", *argv])[2]
            if rc:
                raise SystemExit(f"chainrec {' '.join(argv)} exited {rc}")

        manifest = checks.load_manifest()
        cli("exact", "--d", "2", "--n", "40", "--out", "exact.csv")
        data = (out / "exact.csv").read_bytes()
        key = "exact --d 2 --n 40"
        expect("exact manifest, good", checks.check_manifest(data, key, manifest), False)
        expect("exact closed forms, good", checks.check_exact_d2(data), False)
        row7 = body_offset(data, 8)  # "7,1/14,..."
        bad = flip(data, row7 + data[row7:].index(b"/14") + 2)  # 1/14 -> 1/15
        expect("exact manifest, flipped byte", checks.check_manifest(bad, key, manifest), True)
        expect("exact closed forms, flipped byte", checks.check_exact_d2(bad), True)

        marks = detect_marks("uniform3", 7)[:300]
        (work / "marks.csv").write_text(
            "x1,x2,x3\n" + "\n".join(",".join(map(repr, r)) for r in marks.tolist()) + "\n")
        cli("detect", "--in", str(work / "marks.csv"), "--d", "3", "--out", "detect.csv")
        data = (out / "detect.csv").read_bytes()
        expected = checks.reference_detect_body(marks)
        expect("detect reference, good", checks.check_detect(data, expected), False)
        row = body_offset(data, 50)
        expect("detect reference, flipped byte",
               checks.check_detect(flip(data, row + data[row:].index(b",") + 1), expected), True)

        cli("simulate", "--what", "chain-count", "--d", "2", "--method", "direct", "--n", "50",
            "--replicates", "4000", "--seed", "7", "--out", "sim")
        data = (out / "sim.json").read_bytes()
        expect("chain-count mean, good", checks.check_chain_count_d2(data, 50), False)
        doc = json.loads(data)
        for sign in (1, -1):
            shifted = dict(doc, value=checks.chain_count_mean_d2(50) + sign * 5 * doc["std_error"])
            expect(f"chain-count mean, shifted {sign * 5:+d} SE",
                   checks.check_chain_count_d2(json.dumps(shifted).encode(), 50), True)

        for w in (1, 2):
            cli("limits", "--kind", "y", "--d", "2", "--replicates", "20000", "--seed", "7",
                "--workers", str(w), "--out", f"limits_w{w}")
        w1, w2 = (out / "limits_w1").read_bytes(), (out / "limits_w2").read_bytes()
        expect("limits mean, good", checks.check_limit_sample(w1, 2), False)
        expect("limits workers 1 vs 2, good", checks.check_identical(w1, w2, "limits"), False)
        values = checks.parse_limit_sample(w1)
        se = values.std(ddof=1) / math.sqrt(values.size)
        shift = checks.limit_moment(2, 1) + 5 * se - values.mean()
        shifted = "\n".join(repr(float(v)) for v in values + shift).encode()
        expect("limits mean, shifted +5 SE", checks.check_limit_sample(shifted, 2), True)
        expect("limits workers 1 vs 2, flipped byte",
               checks.check_identical(w1, flip(w2, len(w2) // 2), "limits"), True)

        report = json.dumps({"all_pass": True, "criteria": [{"criterion": "c01", "pass": True}]})
        expect("verify report, good", checks.check_verify_report(report.encode()), False)
        at = report.index("true")
        expect("verify report, flipped byte",
               checks.check_verify_report(flip(report.encode(), at)), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{failures} self-test case(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
