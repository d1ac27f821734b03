"""The chainrec benchmark: named CLI workloads, end-to-end and per-layer metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/chainrec``.  With ``--trace 0`` the
workload's commands run as a closed loop with one client: each command is
a fresh ``python -m chainrec`` child, started only after the previous one
exited, and the sequence (led by one cold ``--version`` launch and one
launch of a reference program) repeats while the next launch fits in
``--seconds``.
With ``--trace 1`` the commands run in process (``chainrec.cli.main``) in
two fresh interpreters, one plain and one traced, and the spans give the
per-layer metrics.  Every output is checked (see ``checks.py``).  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for the workloads, metrics
and baselines.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_tmp"
RUN_BUDGET_S = 170.0  # every run ends well inside the 180 s limit
LAYERS = ("cli", "exact", "records", "samplers", "rng", "stats", "verify")


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[[Path], list[str]]
    probe: bool = False  # traced run only; kept out of wall times and overhead


# ---------------------------------------------------------------------------
# workloads
#
# Every command takes one to three seconds, so that a run samples each one
# four to six times: on a shared host the CPU speed swings for tens of
# seconds at a time, and one sample of a long command lands wherever the
# host happens to be.

EXACT_N = 300
LIMIT_DRAWS = 500_000


def _read(out: Path, name: str) -> bytes:
    try:
        return (out / name).read_bytes()
    except OSError as exc:
        return f"<missing output: {exc}>".encode()


# the criteria of the gate's suites that the workloads run: "exact" and "limit"
CRITERIA_RUN = ("c01", "c02", "c03", "c04", "c05", "c11")


def verify_suite(suite: str) -> Command:
    # the gate always runs at its pinned DEFAULT_SEED: re-seeding it is not allowed
    name = f"verify_{suite}"
    return Command(
        f"verify.{suite}", ["verify", "--suite", suite, "--out", name],
        lambda out: checks.check_verify_report(_read(out, f"{name}.json")),
    )


def exact_detect(seed: int, inputs: Path, workers2: int) -> list[Command]:
    manifest = checks.load_manifest()
    commands = []
    for d in (2, 3):
        name = f"exact_d{d}.csv"
        argv = ["exact", "--d", str(d), "--n", str(EXACT_N), "--out", name]

        def check(out, d=d, name=name):
            data = _read(out, name)
            problems = checks.check_manifest(data, f"exact --d {d} --n {EXACT_N}", manifest)
            return problems + (checks.check_exact_d2(data) if d == 2 else [])

        commands.append(Command(f"exact.d{d}", argv, check))
    commands.append(verify_suite("exact"))
    return commands + detect_commands(seed, inputs)


def monte_carlo(seed: int, inputs: Path, workers2: int) -> list[Command]:
    commands = []
    for label, method, n, reps in (
        ("direct", "direct", 1000, 10_000),
        ("insertion", "insertion", 1000, 10_000),
        ("sojourn", "sojourn", 1_000_000, 100_000),
        ("direct_rowwise", "direct", 10_000, 300),
    ):
        argv = ["simulate", "--what", "chain-count", "--d", "2", "--method", method,
                "--n", str(n), "--replicates", str(reps), "--seed", str(seed),
                "--out", f"sim_{label}"]
        commands.append(Command(
            f"simulate.{label}", argv,
            lambda out, label=label, n=n: checks.check_chain_count_d2(
                _read(out, f"sim_{label}.json"), n),
        ))
    for tag, workers, check in (
        ("w1", 1, lambda out: checks.check_limit_sample(_read(out, "limits_w1"), 2)),
        ("w2", workers2, lambda out: checks.check_identical(
            _read(out, "limits_w1"), _read(out, "limits_w2"), "limits --workers 1 vs 2")),
    ):
        argv = ["limits", "--kind", "y", "--d", "2", "--replicates", str(LIMIT_DRAWS),
                "--seed", str(seed), "--workers", str(workers), "--out", f"limits_{tag}"]
        commands.append(Command(f"limits.{tag}", argv, check))
    commands.append(verify_suite("limit"))
    # the direct kernel at two workers, for samplers.speedup_2w.direct
    argv = [*commands[0].argv[:-2], "--workers", str(workers2), "--out", "probe_direct_w2"]
    commands.append(Command(
        "probe.direct_w2", argv,
        lambda out: checks.check_identical(
            _read(out, "sim_direct.json"), _read(out, "probe_direct_w2.json"),
            "simulate direct --workers 1 vs 2"),
        probe=True,
    ))
    return commands


DETECT_INPUTS = (
    # label, dimension, marks
    ("uniform3", 3, 50_000),
    ("anti2", 2, 2_500),
)
ANTI_NOISE_SD = 1e-3


def detect_marks(label: str, seed: int) -> np.ndarray:
    """Marks for one detect input; the same seed always gives the same marks."""
    index, (_, d, n) = next((i, x) for i, x in enumerate(DETECT_INPUTS) if x[0] == label)
    rng = np.random.default_rng([seed, index])
    if label == "uniform3":
        return rng.random((n, d))
    x1 = rng.random(n)
    x2 = np.clip(1.0 - x1 + rng.normal(0.0, ANTI_NOISE_SD, n), 0.0, 1.0)
    return np.column_stack([x1, x2])


def detect_commands(seed: int, inputs: Path) -> list[Command]:
    commands = []
    for label, d, _ in DETECT_INPUTS:
        marks = detect_marks(label, seed)
        path = inputs / f"marks_{label}.csv"
        header = ",".join(f"x{i}" for i in range(1, d + 1))
        rows = (",".join(map(repr, row)) for row in marks.tolist())
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        expected = checks.reference_detect_body(marks)
        name = f"detect_{label}.csv"
        commands.append(Command(
            f"detect.{label}",
            ["detect", "--in", str(path), "--d", str(d), "--out", name],
            lambda out, name=name, expected=expected: checks.check_detect(
                _read(out, name), expected),
        ))
    return commands


WORKLOADS = {
    "exact-detect": exact_detect,
    "monte-carlo": monte_carlo,
}

MARKS = {label: n for label, _, n in DETECT_INPUTS}


# ---------------------------------------------------------------------------
# children


class Runner:
    """Starts children with the pinned environment and a shared deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(SRC),
            CHAINREC_OUT_DIR=str(work / "out"),
            TMPDIR=str(work / "tmp"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        (work / "tmp").mkdir(parents=True, exist_ok=True)

    def run(self, args: list[str], out: Path | None = None):
        """Run one child; return (wall_s, peak_rss_mb, exit code, stdout, stderr).

        The peak RSS is the child's own, from the rusage ``os.wait4`` returns.
        """
        env = self.env if out is None else {**self.env, "CHAINREC_OUT_DIR": str(out)}
        err_path = self.work / "stderr.txt"
        out_path = self.work / "stdout.txt"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(err_path, "wb") as err, open(out_path, "wb") as so:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=env,
                stdin=subprocess.DEVNULL, stdout=so, stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # e.g. SIGTERM: never leave the child running
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:200] if lines else ""


# ---------------------------------------------------------------------------
# provenance


def provenance() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "git": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


SETUP = Command("setup", ["-m", "chainrec", "--version"], lambda out: [])
# A fixed program that shares nothing with chainrec but its interpreter and
# scipy: its wall time measures the host's speed during the run.
REFERENCE = Command("reference", ["-c", "import scipy.stats"], lambda out: [])


def run_untraced(commands: list[Command], runner: Runner, seconds: float):
    """Closed loop over the commands, in order and pass after pass.

    Each pass starts with one cold ``chainrec --version`` launch, the set-up,
    and one launch of the reference program, and then runs the workload's
    commands.  The first pass always runs in full; after it, the next launch
    starts only while its mean wall time so far still fits in ``seconds``.
    ``wall_s`` is the sum of the commands' median wall times: one pass of
    the sequence.  The host's speed swings by up to 2x and stays slow for
    minutes at a time, which moves whole runs; ``wall_rel`` divides
    ``wall_s`` by the reference's median wall time in the same run, so that
    the host's speed cancels out.  ``setup_s`` is the median of the set-up
    launches, which are spread over the whole run.
    """
    steps = [SETUP, REFERENCE, *(c for c in commands if not c.probe)]
    out = runner.work / "out"
    walls = {c.label: [] for c in steps}
    rss, attempted, failed, lines = [], 0, 0, []
    started = time.monotonic()
    for i in itertools.count():
        cmd = steps[i % len(steps)]
        if i >= len(steps):
            expected = statistics.fmean(walls[cmd.label])
            now = time.monotonic()
            if now - started + expected > seconds or now + 2 * expected > runner.deadline:
                break
        own = cmd not in (SETUP, REFERENCE)
        wall, peak, rc, stdout, err = runner.run(["-m", "chainrec", *cmd.argv] if own else cmd.argv)
        if rc:
            problems = [f"exit code {rc}: {_tail(err)}"]
        elif cmd is SETUP:
            problems = [] if stdout.startswith("chainrec ") else [f"--version printed {_tail(stdout)!r}"]
        else:
            problems = cmd.check(out)
        if own:
            rss.append(peak)
        walls[cmd.label].append(wall)
        attempted += 1
        failed += bool(problems)
        lines.append(f"command {cmd.label} wall_s={wall:.4f} peak_rss_mb={peak:.1f} "
                     f"{'FAIL ' + '; '.join(problems) if problems else 'ok'}")

    setup = walls.pop(SETUP.label)
    reference = statistics.median(walls.pop(REFERENCE.label))
    med = {label: statistics.median(w) for label, w in walls.items()}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_rel": (sum(med.values()) / reference, "ratio"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    extra = {
        "wall_s": (sum(med.values()), "s"),
        "reference_s": (reference, "s"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    if "exact.d2" in med:
        extra["exact_rows_per_s"] = (2 * EXACT_N / (med["exact.d2"] + med["exact.d3"]), "1/s")
    for label, n in MARKS.items():
        if f"detect.{label}" in med:
            extra[f"marks_per_s.{label}"] = (n / med[f"detect.{label}"], "1/s")
    if "limits.w1" in med:
        extra["speedup_2w"] = (med["limits.w1"] / med["limits.w2"], "ratio")
    lines.append(f"passes {len(setup)}; samples per command "
                 + ", ".join(f"{label}={len(w)}" for label, w in walls.items()))
    return metrics, extra, attempted, failed, lines


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def import_breakdown(runner: Runner) -> dict:
    bare, chainrec_s, scipy_stats_s = [], [], []
    for _ in range(3):
        bare.append(runner.run(["-c", "pass"])[0])
        err = runner.run(["-X", "importtime", "-c", "import chainrec"])[4]
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        chainrec_s.append(cumulative.get("chainrec", 0.0))
        scipy_stats_s.append(cumulative.get("scipy.stats", 0.0))
    return {
        "import.interpreter_s": (statistics.median(bare), "s"),
        "import.chainrec_s": (statistics.median(chainrec_s), "s"),
        "import.scipy_stats_s": (statistics.median(scipy_stats_s), "s"),
    }


def run_in_process(runner: Runner, commands: list[Command], trace: bool, tag: str) -> dict:
    plan = runner.work / f"plan_{tag}.json"
    result = runner.work / f"result_{tag}.json"
    plan.write_text(json.dumps({"trace": trace, "commands": [[c.label, c.argv] for c in commands]}))
    out = runner.work / f"out_{tag}"
    out.mkdir(exist_ok=True)
    _, _, rc, _, err = runner.run([str(HERE / "inprocess.py"), str(plan), str(result)], out=out)
    if rc != 0 or not result.exists():
        return {"commands": [{"label": c.label, "rc": rc or 1, "wall_s": 0.0}
                             for c in commands], "error": _tail(err), "out": out}
    doc = json.loads(result.read_text())
    doc["out"] = out
    return doc


def layer_metrics(doc: dict, labels: list[str]) -> dict:
    spans = doc.get("spans", [])  # none when the traced interpreter failed
    child_time: dict[int, float] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_time = dict.fromkeys(LAYERS, 0.0)
    total = {}
    calls = {}
    for sid, _, name, _, start, end, _ in spans:
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time.get(sid, 0.0)
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def select(name, **want):
        for _, _, n, run, start, end, attrs in spans:
            if n == name and all((attrs or {}).get(k) == v for k, v in want.items()):
                yield run, end - start, attrs

    m = {}
    # the exact commands only: the gate's exact suite builds smaller tables of its own
    exact_runs = {i for i, lab in enumerate(labels) if lab.startswith("exact.")}
    for d in (2, 3):
        m[f"exact.chain_table_s.d{d}"] = (sum(
            t for run, t, _ in select("exact.chain_record_prob_table", d=d) if run in exact_runs
        ), "s")
    weak = [t for run, t, _ in select("exact.weak_record_prob") if run in exact_runs]
    m["exact.weak_prob_s"] = (sum(weak), "s")
    m["exact.weak_prob_calls"] = (len(weak), "count")
    m["exact.moment_series_s"] = (total.get("exact.moment_series", 0.0), "s")
    m["exact.moment_series_calls"] = (calls.get("exact.moment_series", 0), "count")

    process = list(select("records.RecordDetector.process"))
    for label, _, _ in DETECT_INPUTS:
        runs = {i for i, lab in enumerate(labels) if lab == f"detect.{label}"}
        mine = [(t, a["front"]) for run, t, a in process if run in runs]
        m[f"records.process_s.{label}"] = (sum(t for t, _ in mine), "s")
        m[f"records.front_max.{label}"] = (max((f for _, f in mine), default=0), "count")
    m["records.front_scan_total"] = (sum(a["front"] for _, _, a in process), "count")

    m["cli.output_bytes"] = (
        sum(p.stat().st_size for p in doc["out"].rglob("*") if p.is_file()), "bytes")

    def rate(name, keep=lambda a: True, **want):
        """Replicates per second of span time over the matching spans."""
        matched = [(t, a["replicates"]) for _, t, a in select(name, **want) if keep(a)]
        secs = sum(t for t, _ in matched)
        return sum(r for _, r in matched) / secs if secs else 0.0

    # n > 4096 is where sample_chain_counts switches to the row-wise direct path
    chain, limit = "samplers.sample_chain_counts", "samplers.sample_limit_variables"
    blocked = lambda a: a["n"] <= 4096
    m["samplers.direct_reps_per_s"] = (rate(chain, blocked, method="direct", workers=1), "1/s")
    m["samplers.direct_rowwise_reps_per_s"] = (
        rate(chain, lambda a: not blocked(a), method="direct", workers=1), "1/s")
    for method in ("insertion", "sojourn"):
        m[f"samplers.{method}_reps_per_s"] = (rate(chain, method=method, workers=1), "1/s")
    m["samplers.limit_draws_per_s"] = (rate(limit, workers=1), "1/s")
    m["samplers.window_draws_per_s"] = (rate("samplers.sample_window_counts"), "1/s")
    w2 = max((a["workers"] for _, _, a in select(limit)), default=1)
    for kernel, name, keep, extra in (("direct", chain, blocked, {"method": "direct"}),
                                      ("limit", limit, lambda a: True, {})):
        one = rate(name, keep, workers=1, **extra)
        two = rate(name, keep, workers=w2, **extra) if w2 > 1 else 0.0
        m[f"samplers.speedup_2w.{kernel}"] = (two / one if one else 0.0, "ratio")
    m["samplers.block_bytes_max"] = (doc.get("block_bytes_max", 0), "bytes")
    m["samplers.chunks"] = (sum(1 for _ in select("rng.make_stream", site="samplers")), "count")
    depth = [(a["depth_sum"], a["depth_n"]) for _, _, a in select(limit)]
    draws = sum(n for _, n in depth)
    m["samplers.limit_depth_mean"] = (sum(s for s, _ in depth) / draws if draws else 0.0, "count")

    m["rng.make_stream_calls"] = (calls.get("rng.make_stream", 0), "count")
    m["rng.make_stream_s"] = (total.get("rng.make_stream", 0.0), "s")
    m["stats.two_sample_test_s"] = (total.get("stats.two_sample_test", 0.0), "s")
    m["stats.two_sample_test_calls"] = (calls.get("stats.two_sample_test", 0), "count")
    m["stats.summarize_s"] = (total.get("stats.summarize", 0.0), "s")

    criteria = dict.fromkeys(CRITERIA_RUN, 0.0)
    for name, t in total.items():
        hit = re.match(r"verify\.(c\d\d)_", name)
        if hit and hit.group(1) in criteria:
            criteria[hit.group(1)] += t
    for cid, t in criteria.items():
        m[f"verify.{cid}_s"] = (t, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_time[layer], "s")
    m["trace.spans"] = (len(spans), "count")
    return m


def run_traced(workload: str, commands: list[Command], runner: Runner):
    metrics = import_breakdown(runner)
    plain_cmds = [c for c in commands if not c.probe]
    plain = run_in_process(runner, plain_cmds, trace=False, tag="plain")
    traced = run_in_process(runner, commands, trace=True, tag="traced")
    attempted = failed = 0
    lines = []
    for doc, cmds, tag in ((plain, plain_cmds, "plain"), (traced, commands, "traced")):
        if "error" in doc:
            lines.append(f"{tag} interpreter failed: {doc['error']}")
        for cmd, res in zip(cmds, doc["commands"]):
            problems = [f"exit code {res['rc']}"] if res["rc"] else cmd.check(doc["out"])
            attempted += 1
            failed += bool(problems)
            lines.append(f"command {tag} {cmd.label} wall_s={res['wall_s']:.4f} "
                         f"{'FAIL ' + '; '.join(problems) if problems else 'ok'}")
    plain_wall = sum(r["wall_s"] for r in plain["commands"])
    traced_wall = sum(r["wall_s"] for c, r in zip(commands, traced["commands"]) if not c.probe)
    metrics.update(layer_metrics(traced, [c.label for c in commands]))
    if "spans" in traced:
        keep = WORK / f"trace-{workload}.json"
        keep.write_text(json.dumps(
            {"commands": traced["commands"], "spans": traced["spans"]}))
        lines.append(f"spans written to {keep.relative_to(ROOT)}")
    metrics["trace.plain_wall_s"] = (plain_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics, attempted, failed, lines


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the child and the work dir are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "chainrec" / "__init__.py").is_file():
        print(f"error: no chainrec package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=2)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    (work / "out").mkdir()
    try:
        runner = Runner(work, deadline)
        workers2 = min(2, len(os.sched_getaffinity(0)))
        commands = WORKLOADS[args.workload](args.seed, work / "inputs", workers2)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("provenance " + " ".join(f"{k}={v}" for k, v in provenance().items()))
        if args.trace:
            metrics, attempted, failed, lines = run_traced(args.workload, commands, runner)
            extra = {}
        else:
            metrics, extra, attempted, failed, lines = run_untraced(
                commands, runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
