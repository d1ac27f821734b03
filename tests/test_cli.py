"""CLI tests: formats, error handling, reproducibility, precedence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainrec
from chainrec import cli, exact, samplers
from chainrec.cli import _read_marks_csv, main

from conftest import ELEVEN_POINT_CHAIN, ELEVEN_POINT_MARKS, FOUR_POINT_MARKS
from oracles import alternating_weak_prob
from test_records import oracle_flags


def write_marks_csv(path, marks):
    d = len(marks[0])
    lines = [",".join(f"x{i}" for i in range(1, d + 1))]
    lines += [",".join(repr(c) for c in m) for m in marks]
    path.write_text("\n".join(lines) + "\n")


def data_rows(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")][1:]


# ---------------------------------------------------------------------------
# detect


def test_detect_four_point_fixture(tmp_path, capsys):
    src = tmp_path / "marks.csv"
    write_marks_csv(src, FOUR_POINT_MARKS)
    assert main(["detect", "--in", str(src)]) == 0
    rows = data_rows(capsys.readouterr().out)
    assert rows == [
        "1,1,1,1,11",
        "2,1,1,1,11",
        "3,0,1,0,01",
        "4,1,1,1,11",
    ]


def test_detect_eleven_point_fixture(tmp_path):
    src = tmp_path / "marks.csv"
    out = tmp_path / "flags.csv"
    write_marks_csv(src, ELEVEN_POINT_MARKS)
    assert main(["detect", "--in", str(src), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# chainrec ")
    rows = data_rows(text)
    chain = [int(r.split(",")[0]) for r in rows if r.split(",")[1] == "1"]
    assert chain == ELEVEN_POINT_CHAIN


def test_detect_single_row(tmp_path, capsys):
    src = tmp_path / "one.csv"
    write_marks_csv(src, [(0.4, 0.2, 0.9)])
    assert main(["detect", "--in", str(src)]) == 0
    assert data_rows(capsys.readouterr().out) == ["1,1,1,1,111"]


def _detect_inputs():
    rng = np.random.default_rng(20)
    uniform = rng.random((3000, 3))
    x = rng.random(2000)
    anti = np.column_stack([x, np.clip(1.0 - x + rng.normal(0.0, 1e-3, 2000), 0.0, 1.0)])
    # two-decimal grid: many exact repeats and ties in one coordinate
    tied = np.round(rng.random((1500, 2)), 2)
    return {"uniform3": uniform, "anti2": anti, "tied2": tied}


@pytest.mark.parametrize("label", ["uniform3", "anti2", "tied2"])
def test_detect_matches_the_oracle_on_larger_inputs(tmp_path, label):
    marks = [tuple(row) for row in _detect_inputs()[label].tolist()]
    src, out = tmp_path / "marks.csv", tmp_path / "flags.csv"
    write_marks_csv(src, marks)
    assert main(["detect", "--in", str(src), "--out", str(out)]) == 0
    expected = [
        f"{i},{int(chain)},{int(weak)},{int(strong)},{''.join(str(int(m)) for m in marginal)}"
        for i, (chain, weak, strong, marginal) in enumerate(oracle_flags(marks), 1)
    ]
    assert data_rows(out.read_text()) == expected


def test_detect_decreasing_marks_are_records_of_every_kind(tmp_path):
    # each mark beats the one before: a record of every kind at every index
    n = 20_000
    marks = [(x, x) for x in np.linspace(0.99, 0.01, n).tolist()]
    src, out = tmp_path / "marks.csv", tmp_path / "flags.csv"
    write_marks_csv(src, marks)
    assert main(["detect", "--in", str(src), "--out", str(out)]) == 0
    assert data_rows(out.read_text()) == [f"{i},1,1,1,11" for i in range(1, n + 1)]


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("x1,x2\n0.1,0.2\n0.3\n", "line 3"),
        ("x1,x2\n0.1,0.2\n0.3,oops\n", "line 3"),
        ("x1,x2\n0.1,1.2\n", "line 2"),
        ("a,b\n0.1,0.2\n", "header"),
        ("x1,x2\n", "no marks"),
    ],
)
def test_detect_bad_input(tmp_path, capsys, body, fragment):
    src = tmp_path / "bad.csv"
    src.write_text(body)
    assert main(["detect", "--in", str(src)]) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, message",
    [
        ("0.1,0.2,0.3", "expected 2 coordinates, got 3"),
        # two ragged lines whose cells still fill whole rows
        ("0.1,0.2,0.3\n0.4", "expected 2 coordinates, got 3"),
        ("0.1,oops", "non-numeric coordinate"),
        ("0.1,1.5", "coordinate 1.5 outside [0, 1]"),
        ("nan,0.2", "coordinate nan outside [0, 1]"),
    ],
)
def test_detect_names_a_bad_line_deep_in_a_large_file(tmp_path, capsys, bad, message):
    marks = np.random.default_rng(7).random((50_000, 2))
    lines = ["x1,x2", *(",".join(map(repr, row)) for row in marks.tolist())]
    lines[39_999] = bad  # line 40,000 of the file
    src = tmp_path / "bad.csv"
    src.write_text("\n".join(lines) + "\n")
    assert main(["detect", "--in", str(src)]) == 1
    assert f"line 40000: {message}" in capsys.readouterr().err


def test_marks_csv_one_pass_parse_equals_the_line_scan(tmp_path):
    marks = np.random.default_rng(8).random((2000, 3))
    rows = [",".join(map(repr, row)) for row in marks.tolist()]
    plain = tmp_path / "plain.csv"
    plain.write_text("x1,x2,x3\n" + "\n".join(rows) + "\n")
    # comments, a blank line and padded cells are valid, but only the line
    # scan accepts them
    padded = tmp_path / "padded.csv"
    padded.write_text("# marks\nx1, x2, x3\n" + "\n".join(rows[:1000]) + "\n\n# half\n"
                      + "\n".join(r.replace(",", " , ") for r in rows[1000:]) + "\n")
    assert np.array_equal(_read_marks_csv(str(plain)), marks)
    assert np.array_equal(_read_marks_csv(str(padded)), marks)


def test_detect_dimension_check(tmp_path, capsys):
    src = tmp_path / "marks.csv"
    write_marks_csv(src, FOUR_POINT_MARKS)
    assert main(["detect", "--in", str(src), "--d", "3"]) == 1
    assert "dimension" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exact


def chain_column(text):
    return [r.split(",")[1] for r in data_rows(text)]


def test_exact_table_dimension_two(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["exact", "--d", "2", "--n", "5", "--out", str(out)]) == 0
    assert chain_column(out.read_text()) == ["1", "1/4", "1/6", "1/8", "1/10"]


def test_exact_table_dimension_one(capsys):
    assert main(["exact", "--d", "1", "--n", "3"]) == 0
    assert chain_column(capsys.readouterr().out) == ["1", "1/2", "1/3"]


def test_exact_table_dimension_three(capsys):
    assert main(["exact", "--d", "3", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert chain_column(out) == ["1", "1/8"]
    header = data_rows(out) and [l for l in out.splitlines() if l.startswith("n,")][0]
    assert header.startswith("n,p_exact_fraction,p_exact_decimal15")


def test_exact_decimal_column(capsys):
    assert main(["exact", "--d", "2", "--n", "3"]) == 0
    rows = data_rows(capsys.readouterr().out)
    cells = rows[2].split(",")
    assert cells[1] == "1/6"
    assert cells[2] == exact.format_decimal15(exact.chain_record_prob(2, 3))


def test_exact_cap_error(capsys):
    assert main(["exact", "--d", "2", "--n", "600"]) == 1
    assert "cap" in capsys.readouterr().err
    assert main(["exact", "--d", "1", "--n", "600", "--n-cap", "600"]) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_weak_column_matches_alternating_sum(capsys, d):
    assert main(["exact", "--d", str(d), "--n", "60"]) == 0
    out = capsys.readouterr().out
    header = [l for l in out.splitlines() if l.startswith("n,")][0].split(",")
    col = header.index("p_weak_fraction")
    weak = [r.split(",")[col] for r in data_rows(out)]
    assert weak == [str(alternating_weak_prob(d, n)) for n in range(1, 61)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int-to-string digit limit")
def test_exact_formats_past_the_int_digit_limit(tmp_path):
    # at n=300 the d=3 expected chain count has about 900 digits, past the
    # smallest limit Python allows
    reference, limited = tmp_path / "reference.csv", tmp_path / "limited.csv"
    assert main(["exact", "--d", "3", "--n", "300", "--out", str(reference)]) == 0
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["exact", "--d", "3", "--n", "300", "--out", str(limited)]) == 0
        assert sys.get_int_max_str_digits() == 640  # the command restores the limit
    finally:
        sys.set_int_max_str_digits(previous)
    assert limited.read_bytes() == reference.read_bytes()


def test_exact_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["exact", "--d", "2", "--n", "30", "--out", str(a)])
    main(["exact", "--d", "2", "--n", "30", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_count_mean_near_exact(tmp_path):
    out = tmp_path / "run"
    args = ["simulate", "--what", "chain-count", "--method", "sojourn", "--d", "2",
            "--n", "100", "--replicates", "10000", "--seed", "42", "--out", str(out)]
    assert main(args) == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    target = float(exact.expected_chain_count(2, 100))
    assert abs(doc["value"] - target) < 4 * doc["std_error"]
    assert doc["replicates"] == 10000
    assert doc["meta"]["seed"] == 42
    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.startswith("# chainrec ")
    assert "estimator,value,std_error,replicates,seed" in csv_text


def test_simulate_is_reproducible_across_workers(tmp_path):
    base = ["simulate", "--what", "chain-count", "--d", "2", "--n", "50",
            "--replicates", "3000", "--seed", "7"]
    for i, workers in enumerate(("1", "4")):
        assert main([*base, "--workers", workers, "--out", str(tmp_path / f"r{i}")]) == 0
    assert (tmp_path / "r0.json").read_bytes() == (tmp_path / "r1.json").read_bytes()
    assert (tmp_path / "r0.csv").read_bytes() == (tmp_path / "r1.csv").read_bytes()


def test_simulate_single_replicate_reports_na(tmp_path, capsys):
    args = ["simulate", "--what", "chain-count", "--d", "2", "--n", "20",
            "--replicates", "1", "--seed", "5"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["std_error"] is None
    out = tmp_path / "single"
    assert main([*args, "--out", str(out)]) == 0
    assert ",NA," in (tmp_path / "single.csv").read_text()


def test_simulate_poisson_estimands(capsys):
    for what, check in (
        ("poisson-count", None),
        ("poisson-integral", None),
        ("poisson-state", lambda v: abs(v - exact.moment_series(2, 1, 3.0)) < 0.05),
    ):
        args = ["simulate", "--what", what, "--d", "2", "--t", "3.0",
                "--replicates", "5000", "--seed", "11"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        if check:
            assert check(doc["value"])


def test_simulate_limit_variable(capsys):
    args = ["simulate", "--what", "limit-variable", "--d", "2",
            "--replicates", "20000", "--seed", "13"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value"] - 0.5) < 4 * doc["std_error"]


def test_simulate_missing_horizon(capsys):
    assert main(["simulate", "--what", "chain-count", "--d", "2",
                 "--replicates", "10", "--seed", "1"]) == 1
    assert "--n is required" in capsys.readouterr().err
    assert main(["simulate", "--what", "poisson-count", "--d", "2",
                 "--replicates", "10", "--seed", "1"]) == 1
    assert "--t is required" in capsys.readouterr().err


# a value other than the default for each option that some estimand does
# not read, and the options each estimand reads
_UNREAD_VALUES = {"method": "insertion", "n": "50", "t": "5", "b0": "2", "truncation-tol": "1e-3"}
_READS = {
    "chain-count": ["method", "n"],
    "poisson-count": ["t", "b0"],
    "poisson-integral": ["t", "b0"],
    "poisson-state": ["t", "b0"],
    "renewal-count": ["n"],
    "limit-variable": ["truncation-tol"],
}


@pytest.mark.parametrize("what", sorted(_READS))
def test_an_option_the_estimand_does_not_read_changes_no_byte(tmp_path, what):
    required = {"chain-count": ["--n", "100"], "renewal-count": ["--n", "100"],
                "limit-variable": []}.get(what, ["--t", "3"])
    argv = ["simulate", "--what", what, "--d", "2", *required, "--replicates", "200",
            "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    config = json.loads((tmp_path / "plain.json").read_text())["meta"]["config"]
    assert sorted(config) == sorted(["what", "d", *(o.replace("-", "_") for o in _READS[what])])
    unread = [option for option in _UNREAD_VALUES if option not in _READS[what]]
    for option in unread:
        assert main([*argv, f"--{option}", _UNREAD_VALUES[option],
                     "--out", str(tmp_path / option)]) == 0
        for ext in (".json", ".csv"):
            plain = (tmp_path / f"plain{ext}").read_bytes()
            assert (tmp_path / f"{option}{ext}").read_bytes() == plain, (option, ext)


@pytest.mark.parametrize("kind, argv, unread", [
    ("y", ["--replicates", "50"], ["--window", "0.25,1.0,4.0"]),
    ("window", ["--window", "0.25,1.0,4.0"], ["--replicates", "50"]),
])
def test_an_option_the_limit_kind_does_not_read_changes_no_byte(tmp_path, kind, argv, unread):
    base = ["limits", "--kind", kind, "--d", "2", *argv, "--seed", "1"]
    assert main([*base, "--out", str(tmp_path / "plain")]) == 0
    assert main([*base, *unread, "--out", str(tmp_path / "unread")]) == 0
    assert (tmp_path / "unread").read_bytes() == (tmp_path / "plain").read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["limits", "--kind", "y", "--d", "2", "--replicates", "-5"], "replicates must be >= 1"),
        (["limits", "--kind", "y", "--d", "2", "--replicates", "0"], "replicates must be >= 1"),
        (["simulate", "--d", "2", "--n", "10", "--replicates", "0"], "replicates must be >= 1"),
        (["simulate", "--what", "renewal-count", "--d", "2", "--n", "10", "--replicates", "-3"],
         "replicates must be >= 1"),
        (["simulate", "--method", "direct", "--d", "2", "--n", "0", "--replicates", "3"],
         "need d >= 1 and n >= 1"),
        (["limits", "--kind", "y", "--d", "0", "--replicates", "3"], "need d >= 1"),
        (["limits", "--kind", "window", "--d", "0", "--window", "0.05,2.0,8.0"], "need d >= 1"),
        (["simulate", "--what", "limit-variable", "--d", "0", "--replicates", "3"],
         "need d >= 1"),
        (["simulate", "--what", "poisson-count", "--d", "0", "--t", "1.0", "--replicates", "3"],
         "need d >= 1, t_horizon > 0 and b0 > 0"),
        (["simulate", "--what", "renewal-count", "--d", "2", "--n", "0", "--replicates", "3"],
         "need d >= 1 and n >= 1"),
        (["simulate", "--what", "limit-variable", "--d", "2", "--replicates", "10",
          "--trace-out", "t.csv"], "--trace-out needs --what chain-count"),
        (["simulate", "--what", "poisson-count", "--d", "2", "--t", "1.0", "--replicates", "10",
          "--trace-out", "t.csv"], "--trace-out needs --what chain-count"),
        (["simulate", "--method", "insertion", "--d", "2", "--n", "10", "--replicates", "10",
          "--trace-out", "t.csv"], "--trace-out needs --method direct or sojourn"),
        (["limits", "--kind", "window", "--d", "2", "--window", "0.1,1,2",
          "--truncation-tol", "nan"], "tolerance must be finite and positive"),
        (["limits", "--kind", "window", "--d", "2", "--window", "0.1,inf,2"],
         "window must satisfy 0 < s_lo < s_hi < inf and t_hi > 0"),
        (["limits", "--kind", "window", "--d", "2", "--window", "0.1,1,nan"],
         "window must satisfy 0 < s_lo < s_hi < inf and t_hi > 0"),
        (["limits", "--kind", "y", "--d", "2", "--replicates", "3", "--truncation-tol", "inf"],
         "tolerance must be finite and positive"),
        (["simulate", "--what", "limit-variable", "--d", "2", "--replicates", "3",
          "--truncation-tol", "nan"], "tolerance must be finite and positive"),
    ],
)
def test_invalid_sample_sizes_are_rejected(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative --trace-out would land here
    assert main([*argv, "--seed", "1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_trace_dump(tmp_path):
    out = tmp_path / "tr"
    args = ["simulate", "--what", "chain-count", "--method", "sojourn", "--d", "2",
            "--n", "50", "--replicates", "3", "--seed", "9", "--out", str(out),
            "--trace-out", str(tmp_path / "traces.csv")]
    assert main(args) == 0
    lines = (tmp_path / "traces.csv").read_text().splitlines()
    assert lines[1] == "replicate,k,T_k,H_k"
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == "1"
    assert 0 < float(first[3]) < 1


def test_a_failed_trace_dump_leaves_no_partial_file(tmp_path, monkeypatch):
    from chainrec import samplers

    simulate_direct = samplers.simulate_direct
    calls = []

    def fails_at_replicate_3(gen, d, n):
        calls.append(n)
        if len(calls) == 3:
            raise RuntimeError("injected failure")
        return simulate_direct(gen, d, n)

    monkeypatch.setattr(samplers, "simulate_direct", fails_at_replicate_3)
    trace = tmp_path / "trace.csv"
    args = ["simulate", "--method", "direct", "--d", "2", "--n", "50", "--replicates", "5",
            "--seed", "9", "--out", str(tmp_path / "run"), "--trace-out", str(trace)]
    with pytest.raises(RuntimeError, match="injected failure"):
        main(args)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.json"]
    # a failed rewrite keeps the earlier file as it was
    trace.write_text("earlier\n")
    calls.clear()
    with pytest.raises(RuntimeError, match="injected failure"):
        main(args)
    assert trace.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.json", "trace.csv"]


# ---------------------------------------------------------------------------
# limits


def test_limits_variable_samples(tmp_path):
    out = tmp_path / "y.txt"
    args = ["limits", "--kind", "y", "--d", "1", "--replicates", "4000",
            "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    values = [float(v) for v in lines]
    assert len(values) == 4000
    assert abs(sum(values) / len(values) - 1.0) < 0.1


def test_limits_y_block_writes_equal_one_join(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_LINES_PER_WRITE", 7)  # 50 values: 7 full blocks and 1 value
    args = ["limits", "--kind", "y", "--d", "2", "--replicates", "50", "--seed", "3"]
    values, _ = samplers.sample_limit_variables(2, 50, seed=3, label="limits:y:d=2:tol=1e-06")
    out = tmp_path / "y.txt"
    assert main([*args, "--out", str(out)]) == 0
    text = out.read_text()
    header = text.split("\n", 1)[0]
    assert header.startswith("# chainrec ")
    assert text == "\n".join([header, *(repr(float(v)) for v in values)]) + "\n"
    assert main(args) == 0
    assert capsys.readouterr().out == text


def test_limits_window_csv(tmp_path):
    out = tmp_path / "w.csv"
    args = ["limits", "--kind", "window", "--d", "2", "--window", "0.05,2.0,8.0",
            "--seed", "21", "--out", str(out)]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "xi,sigma"
    for row in lines[2:]:
        xi, sigma = (float(v) for v in row.split(","))
        assert 0.05 <= xi <= 2.0 and 0 < sigma <= 8.0


def test_limits_bad_window(capsys):
    assert main(["limits", "--kind", "window", "--d", "2", "--window", "nope",
                 "--seed", "1"]) == 1
    assert "--window" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config file, environment, argument errors


# each command with (key, value, losing value) triples and the files it
# writes: a config line acts exactly as its flag, and a flag beats its line
_CONFIG_CASES = [
    ("detect", [("in", "{marks}", "{other}"), ("d", "2", "3"), ("out", "flags.csv", "x.csv")],
     ["flags.csv"]),
    ("exact", [("d", "2", "3"), ("n", "4", "6"), ("n-cap", "50", "5"), ("out", "table.csv", "x")],
     ["table.csv"]),
    ("simulate", [("what", "chain-count", "renewal-count"), ("method", "direct", "insertion"),
                  ("d", "2", "1"), ("n", "20", "30"), ("t", "1.0", "2.0"), ("b0", "1.5", "2.0"),
                  ("replicates", "5", "7"), ("seed", "3", "4"), ("workers", "2", "1"),
                  ("truncation-tol", "1e-05", "1e-04"), ("out", "sim", "x"),
                  ("trace-out", "trace.csv", "x.csv")],
     ["sim.csv", "sim.json", "trace.csv"]),
    ("limits", [("kind", "y", "window"), ("d", "2", "1"), ("replicates", "5", "9"),
                ("seed", "3", "4"), ("window", "0.25,1.0,4.0", "0.5,1.0,2.0"),
                ("truncation-tol", "1e-05", "1e-04"), ("workers", "2", "1"),
                ("out", "y.txt", "x.txt")],
     ["y.txt"]),
    ("verify", [("suite", "exact", "limit"), ("seed", "5", "6"), ("workers", "1", "2"),
                ("tolerance", "c04=1e-30", "c04=1.0"), ("out", "rep", "x")],
     ["rep.csv", "rep.json"]),
]


def _run_in(out_dir, argv, monkeypatch, capsys):
    """Exit code, stdout and the files written under ``out_dir`` by one run."""
    monkeypatch.setenv("CHAINREC_OUT_DIR", str(out_dir))
    code = main(argv)
    printed = capsys.readouterr().out
    return code, printed, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_config_file_precedence(tmp_path, monkeypatch, capsys):
    paths = {"marks": tmp_path / "marks.csv", "other": tmp_path / "other.csv"}
    write_marks_csv(paths["marks"], FOUR_POINT_MARKS)
    write_marks_csv(paths["other"], [(0.5, 0.5), (0.1, 0.9)])
    for command, options, written in _CONFIG_CASES:
        flags, lines, losing = [], [], []
        for key, value, loser in options:
            value, loser = value.format(**paths), loser.format(**paths)
            flags += [f"--{key}", value]
            lines.append(f"{key}={value}\n")
            losing.append(f"{key}={loser}\n")
        cfg, losing_cfg = tmp_path / f"{command}.cfg", tmp_path / f"{command}-losing.cfg"
        cfg.write_text("".join(lines))
        losing_cfg.write_text("".join(losing))
        variants = {
            "flags": flags,
            "config": ["--config", str(cfg)],
            # the flags win whether they come before or after --config
            "flags-first": [*flags, "--config", str(losing_cfg)],
            "config-first": ["--config", str(losing_cfg), *flags],
        }
        runs = [_run_in(tmp_path / command / name, [command, *argv], monkeypatch, capsys)
                for name, argv in variants.items()]
        assert sorted(runs[0][2]) == written, command
        for name, run in zip(variants, runs):
            assert run == runs[0], (command, name)
    # the verify case forces c04 to fail through its tolerance line
    assert runs[0][0] == 1


def test_a_misspelt_config_key_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHAINREC_OUT_DIR", str(tmp_path / "out"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d=2\nn=3\nnn=7\nout=table.csv\n")
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nn=7" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config, written",
    [
        (["exact"], "d=2\nn=3\nout=from_config.csv\n", ["from_config.csv"]),
        (["verify"], "suite=exact\nout=from_config\n", ["from_config.csv", "from_config.json"]),
        (["simulate", "--out", "run"], "d=2\nn=10\nreplicates=3\nseed=1\ntrace-out=t.csv\n",
         ["run.csv", "run.json", "t.csv"]),
    ],
    ids=["exact-out", "verify-out", "simulate-trace-out"],
)
def test_config_output_paths_are_read(tmp_path, monkeypatch, capsys, command, config, written):
    monkeypatch.chdir(tmp_path)  # verify's default report would land here
    monkeypatch.setenv("CHAINREC_OUT_DIR", str(tmp_path / "out"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main([*command, "--config", str(cfg)]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.cfg"]
    assert "1/4" not in capsys.readouterr().out  # exact wrote no table to stdout


def test_a_config_tolerance_overrides_its_criterion(tmp_path, capsys):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(f"suite=exact\ntolerance=c04=1e-30\nout={tmp_path / 'strict'}\n")
    assert main(["verify", "--config", str(cfg)]) == 1
    doc = json.loads((tmp_path / "strict.json").read_text())
    assert doc["meta"]["config"]["tolerance_overrides"] == {"c04": 1e-30}
    assert [c["criterion"] for c in doc["criteria"] if not c["pass"]] == ["c04"]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "argv, option, message",
    [
        (["exact", "--n", "3"], ("d", "two"), "argument --d: invalid int value: 'two'"),
        (["simulate", "--d", "2", "--n", "5", "--replicates", "3", "--seed", "1"],
         ("method", "fast"), "argument --method: invalid choice: 'fast'"),
        (["verify", "--suite", "exact"], ("tolerance", "c04=abc"),
         "argument --tolerance: expected KEY=VAL with a number VAL, got 'c04=abc'"),
        (["verify", "--suite", "exact"], ("tolerance", "c04"),
         "argument --tolerance: expected KEY=VAL with a number VAL, got 'c04'"),
    ],
    ids=["d", "method", "tolerance", "tolerance-without-value"],
)
def test_a_bad_value_is_a_usage_error_from_a_flag_or_a_config_line(
    tmp_path, monkeypatch, capsys, source, argv, option, message
):
    out_dir = tmp_path / "out"
    monkeypatch.setenv("CHAINREC_OUT_DIR", str(out_dir))
    key, value = option
    if source == "flag":
        argv = [*argv, f"--{key}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv = [*argv, "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "report"])
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_a_missing_required_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--d", "2"])
    assert exc.value.code == 2
    assert "the following arguments are required: --n" in capsys.readouterr().err


def test_missing_config_file_is_an_error(tmp_path, capsys):
    assert main(["exact", "--config", str(tmp_path / "missing.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "missing.cfg" in err


def test_malformed_config_line_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d=2\nn 3\n")
    assert main(["exact", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 2" in err


def test_env_var_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("CHAINREC_OUT_DIR", str(tmp_path))
    assert main(["exact", "--d", "1", "--n", "2", "--out", "sub/table.csv"]) == 0
    assert (tmp_path / "sub" / "table.csv").exists()


def test_unknown_flag_fails_fast():
    proc = subprocess.run(
        [sys.executable, "-m", "chainrec", "exact", "--d", "1", "--n", "2", "--frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "unrecognized" in proc.stderr


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "chainrec", "exact", "--d", "2", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1/8" in proc.stdout


# ---------------------------------------------------------------------------
# verify


def test_verify_exact_suite(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["verify", "--suite", "exact", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 5 and "FAIL" not in printed
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["all_pass"] is True
    assert len(doc["criteria"]) == 5
    for entry in doc["criteria"]:
        assert set(entry) == {"criterion", "name", "oracle", "value", "target",
                              "tolerance", "pass"}
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[1] == "criterion,name,oracle,value,target,tolerance,pass"
    assert len(csv_lines) == 7


def test_verify_reruns_are_byte_identical_across_workers(tmp_path, capsys):
    for name, workers in (("v0", "1"), ("v1", "3")):
        assert main(["verify", "--suite", "limit", "--seed", "99",
                     "--workers", workers, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "v0.json").read_bytes() == (tmp_path / "v1.json").read_bytes()
    assert (tmp_path / "v0.csv").read_bytes() == (tmp_path / "v1.csv").read_bytes()


def test_verify_reports_a_failed_child_launch(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHAINREC_OUT_DIR", str(tmp_path))

    def failed_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, "", "python: No module named chainrec\n")

    monkeypatch.setattr(subprocess, "run", failed_run)
    assert main(["verify", "--suite", "repro"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "No module named chainrec" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_rejects_an_unknown_suite(tmp_path, monkeypatch, capsys, source):
    out_dir = tmp_path / "out"
    monkeypatch.setenv("CHAINREC_OUT_DIR", str(out_dir))
    if source == "flag":
        argv = ["verify", "--suite", "nope"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite=nope\n")
        argv = ["verify", "--config", str(cfg)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: unknown suite 'nope'")
    assert not out_dir.exists()


def test_verify_rejects_an_unknown_tolerance_key(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    monkeypatch.setenv("CHAINREC_OUT_DIR", str(out_dir))
    argv = ["verify", "--suite", "exact", "--tolerance", "c6=0.5", "--tolerance", "bogus=1"]
    assert main(argv) == 1
    keys = ["c01", "c02", "c03", "c04", "c05", "c06", "c07", "c08", "c09",
            "c10-mean", "c10-var", "c11", "c12"]
    assert capsys.readouterr().err == f"error: unknown tolerance key 'c6'; choose from {keys}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("suite, override, message", [
    ("limit", "c11=0", "tolerance c11 must be a level in (0, 1), got 0.0"),
    ("limit", "c11=1.5", "tolerance c11 must be a level in (0, 1), got 1.5"),
    ("limit", "c11=nan", "tolerance c11 must be a number, got nan"),
    ("oracle", "c06=1", "tolerance c06 must be a level in (0, 1), got 1.0"),
    ("exact", "c04=nan", "tolerance c04 must be a number, got nan"),
    # a bounded criterion's error or count is never negative
    ("exact", "c04=-1", "tolerance c04 must be at least 0, got -1.0"),
    # a config line "tolerance=KEY=VAL" in place of the flag
    ("asymptotic", "tolerance=c10-var=-0.5", "tolerance c10-var must be at least 0, got -0.5"),
])
def test_verify_rejects_a_bad_tolerance_before_running(tmp_path, monkeypatch, capsys,
                                                        suite, override, message):
    def no_runs(*args):
        raise AssertionError("ran a criterion before checking the overrides")

    from chainrec import verify

    monkeypatch.setattr(verify, "CRITERIA", dict.fromkeys(verify.CRITERIA, no_runs))
    out_dir = tmp_path / "out"
    monkeypatch.setenv("CHAINREC_OUT_DIR", str(out_dir))
    if override.startswith("tolerance="):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(override + "\n")
        assert main(["verify", "--suite", suite, "--config", str(cfg)]) == 1
    else:
        assert main(["verify", "--suite", suite, "--tolerance", override]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_verify_tolerance_override_can_force_failure(tmp_path, capsys):
    out = tmp_path / "strict"
    code = main(["verify", "--suite", "exact", "--out", str(out),
                 "--tolerance", "c04=1e-30"])
    assert code == 1
    doc = json.loads((tmp_path / "strict.json").read_text())
    failed = [c for c in doc["criteria"] if not c["pass"]]
    assert [c["criterion"] for c in failed] == ["c04"]


# ---------------------------------------------------------------------------
# the package needs neither scipy nor mpmath. The script blocks the modules
# named in argv[2] (comma-separated, may be empty), imports every submodule,
# runs the commands named in argv[3:] and then the chi-square test, and
# requires that no scipy module is loaded after each step.

_DEPENDENCY_GUARD_SCRIPT = """
import importlib
import pkgutil
import sys
from pathlib import Path

for name in filter(None, sys.argv[2].split(",")):
    sys.modules[name] = None  # importing it now raises ImportError

def scipy_loaded():
    return sorted(m for m, mod in sys.modules.items()
                  if mod is not None and (m == "scipy" or m.startswith("scipy.")))

import chainrec
for module in pkgutil.iter_modules(chainrec.__path__):
    importlib.import_module(f"chainrec.{module.name}")
assert not scipy_loaded(), ("import chainrec", scipy_loaded()[:3])

from chainrec.cli import main
work = Path(sys.argv[1])
marks = work / "marks.csv"
marks.write_text("x1,x2\\n0.9,0.9\\n0.5,0.5\\n0.7,0.2\\n0.3,0.1\\n")
commands = {
    "exact": ["exact", "--d", "3", "--n", "40"],
    "detect": ["detect", "--in", str(marks)],
    **{f"simulate-{method}": ["simulate", "--method", method, "--d", "2", "--n", "100",
                              "--replicates", "50", "--seed", "1"]
       for method in ("direct", "sojourn", "insertion")},
    "limits-y": ["limits", "--kind", "y", "--d", "2", "--replicates", "50", "--seed", "1"],
    "limits-window": ["limits", "--kind", "window", "--d", "2", "--window", "0.25,1.0,4.0",
                      "--seed", "1"],
    "verify-exact": ["verify", "--suite", "exact"],
    "verify-limit": ["verify", "--suite", "limit"],
}
for label in sys.argv[3:]:
    assert main([*commands[label], "--out", str(work / label)]) == 0, label
    assert not scipy_loaded(), (label, scipy_loaded()[:3])

from chainrec.stats import two_sample_test
assert not two_sample_test([0, 1, 1, 2] * 20, [1, 0, 2, 1] * 20).reject
assert not scipy_loaded(), ("the chi-square test", scipy_loaded()[:3])
print("ok")
"""

_EVERY_COMMAND = ("exact", "detect", "simulate-direct", "simulate-sojourn", "simulate-insertion",
                  "limits-y", "limits-window", "verify-exact", "verify-limit")


# numpy loads only with the commands that compute with arrays
_NO_NUMPY_SCRIPT = """
import contextlib
import io
import sys
from pathlib import Path

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import chainrec
assert chainrec.__version__ == "0.1.0"
import chainrec.cli
from chainrec.cli import main

for argv, expected in ((["--version"], "chainrec 0.1.0\\n"), (["--help"], None)):
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            main(argv)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
    else:
        raise AssertionError(f"{argv} did not exit")
    assert expected in (None, printed.getvalue()), printed.getvalue()
work = Path(sys.argv[1])
assert main(["exact", "--d", "3", "--n", "40", "--out", str(work / "exact.csv")]) == 0
print("ok")
"""


# Unchecked, the renewal kernel never ends at d = 0 (every height factor is
# 1) and the paced kernel never ends at b0 < 0 (time runs backwards) or at
# an infinite or NaN horizon or state, so these run in a child process
# under _run_fresh's timeout.
_ENDLESS_LOOP_SCRIPT = """
import contextlib
import io
from chainrec.cli import main

for argv, message in (
    (["--what", "renewal-count", "--d", "0", "--n", "10"], "need d >= 1 and n >= 1"),
    *((["--what", "poisson-count", "--d", "2", *values], "need d >= 1, t_horizon > 0 and b0 > 0")
      for values in (["--t", "1.0", "--b0", "-1"], ["--t", "inf"], ["--t", "nan"],
                     ["--t", "1.0", "--b0", "nan"], ["--t", "1.0", "--b0", "inf"])),
):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", *argv, "--replicates", "5", "--seed", "1"])
    assert (code, err.getvalue()) == (1, f"error: {message}\\n"), (argv, code, err.getvalue())
print("ok")
"""


def _run_fresh(script, tmp_path, *args):
    # a fresh interpreter: this one has imported scipy and numpy already
    import_root = str(Path(chainrec.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [import_root, inherited])))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_commands_without_tests_do_not_load_scipy(tmp_path):
    _run_fresh(_DEPENDENCY_GUARD_SCRIPT, tmp_path, "", *_EVERY_COMMAND)


def test_commands_and_the_limit_suite_run_without_scipy(tmp_path):
    _run_fresh(_DEPENDENCY_GUARD_SCRIPT, tmp_path, "scipy", *_EVERY_COMMAND)


def test_exact_commands_run_without_mpmath(tmp_path):
    _run_fresh(_DEPENDENCY_GUARD_SCRIPT, tmp_path, "mpmath", "exact", "verify-exact")


def test_version_help_and_exact_run_without_numpy(tmp_path):
    _run_fresh(_NO_NUMPY_SCRIPT, tmp_path)
    assert main(["exact", "--d", "3", "--n", "40", "--out", str(tmp_path / "numpy.csv")]) == 0
    assert (tmp_path / "exact.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()


def test_drivers_that_would_loop_forever_reject_their_inputs(tmp_path):
    _run_fresh(_ENDLESS_LOOP_SCRIPT, tmp_path)
