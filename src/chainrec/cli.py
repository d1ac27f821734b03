"""Command-line interface: detect, exact, simulate, limits, verify.

Reproducibility rules: all randomness flows from the root ``--seed``;
every run derives its streams from a label of the form
``"<command>:<estimand>:k=v:..."`` hashed by :func:`chainrec.rng.stream_id`,
with replicate chunks as substreams.  Output files carry a header comment
(or a ``meta`` object for JSON) with the version, the full configuration
and the seed, which is sufficient to reproduce them byte for byte.

Option precedence is CLI flag > config file > built-in default; the config
file is flat ``key=value`` text.  The ``CHAINREC_OUT_DIR`` environment
variable supplies the directory for relative or defaulted output paths.

Only the standard library and :mod:`chainrec.exact` load with this module;
each command loads the numeric layers it runs (numpy, ``records``,
``samplers``, ``stats``, ``verify``) when it starts, so ``--version``,
``--help`` and ``exact`` never load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from chainrec import __version__, exact

ENV_OUT_DIR = "CHAINREC_OUT_DIR"


# ---------------------------------------------------------------------------
# option plumbing


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    return config


def _opt(args, config, key, convert, default=None, required=False):
    attr = "in_" if key == "in" else key.replace("-", "_")
    value = getattr(args, attr, None)
    if value is None and key in config:
        value = convert(config[key])
    if value is None:
        value = default
    if required and value is None:
        raise ValueError(f"--{key} is required (flag or config file)")
    return value


def _parse_tolerances(items) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--tolerance expects KEY=VAL, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = float(value)
    return overrides


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get(ENV_OUT_DIR)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _emit(text, path: Path | None) -> None:
    """Write ``text``, one string or an iterable of strings, to ``path`` or stdout.

    A file is renamed into place from a temporary name once complete, so a
    failed run leaves ``path`` as it was.
    """
    parts = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(parts)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w") as fh:
            fh.writelines(parts)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _meta_comment(command: str, seed, config: dict) -> str:
    fields = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
    return f"# chainrec {__version__} | command={command} | seed={seed} | {fields}"


def _meta_dict(command: str, seed, config: dict) -> dict:
    return {
        "tool": "chainrec",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": {k: v for k, v in sorted(config.items())},
    }


# ---------------------------------------------------------------------------
# detect


def _read_marks_csv(path: str):
    """The marks of a CSV with header ``x1,...,xd``, as an ``(m, d)`` array.

    A body of mark rows alone is parsed in one pass.  Any other body is
    scanned line by line, which also names the line of an error.
    """
    import numpy as np

    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    dim = None
    marks: list[tuple[float, ...]] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if dim is None:
            expected = [f"x{i}" for i in range(1, len(parts) + 1)]
            if parts != expected:
                raise ValueError(
                    f"{path}: line {lineno}: header must be x1,...,xd, got {raw!r}"
                )
            dim = len(parts)
            body = lines[lineno:]
            if all(row.count(",") == dim - 1 for row in body):
                try:
                    flat = np.array(",".join(body).split(","), dtype=float)
                except ValueError:  # a blank, comment or non-numeric line
                    continue
                if ((flat >= 0.0) & (flat <= 1.0)).all():
                    return flat.reshape(-1, dim)
            continue
        if len(parts) != dim:
            raise ValueError(
                f"{path}: line {lineno}: expected {dim} coordinates, got {len(parts)}"
            )
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric coordinate") from None
        for v in values:
            if not math.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{path}: line {lineno}: coordinate {v!r} outside [0, 1]")
        marks.append(values)
    if dim is None:
        raise ValueError(f"{path}: missing header row x1,...,xd")
    if not marks:
        raise ValueError(f"{path}: no marks after the header")
    return np.array(marks, dtype=float)


def _cmd_detect(args, config) -> int:
    import numpy as np

    from chainrec.records import RecordDetector

    input_path = _opt(args, config, "in", str, required=True)
    want_dim = _opt(args, config, "d", int)
    marks = _read_marks_csv(input_path)
    d = marks.shape[1]
    if want_dim is not None and d != want_dim:
        raise ValueError(f"input has dimension {d}, expected --d {want_dim}")
    flags = RecordDetector(d).extend(marks)
    # each row after its index is ",c,w,s,m1..md": one code point per cell
    cells = np.full((len(marks), 7 + d), ord(","), dtype=np.uint32)
    cells[:, [1, 3, 5, *range(7, 7 + d)]] = flags + ord("0")
    lines = [
        _meta_comment("detect", "-", {"in": input_path, "d": d, "rows": len(marks)}),
        "index,chain,weak,strong,marginal_mask",
    ]
    tails = cells.view(f"U{7 + d}").ravel().tolist()
    lines.extend(f"{i}{tail}" for i, tail in enumerate(tails, 1))
    _emit("\n".join(lines) + "\n", _resolve_out(args.out))
    return 0


# ---------------------------------------------------------------------------
# exact


def _cmd_exact(args, config) -> int:
    d = _opt(args, config, "d", int, required=True)
    n_max = _opt(args, config, "n", int, required=True)
    n_cap = _opt(args, config, "n-cap", int, default=exact.DEFAULT_N_CAP)
    chain = exact.chain_record_prob_table(d, n_max, n_cap=n_cap)
    weak = exact.weak_record_prob_table(d, n_max, n_cap=n_cap)
    header = (
        "n,p_exact_fraction,p_exact_decimal15,"
        "p_strong_fraction,p_strong_decimal15,p_weak_fraction,p_weak_decimal15,"
        "e_chain_fraction,e_chain_decimal15,e_strong_fraction,e_strong_decimal15,"
        "e_weak_fraction,e_weak_decimal15"
    )
    lines = [
        _meta_comment("exact", "-", {"d": d, "n": n_max, "n_cap": n_cap}),
        header,
    ]
    # expected counts are running sums of the probabilities (linearity)
    expected = [Fraction(0)] * 3
    # Python's default 4300-digit limit on int-to-string conversion would
    # fail the table after the work (near n=1195 at d=3); --n-cap already
    # bounds that work.  Python 3.10.0-3.10.6 has no limit to lift.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for n in range(1, n_max + 1):
            probs = (chain[n - 1], exact.strong_record_prob(d, n), weak[n - 1])
            expected = [e + p for e, p in zip(expected, probs)]
            cells = [str(n)]
            for q in (*probs, *expected):
                cells += [str(q), exact.format_decimal15(q)]
            lines.append(",".join(cells))
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    _emit("\n".join(lines) + "\n", _resolve_out(args.out))
    return 0


# ---------------------------------------------------------------------------
# simulate


_SIM_WHAT = ("chain-count", "poisson-count", "poisson-integral", "poisson-state",
             "renewal-count", "limit-variable")


def _simulate_values(what, method, d, n, t, b0, trunc_tol, replicates, seed, workers):
    from chainrec import samplers

    label = f"simulate:{what}:{method}:d={d}:n={n}:t={t}:b0={b0}:tol={trunc_tol}"
    if what == "chain-count":
        return samplers.sample_chain_counts(
            method, d, n, replicates, seed=seed, label=label, workers=workers
        ).astype(float)
    if what.startswith("poisson-"):
        counts, integrals, states = samplers.sample_poisson_paced_terminals(
            d, t, replicates, b0=b0, seed=seed, label=label, workers=workers
        )
        return {"poisson-count": counts.astype(float),
                "poisson-integral": integrals,
                "poisson-state": states}[what]
    if what == "renewal-count":
        return samplers.sample_renewal_counts(
            d, n, replicates, seed=seed, label=label, workers=workers
        ).astype(float)
    if what == "limit-variable":
        values, _ = samplers.sample_limit_variables(
            d, replicates, tolerance=trunc_tol, seed=seed, label=label, workers=workers
        )
        return values
    raise ValueError(f"unknown estimand {what!r}")


def _trace_lines(method, d, n, replicates, seed):
    """The ``--trace-out`` CSV: a header, then one replicate's lines at a time."""
    from chainrec import samplers
    from chainrec.rng import make_stream, stream_id

    simulate = {"direct": samplers.simulate_direct, "sojourn": samplers.simulate_sojourn}[method]
    label = f"simulate:trace:{method}:d={d}:n={n}"
    config = {"trace": method, "d": d, "n": n, "replicates": replicates}
    yield _meta_comment("simulate", seed, config) + "\nreplicate,k,T_k,H_k\n"
    for i in range(replicates):
        trace = simulate(make_stream(seed, stream_id(label), i), d, n)
        yield "".join(
            f"{i},{k},{tk},{hk!r}\n"
            for k, (tk, hk) in enumerate(zip(trace.record_times, trace.heights), 1)
        )


def _cmd_simulate(args, config) -> int:
    from chainrec import stats

    what = _opt(args, config, "what", str, default="chain-count")
    if what not in _SIM_WHAT:
        raise ValueError(f"unknown --what {what!r}; choose from {_SIM_WHAT}")
    d = _opt(args, config, "d", int, required=True)
    method = _opt(args, config, "method", str, default="sojourn")
    replicates = _opt(args, config, "replicates", int, required=True)
    seed = _opt(args, config, "seed", int, required=True)
    workers = _opt(args, config, "workers", int, default=1)
    b0 = _opt(args, config, "b0", float, default=1.0)
    trunc_tol = _opt(args, config, "truncation-tol", float, default=1e-6)
    n = _opt(args, config, "n", int)
    t = _opt(args, config, "t", float)
    if what in ("chain-count", "renewal-count") and n is None:
        raise ValueError(f"--n is required for --what {what}")
    if what.startswith("poisson-") and t is None:
        raise ValueError(f"--t is required for --what {what}")
    trace_out = _resolve_out(getattr(args, "trace_out", None))
    if trace_out is not None:
        if what != "chain-count":
            raise ValueError("--trace-out needs --what chain-count")
        if method not in ("direct", "sojourn"):
            raise ValueError("--trace-out needs --method direct or sojourn")

    values = _simulate_values(what, method, d, n, t, b0, trunc_tol, replicates, seed, workers)
    # the worker count never changes results, so it is not part of the
    # reproduction recipe recorded in the output
    params = {"what": what, "d": d, "method": method if what == "chain-count" else None,
              "n": n, "t": t, "b0": b0 if what.startswith("poisson-") else None,
              "truncation_tol": trunc_tol if what == "limit-variable" else None}
    params = {k: v for k, v in params.items() if v is not None}
    summary = stats.summarize(values, what, seed, params)

    doc = {"meta": _meta_dict("simulate", seed, params), **summary.as_dict()}
    json_text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    se_text = "NA" if summary.std_error is None else repr(summary.std_error)
    csv_text = "\n".join(
        [
            _meta_comment("simulate", seed, params),
            "estimator,value,std_error,replicates,seed",
            f"{summary.estimator},{summary.value!r},{se_text},{summary.replicates},{seed}",
        ]
    ) + "\n"

    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(json_text)
    else:
        _emit(json_text, out.with_name(out.name + ".json"))
        _emit(csv_text, out.with_name(out.name + ".csv"))
    if trace_out is not None:
        _emit(_trace_lines(method, d, n, replicates, seed), trace_out)
    return 0


# ---------------------------------------------------------------------------
# limits


_LINES_PER_WRITE = 1 << 16


def _value_lines(header: str, values):
    """``header`` and one ``repr`` per value, a line each, in blocks of lines.

    The text equals one join of all the lines; only one block of strings
    is alive at a time.
    """
    yield header + "\n"
    for lo in range(0, len(values), _LINES_PER_WRITE):
        yield "\n".join(map(repr, values[lo : lo + _LINES_PER_WRITE].tolist())) + "\n"


def _cmd_limits(args, config) -> int:
    from chainrec import samplers
    from chainrec.rng import make_stream, stream_id

    kind = _opt(args, config, "kind", str, required=True)
    d = _opt(args, config, "d", int, required=True)
    seed = _opt(args, config, "seed", int, required=True)
    workers = _opt(args, config, "workers", int, default=1)
    if kind == "y":
        replicates = _opt(args, config, "replicates", int, required=True)
        tol = _opt(args, config, "truncation-tol", float, default=1e-6)
        values, _ = samplers.sample_limit_variables(
            d, replicates, tolerance=tol, seed=seed,
            label=f"limits:y:d={d}:tol={tol}", workers=workers,
        )
        header = _meta_comment("limits", seed, {"kind": "y", "d": d, "replicates": replicates,
                                                "truncation_tol": tol})
        _emit(_value_lines(header, values), _resolve_out(args.out))
    elif kind == "window":
        window_arg = _opt(args, config, "window", str, required=True)
        try:
            s_lo, s_hi, t_hi = (float(x) for x in window_arg.split(","))
        except ValueError:
            raise ValueError(f"--window expects s_lo,s_hi,t_hi, got {window_arg!r}") from None
        tol = _opt(args, config, "truncation-tol", float, default=1e-9)
        gen = make_stream(seed, stream_id(f"limits:window:d={d}:window={window_arg}:tol={tol}"))
        window = samplers.sample_limit_process(gen, d, (s_lo, s_hi, t_hi), tol)
        lines = [
            _meta_comment("limits", seed, {"kind": "window", "d": d, "window": window_arg,
                                           "truncation_tol": tol}),
            "xi,sigma",
        ]
        lines.extend(f"{xi!r},{sigma!r}" for xi, sigma in window.points)
        _emit("\n".join(lines) + "\n", _resolve_out(args.out))
    else:
        raise ValueError(f"unknown --kind {kind!r}; choose y or window")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, config) -> int:
    from chainrec import verify as verify_mod

    suite = _opt(args, config, "suite", str, default="all")
    seed = _opt(args, config, "seed", int, default=verify_mod.DEFAULT_SEED)
    workers = _opt(args, config, "workers", int, default=1)
    overrides = _parse_tolerances(args.tolerance)
    started = time.monotonic()
    results = verify_mod.run_suite(suite, seed, overrides, workers, report=print)
    elapsed = time.monotonic() - started

    # the worker count never changes results, so it is not part of the
    # recorded configuration
    meta = _meta_dict("verify", seed, {"suite": suite, "tolerance_overrides": overrides})
    doc = {
        "meta": meta,
        "criteria": [r.as_dict() for r in results],
        "all_pass": all(r.passed for r in results),
    }
    out = _resolve_out(args.out) or _resolve_out(f"verify_{suite}")
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out.with_name(out.name + ".json"))
    csv_lines = [
        _meta_comment("verify", seed, {"suite": suite}),
        "criterion,name,oracle,value,target,tolerance,pass",
    ]
    for r in results:
        name = r.name.replace(",", ";")
        oracle = r.oracle.replace(",", ";")
        csv_lines.append(
            f"{r.criterion},{name},{oracle},{r.value!r},{r.target!r},{r.tolerance!r},{int(r.passed)}"
        )
    _emit("\n".join(csv_lines) + "\n", out.with_name(out.name + ".csv"))
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed", file=sys.stderr)
    print(f"suite {suite!r} finished in {elapsed:.1f}s", file=sys.stderr)
    return 0 if doc["all_pass"] else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainrec",
        description="Records of d-dimensional point streams: detection, exact laws, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"chainrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file (flags take precedence)")
        p.add_argument("--out", help=f"output path (relative paths resolve under ${ENV_OUT_DIR})")

    p = sub.add_parser("detect", help="classify a CSV of marks by record type")
    common(p)
    p.add_argument("--in", dest="in_", help="input CSV with header x1,...,xd")
    p.add_argument("--d", type=int, help="expected dimension (validated against the header)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("exact", help="exact probability and expected-count tables")
    common(p)
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--n", type=int, help="largest index in the table")
    p.add_argument("--n-cap", type=int, help="cap on exact computations (default 500)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("simulate", help="Monte Carlo estimates with standard errors")
    common(p)
    p.add_argument("--what", choices=_SIM_WHAT, help="estimand (default chain-count)")
    p.add_argument("--method", choices=("direct", "sojourn", "insertion"),
                   help="chain-count simulator (default sojourn)")
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--n", type=int, help="index horizon")
    p.add_argument("--t", type=float, help="time horizon for poisson-* estimands")
    p.add_argument("--b0", type=float, help="initial state of the paced process")
    p.add_argument("--replicates", type=int, help="number of replicates")
    p.add_argument("--seed", type=int, help="root seed")
    p.add_argument("--workers", type=int, help="worker threads (never changes results)")
    p.add_argument("--truncation-tol", type=float, help="series tolerance for limit-variable")
    p.add_argument("--trace-out", help="also dump per-replicate traces (CSV replicate,k,T_k,H_k)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("limits", help="samples of the limit variable or limit process")
    common(p)
    p.add_argument("--kind", choices=("y", "window"), help="y: one float per line; window: CSV xi,sigma")
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--replicates", type=int, help="number of draws (kind y)")
    p.add_argument("--seed", type=int, help="root seed")
    p.add_argument("--window", help="s_lo,s_hi,t_hi rectangle (kind window)")
    p.add_argument("--truncation-tol", type=float, help="tail truncation tolerance")
    p.add_argument("--workers", type=int, help="worker threads (never changes results)")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("verify", help="run the acceptance suite and write a report")
    common(p)
    p.add_argument("--suite", help="suite name (default all)")
    p.add_argument("--seed", type=int, help="root seed (default fixed)")
    p.add_argument("--workers", type=int, help="worker threads (never changes results)")
    p.add_argument("--tolerance", action="append", metavar="KEY=VAL",
                   help="override a criterion tolerance, e.g. c10-mean=0.1")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
