"""Command-line interface: detect, exact, simulate, limits, verify.

Reproducibility rules: all randomness flows from the root ``--seed``;
every run derives its streams from a label of the form
``"<command>:<estimand>:k=v:..."`` hashed by :func:`chainrec.rng.stream_id`,
with replicate chunks as substreams.  Output files carry a header comment
(or a ``meta`` object for JSON) with the version, the full configuration
and the seed, which is sufficient to reproduce them byte for byte.

Each ``simulate`` estimand reads ``--d`` and its own options only
(``chain-count``: ``--method``, ``--n``; ``poisson-*``: ``--t``, ``--b0``;
``renewal-count``: ``--n``; ``limit-variable``: ``--truncation-tol``), and
each ``limits`` kind one option (``y``: ``--replicates``; ``window``:
``--window``).  An option a mode does not read is neither recorded nor part
of a stream label, so it cannot change the output.

Option precedence is CLI flag > config file > built-in default.  Each
line ``key=value`` of the flat config file is read exactly as the flag
``--key=value``, so an unknown key or a bad value is rejected as the flag
would be.  The ``CHAINREC_OUT_DIR`` environment variable supplies the
directory for relative or defaulted output paths.  Exit codes: 0 success;
1 a runtime error (such as an unreadable file, a malformed config line or
an unknown suite) or a failed criterion; 2 a usage error.

Only the standard library and :mod:`chainrec.exact` load with this module;
each command loads the numeric layers it runs (numpy, ``records``,
``samplers``, ``stats``, ``verify``, and ``_floatrepr`` for ``limits``)
when it starts, so ``--version``, ``--help`` and ``exact`` never load numpy.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from chainrec import __version__, exact

ENV_OUT_DIR = "CHAINREC_OUT_DIR"


# ---------------------------------------------------------------------------
# option plumbing


def _read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, without a leading byte order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _blank_or_comment(raw: str) -> bool:
    return raw.lstrip()[:1] in ("", "#")


def _config_args(path: str) -> list[str]:
    """The ``key=value`` lines of a config file as the flags ``--key=value``."""
    flags = []
    for lineno, raw in enumerate(_read_lines(path), 1):
        if _blank_or_comment(raw):
            continue
        key, eq, value = raw.partition("=")
        if not eq:
            raise ValueError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        flags.append(f"--{key.strip()}={value.strip()}")
    return flags


def _tolerance(item: str) -> tuple[str, float]:
    key, _, value = item.partition("=")
    try:
        return key.strip(), float(value)
    except ValueError:
        message = f"expected KEY=VAL with a number VAL, got {item!r}"
        raise argparse.ArgumentTypeError(message) from None


def _window(text: str) -> tuple[float, float, float]:
    try:
        s_lo, s_hi, t_hi = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected s_lo,s_hi,t_hi, got {text!r}") from None
    return s_lo, s_hi, t_hi


def _int_at_least(low: int):
    """Argument type: an integer of at least ``low`` (worker counts, seeds)."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")

    return parse


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
        with partial.open("w", encoding="utf-8") as fh:
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

    Blank and ``#`` comment lines may stand anywhere, and cells may be padded.
    The body is parsed in one pass as it stands, or else, filtered only then,
    without its blank and comment lines.  numpy casts a cell as ``float``
    does, so only a body with an error or no mark is scanned line by line.
    """
    import numpy as np

    lines = _read_lines(path)
    start = next((i for i, raw in enumerate(lines) if not _blank_or_comment(raw)), None)
    if start is None:
        raise ValueError(f"{path}: missing header row x1,...,xd")
    dim = lines[start].count(",") + 1
    if [p.strip() for p in lines[start].split(",")] != [f"x{i}" for i in range(1, dim + 1)]:
        raise ValueError(f"{path}: line {start + 1}: header must be x1,...,xd, got {lines[start]!r}")
    body = lines[start + 1 :]
    for retry in (False, True):
        rows = [row for row in body if not _blank_or_comment(row)] if retry else body
        if all(row.count(",") == dim - 1 for row in rows):
            try:
                flat = np.array(",".join(rows).split(","), dtype=float)
            except ValueError:  # a blank, comment or non-numeric line, or none
                continue
            if ((flat >= 0.0) & (flat <= 1.0)).all():
                return flat.reshape(-1, dim)
    raise _marks_error(path, body, start + 2, dim)


def _marks_error(path: str, body: list[str], first: int, dim: int) -> ValueError:
    """The first error in ``body``, whose lines are numbered from ``first``."""
    numbered = ((n, raw) for n, raw in enumerate(body, first) if not _blank_or_comment(raw))
    for lineno, raw in numbered:
        parts = raw.split(",")
        if len(parts) != dim:
            return ValueError(f"{path}: line {lineno}: expected {dim} coordinates, got {len(parts)}")
        try:
            bad = [v for v in map(float, parts) if not 0.0 <= v <= 1.0]
        except ValueError:
            return ValueError(f"{path}: line {lineno}: non-numeric coordinate")
        if bad:
            return ValueError(f"{path}: line {lineno}: coordinate {bad[0]!r} outside [0, 1]")
    return ValueError(f"{path}: no marks after the header")


def _cmd_detect(args) -> int:
    import numpy as np

    from chainrec.records import RecordDetector

    marks = _read_marks_csv(args.in_)
    d = marks.shape[1]
    if args.d is not None and d != args.d:
        raise ValueError(f"input has dimension {d}, expected --d {args.d}")
    flags = RecordDetector(d).extend(marks)
    # each row after its index is ",c,w,s,m1..md": one code point per cell
    cells = np.full((len(marks), 7 + d), ord(","), dtype=np.uint32)
    cells[:, [1, 3, 5, *range(7, 7 + d)]] = flags + ord("0")
    lines = [
        _meta_comment("detect", "-", {"in": args.in_, "d": d, "rows": len(marks)}),
        "index,chain,weak,strong,marginal_mask",
    ]
    tails = cells.view(f"U{7 + d}").ravel().tolist()
    lines.extend(f"{i}{tail}" for i, tail in enumerate(tails, 1))
    _emit("\n".join(lines) + "\n", _resolve_out(args.out))
    return 0


# ---------------------------------------------------------------------------
# exact


def _cmd_exact(args) -> int:
    d, n_max, n_cap = args.d, args.n, args.n_cap
    chain = exact.chain_record_prob_table(d, n_max, n_cap=n_cap)
    weak = exact.weak_record_prob_table(d, n_max, n_cap=n_cap)
    # each probability and expected count as a fraction and a decimal15 cell
    quantities = ("p_exact", "p_strong", "p_weak", "e_chain", "e_strong", "e_weak")
    header = ",".join(["n", *(f"{q}_{f}" for q in quantities for f in ("fraction", "decimal15"))])
    lines = [_meta_comment("exact", "-", {"d": d, "n": n_max, "n_cap": n_cap}), header]
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


# the options each estimand reads: only these are required, recorded and hashed
_ESTIMANDS = {
    "chain-count": ("method", "n"),
    **dict.fromkeys(("poisson-count", "poisson-integral", "poisson-state"), ("t", "b0")),
    "renewal-count": ("n",),
    "limit-variable": ("truncation_tol",),
}

# the stream label's fixed value for a field its estimand does not read
_UNREAD_LABEL_FIELDS = {"method": "sojourn", "n": None, "t": None, "b0": 1.0,
                        "truncation_tol": 1e-6}


def _simulate_chunks(params, args):
    from chainrec import samplers

    what, d = params["what"], params["d"]
    label = "simulate:{what}:{method}:d={d}:n={n}:t={t}:b0={b0}:tol={truncation_tol}".format_map(
        {**_UNREAD_LABEL_FIELDS, **params})
    run = dict(replicates=args.replicates, seed=args.seed, label=label, workers=args.workers)
    if what == "chain-count":
        return samplers.sample_chain_counts(params["method"], d, params["n"], **run)
    if what == "renewal-count":
        return samplers.sample_renewal_counts(d, params["n"], **run)
    if what == "limit-variable":
        chunks = samplers.sample_limit_variables(d, tolerance=params["truncation_tol"], **run)
        return (values for values, _ in chunks)
    column = ("poisson-count", "poisson-integral", "poisson-state").index(what)
    chunks = samplers.sample_poisson_paced_terminals(d, params["t"], b0=params["b0"], **run)
    return (chunk[column] for chunk in chunks)


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


def _cmd_simulate(args) -> int:
    from chainrec import stats

    what, seed = args.what, args.seed
    # the worker count never changes results, so it is not part of the
    # reproduction recipe recorded in the output
    params = {"what": what, "d": args.d, **{k: getattr(args, k) for k in _ESTIMANDS[what]}}
    for key, value in params.items():
        if value is None:
            raise ValueError(f"--{key} is required for --what {what}")
    trace_out = _resolve_out(args.trace_out)
    if trace_out is not None:
        if what != "chain-count":
            raise ValueError("--trace-out needs --what chain-count")
        if args.method not in ("direct", "sojourn"):
            raise ValueError("--trace-out needs --method direct or sojourn")

    value, std_error = stats.summarize(_simulate_chunks(params, args))

    doc = {"meta": _meta_dict("simulate", seed, params), "estimator": what, "value": value,
           "std_error": std_error, "replicates": args.replicates, "seed": seed, "params": params}
    json_text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    se_text = "NA" if std_error is None else repr(std_error)
    csv_text = "\n".join(
        [
            _meta_comment("simulate", seed, params),
            "estimator,value,std_error,replicates,seed",
            f"{what},{value!r},{se_text},{args.replicates},{seed}",
        ]
    ) + "\n"

    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(json_text)
    else:
        _emit(json_text, out.with_name(out.name + ".json"))
        _emit(csv_text, out.with_name(out.name + ".csv"))
    if trace_out is not None:
        _emit(_trace_lines(args.method, args.d, args.n, args.replicates, seed), trace_out)
    return 0


# ---------------------------------------------------------------------------
# limits


# each kind's required option and its default truncation tolerance
_LIMIT_KINDS = {"y": ("replicates", 1e-6), "window": ("window", 1e-9)}


def _cmd_limits(args) -> int:
    from chainrec import samplers
    from chainrec.rng import make_stream, stream_id

    kind, d, seed = args.kind, args.d, args.seed
    option, default_tol = _LIMIT_KINDS[kind]
    tol = default_tol if args.truncation_tol is None else args.truncation_tol
    value = getattr(args, option)
    if value is None:
        raise ValueError(f"--{option} is required for --kind {kind}")
    # a window is named by its floats, so each spelling of it draws one sample
    named = ",".join(map(repr, value)) if kind == "window" else value
    header = _meta_comment("limits", seed, {"kind": kind, "d": d, option: named,
                                            "truncation_tol": tol})
    if kind == "y":
        from chainrec._floatrepr import repr_lines

        # each chunk is written as it is drawn, by array operations that write
        # exactly the bytes of repr
        chunks = samplers.sample_limit_variables(d, value, tolerance=tol, seed=seed,
                                                 label=f"limits:y:d={d}:tol={tol}",
                                                 workers=args.workers)
        lines = (repr_lines(values) for values, _ in chunks)
    else:
        gen = make_stream(seed, stream_id(f"limits:window:d={d}:window={named}:tol={tol}"))
        xi, sigma = samplers.sample_window_points(gen, d, value, tol)
        lines = ["xi,sigma\n", *(f"{h!r},{t!r}\n" for h, t in zip(xi.tolist(), sigma.tolist()))]
    _emit(itertools.chain([header + "\n"], lines), _resolve_out(args.out))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    from chainrec import verify as verify_mod

    suite = args.suite
    # the seed default lives with the criteria, which load numpy
    seed = verify_mod.DEFAULT_SEED if args.seed is None else args.seed
    # the last value of a key wins, so a flag beats its config line
    overrides = dict(args.tolerance or ())
    started = time.monotonic()
    results = verify_mod.run_suite(suite, seed, overrides, args.workers, report=print)
    elapsed = time.monotonic() - started

    # the worker count never changes results, and an override that no
    # criterion of the suite read changes nothing, so neither is recorded
    read = {r.criterion for r in results}
    recorded = {key: value for key, value in overrides.items() if key in read}
    meta = _meta_dict("verify", seed, {"suite": suite, "tolerance_overrides": recorded})
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

    def workers(p):
        p.add_argument("--workers", type=_int_at_least(1), default=1,
                       help="worker threads, never changes results (default %(default)s)")

    p = sub.add_parser("detect", help="classify a CSV of marks by record type")
    common(p)
    p.add_argument("--in", dest="in_", required=True, help="input CSV with header x1,...,xd")
    p.add_argument("--d", type=int, help="expected dimension (validated against the header)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("exact", help="exact probability and expected-count tables")
    common(p)
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--n", type=int, required=True, help="largest index in the table")
    p.add_argument("--n-cap", type=int, default=exact.DEFAULT_N_CAP,
                   help="cap on exact computations (default %(default)s)")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("simulate", help="Monte Carlo estimates with standard errors")
    common(p)
    p.add_argument("--what", choices=_ESTIMANDS, default="chain-count",
                   help="estimand (default %(default)s)")
    p.add_argument("--method", choices=("direct", "sojourn", "insertion"), default="sojourn",
                   help="chain-count simulator (default %(default)s)")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--n", type=int, help="index horizon")
    p.add_argument("--t", type=float, help="time horizon for poisson-* estimands")
    p.add_argument("--b0", type=float, default=1.0,
                   help="initial state of the paced process (default %(default)s)")
    p.add_argument("--replicates", type=int, required=True, help="number of replicates")
    p.add_argument("--seed", type=_int_at_least(0), required=True, help="root seed")
    workers(p)
    p.add_argument("--truncation-tol", type=float, default=1e-6,
                   help="series tolerance for limit-variable (default %(default)s)")
    p.add_argument("--trace-out", help="also dump traces drawn from streams of their own, not "
                   "the summarized replicates (CSV replicate,k,T_k,H_k)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("limits", help="samples of the limit variable or limit process")
    common(p)
    p.add_argument("--kind", choices=("y", "window"), required=True,
                   help="y: one float per line; window: CSV xi,sigma")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--replicates", type=int, help="number of draws (kind y)")
    p.add_argument("--seed", type=_int_at_least(0), required=True, help="root seed")
    p.add_argument("--window", type=_window, help="s_lo,s_hi,t_hi rectangle (kind window)")
    defaults = ", ".join(f"{tol:g} for {kind}" for kind, (_, tol) in _LIMIT_KINDS.items())
    p.add_argument("--truncation-tol", type=float,
                   help=f"tail truncation tolerance (default {defaults})")
    workers(p)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("verify", help="run the acceptance suite and write a report")
    common(p)
    p.add_argument("--suite", default="all", help="suite name (default %(default)s)")
    p.add_argument("--seed", type=_int_at_least(0), help="root seed (default fixed)")
    workers(p)
    p.add_argument("--tolerance", action="append", type=_tolerance, metavar="KEY=VAL",
                   help="override a criterion tolerance, e.g. c10-mean=0.1")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the config file's lines go in right after the command, so a flag,
    # parsed later, wins over its line
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")  # the full parser reports a missing value
    config = pre.parse_known_args(argv[1:])[0].config
    try:
        if config:
            argv = [*argv[:1], *_config_args(config), *argv[1:]]
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
