"""Run a list of ``chainrec`` commands in one fresh interpreter, optionally traced.

Usage: ``python inprocess.py PLAN.json RESULT.json``

The plan is ``{"trace": bool, "commands": [[label, argv], ...]}``.  Each
command is one ``chainrec.cli.main(argv)`` call; the result file records
its exit code and wall time and, with tracing on, every span.

Tracing wraps each public function of every ``chainrec`` module (plus
``RecordDetector.process``) in a span and installs the wrapper wherever the
function is looked up: module globals that bound it by ``from ... import``
and module-level dicts such as ``verify.CRITERIA``.  Nothing in the package
changes on disk.  A span is ``[id, parent, name, run, start, end, attrs]``;
``run`` is the index of the command that caused it, and spans stay in
memory until all commands are done.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from io import StringIO

_ARG_OBSERVED = {
    "exact.chain_record_prob_table": ("d", "n_max"),
    "samplers.sample_chain_counts": ("method", "n", "replicates", "workers"),
    "samplers.sample_limit_variables": ("replicates", "workers"),
    "samplers.sample_window_counts": ("replicates",),
}


class _Generator:
    """Generator proxy that records the largest array one draw returns."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        blocks = self._tracer.blocks

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            nbytes = getattr(out, "nbytes", 0)
            if nbytes > 65536:
                blocks.append(nbytes)
            return out

        setattr(self, name, draw)
        return draw


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.blocks: list[int] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name, site):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        observed = _ARG_OBSERVED.get(name)
        signature = inspect.signature(fn) if observed else None
        tracer = self
        site_attrs = {"site": site} if name == "rng.make_stream" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            attrs = site_attrs
            if observed:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = {k: bound.arguments[k] for k in observed}
            elif name == "records.RecordDetector.process":
                attrs = {"front": len(args[0].pareto_front)}
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append([sid, parent, name, tracer.run, start, end, attrs])
            if name == "samplers.sample_limit_variables":
                depths = result[1]
                attrs["depth_sum"] = int(depths.sum())
                attrs["depth_n"] = int(depths.size)
            elif name == "rng.make_stream" and site == "samplers":
                return _Generator(result, tracer)
            return result

        return wrapper

    def install(self):
        from chainrec.records import RecordDetector

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "chainrec" or name.startswith("chainrec.")) and name != "chainrec.__main__"
        }
        originals = {}
        for modname, mod in modules.items():
            if modname == "chainrec":
                continue
            short = modname.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == modname and not attr.startswith("_"):
                    originals[obj] = f"{short}.{attr}"
        for modname, mod in modules.items():
            site = modname.split(".", 1)[1] if "." in modname else "chainrec"
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in originals:
                            obj[key] = self.wrap(value, originals[value], site)
                elif inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, self.wrap(obj, originals[obj], site))
        RecordDetector.process = self.wrap(
            RecordDetector.process, "records.RecordDetector.process", "records"
        )


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    import chainrec.cli

    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.install()
    commands = []
    for run, (label, argv) in enumerate(plan["commands"]):
        if tracer is not None:
            tracer.run = run
        sink = StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(sink):
                rc = chainrec.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this command, not the ones after it
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - start
        commands.append({"label": label, "rc": rc, "wall_s": wall})
    result = {"commands": commands}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["block_bytes_max"] = max(tracer.blocks, default=0)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
