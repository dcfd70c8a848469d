"""Spans recorded around the public functions of each `perigid` module.

`install` wraps every public module-level function of the layers and puts
the wrapper at every name that binds it, in every `perigid` module: callers
import names into their own namespace (`rigidity.generic_rank`,
`framework.rank`, `body_bar.is_rigid`, ...), so patching only the defining
module would miss their calls.  Spans stay in memory as tuples
(id, parent, name, start, end, op, extra) and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("linalg", "framework", "rigidity", "gain_graph", "body_bar", "motion", "document", "cli")
# linalg.mpz is the gmpy2 shim, called once per matrix entry: a span there
# would cost far more than the work it times.
UNTRACED = {"linalg.mpz"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None  # identifier shared by every span of one op
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn):
        extra_of = _rank_extra if name == "linalg.rank" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                extra = extra_of(args, result) if extra_of else None
                self.spans.append((sid, parent, name, t0, t1, self.op, extra))

        return traced

    def record(self, name: str, t0: float, t1: float) -> None:
        """A root span timed by the caller."""
        self.spans.append((self._next, None, name, t0, t1, self.op, None))
        self._next += 1

    def add(self, spans, op) -> None:
        """Merge spans recorded in another process, renumbering their ids."""
        base = self._next
        for sid, parent, name, t0, t1, _, extra in spans:
            self.spans.append((base + sid, None if parent is None else base + parent, name, t0, t1, op, extra))
            self._next = max(self._next, base + sid + 1)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rank_extra(args, result):
    """[cells, rank] of a `linalg.rank` call."""
    matrix = args[0]
    return [matrix.rows * matrix.cols, result]


def install(tracer: Tracer):
    """Wrap the layers' public functions at every binding site; returns a
    function that restores the originals."""
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if (name == "perigid" or name.startswith("perigid.")) and isinstance(mod, types.ModuleType)
    }
    wrappers = {}
    for layer in LAYERS:
        mod = modules[f"perigid.{layer}"]
        for attr, fn in vars(mod).items():
            if (
                isinstance(fn, types.FunctionType)
                and not attr.startswith("_")
                and fn.__module__ == mod.__name__
                and f"{layer}.{attr}" not in UNTRACED
            ):
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    patched = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                patched.append((mod, attr, value))

    def uninstall():
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return uninstall


def self_and_busy(spans) -> dict[str, list[float]]:
    """Per span name: [calls, busy seconds, self seconds].

    Busy time is the span's own duration; self time subtracts the direct
    child spans, which nest inside their parent.
    """
    child_time: dict[int, float] = {}
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out: dict[str, list[float]] = {}
    for sid, _, name, t0, t1, _, _ in spans:
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += t1 - t0
        acc[2] += (t1 - t0) - child_time.get(sid, 0.0)
    return out
