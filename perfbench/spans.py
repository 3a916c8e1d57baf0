"""Spans around the public functions of the ``scx`` modules, from outside.

``install(tracer)`` wraps every public function defined in an ``scx`` module
and rebinds the wrapper at every module-level binding of that function, so
calls through ``from .spectral import sc_stab`` in other modules are traced
too.  Private helpers (leading underscore) are never wrapped, so the
eigensolve shows up as the self time of ``spectral.lambda1_beta``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("geometry", "spectral", "bessel", "warped", "variational",
           "comparison", "clifford", "_oracle2d", "verify", "cli")


class Tracer:
    """Keeps spans in memory: [name, start, end, parent index or -1, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, False])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.spans[idx][4] = True
                raise
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return traced


def layer_name(module_name: str) -> str:
    return module_name.split(".")[-1].lstrip("_")


def install(tracer: Tracer) -> None:
    """Wrap public scx functions in place."""
    import scx  # noqa: F401  (loads every module listed in MODULES but cli)
    import scx.cli  # noqa: F401

    mods = {n: m for n, m in sys.modules.items()
            if (n == "scx" or n.startswith("scx.")) and m is not None}
    wrapped = {}
    for short in MODULES:
        mod = mods.get(f"scx.{short}")
        if mod is None:
            continue
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                wrapped[id(fn)] = tracer.wrap(f"{layer_name(short)}.{attr}", fn)
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped and inspect.isfunction(val):
                setattr(mod, attr, wrapped[id(val)])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0 and end is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, *_) in enumerate(spans):
        if end is None:
            out.append(0.0)
            continue
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per-name call counts and self time, plus cache reuse of the solver.

    A leaf ``lambda1_beta`` span (one with no ``lambda1_beta`` child) that
    returned asked for two solves, at m and 2m; every solve the cache could
    not serve calls ``discretize`` directly under it.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for idx, (name, *_) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[idx]
    solver = "spectral.lambda1_beta"
    leaves = ({i for i, sp in enumerate(spans) if sp[0] == solver and not sp[4]}
              - {sp[3] for sp in spans if sp[0] == solver})
    misses = sum(1 for sp in spans
                 if sp[0] == "spectral.discretize" and sp[3] in leaves)
    requested = 2 * len(leaves)
    return {
        "calls": calls,
        "self_s": self_s,
        "solves_requested": requested,
        "solves_computed": misses,
        "reuse_ratio": (requested - misses) / requested if requested else 0.0,
    }
