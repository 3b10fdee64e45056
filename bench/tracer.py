"""Span tracer for the benchmark: wraps psrsim's public functions from outside.

The wrappers are installed by the benchmark (in-process) or by
``clitrace.py`` (inside a traced ``psr-sim`` child); psrsim itself is not
modified.  Each call of a wrapped function records a span
``[name, start, end, parent, op, extra]`` in memory: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the id of the benchmark
operation that caused it, ``extra`` a count taken from the call (ODE or
model evaluations, bytes written, spectrum points).  Spans are written out
only when the run ends.

A function that does not exist in the code under test (renamed or removed
by a later change) is skipped, so its metrics read 0 instead of failing.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _nfev(_args, _kwargs, out):
    return int(getattr(out, "nfev", 0))


def _n_eval(_args, _kwargs, out):
    return int(getattr(out, "n_eval", 0))


def _points(_args, _kwargs, out):
    return int(getattr(getattr(out, "omegas", ()), "size", 0))


def _bytes_written(args, kwargs, _out):
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


# span name -> [(module, attribute, extra-count function)]
TARGETS = {
    "cli.load_config": [("psrsim.cli", "load_config", None)],
    "cli.write": [("psrsim.cli", "write_csv", _bytes_written),
                  ("psrsim.cli", "write_json", _bytes_written)],
    # dispatch to the worker pool; spanned so that time spent waiting on
    # --jobs workers is not counted as the command's own time
    "cli.pool": [("psrsim.cli", "_map_ordered", None)],
    "fluct.propagate_noise": [("psrsim.fluct", "propagate_noise", _points)],
    "fluct.noise_inflow": [("psrsim.fluct", "noise_inflow", None)],
    "fluct.expm": [("psrsim.fluct", "expm", None)],
    "fluct.diffusion": [("psrsim.fluct", "diffusion", None)],
    "fluct.solve_ivp": [("psrsim.fluct", "solve_ivp", _nfev)],
    "bloch.steady_state": [("psrsim.bloch", "steady_state", None)],
    "bloch.propagate_mean_field": [("psrsim.bloch", "propagate_mean_field",
                                    None)],
    "ensemble.composite_kappa": [("psrsim.ensemble", "composite_kappa", None)],
    "ensemble.composite_spectrum": [("psrsim.ensemble", "composite_spectrum",
                                     None)],
    "ensemble.fit": [("psrsim.ensemble", "fit", _n_eval)],
    "matsko.variance": [("psrsim.matsko", "variance", None)],
}


class Tracer:
    """In-memory span recorder; spans are recorded only while ``enabled``."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op, 0]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        """Wrap every target in the psrsim modules already imported.

        Modules that are not imported yet are left alone, so tracing never
        changes what the workload imports.
        """
        for name, targets in TARGETS.items():
            for mod_name, attr, extra in targets:
                mod = sys.modules.get(mod_name)
                fn = getattr(mod, attr, None)
                if callable(fn):
                    setattr(mod, attr, self.wrap(name, fn, extra))
        group = getattr(sys.modules.get("psrsim.cli"), "cli", None)
        for cmd in getattr(group, "commands", {}).values():
            cmd.callback = self.wrap("cli.command", cmd.callback)


def summarize(spans, group_of) -> dict:
    """Group -> span name -> calls, inclusive and self seconds, extra count.

    ``group_of`` maps an operation id to its group (the benchmark uses the
    pass index).  Self time is a span's duration minus the durations of its
    direct children; spans nest because each process traces one thread.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op, _extra in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _parent, op, extra) in enumerate(spans):
        agg = out.setdefault(group_of(op), {}).setdefault(
            name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "extra": 0})
        agg["calls"] += 1
        agg["incl_s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["extra"] += extra
    return out
