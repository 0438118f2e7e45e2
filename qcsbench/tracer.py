"""Span tracer that wraps qcslab's layer boundaries from outside the package.

`Tracer.install()` replaces, in the namespaces of `qcslab.harness` and
`qcslab.cli`, the functions those modules import from each layer with
wrappers that record one span per call: (id, name, start, end, parent,
trial id, extra). Spans stay in memory until `write()`. A boundary whose
name is missing from the namespace (after a refactor moved or removed it)
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

# (span name, namespace module, attribute). Span names are layer.function.
BOUNDARIES = [
    ("harness.run_sweep", "qcslab.cli", "run_sweep"),
    ("harness.read_config", "qcslab.cli", "read_config"),
    ("harness.write_results", "qcslab.cli", "write_results"),
    ("harness.write_aggregates", "qcslab.cli", "write_aggregates"),
    ("svgplot.render_svg", "qcslab.cli", "render_svg"),
    ("harness.run_trial", "qcslab.harness", "run_trial"),
    ("harness.aggregate", "qcslab.harness", "aggregate"),
    ("seeding.derive_seed", "qcslab.harness", "derive_seed"),
    ("signal_model.gen_sparse_signal", "qcslab.harness", "gen_sparse_signal"),
    ("signal_model.gen_gaussian_matrix", "qcslab.harness", "gen_gaussian_matrix"),
    ("signal_model.make_tight_frame", "qcslab.harness", "make_tight_frame"),
    ("signal_model.sigma_n_for_isnr", "qcslab.harness", "sigma_n_for_isnr"),
    ("signal_model.measure", "qcslab.harness", "measure"),
    ("quantize.uniform_quantize", "qcslab.harness", "uniform_quantize"),
    ("quantize.sign_quantize", "qcslab.harness", "sign_quantize"),
    ("quantize.dynamic_range", "qcslab.harness", "dynamic_range"),
    ("reconstruct.oracle_ls", "qcslab.harness", "oracle_ls"),
    ("reconstruct.bpdn", "qcslab.harness", "bpdn"),
    ("reconstruct.biht", "qcslab.harness", "biht"),
    ("reconstruct.rsnr_db", "qcslab.harness", "rsnr_db"),
]

SOLVERS = ("reconstruct.bpdn", "reconstruct.biht")


def _extra(name, args, out):
    """Counts recorded at the boundary, from the call's arguments or result."""
    if name in SOLVERS:
        return {"iterations": int(out.iterations), "converged": bool(out.converged)}
    if name == "signal_model.gen_gaussian_matrix":
        m, n = args[0], args[1]
        return {"bytes": int(m) * int(n) * 8}
    if name == "harness.write_results":
        return {"bytes": os.path.getsize(args[1])}
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, trial, extra)
        self.absent = []
        self.sweep = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = self._stack()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, trial=None):
        """Start a span; returns the token that `close` needs."""
        stack = self._stack()
        if stack:
            parent, parent_trial = stack[-1][0], stack[-1][1]
        else:
            # A pool thread's first span is caused by the span open on the
            # thread that installed the tracer (the sweep driving the pool).
            owner = self._owner[-1:]
            parent = owner[0][0] if owner else None
            parent_trial = None
        sid = next(self._ids)
        entry = (sid, trial if trial is not None else parent_trial, name, time.perf_counter(), parent)
        stack.append(entry)
        return entry

    def close(self, entry, extra=None):
        end = time.perf_counter()
        self._stack().pop()
        sid, trial, name, start, parent = entry
        self.spans.append((sid, name, start, end, parent, trial, extra))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trial = None
            if name == "harness.run_trial":
                trial = "/".join(map(str, (tracer.sweep, *args[1:5])))
            entry = tracer.open(name, trial)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(entry)
                raise
            tracer.close(entry, _extra(name, args, out))
            return out

        return wrapper

    def install(self):
        for name, module, attr in BOUNDARIES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            setattr(mod, attr, self._wrap(name, fn))
            self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for sid, name, start, end, parent, trial, extra in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "trial": trial}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")

    def summary(self):
        """Per span name: calls, busy (inclusive) and self seconds, durations, extras."""
        children = defaultdict(list)
        for sid, name, start, end, parent, trial, extra in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, name, start, end, parent, trial, extra in self.spans:
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                      "durations": [], "extras": []})
            dur = end - start
            s["calls"] += 1
            s["busy_s"] += dur
            s["self_s"] += dur - _cover(children.get(sid, ()), start, end)
            s["durations"].append(dur)
            if extra:
                s["extras"].append(extra)
        return out


def _cover(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
