"""Opt-in spans around the library's public functions, from outside.

:class:`Tracer` replaces a public function by a timing wrapper under every
name a ``hyperclass`` module knows it by: ``verify`` imports ``op_compose``
by name, so patching only ``exactalg.op_compose`` would miss its calls.  A
name that the library no longer has is reported as absent and skipped.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
summarised when the run ends: calls, inclusive time of the outermost spans
of a group (nested calls are not counted twice) and self time (duration
minus the time covered by child spans).
"""

from __future__ import annotations

import json
import sys
import time

# span name -> (module that defines it, attribute)
TARGETS = {
    "op_compose": ("hyperclass.exactalg", "op_compose"),
    "op_conjugate": ("hyperclass.exactalg", "op_conjugate"),
    "op_substitute": ("hyperclass.exactalg", "op_substitute"),
    "pfq_series": ("hyperclass.numerics", "pfq_series"),
    "tanh_sinh": ("hyperclass.quadrature", "tanh_sinh"),
    "exp_sinh": ("hyperclass.quadrature", "exp_sinh"),
    "path_integral": ("hyperclass.quadrature", "path_integral"),
}
RULES = ("tanh_sinh", "exp_sinh", "path_integral")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1              # index of the workload operation running
        self.absent = []
        self.compose_keys = set()
        self.compose_repeats = 0
        self._undo = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for name, (modname, attr) in TARGETS.items():
            mod = sys.modules.get(modname)
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("hyperclass") \
                        and getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def new_pass(self) -> None:
        """Start a new pass: repeats are counted within one pass."""
        self.compose_keys.clear()

    def _wrap(self, name, orig):
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        is_compose = name == "op_compose"

        def traced(*args, **kwargs):
            if is_compose:
                key = tuple(repr(a) for a in args)
                if key in self.compose_keys:
                    self.compose_repeats += 1
                else:
                    self.compose_keys.add(key)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = perf()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)

        traced.__wrapped__ = orig
        return traced

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def group(self, names) -> tuple:
        """(calls, inclusive seconds of the outermost spans) of a group."""
        names = set(names)
        calls = 0
        total = 0.0
        for name, t0, t1, parent, _op in self.spans:
            if name not in names:
                continue
            calls += 1
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += t1 - t0
        return calls, total

    def summary(self) -> dict:
        selfs = self.self_times()
        out = {}
        for (name, t0, t1, _p, _op), s in zip(self.spans, selfs):
            d = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
            d["calls"] += 1
            d["total_s"] += t1 - t0
            d["self_s"] += s
        return out

    def write(self, path: str) -> None:
        """Spans (microseconds from the first span) and the summary."""
        selfs = self.self_times()
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round((t0 - base) * 1e6, 1), round((t1 - t0) * 1e6, 1),
                 round(s * 1e6, 1), p, op]
                for (n, t0, t1, p, op), s in zip(self.spans, selfs)]
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "summary": self.summary(),
                       "columns": ["name", "start_us", "dur_us", "self_us",
                                   "parent", "op"],
                       "spans": rows}, fh)
