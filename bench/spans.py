"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent index). The recorder wraps a callable
so that every call opens a span under whichever span is open at the time,
and optionally adds counters computed from the call's arguments and result.
Self time is a span's duration minus the durations of its direct children,
so self times of a whole tree add up to the duration of its root.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent]
        self.counters = {}
        self._open = []
        self._patched = []

    def wrap(self, name, fn, count=None):
        """Return fn traced under `name`; `count(args, kwargs, result)` may
        return a dict of counters to add under that name."""
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._open.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    self.counters[full] = self.counters.get(full, 0) + value
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        """Replace owner.attr, a name the program looks up at call time."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def layers(self) -> dict:
        """Per name: calls, total_s, self_s and the per-call durations."""
        out = {}
        for (name, start, end, _), own in zip(self.spans, self._self_times()):
            layer = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += own
            layer["durations"].append(end - start)
        return out

    def trees(self) -> dict:
        """Per root span name: its total duration and the self times summed
        over every span beneath it (equal, when the spans nest properly)."""
        root = []
        out = {}
        for i, ((name, start, end, parent), own) in enumerate(zip(self.spans,
                                                                self._self_times())):
            root.append(i if parent is None else root[parent])
            tree = out.setdefault(self.spans[root[i]][0], {"total_s": 0.0, "self_sum_s": 0.0})
            if parent is None:
                tree["total_s"] += end - start
            tree["self_sum_s"] += own
        return out


def percentile_us(durations, q) -> float:
    return float(np.percentile(durations, q) * 1e6) if durations else 0.0


def svd_gflop(args, kwargs, result) -> dict:
    """Flops of LAPACK's SVD from the operand shape (computed, not counted).

    Real-arithmetic counts from Golub and Van Loan, Matrix Computations,
    4th ed., Fig. 8.6.1 (R-SVD), with m >= n: singular values only
    4mn^2 - 4n^3/3; thin factors 6mn^2 + 20n^3; full factors 4m^2n + 22n^3.
    A complex operand costs four real flops per multiply-add, so x4.
    """
    a = np.asarray(args[0])
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if not compute_uv:
        flops = 4 * m * n**2 - 4 * n**3 / 3
    elif full:
        flops = 4 * m**2 * n + 22 * n**3
    else:
        flops = 6 * m * n**2 + 20 * n**3
    if np.iscomplexobj(a):
        flops *= 4
    return {"gflop_computed": batch * flops / 1e9}
