"""Spans recorded around the benchmark's calls into pmdkit.

Every workload operation calls the library through a ``call(name, fn,
*args)`` function. Untraced runs pass ``plain_call``, which adds one
Python call and nothing else. Traced runs pass ``Tracer.call``, which
records a span named ``module.function`` whose parent is the span of the
operation that made it. Spans stay in memory until ``Tracer.dump``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


def plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """In-memory spans: one per operation, one per library call in it."""

    def __init__(self):
        self.ops: list[tuple[int, int, int]] = []               # (op id, start, end)
        self.calls: list[tuple[int, str, int, int]] = []        # (parent op id, name, start, end)
        self._op = -1

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return perf_counter_ns()

    def end_op(self, start_ns: int) -> None:
        self.ops.append((self._op, start_ns, perf_counter_ns()))

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append((self._op, name, start, perf_counter_ns()))

    def summary(self, layers) -> dict:
        """Per-layer self time and call counts per operation.

        The benchmark's spans do not nest below the operation, so a
        layer's self time is the summed duration of its spans, and the
        harness's own self time is the operation time they leave over.
        """
        n_ops = max(len(self.ops), 1)
        op_ns = sum(end - start for _, start, end in self.ops)
        layer_ns: dict[str, int] = defaultdict(int)
        layer_calls: dict[str, int] = defaultdict(int)
        for _, name, start, end in self.calls:
            layer = name.split(".", 1)[0]
            layer_ns[layer] += end - start
            layer_calls[layer] += 1
        out = {
            "ops": len(self.ops),
            "op_us": op_ns / n_ops / 1e3,
            "harness_self_us_per_op": (op_ns - sum(layer_ns.values())) / n_ops / 1e3,
            "layers": {},
        }
        for layer in layers:
            out["layers"][layer] = {
                "self_us_per_op": layer_ns[layer] / n_ops / 1e3,
                "self_pct": 100.0 * layer_ns[layer] / op_ns if op_ns else 0.0,
                "calls_per_op": layer_calls[layer] / n_ops,
            }
        return out

    def dump(self, path) -> None:
        # every span carries its operation's id; call spans name the
        # operation span as their parent
        spans = [
            {"op": op, "name": "op", "start_ns": s, "end_ns": e, "parent": None}
            for op, s, e in self.ops
        ]
        spans += [
            {"op": op, "name": name, "start_ns": s, "end_ns": e, "parent": "op"}
            for op, name, s, e in self.calls
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
