"""In-memory span recorder used by the traced runs.

A span is (name, start, end, parent).  Spans are recorded around calls into
the package's public functions from the benchmark's own code; functions the
package reaches through module globals (``numsim.step_rk4`` and the
monitors, called from ``numsim.run``) are wrapped by replacing the module
attribute for the duration of a traced operation.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans and counts for one traced operation at a time."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, op
        self.counts: dict[tuple[int, str], int] = defaultdict(int)  # (op, name)
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            n, start, _, par, op = self.spans[idx]
            self.spans[idx] = (n, start, time.perf_counter(), par, op)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[(self.op, name)] += k

    def wrapped(self, func, name: str):
        """``func`` with a span around every call (the span protocol inlined,
        since these wrap per-step calls)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append((name, clock(), 0.0, stack[-1] if stack else -1, self.op))
            stack.append(idx)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                _, start, _, parent, op = spans[idx]
                spans[idx] = (name, start, clock(), parent, op)
        wrapper.__wrapped__ = func
        return wrapper

    @contextlib.contextmanager
    def patch(self, module, attrs: dict[str, str]):
        """Wrap ``module.<attr>`` in spans named ``attrs[attr]`` while active."""
        saved = {a: getattr(module, a) for a in attrs}
        try:
            for a, name in attrs.items():
                setattr(module, a, self.wrapped(saved[a], name))
            yield
        finally:
            for a, f in saved.items():
                setattr(module, a, f)

    # ------------------------------------------------------------ analysis
    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """op -> span name -> {"total": s, "self": s, "calls": k}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(dict)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            rec = out[op].setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            rec["total"] += end - start
            rec["self"] += end - start - child_time[i]
            rec["calls"] += 1
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                                 for n, s, e, p, o in self.spans],
                       "counts": [{"op": o, "name": n, "count": k}
                                  for (o, n), k in self.counts.items()]}, fh)


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False
    op = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, k: int = 1) -> None:
        pass

    def patch(self, module, attrs):
        return self._null


NULL = NullTracer()
