"""In-memory spans around the calls the benchmark makes into each layer.

A span is (id, name, start, end, parent id, instance id); parents come from
a call stack, so a span's self time is its duration minus that of its
direct children. Engine internals are traced by swapping the engine's
`decompose`, `decide`, `propagate` and its imported `cache_key_bytes` for
timing wrappers while a traced pass runs; nothing inside the package is
edited.
"""

from __future__ import annotations

import gzip
import itertools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.instance = -1
        self.conflicts = 0  # propagate calls that returned a conflict
        self.components = 0  # components returned by decompose
        self._stack = [-1]
        self._ids = itertools.count()

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span named `name`, which spans opened during
        the call take as their parent."""
        sid = next(self._ids)
        stack = self._stack
        parent = stack[-1]
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.instance))

    def leaf(self, name: str, fn, on_result=None):
        """fn wrapped to record a span per call. Kept lean because the engine
        calls it hundreds of thousands of times: it opens no parent scope,
        and a call that raises records no span."""
        append = self.spans.append
        stack = self._stack
        ids = self._ids

        def traced(*args):
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
            append((next(ids), name, t0, t1, stack[-1], self.instance))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def durations(self) -> dict[str, tuple[float, float, int]]:
        """name -> (total duration, total self time, span count)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, t0, t1, parent, _ in self.spans:
            child_time[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for sid, name, t0, t1, _, _ in self.spans:
            agg = out[name]
            agg[0] += t1 - t0
            agg[1] += t1 - t0 - child_time.get(sid, 0.0)
            agg[2] += 1
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path, header: dict):
        """Spans as gzipped JSON: `header` keys plus a `spans` row list."""
        doc = dict(header)
        doc["span_columns"] = ["id", "name", "start", "end", "parent", "instance"]
        doc["spans"] = self.spans
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f)


@contextmanager
def traced_engine(engine_module, tracer: Tracer):
    """Route the engine's inner calls through `tracer` until the block exits.

    A name the engine no longer has is left out, and its metrics read 0."""

    def on_decompose(comps):
        tracer.components += len(comps)

    def on_propagate(conflict):
        if conflict is not None:
            tracer.conflicts += 1

    targets = [
        (engine_module.Engine, "decompose", "engine.decompose", on_decompose),
        (engine_module.Engine, "decide", "engine.decide", None),
        (engine_module.Engine, "propagate", "engine.propagate", on_propagate),
        (engine_module, "cache_key_bytes", "engine.cache_key", None),
    ]
    saved = []
    for owner, attr, span, hook in targets:
        fn = vars(owner).get(attr)
        if fn is None:
            continue
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.leaf(span, fn, hook))
    try:
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
