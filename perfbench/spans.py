"""In-memory span recorder for the benchmark's traced run.

Spans are recorded around calls the benchmark makes into each layer's
public functions.  Each span holds a name, start and end (``perf_counter``
seconds), the index of the span that was open when it started, and the
run id of the op it belongs to.  Nothing is written until :meth:`Tracer.
write_chrome` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans; ``overhead`` is the time spent recording them."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: [name, start, end, parent index or None, run id]
        self.spans: list[list] = []
        self.run_id = 0
        self.overhead = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        entered = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = start = time.perf_counter()
        self.overhead += start - entered
        try:
            yield
        finally:
            record[2] = end = time.perf_counter()
            self._stack.pop()
            self.overhead += time.perf_counter() - end

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap_method(self, obj, method: str, name: str) -> None:
        """Record a span around every call of ``obj.method``."""
        original = getattr(obj, method)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(obj, method, wrapper)

    # -- queries ------------------------------------------------------------

    def durations(self, run_id: int) -> dict[str, float]:
        """Seconds per span name within one op."""
        totals: dict[str, float] = {}
        for name, start, end, _, span_run in self.spans:
            if span_run == run_id:
                totals[name] = totals.get(name, 0.0) + end - start
        return totals

    def covered(self) -> float:
        """Seconds the ops' top-level spans cover (children nest inside)."""
        return sum(end - start for _, start, end, parent, run_id in self.spans
                   if parent is None and run_id > 0)

    # -- export -------------------------------------------------------------

    def write_chrome(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        events = []
        for index, (name, start, end, parent, run_id) in enumerate(self.spans):
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": index, "parent": parent, "run_id": run_id},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "otherData": metadata}) + "\n")
