"""Spans kept in memory around the benchmark's own calls into the library.

A span has a name, a start, an end, the span that caused it and the id of
the workload operation it belongs to.  Spans are written out once, when the
run ends.  ``NullTracer`` has the same interface and records nothing, so
the untraced run calls the library directly.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    op: int  # id of the root span: the workload operation
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)  # "error": exception class name

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        s = Span(sid, parent.id if parent else None,
                 parent.op if parent else sid, name, 0.0)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except Exception as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": self.counts}, fh)


class NullTracer:
    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        pass
