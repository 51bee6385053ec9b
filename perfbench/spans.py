"""A minimal span recorder in the shape of OpenTelemetry traces.

A span has a name, a start and an end (``perf_counter_ns``), the id of the
span that caused it, the trace id shared by every span of one workload pass,
and counters (scopes, records, hosts, bytes, findings, failures).  Spans are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    trace_id: str
    name: str
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.trace_id, name, time.perf_counter_ns(),
                    counts=dict(counts))
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException:
            span.counts["failures"] = span.counts.get("failures", 0) + 1
            raise
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0, s.start_ns
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration_ns - covered
    return out


def to_records(spans: list[Span]) -> list[dict]:
    """Spans as plain dicts, each with its self time, for writing out."""
    own = self_times(spans)
    return [dict(asdict(s), self_ns=own[s.span_id]) for s in spans]
