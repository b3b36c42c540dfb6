"""In-memory spans around the benchmark's calls into the library.

A span records (id, name, start, end, parent); the run writes them out
with its results.  Spans nest by call order: the innermost open span is
the parent of the next one opened.  Self time is a span's duration minus
the part of its interval covered by its children.  A disabled tracer
records nothing and costs one branch per span, so untraced runs time the
library as users call it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per-span self time: duration minus the union of child intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(s["start"], s["end"], children.get(s["id"], ()))
        for s in spans
    }


def descendants(spans: list[dict], root: int) -> list[dict]:
    """The spans under ``root`` (root included)."""
    keep = {root}
    out = []
    for s in spans:  # parents are recorded before their children
        if s["id"] == root or s["parent"] in keep:
            keep.add(s["id"])
            out.append(s)
    return out


def layer_totals(spans: list[dict], root: Optional[int] = None) -> dict[str, float]:
    """Summed self time per span name, optionally under one root span."""
    chosen = spans if root is None else descendants(spans, root)
    st = self_times(spans)
    out: dict[str, float] = {}
    for s in chosen:
        out[s["name"]] = out.get(s["name"], 0.0) + st[s["id"]]
    return out


def durations(spans: list[dict], name: str, root: Optional[int] = None) -> list[float]:
    chosen = spans if root is None else descendants(spans, root)
    return [s["end"] - s["start"] for s in chosen if s["name"] == name]
