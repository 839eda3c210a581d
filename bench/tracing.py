"""In-memory spans recorded by the benchmark around calls into sigcount.

Spans are taken from outside the library: the benchmark's replay wraps each
call to a public sigcount function in ``Tracer.call``. Nothing is written
until the run ends, when ``layer_metrics`` folds the spans into per-layer
figures.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Records spans as ``[name, start, end, parent_index]`` in call order."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount


class NullTracer:
    """Same interface as Tracer, recording nothing: the untraced replay."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args):
        return fn(*args)

    def count(self, name: str, amount: int) -> None:
        pass


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    The replay is single-threaded, so the children of one span never overlap
    and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - cov for (_, start, end, _), cov in zip(spans, covered)]


def layer_metrics(tracer: Tracer, layers) -> dict[str, tuple[float, str]]:
    """``<layer>.calls``, ``.self_ms`` and ``.us_per_call_p50`` for each layer.

    A layer the workload never calls reports zero calls and zero time.
    """
    durations: dict[str, list[float]] = {layer: [] for layer in layers}
    self_total: dict[str, float] = dict.fromkeys(layers, 0.0)
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        if name in durations:
            durations[name].append(end - start)
            self_total[name] += own
    out = {}
    for layer in layers:
        spans = durations[layer]
        out[f"{layer}.calls"] = (len(spans), "count")
        out[f"{layer}.self_ms"] = (self_total[layer] * 1e3, "ms")
        out[f"{layer}.us_per_call_p50"] = (statistics.median(spans) * 1e6 if spans else 0.0, "us")
    return out
