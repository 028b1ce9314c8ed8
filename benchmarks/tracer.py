"""Out-of-program tracer: spans around the names the pipeline modules import.

`Tracer.install` replaces attributes such as `scoregap.experiment.load_csv`
with wrappers that open a span, call the original and close the span.
The modules look those names up at call time, so the unchanged pipeline
runs through the wrappers. Spans are kept in memory with their parent;
a layer's self time is its spans' durations minus their direct
children's. `remove` puts every original back.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    layer: str
    parent: Optional[int]
    start: float
    end: float = 0.0


class _ClassProxy:
    """Stands in for a class: construction and classmethod calls are traced."""

    def __init__(self, cls, wrap: Callable[[Callable], Callable]):
        self._cls, self._wrap = cls, wrap

    def __call__(self, *args, **kwargs):
        return self._wrap(self._cls)(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._cls, name)
        return self._wrap(attr) if callable(attr) else attr


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span of `layer`, nested under the open span."""
        index = len(self.spans)
        span = Span(layer, self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self, module, name: str, layer: str,
                count: Optional[Callable[[Dict[str, int], tuple, object], None]] = None) -> None:
        """Trace `module.name` as `layer`; `count(counts, args, result)` records counters."""
        original = getattr(module, name)

        def wrap(fn):
            def traced(*args, **kwargs):
                result = self.call(layer, fn, *args, **kwargs)
                if count is not None:
                    count(self.counts, args, result)
                return result
            return traced

        replacement = _ClassProxy(original, wrap) if isinstance(original, type) else wrap(original)
        setattr(module, name, replacement)
        self._installed.append((module, name, original))

    def remove(self) -> None:
        while self._installed:
            module, name, original = self._installed.pop()
            setattr(module, name, original)

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer, each span less the time its direct children cover."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.layer] += span.end - span.start
            if span.parent is not None:
                parent = self.spans[span.parent]
                out[parent.layer] -= span.end - span.start
        return dict(out)
