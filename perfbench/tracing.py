"""In-memory spans for the traced benchmark run.

Spans are recorded around calls into the package's public functions by
replacing the module attribute the caller looks the function up in; the
package itself carries no instrumentation. Each span keeps its parent,
so self time is its duration minus the time its child spans cover, and
the growth of peak RSS (``ru_maxrss``) while it was open.
"""

from __future__ import annotations

import functools
import resource
import time
from contextlib import contextmanager


def maxrss_kib() -> int:
    """Peak resident set size of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans and counters; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        """Record a span; yields a dict for attributes of the call."""
        attrs: dict = {}
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic() if start is None else start,
            "rss0_kib": maxrss_kib(),
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield attrs
        finally:
            record["end"] = time.monotonic()
            record["rss1_kib"] = maxrss_kib()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` by a version that records a span.

        ``describe(attrs, args, result)`` may add attributes of the call.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    describe(attrs, args, result)
            return result

        setattr(module, attr, traced)

    def count(self, module, attr: str, tally) -> None:
        """Replace ``module.attr`` by a version that only adds to counters.

        Used for per-node calls, where a span per call would cost more
        than the call. ``tally(counters, args)`` updates the counts.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tally(self.counters, args)
            return original(*args, **kwargs)

        setattr(module, attr, counted)


def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus the summed durations of its children.

    Spans come from one thread, so children of a span never overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
