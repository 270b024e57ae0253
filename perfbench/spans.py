"""In-memory span recording around the repo's public functions.

A :class:`Tracer` replaces named attributes (module functions, class
methods, ``PASSES`` entries) with wrappers that record a span — name,
start, end, parent — for every call, plus optional per-call observations
(instruction counts, cache bytes, ...).  Nothing under ``src/`` is edited:
the wrappers are installed from the benchmark and removed afterwards.

Spans nest by call order (the benchmark's client side is single
threaded), so a span's *self time* is its duration minus the durations of
its direct children.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional

# A span is [name, start, end, parent index or -1]; lists keep appends cheap.
Span = List[Any]

Observer = Callable[["Tracer", int, tuple, dict, Any], None]


class Tracer:
    """Records spans and counters for wrapped calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = collections.defaultdict(float)
        #: Extra facts about one span, keyed by span index.
        self.attrs: Dict[int, Dict[str, Any]] = {}
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span stack corrupted: closed {index}, top was {popped}"
            )

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return float(end - start)

    # -- installing wrappers ------------------------------------------------

    def _wrapper(
        self, original: Callable, name: str, observe: Optional[Observer]
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(tracer, index, args, kwargs, result)
            return result

        return wrapper

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        observe: Optional[Observer] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        A missing attribute raises ``AttributeError`` at once: a renamed
        stage function must break the traced run, not silently zero a
        layer.
        """
        original = getattr(owner, attribute)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attribute} is not callable")
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self._wrapper(original, name, observe))

    def wrap_passes(
        self, passes: list, required: List[str], observe: Observer
    ) -> None:
        """Wrap the ``run`` of every entry of an optimizer pass registry
        (a list of frozen dataclasses with ``name`` and ``run``)."""
        present = [entry.name for entry in passes]
        missing = [name for name in required if name not in present]
        if missing:
            raise LookupError(f"optimizer passes missing from PASSES: {missing}")
        originals = list(passes)
        self._patches.append((passes, None, originals))
        for position, entry in enumerate(originals):
            passes[position] = dataclasses.replace(
                entry,
                run=self._wrapper(entry.run, f"opt.pass.{entry.name}", observe),
            )

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if attribute is None:
                owner[:] = original
            else:
                setattr(owner, attribute, original)

    # -- analysis -----------------------------------------------------------

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = collections.defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                kids[span[3]].append(index)
        return kids

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        own = [self.duration(index) for index in range(len(self.spans))]
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                own[span[3]] -= self.duration(index)
        return own

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of calls, total time and self time."""
        table: Dict[str, Dict[str, float]] = collections.defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, own in enumerate(self.self_times()):
            row = table[self.spans[index][0]]
            row["calls"] += 1
            row["total_s"] += self.duration(index)
            row["self_s"] += own
        return table

    def write(self, path: str) -> None:
        """Dump every span, with times relative to the first one."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump(
                [
                    {
                        "name": name,
                        "start": start - origin,
                        "end": end - origin,
                        "parent": parent,
                    }
                    for name, start, end, parent in self.spans
                ],
                handle,
            )
