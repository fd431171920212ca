"""In-memory span tracer that times a program from the outside.

:meth:`Tracer.patch` swaps a function or method for a timed wrapper and
remembers how to put the original back.  Each call becomes a :class:`Span`
(name, ``perf_counter`` start and end, the span it ran inside, thread, and
optional work counts).  Spans stay in memory until :meth:`Tracer.dump` writes
them out.  Leaving the tracer's ``with`` block restores every original, also
when the traced code raised.

Self time of a span is its duration minus the durations of its child spans
(children run inside the parent on the same thread, so they never overlap).
A name's inclusive time counts only its outermost spans, so a re-entrant call
(``f`` calling ``f``) is not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

#: ``counter(args, kwargs) -> {count name: amount}`` evaluated per call.
Counter = Callable[[tuple, dict], Mapping[str, float]]


@dataclass
class Span:
    """One timed call."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables; a context manager that restores them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        counter: Counter | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        counts = dict(counter(args, kwargs)) if counter is not None else {}
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end, threading.get_ident(), counts)
            )

    def wrap(
        self, fn: Callable[..., Any], name: str, counter: Counter | None = None
    ) -> Callable[..., Any]:
        """A timed stand-in for ``fn`` (same signature and metadata)."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, counter)

        return traced

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        """Set ``owner.attribute = value`` until :meth:`restore`."""
        original = vars(owner)[attribute]
        setattr(owner, attribute, value)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def patch(
        self, owner: Any, attribute: str, name: str, counter: Counter | None = None
    ) -> None:
        """Time calls to ``owner.attribute`` (a function of a class or module)."""
        original = vars(owner)[attribute]
        if not callable(original):
            raise TypeError(f"{owner!r}.{attribute} is not a plain function")
        self.replace(owner, attribute, self.wrap(original, name, counter))

    def rebind(self, original: Any, value: Any, package: str) -> int:
        """Replace every module-level binding of ``original`` under ``package``.

        A function imported by name (``from .loaders import load_dataset``)
        is bound in each importing module; all of them are replaced.  Modules
        imported after this call bind whatever the defining module then holds,
        so patch only once the program is imported.  Returns the number of
        bindings replaced.
        """
        replaced = 0
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for attribute, bound in list(vars(module).items()):
                if bound is original:
                    self.replace(module, attribute, value)
                    replaced += 1
        return replaced

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def _by_id(self) -> dict[int, Span]:
        return {span.id: span for span in self.spans}

    def inclusive(self, name: str) -> float:
        """Total duration of the outermost spans called ``name``."""
        by_id = self._by_id()
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = by_id.get(span.parent) if span.parent is not None else None
            while parent is not None and parent.name != name:
                parent = by_id.get(parent.parent) if parent.parent is not None else None
            if parent is None:
                total += span.duration
        return total

    def self_time(self, name: str) -> float:
        """Total duration of spans called ``name`` minus their children."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.duration
        return sum(
            span.duration - children.get(span.id, 0.0)
            for span in self.spans
            if span.name == name
        )

    def calls(self, name: str) -> int:
        """Number of spans called ``name`` (re-entrant calls included)."""
        return sum(1 for span in self.spans if span.name == name)

    def total(self, name: str, count: str) -> float:
        """Sum of one work count over the spans called ``name``."""
        return sum(span.counts.get(count, 0) for span in self.spans if span.name == name)

    def dump(self, path: Path) -> None:
        """Write every span as JSON (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = [
            {
                "id": span.id,
                "parent": span.parent,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "thread": span.thread,
                "counts": span.counts,
            }
            for span in sorted(self.spans, key=lambda span: span.start)
        ]
        path.write_text(json.dumps(payload))
