"""Span recording by wrapping functions at the names their callers look up.

A target is ``(owner, attribute, span name)``: the owner is a module or a
class, and the attribute is replaced by a wrapper for as long as the
tracer is active.  Python resolves module globals and class attributes at
call time, so a call reaches the wrapper whether it comes from another
module, from the defining module itself, or from a closure created
before the wrapper was installed (the vector-Jacobian closures of the
autodiff tape, for instance).

A span is ``[name, start, end, parent, tag]`` with ``perf_counter``
seconds and ``parent`` the index of the enclosing span in the same list
(-1 at the top).  Spans stay in memory until ``drain`` hands them over.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

Tag = Callable[[tuple, dict], Any]


class Tracer:
    """Installs span-recording wrappers on enter and restores them on exit."""

    def __init__(self, targets: Iterable[tuple[object, str, str]],
                 tags: dict[str, Tag] | None = None,
                 node_test: Callable[[object], bool | None] | None = None,
                 node_spans: Iterable[str] = ()):
        self.targets = list(targets)
        self.tags = dict(tags or {})
        self.node_test = node_test
        self.node_spans = frozenset(node_spans)
        self.spans: list[list] = []
        self.tensors = 0  # tensors returned by node-counting functions
        self.nodes = 0    # those of them that are attached to a graph
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_node: list[object] = [None]

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name in self.targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def drain(self) -> tuple[list[list], int, int]:
        """Hand over the spans, tensor and node counts recorded so far, and reset."""
        if self._stack:
            raise RuntimeError("tracer: drain called inside an open span")
        out = self.spans, self.tensors, self.nodes
        self.spans, self.tensors, self.nodes = [], 0, 0
        self._last_node[0] = None
        return out

    def _wrap(self, original: Callable, name: str) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        tag = self.tags.get(name)
        count_nodes = self.node_test if name in self.node_spans else None
        last_node = self._last_node
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            # A composite primitive returns the tensor its last inner
            # primitive already counted; count each output object once.
            if count_nodes is not None and out is not last_node[0]:
                attached = count_nodes(out)
                if attached is not None:
                    tracer.tensors += 1
                    tracer.nodes += attached
                    last_node[0] = out
            return out

        traced.__wrapped__ = original
        return traced


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
