"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public corrsynth functions at every module namespace that
holds them (``from .typicality import typical_set`` leaves a second reference
in ``codec_ptp``), so nothing under ``src/`` changes.  Each call records a span
with its name, start, end and parent.  The parent is the innermost open span
of the calling thread; a call made on a pool thread with nothing open yet
takes the innermost open span of the thread that started the op, which is the
harness call waiting on that pool.  Spans stay in a list until the op ends.

Self time is a span's duration minus the time its children cover.  Where
children overlap (trials on parallel threads), each instant is split evenly
among the innermost spans open at that instant, so the self times of one op
always add up to the op's wall time.

Stdlib only: this module must not import numpy, because the runner pins the
BLAS thread count through the environment before numpy loads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs = None


class Tracer:
    """Installs span wrappers on ``targets`` and groups spans by op.

    ``targets`` maps a span name such as ``"codec_ptp.tv_deficit"`` or
    ``"probability.ProductPmf.table"`` to an observer ``(args, kwargs,
    result) -> dict | None`` whose dict is kept on the span as its counts.
    Observers run after the span has closed, so their cost is charged to the
    caller, and they must not call traced functions.
    """

    def __init__(self, package: str, targets: dict):
        self.package = package
        self.targets = targets
        self.spans: list[Span] = []
        self._local = threading.local()
        self._op_stack = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, observer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._op_stack:
                parent = tracer._op_stack[-1]
            else:
                parent = None
            span = Span(name, parent)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observer is not None:
                span.attrs = observer(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to each target in the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for name, observer in self.targets.items():
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"{self.package}.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original, observer)
            if len(path) > 1:  # a method: patch the class that defines it
                self._patch(owner, path[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def op(self):
        """Open the root span of one op; yields the list its spans land in.

        The list holds the root span first and every span opened during the
        op after it.
        """
        first = len(self.spans)
        root = Span("op", None)
        self.spans.append(root)
        stack = self._stack()
        stack.append(root)
        self._op_stack = stack
        collected: list[Span] = []
        root.start = time.perf_counter()
        try:
            yield collected
        finally:
            root.end = time.perf_counter()
            stack.pop()
            self._op_stack = None
            collected.extend(self.spans[first:])
            del self.spans[first:]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-attributed self time of every span, keyed by ``id(span)``.

    Sweeps the span boundaries in time order; between two boundaries the
    elapsed time goes in equal parts to the open spans that have no open
    child.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    # at equal times close before opening, so a span that ends exactly when
    # its sibling starts never counts as its parent's child
    events.sort(key=lambda e: (e[0], e[1]))
    out = {id(s): 0.0 for s in spans}
    open_children: dict[int, int] = {}
    leaves: dict[int, Span] = {}
    last = None
    for t, is_start, span in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves)
            for key in leaves:
                out[key] += share
        last = t
        parent = span.parent
        parent_open = parent is not None and id(parent) in open_children
        if is_start:
            open_children[id(span)] = 0
            leaves[id(span)] = span
            if parent_open:
                open_children[id(parent)] += 1
                leaves.pop(id(parent), None)
        else:
            del open_children[id(span)]
            leaves.pop(id(span), None)
            if parent_open:
                open_children[id(parent)] -= 1
                if open_children[id(parent)] == 0:
                    leaves[id(parent)] = parent
    return out
