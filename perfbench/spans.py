"""Spans around calls into the program's layers, for traced runs.

A :class:`Tracer` replaces a layer's public function or method with a
timing wrapper, installed on the names the callers look up: the class
attribute for a method, and every ``repro.*`` module binding of a
function (``from x import f`` copies the binding, so patching only the
defining module would miss callers).  :meth:`Tracer.uninstall` puts the
originals back.

Each span records its parent (the span open on the same thread when it
started).  A span's *self time* is its duration minus the durations of
its child spans; children on one thread never overlap, so their sum is
the part of the parent's interval they cover.  Spans are aggregated per
name as they close (count, total, self total, parent names, optionally
every duration), which keeps a multi-million-call trace small.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Called as ``hook(args, kwargs, result, duration_s)`` after a span ends.
ExitHook = Callable[[tuple, dict, Any, float], None]


@dataclass
class SpanStats:
    """Everything kept about the spans of one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    parents: Set[Optional[str]] = field(default_factory=set)
    durations: List[float] = field(default_factory=list)


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, parent: Optional[str], duration: float,
                self_s: float, keep: bool) -> None:
        with self._lock:
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            stats.count += 1
            stats.total_s += duration
            stats.self_s += self_s
            stats.parents.add(parent)
            if keep:
                stats.durations.append(duration)

    def wrap(self, fn: Callable, name: str, *, keep_durations: bool = False,
             on_exit: Optional[ExitHook] = None) -> Callable:
        """A wrapper around ``fn`` that records one span per call."""
        tracer = self
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):
            # Tasks interleave on one thread at every await, so a
            # coroutine span joins no stack: it is a root span whose
            # parent is whatever synchronous span was open at entry.
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1][0] if stack else None
                start = clock()
                result = await fn(*args, **kwargs)
                duration = clock() - start
                tracer._record(name, parent, duration, duration,
                               keep_durations)
                if on_exit is not None:
                    on_exit(args, kwargs, result, duration)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]        # [name, seconds covered by children]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer._record(name, parent, duration, duration - frame[1],
                               keep_durations)
            if on_exit is not None:
                on_exit(args, kwargs, result, duration)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **options) -> None:
        """Wrap ``cls.attr`` (looked up through the class by every caller)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **options))

    def patch_function(self, fn: Callable, name: str, **options) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that binds it."""
        wrapper = self.wrap(fn, name, **options)
        found = False
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"no loaded repro module binds {fn!r}")

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- queries --------------------------------------------------------

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def self_s(self, name: str) -> float:
        return self.get(name).self_s

    def count(self, name: str) -> int:
        return self.get(name).count
