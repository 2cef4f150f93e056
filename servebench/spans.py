"""In-memory span tracing from outside the program.

:class:`Tracer` wraps public callables *where their caller looks them
up* — a class attribute (``BRSMN.route``), a module global that another
module imported (``repro.core.fabric.verify_result``), a bound method on
one observer instance, or a default argument (``PlanCache.get``'s
``compile_fn``) — so no file of the program changes.  Each call becomes
one span: name, start, end, parent span and frame id.  Spans stay in
memory until the run ends; :func:`self_times` then subtracts the time
covered by each span's children.
"""

from __future__ import annotations

import functools
from array import array
import types
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Layout of one span record.
NAME, START, END, PARENT, FRAME, VALUE = range(6)


def covered_ns(start: int, end: int, intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (each clipped to the window; overlaps are counted once)."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Per-span self time in ns: duration minus the part of it that its
    direct children cover (grandchildren lie inside children)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered_ns(span[START], span[END], children.get(i, ()))
        for i, span in enumerate(spans)
    ]


class Tracer:
    """Records spans around patched callables; :meth:`restore` undoes
    every patch.  Single-threaded: one span stack per tracer.

    Spans are stored column-wise in arrays, so recording allocates no
    objects the garbage collector has to trace while the program runs;
    :meth:`records` returns them as ``(name, start, end, parent, frame,
    value)`` tuples afterwards."""

    def __init__(self):
        self.frame = -1
        self._names: List[str] = []
        self._values: list = []
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._frame = array("q")
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def records(self) -> List[tuple]:
        """Every span so far, in start order."""
        return list(
            zip(self._names, self._start, self._end, self._parent, self._frame, self._values)
        )

    def wrap(
        self, name: str, fn: Callable, value: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped in a span; ``value(result)`` is stored with it."""
        names, values, stack = self._names, self._values, self._stack
        starts, ends, parents, frames = self._start, self._end, self._parent, self._frame

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            values.append(None)
            parents.append(stack[-1] if stack else -1)
            frames.append(self.frame)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if value is not None:
                values[idx] = value(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, value: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.  On a class or a
        module the attribute itself is swapped (a class keeps the plain
        function, so the wrapper still binds as a method); on any other
        object an instance attribute shadows the method for that object
        only."""
        if isinstance(owner, (type, types.ModuleType)):
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, value))
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), value))
            self._undo.append(lambda: delattr(owner, attr))

    def patch_default(self, function: Callable, original: Callable, name: str) -> None:
        """Trace ``original`` where ``function`` holds it as a default
        argument value."""
        defaults = function.__defaults__
        if original not in defaults:
            raise ValueError(f"{function.__qualname__} has no default {original!r}")
        traced = self.wrap(name, original)
        function.__defaults__ = tuple(traced if d is original else d for d in defaults)
        self._undo.append(lambda: setattr(function, "__defaults__", defaults))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

