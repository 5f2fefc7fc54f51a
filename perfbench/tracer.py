"""In-memory span tracer that instruments a program from outside it.

Each call of a wrapped function is a span. Spans nest through one stack,
so a span's self time is its duration minus the time its child spans
cover, and the self times of all spans add up to no more than the wall
time they ran in. A function that re-enters itself (as
``MatrixProductState.apply_2q`` does with the sites swapped) counts one
call for the outermost span only, and only that span adds to the
inclusive time.

Leaf spans around library calls (``numpy.linalg.qr``/``svd``) take their
name from the enclosing span, ``<parent>:<leaf>``, so LAPACK time and
counts stay attributed to the layer that asked for them.

Spans are aggregated as they close; nothing is written until the caller
reads ``stats``.
"""

from __future__ import annotations

import sys
import time

__all__ = ["Tracer", "Stat", "patch_everywhere"]


class Stat:
    """Aggregate of one span name: outermost calls, inclusive and self seconds."""

    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Tracer:
    HOOK = "trace.hooks"

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        # one frame per open span: [name, seconds covered by closed children]
        self._stack: list = []
        self._depth: dict[str, int] = {}

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        return frame

    def _exit(self, frame: list, start: float, end: float):
        name = frame[0]
        self._stack.pop()
        depth = self._depth[name] - 1
        self._depth[name] = depth
        dur = end - start
        st = self.stat(name)
        st.self_s += dur - frame[1]
        if depth == 0:
            st.calls += 1
            st.incl_s += dur
        if self._stack:
            self._stack[-1][1] += dur

    def _run_hook(self, hook, args, result, start, end):
        # hook time is its own span, so it is not charged to the caller
        t0 = self.clock()
        hook(args, result, start, end)
        dur = self.clock() - t0
        self.stat(self.HOOK).self_s += dur
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, name: str, fn, after=None):
        """Span `name` around fn; after(args, result, start, end) runs on success."""
        clock = self.clock

        def traced(*args, **kwargs):
            frame = self._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._exit(frame, start, end)
            if after is not None:
                self._run_hook(after, args, result, start, end)
            return result

        return traced

    def wrap_leaf(self, leaf: str, fn):
        """Span named `<enclosing span>:<leaf>` around a library call."""
        clock = self.clock

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else "top"
            frame = self._enter(f"{parent}:{leaf}")
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, start, clock())

        return traced

    def depth(self, name: str) -> int:
        """Open spans of `name` right now (0 when outside it)."""
        return self._depth.get(name, 0)


def patch_everywhere(prefix: str, old, new) -> int:
    """Rebind every module-level name bound to `old` in modules under `prefix`.

    ``from .sampler import sample`` copies the function into the importing
    module, so patching only its home module would miss those callers.
    Returns the number of bindings replaced.
    """
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
                replaced += 1
    return replaced
