"""Outside-in spans around the calls into each volsplat module.

A span wraps the module attribute a caller looks up (for example
`pipeline.voxelize`, which `run_pipeline` calls), so the package itself is
not edited. Spans are kept in memory with name, start, end and parent, and
written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


def patch(module, attr: str, make_wrapper):
    """Replace module.attr by make_wrapper(original); return an undo function."""
    original = getattr(module, attr)
    # updated=() keeps a wrapped class's namespace off the wrapper function
    setattr(module, attr, functools.update_wrapper(make_wrapper(original), original, updated=()))
    return lambda: setattr(module, attr, original)


class Capture:
    """Keeps what `keep(args, kwargs, result)` picks from the first call to
    each patched attribute (by default all three), so checks can read a
    stage's inputs and outputs. `keep` must copy anything the caller goes on
    to modify."""

    def __init__(self):
        self.calls: dict = {}
        self._undo: list = []

    def watch(self, module, attr: str, key: str, keep=lambda *call: call) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if key not in self.calls:
                    self.calls[key] = keep(args, kwargs, result)
                return result
            return wrapper
        self._undo.append(patch(module, attr, make))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


class Tracer:
    """Records one span per call of each patched attribute.

    `attrs(args, kwargs, result)` may add counts to a span; they are
    recorded where the work happens, at the same boundary as its time.
    """

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                stack = self._stack()
                span = {"id": next(self._ids), "name": name,
                        "parent": stack[-1]["id"] if stack else None,
                        "thread": threading.get_ident(), "start": time.perf_counter()}
                stack.append(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span["end"] = time.perf_counter()
                    stack.pop()
                    self.spans.append(span)
                if attrs is not None:
                    span.update(attrs(args, kwargs, result))
                return result
            return wrapper
        self._undo.append(patch(module, attr, make))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= duration(s)
    return own
