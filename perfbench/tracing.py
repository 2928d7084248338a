"""Spans and work counters recorded around the library's public functions.

The tracer patches each wrapped function in every `ordrank` module namespace
that holds it (the defining module, the package re-exports and any module
that bound it with `from ... import`), so calls made inside the library are
recorded too.  `uninstall` restores every patched name.

Each call becomes a span (name, start, end, parent, op).  Self time is the
span's duration minus the durations of its direct child spans.  Totals are
kept for every span; the span list written to disk is capped so that a long
traced run cannot exhaust memory.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_id = 1
        self.op_id = 0
        self.dropped = 0
        # span columns, kept as compact arrays
        self.s_id = array("q")
        self.s_parent = array("q")
        self.s_op = array("q")
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args, kwargs, after=None):
        """Run fn(*args, **kwargs) inside a span; `after(result, exc, args)`
        updates counters once the call has returned or raised."""
        nid = self._name_id(name)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(name, nid, sid, parent, frame, start)
            if after is not None:
                after(None, exc, args)
            raise
        self._close(name, nid, sid, parent, frame, start)
        if after is not None:
            after(result, None, args)
        return result

    def _close(self, name, nid, sid, parent, frame, start):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.s_id) < SPAN_CAP:
            self.s_id.append(sid)
            self.s_parent.append(parent)
            self.s_op.append(self.op_id)
            self.s_name.append(nid)
            self.s_start.append(start)
            self.s_end.append(end)
        else:
            self.dropped += 1

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,op_id,name,start_s,end_s\n")
            for i in range(len(self.s_id)):
                fh.write(
                    f"{self.s_id[i]},{self.s_parent[i]},{self.s_op[i]},"
                    f"{self.names[self.s_name[i]]},{self.s_start[i]:.9f},"
                    f"{self.s_end[i]:.9f}\n"
                )
            if self.dropped:
                fh.write(f"# {self.dropped} further spans counted but not stored\n")

    # -- patching ----------------------------------------------------------------

    def wrap_function(self, name: str, module, attr: str, after=None) -> None:
        """Replace module.attr, and every other ordrank binding of the same
        object, by a wrapper that records spans under `name`."""
        original = getattr(module, attr)  # AttributeError on a rename
        if not callable(original):
            raise TypeError(f"{module.__name__}.{attr} is not callable")
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, after)

        wrapper.__wrapped__ = original
        wrapper.traced = True
        for mod in _library_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def wrap_classmethod(self, name: str, cls, attr: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if not isinstance(raw, classmethod):
            raise TypeError(f"{cls.__name__}.{attr} is not a classmethod")
        func = raw.__func__
        tracer = self

        def wrapper(klass, *args, **kwargs):
            return tracer.call(name, func, (klass,) + args, kwargs, after)

        wrapper.traced = True
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, classmethod(wrapper))

    def uninstall(self) -> None:
        """Restore every patched name, then check that no wrapper is left."""
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)
        left = list(_still_wrapped())
        if left:
            raise RuntimeError(f"still wrapped after uninstall: {left}")


def _library_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "ordrank" or name.startswith("ordrank.")]


def _still_wrapped():
    for mod in _library_modules():
        for key, value in vars(mod).items():
            if getattr(value, "traced", False):
                yield f"{mod.__name__}.{key}"
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    if getattr(getattr(raw, "__func__", None), "traced", False):
                        yield f"{mod.__name__}.{key}.{attr}"
