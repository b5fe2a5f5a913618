"""Out-of-program tracing: wrap the public functions of whole modules.

``Tracer.install`` replaces every public function of each named module, and
every public method of the classes those modules define, with a wrapper that
records one span per call: name, start, end, parent span and output bytes.
A function that another module imported by name (``from .data import
encode_sequence``) is replaced there too, so each caller's lookup finds the
wrapper. Nothing is hard-coded per function: functions that later versions
add or delete are picked up or dropped by the same rule.

Spans live in memory until ``write`` dumps them at the end of a run.
``install`` returns an undo callable that restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

# span record layout (a list, so the wrapper can fill the end in place)
NAME, PARENT, START, END, NBYTES = range(5)


def _nbytes(out) -> int:
    """Bytes of a call's array-like result; 0 for anything else."""
    if out is None:
        return 0
    n = getattr(out, "nbytes", None)
    if isinstance(n, int):
        return n
    for attr in ("data", "embeddings"):
        n = getattr(getattr(out, attr, None), "nbytes", None)
        if isinstance(n, int):
            return n
    if isinstance(out, tuple):
        return sum(_nbytes(o) for o in out)
    return 0


def _file_bytes(args, kwargs, out) -> int:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# functions whose useful "output" is a file they write, keyed by short name
FILE_WRITERS = {"trainer.save_checkpoint": _file_bytes}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into m3enc."""
        rec = self._enter(name)
        try:
            yield rec
        finally:
            self._exit(rec)

    def wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit
        nbytes = FILE_WRITERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(rec)
            rec[NBYTES] = nbytes(args, kwargs, out) if nbytes else _nbytes(out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str, modules: tuple[str, ...]):
        """Wrap ``package.<m>`` for every m in ``modules``; returns an undo."""
        undo: list[tuple[object, str, object]] = []
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for short in modules:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(short, obj, undo)
        # rebind every module-level reference to a wrapped function, in the
        # defining module and in every module that imported it by name
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def _wrap_methods(self, short: str, cls: type, undo: list) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw)
            else:
                continue  # properties, constants, nested classes
            undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end, nbytes) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "start": start, "end": end, "bytes": nbytes}) + "\n")


class SpanTable:
    """Derived views over a finished span list: self time, roots, ancestry."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.dur = [s[END] - s[START] for s in spans]
        child = [0.0] * n
        self.root = list(range(n))
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child[p] += self.dur[i]
                self.root[i] = self.root[p]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def module(self, i: int) -> str:
        return self.spans[i][NAME].split(".", 1)[0]

    def parent_module(self, i: int) -> str | None:
        p = self.spans[i][PARENT]
        return self.module(p) if p >= 0 else None

    def outermost(self, i: int, module: str) -> int:
        """The highest ancestor-or-self of span i that is in ``module``, as
        long as the chain from i up to it stays inside ``module``."""
        while True:
            p = self.spans[i][PARENT]
            if p < 0 or self.module(p) != module:
                return i
            i = p
