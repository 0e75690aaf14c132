"""Spans around the library's public functions, installed from outside it.

``Tracer.install`` replaces every public function and method of the given
modules with a wrapper, in every module namespace that binds it (names
brought in with ``from ... import`` live on in the importer).  A span wrapper
records calls, total time and self time (its duration minus the time of the
spans it encloses); a count-only wrapper records calls and nothing else, for
functions too small and hot to time without distorting the run.  Spans are
aggregated per name as they close, so memory stays flat however long the run.
"""

from __future__ import annotations

import functools
import inspect
import time

# Dunder methods that do work worth attributing; the rest (repr, eq, hash)
# are charged to their caller.
TRACED_DUNDERS = {"__init__", "__post_init__", "__matmul__", "__add__",
                  "__sub__", "__mul__", "__rmul__", "__neg__"}


class Record:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = 0


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.records: dict[str, Record] = {}
        self.counters: dict[str, int] = {}
        self._open: list[int] = []  # child time so far of each open span
        self._patches: list[tuple[object, str, object]] = []

    def record(self, name: str) -> Record:
        return self.records.setdefault(name, Record())

    def span(self, name: str, fn, observe=None):
        """Wrap fn in a timed span; observe(counters, args, result) runs
        after the span closes, so its cost is not charged to fn."""
        rec, clock, open_spans = self.record(name), self.clock, self._open
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                rec.calls += 1
                rec.total_ns += elapsed
                rec.self_ns += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        rec = self.record(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules, count_only=frozenset(), observers=None,
                skip=frozenset()) -> None:
        """Wrap the public functions and methods defined in ``modules``;
        names in ``skip`` stay unwrapped, so their time is their caller's."""
        observers = observers or {}

        def wrap(name, fn):
            if name in skip:
                return fn
            if name in count_only:
                return self.count(name, fn)
            return self.span(name, fn, observers.get(name))

        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if _defined_in(obj, mod) and not name.startswith("_"):
                    wrapped[obj] = wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, short, mod, wrap)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])

    def _wrap_class(self, cls, short, mod, wrap) -> None:
        done = {}
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            kind = type(member) if isinstance(
                member, (classmethod, staticmethod)) else None
            fn = member.__func__ if kind else member
            if not _defined_in(fn, mod):
                continue
            if fn not in done:  # aliases such as __rmul__ = __mul__
                done[fn] = wrap(f"{short}.{fn.__qualname__}", fn)
            self._patch(cls, attr, kind(done[fn]) if kind else done[fn])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _defined_in(fn, mod) -> bool:
    """A plain function written in mod's source file (not one that a
    dataclass generated, and not one imported from elsewhere)."""
    return (inspect.isfunction(fn)
            and fn.__code__.co_filename == getattr(mod, "__file__", None))
