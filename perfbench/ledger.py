"""Per-layer ledger: span wrappers installed around the program's
functions for one traced pass, then removed.

Every wrapped call is a span. Spans nest on one stack (the program is
single-threaded in the benchmark process), so a span's *self time* is
its duration minus the time its child spans cover. Summing self time
by layer gives the per-layer budget; the part of a pass no span covers
is reported as unattributed.

A wrapper is installed at every place the original object is bound:
the defining module or class, every ``repro.*`` module that imported
it by name, and the attributes of the instances handed to
:meth:`Ledger.install` (an engine's ``run_fn`` was bound at
construction). :meth:`Ledger.uninstall` puts every original back and
checks that it did.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``key`` names the span; ``layer`` is the budget line its self time
    goes to. ``must`` lists the workload families (``figs``, ``pooled``,
    ``insitu``) in which the wrapper has to record calls; an empty
    ``must`` marks a private name the program may drop without the
    traced run failing. ``parent`` asks for the calls made directly
    under that span key to be counted separately. ``truthy`` counts
    calls whose return value was true (a decision, records kept).
    """

    key: str
    layer: str
    module: str
    attr: str
    must: tuple[str, ...] = ()
    parent: str | None = None
    truthy: bool = False


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "truthy", "under_parent")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.truthy = 0
        self.under_parent = 0


class _TimedGenerator:
    """Generator proxy: each resume is a span of the wrapped function.

    Works with ``yield from`` and with the DES engine, which only ever
    calls ``send``/``throw``/``close``.
    """

    __slots__ = ("_gen", "_span")

    def __init__(self, gen, span) -> None:
        self._gen = gen
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._gen.send, None)

    def send(self, value):
        return self._span(self._gen.send, value)

    def throw(self, *exc):
        return self._span(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()


class Ledger:
    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.stats: dict[str, Stat] = {t.key: Stat() for t in targets}
        #: open spans: [child seconds, key]
        self._stack: list[list] = []
        #: (owner, attribute, original) for every patched binding
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        #: bindings patched by :meth:`install`
        self.bindings = 0

    # ------------------------------------------------------------ spans
    def _make_wrapper(self, target: Target, fn):
        stat = self.stats[target.key]
        stack = self._stack
        key = target.key
        parent = target.parent
        truthy = target.truthy

        def span(call, *args, **kwargs):
            frame = [0.0, key]
            stack.append(frame)
            t0 = _clock()
            try:
                return call(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                stat.total_s += dt
                stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                stat.calls += 1
                return _TimedGenerator(fn(*args, **kwargs), span)

        else:

            def wrapper(*args, **kwargs):
                stat.calls += 1
                if parent is not None and stack and stack[-1][1] == parent:
                    stat.under_parent += 1
                out = span(fn, *args, **kwargs)
                if truthy and out:
                    stat.truthy += 1
                return out

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # ------------------------------------------------------- patching
    def install(self, instances: tuple = ()) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        for target in self.targets:
            owner_name, _, attr = target.attr.rpartition(".")
            try:
                owner = importlib.import_module(target.module)
                if owner_name:
                    owner = getattr(owner, owner_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.key)
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(
                    self._make_wrapper(target, original.__func__)
                )
            else:
                wrapper = self._make_wrapper(target, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)
            for inst in instances:
                for name, value in list(vars(inst).items()):
                    if value is original:
                        self._patch(inst, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))
        self.bindings += 1

    def uninstall(self) -> None:
        """Restore every original binding; raises if one did not stick."""
        patched, self._patched = self._patched, []
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        for owner, name, original in patched:
            current = (
                owner.__dict__.get(name)
                if isinstance(owner, type)
                else getattr(owner, name)
            )
            if current is not original:
                raise RuntimeError(f"could not restore {owner!r}.{name}")

    # -------------------------------------------------------- results
    def silent(self, family: str) -> list[str]:
        """Required wrappers that recorded no call in this family."""
        return [
            t.key
            for t in self.targets
            if family in t.must
            and (t.key in self.missing or self.stats[t.key].calls == 0)
        ]

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of every target in ``layer`` or below it."""
        return sum(
            self.stats[t.key].self_s
            for t in self.targets
            if t.layer == layer or t.layer.startswith(layer + ".")
        )

    def covered_s(self) -> float:
        """Seconds inside any span (the sum of all self times)."""
        return sum(s.self_s for s in self.stats.values())

    def calls(self, *keys: str) -> int:
        return sum(self.stats[k].calls for k in keys)
