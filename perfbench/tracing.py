"""Spans around the program's public functions, installed from outside.

A traced run replaces module attributes at the place where the program looks
each name up (``cli.train_lstm``, ``autoscaler.lstm_forward``, ...) with a
wrapper that records a span: its name, start, end and the span that was open
when it started. Spans live in flat arrays until the run ends, then go to one
``.npz`` file. A target that no longer exists is skipped and reported, so the
traced run survives refactors that delete or rename a function.
"""
from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Recorder:
    """Span and counter store. Recording happens only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[int, str], float] = {}
        self.current_phase = 0
        self.broken_hooks: set[str] = set()
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value: float = 1.0) -> None:
        key = (self.current_phase, name)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "phase": np.frombuffer(self.phase, dtype=np.int8),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def totals(self, phase: int) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds) within one phase."""
        a = self.arrays()
        if len(a["start"]) == 0:
            return {}
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        mine = a["phase"] == phase
        out = {}
        for nid, name in enumerate(self.names):
            sel = mine & (a["name_id"] == nid)
            if sel.any():
                out[name] = (int(sel.sum()), float(dur[sel].sum()),
                             float((dur[sel] - child[sel]).sum()))
        return out


def wrap(rec: Recorder, name: str, fn, hook=None):
    """``fn`` inside a span; ``hook(rec, args, kwargs, result)`` adds counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            try:
                hook(rec, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                rec.broken_hooks.add(name)  # the program's signature changed
        return result

    return traced


class Patches:
    """Installed attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self, package: str):
        self.package = package
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _owner(self, target: str):
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if attr not in vars(owner):
            return None, None
        return owner, attr

    def replace(self, target: str, make) -> bool:
        """Set ``module:Owner.attr`` to ``make(old)``; False if the name is gone."""
        owner, attr = self._owner(target)
        if owner is None:
            self.missing.append(target)
            return False
        old = vars(owner)[attr]
        setattr(owner, attr, make(old))
        self._undo.append((owner, attr, old))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def install(patches: Patches, rec: Recorder, target: str, hook=None) -> None:
    """Trace a function, method, classmethod or every method of a class.

    The span is named after the target, ``module:Owner.attr`` -> ``module.Owner.attr``.
    """
    name = target.replace(":", ".")

    def make(old):
        if isinstance(old, classmethod):
            return classmethod(wrap(rec, name, old.__func__, hook))
        if isinstance(old, type):
            methods = {m: wrap(rec, f"{name}.{m}", f, hook if m == "__init__" else None)
                       for m, f in vars(old).items()
                       if callable(f) and (m == "__init__" or not m.startswith("_"))}
            return type(old.__name__, (old,), methods)
        return wrap(rec, name, old, hook)

    patches.replace(target, make)
