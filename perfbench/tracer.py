"""Spans around satree's public functions, recorded from outside the program.

`Tracer.install` rebinds every public function of every satree module, in
each satree namespace that binds it (its own module, the modules that
import it and the package), and every public method of the public classes,
to a wrapper that records one span: name, start, end and parent span.  The
O(1) arithmetic helpers `depth`, `parent` and `is_complete_size` of
`satree.tree` stay unwrapped, so their time is self time of their caller.
Spans are kept in memory in typed arrays and written out by `save`.

A layer is one satree module.  Self time of a span is its duration minus
the durations of its child spans; a layer's self time is the sum over its
spans, which is the time inside its public functions minus the time in
nested calls into other layers.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("tree", "workset", "policies", "workloads", "bench", "cli", "markov", "oracle")
UNWRAPPED = {"satree.tree": {"depth", "parent", "is_complete_size"}}


def _public_functions(module):
    skip = UNWRAPPED.get(module.__name__, set())
    for name, obj in vars(module).items():
        if (
            isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
            and name not in skip
        ):
            yield name, obj


def _public_methods(module):
    for cname, cls in vars(module).items():
        if not isinstance(cls, type) or cls.__module__ != module.__name__ or cname.startswith("_"):
            continue
        for mname, obj in vars(cls).items():
            if mname.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType):
                yield cls, mname, obj, None
            elif isinstance(obj, (classmethod, staticmethod)):
                yield cls, mname, obj.__func__, type(obj)


class Tracer:
    """Span recorder; `tag` is stamped on every span (the benchmark sets it per policy)."""

    def __init__(self):
        self.names: list[str] = []
        self.tag = 0
        self.hooks = {}
        self._ids = itertools.count()
        self._stack = [-1]
        self._sid = array("q")
        self._name = array("H")
        self._parent = array("q")
        self._tag = array("b")
        self._t0 = array("d")
        self._t1 = array("d")
        self._restore = []

    def wrap(self, name, fn):
        """A function that records a span named `name` around each call of fn."""
        nid = len(self.names)
        self.names.append(name)
        stack, ids, clock, hooks = self._stack, self._ids, time.perf_counter, self.hooks
        a_sid, a_name, a_par = self._sid.append, self._name.append, self._parent.append
        a_tag, a_t0, a_t1 = self._tag.append, self._t0.append, self._t1.append
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                a_sid(sid)
                a_name(nid)
                a_par(parent)
                a_tag(tracer.tag)
                a_t0(t0)
                a_t1(t1)
            hook = hooks.get(name)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap satree's public surface in every loaded satree namespace."""
        modules = {name: m for name, m in sys.modules.items() if name == "satree" or name.startswith("satree.")}
        wrappers = {}
        for mname, module in modules.items():
            layer = mname.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for fname, fn in _public_functions(module):
                wrappers[fn] = self.wrap(f"{layer}.{fname}", fn)
            for cls, attr, fn, kind in _public_methods(module):
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                self._restore.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, kind(wrapped) if kind else wrapped)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict:
        return {
            "sid": np.frombuffer(self._sid, dtype=np.int64),
            "name": np.frombuffer(self._name, dtype=np.uint16),
            "parent": np.frombuffer(self._parent, dtype=np.int64),
            "tag": np.frombuffer(self._tag, dtype=np.int8),
            "start": np.frombuffer(self._t0, dtype=np.float64),
            "end": np.frombuffer(self._t1, dtype=np.float64),
        }

    def save(self, path):
        """Write the spans as .npz; the names go in a JSON string array."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def load(path) -> tuple[list[str], dict]:
    with np.load(path) as f:
        names = json.loads(str(f["names"]))
        return names, {k: f[k] for k in f.files if k != "names"}


def self_times(names, spans) -> dict:
    """{(span name, tag): [self seconds, calls]} from span arrays."""
    sid, par = spans["sid"], spans["parent"]
    dur = spans["end"] - spans["start"]
    pos = np.empty(len(sid), dtype=np.int64)
    pos[sid] = np.arange(len(sid))  # sids are 0..N-1, spans are stored as they end
    child = np.zeros(len(sid))
    nested = par >= 0
    np.add.at(child, pos[par[nested]], dur[nested])
    own = dur - child
    out = {}
    key = spans["name"].astype(np.int64) * 256 + (spans["tag"].astype(np.int64) & 255)
    uniq, inv = np.unique(key, return_inverse=True)
    sums = np.bincount(inv, weights=own, minlength=len(uniq))
    calls = np.bincount(inv, minlength=len(uniq))
    for k, s, c in zip(uniq.tolist(), sums.tolist(), calls.tolist()):
        out[(names[k // 256], k % 256)] = [s, c]
    return out
