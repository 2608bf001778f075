"""Spans around the public functions of the tamari modules.

Used only by the traced run. Every public function of the modules in
``MODULES`` is replaced by a wrapper at every module attribute that binds
it (``from .posets import validate`` binds by name in the importing
module), and in module-level lists and dicts such as ``verify.CHECKS``.
The verify checks are private functions reached only through ``CHECKS``,
so they are wrapped too, under ``verify.<check>``.

A wrapper counts every call. A call made while the same function is
already on the stack (recursion) is counted but opens no span, so a
function's busy time is never counted twice. Spans are kept in flat
arrays until :meth:`Tracer.summary`; a span's self time is its duration
minus the durations of its child spans. Generator functions are left
unwrapped: their span would end before their body runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

MODULES = ("trees", "posets", "classify", "risefall", "noncrossing",
           "census", "verify", "cli")

# functions whose distinct first arguments are recorded, for the ratio of
# distinct sizes to calls
TRACK_ARGS = frozenset({"posets.enumerate_interval_posets"})

# calls into the trees layer that walk a tree for its relations; a call
# made inside another of them (dec_relations -> tree_relations) is the
# same walk
RELATION_WALKS = frozenset({"trees.tree_relations", "trees.dec_relations",
                            "trees.inc_relations"})

# verify check functions whose metric name is not their name minus "_check_"
CHECK_NAMES = {"_check_new": "new_oracles"}


def _check_key(name: str) -> str:
    return "verify." + CHECK_NAMES.get(name, name[len("_check_"):])


def _traceable(obj, module) -> bool:
    is_function = inspect.isfunction(obj) or hasattr(obj, "cache_clear")
    return (
        is_function
        and getattr(obj, "__module__", None) == module.__name__
        and not inspect.isgeneratorfunction(obj)
    )


class Tracer:
    def __init__(self) -> None:
        self.keys: list[str] = []
        self.calls: list[int] = []
        self.args: list[set | None] = []
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]

    def wrap(self, fn, key: str):
        fid = len(self.keys)
        self.keys.append(key)
        self.calls.append(0)
        seen = set() if key in TRACK_ARGS else None
        self.args.append(seen)
        calls, stack = self.calls, self.stack
        fids, parents = self.span_fid, self.span_parent
        starts, ends = self.span_start, self.span_end
        active = [False]

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if seen is not None and args:
                seen.add(args[0])
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                active[0] = False

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap the functions of the already imported tamari modules."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"tamari.{short}"]
            for name, obj in vars(module).items():
                if not _traceable(obj, module):
                    continue
                if short == "verify" and name.startswith("_check_"):
                    wrappers[id(obj)] = self.wrap(obj, _check_key(name))
                elif not name.startswith("_"):
                    wrappers[id(obj)] = self.wrap(obj, f"{short}.{name}")

        def swap(value):
            if isinstance(value, tuple):
                return tuple(swap(v) for v in value)
            return wrappers.get(id(value), value)

        for name, module in list(sys.modules.items()):
            if name != "tamari" and not name.startswith("tamari."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, list):
                    value[:] = [swap(v) for v in value]
                elif isinstance(value, dict):
                    value.update({k: swap(v) for k, v in value.items()})
                elif id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def relation_walks(self) -> int:
        """Spans of :data:`RELATION_WALKS` not inside another of them."""
        walk = [key in RELATION_WALKS for key in self.keys]
        parents, fids = self.span_parent, self.span_fid
        count = 0
        for idx, fid in enumerate(fids):
            if not walk[fid]:
                continue
            parent = parents[idx]
            while parent >= 0 and not walk[fids[parent]]:
                parent = parents[parent]
            count += parent < 0
        return count

    def summary(self) -> tuple[dict, float, int]:
        """Per-function calls, busy and self seconds; the seconds covered by
        top-level spans; the number of spans."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        top = 0.0
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[idx]
            else:
                top += durations[idx]
        layers = {
            key: {"calls": self.calls[fid], "busy_s": 0.0, "self_s": 0.0}
            for fid, key in enumerate(self.keys)
        }
        for fid, key in enumerate(self.keys):
            if self.args[fid] is not None:
                layers[key]["distinct_args"] = len(self.args[fid])
        for idx, fid in enumerate(self.span_fid):
            stats = layers[self.keys[fid]]
            stats["busy_s"] += durations[idx]
            stats["self_s"] += durations[idx] - child[idx]
        return layers, top, len(durations)
