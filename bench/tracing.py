"""Spans around calls into betree's public functions, installed from outside
the package.

A hook replaces a function in its defining module and in every betree module
that bound the same object by name (`from .x import f`), so calls made
inside the package are seen as well. Spans carry name, start, end and parent
index; they are kept in flat arrays while the run lasts and summarised (or
saved) at the end. A hook whose target no longer exists is recorded as
missing instead of failing the run, and so is a counter whose result
accessor no longer fits the returned object.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _count_traverse(args, kwargs, trace):
    return {"traverse.steps": len(trace.steps),
            "traverse.dists": sum(len(s.candidates) for s in trace.steps)}


def _count_greedy(args, kwargs, path):
    return {"greedy_path.decisions": len(path.decisions),
            "greedy_path.candidates": sum(len(d.candidates) for d in path.decisions)}


def _count_build(args, kwargs, result):
    return {"build_tree.samples": len(args[0]), "build_tree.nodes": len(result)}


def _count_loss_and_grad(args, kwargs, result):
    return {"loss_and_grad.clamps": result[2]}


def _count_backward(args, kwargs, result):
    return {"tape.nodes": len(args[0])}


# (module, attribute path, counter function or None). The span name is
# "<module without the betree. prefix>.<attribute path>".
HOOKS = (
    ("betree.boundary_tree", "build_tree", _count_build),
    ("betree.boundary_tree", "traverse", _count_traverse),
    ("betree.boundary_tree", "node_embedding", None),
    ("betree.boundary_tree", "predict_hard", None),
    ("betree.transform", "embed", None),
    ("betree.transform", "forward", None),
    ("betree.transform", "adam_step", None),
    ("betree.tape", "Tape.backward", _count_backward),
    ("betree.soft_path", "greedy_path", _count_greedy),
    ("betree.soft_path", "loss_and_grad", _count_loss_and_grad),
    ("betree.trainer", "train", None),
    ("betree.trainer", "evaluate", None),
)

# Factories whose returned embedding callables are wrapped to count the
# calls made directly inside node_embedding (cache misses), for either kind
# of embedder. The wrapper records no span: node_embedding is the hottest
# hooked call, and a span per miss would double the trace.
EMBEDDER_FACTORIES = ("make_embedder", "identity_embedder")
MISS_PARENT = "boundary_tree.node_embedding"
MISS_COUNTER = "node_embedding.misses"


class Tracer:
    """Span recorder plus the hooks that feed it; install() before the
    traced calls and uninstall() after them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = array("q")
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._next = 0
        self._stack: list[int] = []  # indices of the open spans
        self._stack_names: list[int] = []  # their name ids
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, count=None):
        nid = self._name_id(name)
        stack, names = self._stack, self._stack_names
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            names.append(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                names.pop()
                self._ids.append(idx)
                self._name.append(nid)
                self._parent.append(parent)
                self._start.append(t0)
                self._end.append(t1)
            if count is not None and name not in self.missing:
                try:
                    for key, value in count(args, kwargs, result).items():
                        self.counters[key] = self.counters.get(key, 0) + value
                except (AttributeError, TypeError, IndexError):
                    self.missing.add(name)
            return result

        return traced

    def _wrap_factory(self, fn, name: str):
        traced = self.wrap(fn, name)
        names = self._stack_names
        miss_parent = self._name_id(MISS_PARENT)
        counters = self.counters

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            embedder = traced(*args, **kwargs)

            # functools.wraps copies the embedder's stamps (cache_key, params).
            @functools.wraps(embedder)
            def counted(x):
                if names and names[-1] == miss_parent:
                    counters[MISS_COUNTER] = counters.get(MISS_COUNTER, 0) + 1
                return embedder(x)

            return counted

        return factory

    # ---- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every hook target; missing targets are noted, not fatal."""
        import betree  # noqa: F401  (loads every submodule)

        for module_name, attr, count in HOOKS:
            self._hook(module_name, attr, lambda fn, name, c=count: self.wrap(fn, name, c))
        for attr in EMBEDDER_FACTORIES:
            self._hook("betree.transform", attr, self._wrap_factory)

    def _hook(self, module_name: str, attr: str, make) -> None:
        name = f"{module_name.removeprefix('betree.')}.{attr}"
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return
        wrapped = make(original, name)
        self._patch(owner, leaf, wrapped)
        if not path:
            # Rebind every `from .module import attr` copy inside the package.
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not (mod_name == "betree" or mod_name.startswith("betree.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ---- summaries ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Spans in call order: name id, parent index (-1 for none), start, end."""
        order = np.argsort(np.frombuffer(self._ids, dtype=np.int64), kind="stable")
        return {
            "name": np.frombuffer(self._name, dtype=np.int32)[order],
            "parent": np.frombuffer(self._parent, dtype=np.int64)[order],
            "start": np.frombuffer(self._start, dtype=np.float64)[order],
            "end": np.frombuffer(self._end, dtype=np.float64)[order],
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.spans(), self.counters, self.missing)


class SpanSummary:
    """Per-name call counts, inclusive and self time, and child sums."""

    def __init__(self, names, spans, counters, missing):
        self.counters = dict(counters)
        self.missing = set(missing)
        self._ids = {n: i for i, n in enumerate(names)}
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self._name, self._parent, self._dur = name, parent, dur
        self._self = dur - child

    def _mask(self, name: str) -> np.ndarray:
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(len(self._name), dtype=bool)
        return self._name == nid

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total_s(self, name: str) -> float:
        return float(self._dur[self._mask(name)].sum())

    def self_s(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum())

    def child_total_s(self, parent_name: str, child_name: str) -> float:
        """Time in `child_name` spans whose direct parent is a `parent_name` span."""
        child = self._mask(child_name)
        parents = self._parent[child]
        direct = parents >= 0
        is_parent = self._mask(parent_name)
        hits = np.zeros(len(parents), dtype=bool)
        hits[direct] = is_parent[parents[direct]]
        return float(self._dur[child][hits].sum())
