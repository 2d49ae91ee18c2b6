"""Span recorder that times normsys functions from outside the library.

``install`` replaces each traced function with a wrapper under every name
a caller can look it up by: the defining module's attribute, every other
``normsys`` module that imported it with ``from ... import``, and the
class attribute for methods.  Each call records a span (name, start, end,
parent span, op id).  Spans stay in memory, in flat typed arrays, and are
written out once at the end of a run; per-name call counts, inclusive
("busy") and exclusive ("self") times are accumulated as spans close.

``field.sign`` is deliberately not traced: it runs millions of times per
op and wrapping it would dominate what is measured.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# (module, attribute path) of every traced function.  Names in the report
# are "<module>.<function>", with the class name dropped for methods.
TARGETS = (
    ("linalg", "det"),
    ("linalg", "rank"),
    ("linalg", "solve"),
    ("linalg", "kernel_basis"),
    ("sphere", "project_arrangement"),
    ("sphere", "AntipodalArrangement.general_position"),
    ("cycles", "all_cycle_invariants"),
    ("cycles", "line_cycle"),
    ("normal_systems", "find_isomorphisms"),
    ("normal_systems", "NormalSystem.is_valid"),
    ("fm", "feasible"),
    ("arrangements", "region_counts"),
    ("arrangements", "cone_facets"),
    ("arrangements", "HyperplaneArrangement.is_valid"),
    ("arrangements", "concurrency_sign_map"),
    ("arrangements", "induced_sign_map"),
    ("arrangements", "arrangements_isomorphic"),
    ("field", "parse_value"),
    ("symbols", "compatible_symbols"),
    ("fixtures", "verify_all"),
    ("cli", "main"),
)


class Tracer:
    """In-memory span store with running per-name aggregates."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self.calls: dict = {}
        self.busy: dict = {}
        self.self_time: dict = {}
        self.counters: dict = {}
        # open spans: [span index, name id, start, time covered by children]
        self._stack: list = []
        self._depth: dict = {}
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def count_max(self, key: str, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        stack, depth = self._stack, self._depth
        busy, self_time, calls = self.busy, self.self_time, self.calls
        spans = (self.span_name, self.span_start, self.span_end,
                 self.span_parent, self.span_op)
        s_name, s_start, s_end, s_parent, s_op = spans

        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(self.op)
            s_end.append(0.0)
            outer = depth.get(nid, 0) == 0
            depth[nid] = depth.get(nid, 0) + 1
            frame = [idx, nid, 0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            frame[2] = start
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[nid] -= 1
                dur = end - start
                s_end[idx] = end
                calls[name] = calls.get(name, 0) + 1
                # a function nested inside itself adds no extra busy time
                if outer:
                    busy[name] = busy.get(name, 0.0) + dur
                self_time[name] = self_time.get(name, 0.0) + dur - frame[3]
                if stack:
                    stack[-1][3] += dur
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every target under every name it is reachable by."""
        # import everything first, so no module copies a wrapper by
        # ``from ... import`` that uninstall would not find
        modules = {m: importlib.import_module(f"normsys.{m}") for m, _ in TARGETS}
        for module, attr in TARGETS:
            mod = modules[module]
            owner_path, _, fname = attr.rpartition(".")
            name = f"{module}.{fname}"
            if owner_path:
                owner = getattr(mod, owner_path)
                orig = owner.__dict__[fname]
                self._set(owner, fname, self.wrap(name, orig, HOOKS.get(name)))
                continue
            orig = getattr(mod, fname)
            wrapper = self.wrap(name, orig, HOOKS.get(name))
            for mname, m in list(sys.modules.items()):
                if mname != "normsys" and not mname.startswith("normsys."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapper)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, "__dict__", {})[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }

    def spans(self) -> dict:
        """All spans as parallel columns; parent -1 marks a root span."""
        return {
            "names": list(self.names),
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }

    def write(self, path, extra=None):
        payload = {"aggregates": self.aggregates(), "spans": self.spans()}
        if extra:
            payload.update(extra)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


def _on_feasible(tracer, args, result):
    tracer.count("fm.feasible.true", 1 if result else 0)
    tracer.count_max("fm.feasible.constraints_max", len(args[0]))


def _on_find_isomorphisms(tracer, args, result):
    tracer.count("normal_systems.witnesses", len(result))


HOOKS = {
    "fm.feasible": _on_feasible,
    "normal_systems.find_isomorphisms": _on_find_isomorphisms,
}


def merge(into: dict, part: dict):
    """Add one process's aggregates into a running total."""
    for key in ("calls", "busy", "self"):
        for name, v in part[key].items():
            into[key][name] = into[key].get(name, 0) + v
    for name, v in part["counters"].items():
        if name.endswith("_max"):
            into["counters"][name] = max(into["counters"].get(name, v), v)
        else:
            into["counters"][name] = into["counters"].get(name, 0) + v


def empty_aggregates() -> dict:
    return {"calls": {}, "busy": {}, "self": {}, "counters": {}}
