"""Spans around the public functions of symflow, and the per-layer metrics.

The tracer wraps public functions and methods from outside: it replaces
every reference to the original function in the loaded symflow modules (or
the method on its class) with a wrapper that records a span, and puts the
originals back on ``uninstall``.  A span is (id, name, start, end, parent,
thread, tag).  A span opened in a worker thread with no open span of its
own takes the innermost open span of the main thread as its parent, so the
thread pool of a sweep stays under the sweep's span.  Spans are kept in
memory and written out at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

#: (span name, module, attribute, class or None).  Layer = module name.
TARGETS = (
    ("expr.diff", "expr", "diff", "Expression"),
    ("expr.eval_at", "expr", "eval_at", "Expression"),
    ("bracket.poisson", "bracket", "poisson", None),
    ("bracket.eval_monomial", "bracket", "eval_monomial", None),
    ("bracket.q_norm", "bracket", "q_norm", None),
    ("reeb.build_reeb", "reeb", "build_reeb", None),
    ("reeb.median", "reeb", "median", None),
    ("reeb.quasi_state", "reeb", "quasi_state", None),
    ("reeb.pi_defect", "reeb", "pi_defect", None),
    ("manifold.build_sphere", "manifold", "build_sphere", None),
    ("manifold.sample", "manifold", "sample", None),
    ("flow.reference_flow", "flow", "reference_flow", None),
    ("flow.reference_apply", "flow", "apply", "ReferenceFlow"),
    ("flow.velocity", "flow", "velocity", "CocycleGenerator"),
    ("flow.compose_scheme", "flow", "compose_scheme", None),
    ("cli.run", "cli", "run", None),
)

#: Per-layer metrics with their units; all of them are better when lower.
PER_LAYER = {
    "expr.diff_calls": "count",
    "expr.diff_self_s": "s",
    "expr.eval_at_calls": "count",
    "expr.eval_at_self_s": "s",
    "expr.dag_nodes_max": "count",
    "bracket.poisson_calls": "count",
    "bracket.poisson_self_s": "s",
    "bracket.q_norm_n2_ms": "ms",
    "bracket.q_norm_n3_ms": "ms",
    "bracket.q_norm_n4_ms": "ms",
    "bracket.q_norm_n5_ms": "ms",
    "reeb.build_reeb_p50_ms": "ms",
    "reeb.median_p50_ms": "ms",
    "reeb.tree_nodes_mean": "count",
    "reeb.pi_defect_self_s": "s",
    "manifold.build_sphere_s": "s",
    "manifold.sample_calls": "count",
    "manifold.sample_self_s": "s",
    "flow.reference_flow_s": "s",
    "flow.reference_apply_s": "s",
    "flow.velocity_calls": "count",
    "flow.velocity_self_s": "s",
    "flow.rk4_steps": "count",
    "flow.compose_scheme_s": "s",
    "cli.run_self_s": "s",
    "cli.pairs": "count",
    "trace.overhead_pct": "%",
    "trace.spans_per_item": "count",
    "host.item_p50_ms": "ms",
    "host.ref_loop_ms": "ms",
    "host.py_loop_start_ms": "ms",
    "host.py_loop_end_ms": "ms",
    "host.numpy_start_ms": "ms",
    "host.numpy_end_ms": "ms",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.items: list[tuple[float, float]] = []
        self.tree_nodes: list[int] = []
        self.monomials: list = []
        self.dag_nodes_max = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        tag_of = _TAGS.get(name)
        on_result = _RESULTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tag = tag_of(args, kwargs) if tag_of else None
                tracer.spans.append((sid, name, start, end, parent, threading.get_ident(), tag))
            if on_result:
                on_result(tracer, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, sf) -> None:
        """Wrap every target that the loaded symflow modules define."""
        modules = [m for key, m in sys.modules.items() if key == "symflow" or key.startswith("symflow.")]
        for name, module, attr, cls_name in TARGETS:
            owner = getattr(sf, module)
            if cls_name is not None:
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, attr, None) if cls is not None else None
                if original is None:
                    continue
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def end_item(self, start: float, end: float, node_base) -> None:
        """Close a traced item; count expression nodes outside its window."""
        self.items.append((start, end))
        for expr in self.monomials:
            self.dag_nodes_max = max(self.dag_nodes_max, dag_size(getattr(expr, "root", None), node_base))
        self.monomials.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "tag")
        with open(path, "w") as fh:
            json.dump({"items": self.items, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; counts and self times are per traced item."""
        n_items = max(len(self.items), 1)
        windows = sorted(self.items)

        def in_item(span) -> bool:
            return any(a <= span[2] and span[3] <= b for a, b in windows)

        spans = [s for s in self.spans if in_item(s)]
        children: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append((s[2], s[3]))
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for s in spans:
            sid, name, start, end = s[:4]
            calls[name] = calls.get(name, 0) + 1
            covered = _covered(start, end, children.get(sid, []))
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)

        def p50(name: str, scale: float, tag=None, every: bool = False) -> float:
            pool = self.spans if every else spans
            durations = [s[3] - s[2] for s in pool if s[1] == name and (tag is None or s[6] == tag)]
            return statistics.median(durations) * scale if durations else 0.0

        def per_item(table: dict, name: str) -> float:
            return table.get(name, 0) / n_items

        out = {
            "expr.diff_calls": per_item(calls, "expr.diff"),
            "expr.diff_self_s": per_item(self_s, "expr.diff"),
            "expr.eval_at_calls": per_item(calls, "expr.eval_at"),
            "expr.eval_at_self_s": per_item(self_s, "expr.eval_at"),
            "expr.dag_nodes_max": self.dag_nodes_max,
            "bracket.poisson_calls": per_item(calls, "bracket.poisson"),
            "bracket.poisson_self_s": per_item(self_s, "bracket.poisson"),
            "reeb.build_reeb_p50_ms": p50("reeb.build_reeb", 1e3),
            "reeb.median_p50_ms": p50("reeb.median", 1e3),
            "reeb.tree_nodes_mean": statistics.fmean(self.tree_nodes) if self.tree_nodes else 0.0,
            "reeb.pi_defect_self_s": per_item(self_s, "reeb.pi_defect"),
            "manifold.build_sphere_s": p50("manifold.build_sphere", 1.0, every=True),
            "manifold.sample_calls": per_item(calls, "manifold.sample"),
            "manifold.sample_self_s": per_item(self_s, "manifold.sample"),
            "flow.reference_flow_s": p50("flow.reference_flow", 1.0),
            "flow.reference_apply_s": p50("flow.reference_apply", 1.0),
            "flow.velocity_calls": per_item(calls, "flow.velocity"),
            "flow.velocity_self_s": per_item(self_s, "flow.velocity"),
            "flow.rk4_steps": per_item(calls, "flow.velocity") / 4.0,
            "flow.compose_scheme_s": p50("flow.compose_scheme", 1.0),
            "cli.run_self_s": per_item(self_s, "cli.run"),
            "cli.pairs": per_item(calls, "reeb.pi_defect"),
            "trace.spans_per_item": len(spans) / n_items,
        }
        for n in (2, 3, 4, 5):
            out[f"bracket.q_norm_n{n}_ms"] = p50("bracket.q_norm", 1e3, tag=n)
        return out


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def dag_size(root, node_base) -> int:
    """Distinct nodes of an expression DAG, following dataclass fields."""
    if node_base is None or not isinstance(root, node_base):
        return 0
    seen = {id(root)}
    todo = [root]
    while todo:
        node = todo.pop()
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if isinstance(child, node_base) and id(child) not in seen:
                seen.add(id(child))
                todo.append(child)
    return len(seen)


def _generation(args, kwargs):
    return kwargs.get("generation", args[0] if args else None)


def _keep_tree_size(tracer: Tracer, graph) -> None:
    tracer.tree_nodes.append(getattr(graph, "n_nodes", 0))


def _keep_monomial(tracer: Tracer, field) -> None:
    expr = getattr(field, "expr", None)
    if expr is not None:
        tracer.monomials.append(expr)


_TAGS = {"bracket.q_norm": _generation}
_RESULTS = {"reeb.build_reeb": _keep_tree_size, "bracket.eval_monomial": _keep_monomial}
