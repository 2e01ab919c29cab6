"""Spans around the calls into sfast's layers, recorded from outside the package.

`Tracer.install` replaces each module binding named in TRACED with a wrapper
that records a span, and `uninstall` puts the originals back. A span has a
name (the binding it went through, such as ``kernel.verify_solution``), the
layer (the module that defines the function), start, end, parent span and
the id of the verdict it belongs to. Spans stay in memory until `write`.
A binding that no longer exists is listed in `absent` and skipped, so the
benchmark keeps running when a refactor renames or deletes a function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Optional

TRACED = {
    "sfast": ("parse_instance",),
    "sfast.solver": (
        "kernelize",
        "lift_solution",
        "classes_feasible",
        "contract",
        "solve_contracted",
        "conflict_packing",
        "oracle_min_deletion",
        "is_s_acyclic",
        "strongly_connected_components",
    ),
    "sfast.kernel": (
        "rr3_many_triangles",
        "class_decomposition",
        "arc_swap_normalize",
        "verify_solution",
        "minimalize_solution",
        "is_s_acyclic",
    ),
    "sfast.graphs": ("is_s_acyclic", "strongly_connected_components"),
}

ROOT = "verdict"


class Timeout(BaseException):
    """Raised by the per-instance alarm.

    A BaseException, so that no ``except Exception`` inside sfast swallows it.
    """


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int
    verdict: int
    start: float
    end: float = math.nan
    timed_out: bool = False
    result: Optional[bool] = None
    dp_states: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def lattice_states(contracted) -> int:
    """Prefix vectors of the DP over one ContractedTournament: prod(m_i + 1)."""
    return math.prod(len(ids) + 1 for ids in contracted.color_nodes)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._verdict = -1

    def install(self) -> None:
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            binding = module_name.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.absent.append(f"{module_name}.{name}")
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{binding}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def _span(self, name: str, layer: str):
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, layer, parent, self._verdict, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.timed_out = isinstance(exc, Timeout)
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        is_dp = fn.__name__ == "solve_contracted"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name, layer) as span:
                if is_dp and args:
                    span.dp_states = lattice_states(args[0])
                result = fn(*args, **kwargs)
            if isinstance(result, bool):
                span.result = result
            return result

        return traced

    def verdict(self, verdict_id: int, call):
        """Run ``call()`` under a root span for one verdict."""
        self._verdict = verdict_id
        with self._span(ROOT, "benchmark"):
            return call()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span never overlap and
    their coverage is the sum of their durations.
    """
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer sums over traced passes, divided by the number of passes."""
    by_id = {s.id: s for s in spans}

    def under(span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    def total(*names: str) -> float:
        return sum(s.seconds for s in spans if s.name in names) / passes

    def calls(*names: str) -> float:
        return sum(1 for s in spans if s.name in names) / passes

    acyclic = ("solver.is_s_acyclic", "kernel.is_s_acyclic", "graphs.is_s_acyclic")
    scc = ("solver.strongly_connected_components", "graphs.strongly_connected_components")
    dp = [s for s in spans if s.name == "solver.solve_contracted"]
    dp_s = sum(s.seconds for s in dp) / passes
    dp_states = sum(s.dp_states for s in dp) / passes
    feasible = [s.result for s in spans if s.name == "solver.classes_feasible"]
    own = self_seconds(spans)
    metrics = {
        "instancefile.parse_s": total("sfast.parse_instance"),
        "kernel.kernelize_s": total("solver.kernelize"),
        "kernel.rr3_s": total("kernel.rr3_many_triangles"),
        "kernel.rr3_calls": calls("kernel.rr3_many_triangles"),
        "kernel.class_decomposition_s": total("kernel.class_decomposition"),
        "kernel.arc_swap_s": total("kernel.arc_swap_normalize"),
        "kernel.lift_s": total("solver.lift_solution"),
        "kernel.lift_verify_s": sum(
            s.seconds
            for s in spans
            if s.name == "kernel.verify_solution" and under(s, "solver.lift_solution")
        )
        / passes,
        "kernel.minimalize_s": total("kernel.minimalize_solution"),
        "solver.classes_feasible_s": total("solver.classes_feasible"),
        "solver.feasible_share": sum(1 for r in feasible if r) / len(feasible) if feasible else 0.0,
        "solver.contract_s": total("solver.contract"),
        "solver.dp_s": dp_s,
        "solver.dp_calls": len(dp) / passes,
        "solver.dp_states": dp_states,
        "solver.dp_us_per_state": 1e6 * dp_s / dp_states if dp_states else 0.0,
        "solver.certify_s": total("solver.conflict_packing", "solver.oracle_min_deletion"),
        "graphs.is_s_acyclic_s": total(*acyclic),
        "graphs.is_s_acyclic_calls": calls(*acyclic),
        "graphs.scc_s": total(*scc),
        "oracle.min_deletion_s": total("solver.oracle_min_deletion"),
        "oracle.min_deletion_calls": calls("solver.oracle_min_deletion"),
        "verdict.uncovered_s": sum(own[s.id] for s in spans if s.name == ROOT) / passes,
        "trace.timed_out_spans": sum(1 for s in spans if s.timed_out) / passes,
    }
    for layer in ("instancefile", "kernel", "solver", "graphs", "oracle"):
        metrics[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer) / passes
    return metrics
