"""Call-site tracing for the benchmark's traced runs.

`install()` wraps the traced library functions in every `nested_dp` module
namespace that holds them, so a call made through a name imported with
`from .beliefs import belief1_step` is traced as well as one made through
the module attribute.  `StepContext` is counted through a subclass bound in
its place.  `VarRef` is never touched: its dataclass `__eq__` compares
classes, so a substitute would make every dictionary lookup miss.

Spans (name, start, end, parent span, run id) are kept in memory and
written out by `Tracer.write_spans` once the timed phase is over.  Nothing
here is imported by an untraced run.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, span name).  The span name's first component is the
# layer the function belongs to.
TRACED = (
    ("solver", "solve_exact", "solver.solve_exact"),
    ("solver", "solve_pbp_exact", "solver.pbp"),
    ("solver", "solve_pbp_approx", "solver.pbp"),
    ("beliefs", "belief1_step", "beliefs.belief1_step"),
    ("beliefs", "belief2_step", "beliefs.belief2_step"),
    ("beliefs", "expected_cost1", "beliefs.expected_cost1"),
    ("beliefs", "expected_cost2", "beliefs.expected_cost2"),
    ("beliefs", "update_belief1", "beliefs.update_belief1"),
    ("info", "enumerate_private", "info.enumerate_private"),
    ("info", "merge_realization", "info.merge_realization"),
    ("lattice", "build_lattice", "lattice.build_lattice"),
    ("lattice", "quantize", "lattice.quantize"),
    ("oracle", "build_joint", "oracle.build_joint"),
    ("oracle", "exhaustive_min", "oracle.exhaustive_min"),
    ("oracle", "evaluate_strategy", "oracle.evaluate_strategy"),
    ("oracle", "trajectory", "oracle.trajectory"),
    ("sim", "rollout", "sim.rollout"),
    ("decoupled", "solve_decoupled_pbp", "decoupled.solve_decoupled_pbp"),
)

LAYERS = ("solver", "beliefs", "info", "lattice", "oracle", "sim", "decoupled")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.calls: dict[str, int] = {}
        self.inclusive_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.belief1_keys: set = set()
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, 0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            self.spans.append((frame[0], parent[0] if parent else None, name, start, end))
            self.calls[name] = self.calls.get(name, 0) + 1
            self.inclusive_ns[name] = self.inclusive_ns.get(name, 0) + duration
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[2]

    def current(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function, and StepContext, at its call sites."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nested_dp"]
        for module_name, func_name, span_name in TRACED:
            original = getattr(sys.modules[f"nested_dp.{module_name}"], func_name)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)

        original_ctx = sys.modules["nested_dp.info"].StepContext
        tracer = self

        class CountedStepContext(original_ctx):
            __slots__ = ()

            def __init__(self, *args):
                tracer.counts["info.step_context"] = tracer.counts.get("info.step_context", 0) + 1
                super().__init__(*args)

        for module in modules:
            if getattr(module, "StepContext", None) is original_ctx:
                module.StepContext = CountedStepContext

    def _wrap(self, span_name: str, fn):
        tracer = self

        if span_name == "beliefs.belief1_step":
            def wrapper(model, info, b1, u1, gamma2):
                tracer.belief1_keys.add((b1, u1, gamma2))
                return tracer.span(span_name, fn, (model, info, b1, u1, gamma2), {})
        elif span_name == "oracle.trajectory":
            def wrapper(*args, **kwargs):
                if tracer.current() == "sim.rollout":
                    tracer.count("sim.rollout.trajectories")
                return tracer.span(span_name, fn, args, kwargs)
        elif span_name == "sim.rollout":
            def wrapper(model, info, strategy, config, *rest, **kwargs):
                tracer.count("sim.rollout.episodes", config.episodes)
                return tracer.span(span_name, fn, (model, info, strategy, config) + rest, kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = tracer.span(span_name, fn, args, kwargs)
                tracer._count_result(span_name, result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_result(self, span_name: str, result) -> None:
        if span_name == "solver.solve_exact":
            self.count("solver.solve_exact.pairs", result.pairs_enumerated)
            self.count("solver.solve_exact.nodes", len(result.memo))
        elif span_name == "solver.pbp":
            self.count("solver.pbp.nodes", len(result.memo))
        elif span_name == "decoupled.solve_decoupled_pbp":
            self.count("decoupled.solve_decoupled_pbp.nodes", len(result.memo))
        elif span_name == "lattice.build_lattice":
            self.count("lattice.build_lattice.points", len(result.points))
        elif span_name == "oracle.build_joint":
            self.count("oracle.build_joint.entries", len(result))
        elif span_name == "oracle.exhaustive_min":
            self.count("oracle.exhaustive_min.strategies", result.strategies_tested)

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and times, per-layer self times, counters."""
        layer_self = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            layer_self[name.split(".")[0]] += ns
        return {
            "calls": dict(self.calls),
            "s": {name: ns / 1e9 for name, ns in self.inclusive_ns.items()},
            "self_s": {name: ns / 1e9 for name, ns in self.self_ns.items()},
            "layer_self_s": {layer: ns / 1e9 for layer, ns in layer_self.items()},
            "counts": dict(self.counts),
            "belief1_distinct": len(self.belief1_keys),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"run": self.run_id, "fields": ["id", "parent", "name", "start_ns", "end_ns"]}))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")
