"""Spans around the calls into spgs's layers, and the per-layer metrics drawn from them.

The traced pass replaces, for its duration, the module attributes through
which one layer calls the next (for example ``spgs.minimize.solve_phi``, the
name the descent looks up at each Poisson solve) with timing wrappers, and
puts the originals back afterwards.  Spans are kept in memory and handed to
the parent process when the pass ends; nothing here touches spgs's own code.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import time
from contextlib import ExitStack, contextmanager

# (module, attribute, span name).  The attribute is the binding the calling
# layer looks up at call time; find_ground_state is reached through two.
TARGETS = (
    ("spgs.minimize", "solve_phi", "poisson.solve_phi"),
    ("spgs.minimize", "precondition", "functional.precondition"),
    ("spgs.minimize", "energy_breakdown", "functional.energy_breakdown"),
    ("spgs.minimize", "el_residual", "functional.el_residual"),
    ("spgs.minimize", "coercivity_check", "potential.coercivity_check"),
    ("spgs.minimize", "_solve_fiber", "nehari.fiber"),
    ("spgs.minimize", "find_ground_state", "minimize.find_ground_state"),
    ("spgs.cli", "find_ground_state", "minimize.find_ground_state"),
    ("spgs.cli", "write_field", "grid.write_field"),
    ("spgs.radial", "radial_solve_phi", "radial.radial_solve_phi"),
    ("spgs.radial", "radial_energy_breakdown", "radial.radial_energy_breakdown"),
)

def _first_arg(bound: inspect.BoundArguments):
    return next(iter(bound.arguments.values()))


# Span attributes read from a call's arguments and result once it returns.
_DETAILS = {
    "poisson.solve_phi": lambda b, r: {
        "n": _first_arg(b).grid.n,
        "corrected": bool(b.arguments["residual_correction"]),
    },
    "functional.precondition": lambda b, r: {"n": _first_arg(b).grid.n},
    "minimize.find_ground_state": lambda b, r: {
        "iterations": r.iterations,
        "starts": b.arguments["cfg"].starts,
    },
    "grid.write_field": lambda b, r: {"bytes": os.path.getsize(b.arguments["path"])},
}


class Tracer:
    """Records spans (name, start, end, parent, operation id, attributes) in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        detail = _DETAILS.get(name)
        signature = inspect.signature(fn) if detail else None

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if detail:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record["attrs"] = detail(bound, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; note the ones that do not, and restore all on exit."""
        with ExitStack() as stack:
            for module_name, attr, name in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(name, original))
                stack.callback(setattr, module, attr, original)
            yield


# Per-layer metrics: name -> unit.  Counts and times are per pass through the
# workload's operations; "nNN_ms" is the median duration of one call on an
# n = NN grid (0 when the pass makes no such call).
PER_LAYER_UNITS = {
    "poisson.solve_phi.raw.calls": "count",
    "poisson.solve_phi.raw.total_s": "s",
    "poisson.solve_phi.raw.n32_ms": "ms",
    "poisson.solve_phi.raw.n48_ms": "ms",
    "poisson.solve_phi.raw.n64_ms": "ms",
    "poisson.solve_phi.corrected.calls": "count",
    "poisson.solve_phi.corrected.total_s": "s",
    "functional.precondition.calls": "count",
    "functional.precondition.total_s": "s",
    "functional.precondition.n32_ms": "ms",
    "functional.precondition.n48_ms": "ms",
    "functional.precondition.n64_ms": "ms",
    "functional.energy_breakdown.calls": "count",
    "functional.energy_breakdown.total_s": "s",
    "functional.el_residual.calls": "count",
    "functional.el_residual.total_s": "s",
    "minimize.find_ground_state.calls": "count",
    "minimize.find_ground_state.total_s": "s",
    "minimize.find_ground_state.self_s": "s",
    "minimize.iterations": "count",
    "minimize.trial_steps": "count",
    "minimize.backtracks": "count",
    "minimize.accept_ratio": "1",
    "potential.coercivity_check.calls": "count",
    "potential.coercivity_check.total_s": "s",
    "nehari.fiber.calls": "count",
    "nehari.fiber.total_s": "s",
    "grid.write_field.calls": "count",
    "grid.write_field.total_s": "s",
    "grid.write_field.bytes": "B",
    "cli.main.total_s": "s",
    "cli.main.self_s": "s",
    "radial.radial_ground_state.calls": "count",
    "radial.radial_ground_state.total_s": "s",
    "radial.radial_ground_state.self_s": "s",
    "radial.radial_solve_phi.calls": "count",
    "radial.radial_solve_phi.total_s": "s",
    "radial.radial_energy_breakdown.calls": "count",
    "radial.radial_energy_breakdown.total_s": "s",
    "trace.overhead_s": "s",
}

# Metrics computed from the spans of more than the one layer their name starts with.
_ALSO_NEEDS = {
    "minimize.iterations": ("minimize.find_ground_state",),
    "minimize.trial_steps": ("minimize.find_ground_state", "poisson.solve_phi"),
    "minimize.backtracks": ("minimize.find_ground_state", "poisson.solve_phi"),
    "minimize.accept_ratio": ("minimize.find_ground_state", "poisson.solve_phi"),
}

# The deterministic counts, which two traced runs must reproduce exactly.
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit == "count" or name.endswith(".bytes")
)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _median_ms(spans: list[dict]) -> float:
    return 1e3 * statistics.median(map(_duration, spans)) if spans else 0.0


def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += _duration(span)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    def group(name: str, **attrs) -> list[dict]:
        picked = [spans[i] for i in by_name.get(name, [])]
        return [s for s in picked if all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def total(name: str) -> float:
        return sum(_duration(spans[i]) for i in by_name.get(name, []))

    def self_time(name: str) -> float:
        return sum(_duration(spans[i]) - covered[i] for i in by_name.get(name, []))

    out: dict[str, float] = {}
    for name in ("poisson.solve_phi.raw", "poisson.solve_phi.corrected"):
        picked = group("poisson.solve_phi", corrected=name.endswith("corrected"))
        out[f"{name}.calls"] = len(picked)
        out[f"{name}.total_s"] = sum(map(_duration, picked))
    for n in (32, 48, 64):
        out[f"poisson.solve_phi.raw.n{n}_ms"] = _median_ms(group("poisson.solve_phi", corrected=False, n=n))
        out[f"functional.precondition.n{n}_ms"] = _median_ms(group("functional.precondition", n=n))
    for name in (
        "functional.precondition",
        "functional.energy_breakdown",
        "functional.el_residual",
        "minimize.find_ground_state",
        "potential.coercivity_check",
        "nehari.fiber",
        "grid.write_field",
        "radial.radial_ground_state",
        "radial.radial_solve_phi",
        "radial.radial_energy_breakdown",
    ):
        out[f"{name}.calls"] = len(by_name.get(name, []))
        out[f"{name}.total_s"] = total(name)
    for name in ("minimize.find_ground_state", "cli.main", "radial.radial_ground_state"):
        out[f"{name}.self_s"] = self_time(name)
    out["cli.main.total_s"] = total("cli.main")
    out["grid.write_field.bytes"] = sum(s["attrs"]["bytes"] for s in group("grid.write_field"))

    # A descent makes one raw solve per start, then one per trial step.
    descents = group("minimize.find_ground_state")
    iterations = sum(s["attrs"].get("iterations", 0) for s in descents)
    trial_steps = out["poisson.solve_phi.raw.calls"] - sum(s["attrs"].get("starts", 0) for s in descents)
    out["minimize.iterations"] = iterations
    out["minimize.trial_steps"] = trial_steps
    out["minimize.backtracks"] = trial_steps - iterations
    out["minimize.accept_ratio"] = iterations / trial_steps if trial_steps > 0 else 0.0
    return out


def layer_metrics(
    traced_passes: list[list[dict]], overhead_s: float, missing: set[str]
) -> dict[str, float]:
    """Median over traced passes of each per-layer metric.

    A metric is left out when every binding of a layer it is drawn from was
    missing, so a renamed entry point shows as a missing metric, not a zero.
    """
    layers = {name for _, _, name in TARGETS}
    missing_layers = {
        name for name in layers if all(f"{m}.{a}" in missing for m, a, n in TARGETS if n == name)
    }
    per_pass = [pass_metrics(spans) for spans in traced_passes]
    out = {}
    for metric in PER_LAYER_UNITS:
        needs = {name for name in layers if metric.startswith(name + ".")}.union(_ALSO_NEEDS.get(metric, ()))
        if metric != "trace.overhead_s" and not needs & missing_layers:
            out[metric] = statistics.median(p[metric] for p in per_pass)
    out["trace.overhead_s"] = overhead_s
    return out
