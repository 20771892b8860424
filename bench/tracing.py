"""Span tracing from outside the program, and the per-layer metric table.

``Tracer.install`` wraps selected public functions of ``hwp`` at every name
a caller resolves them by: each ``hwp`` module attribute that is the
original function object is replaced by the wrapper. That covers module
aliases (``ops.solve_linear`` resolves through ``hwp.operators``), names
imported with ``from .x import f`` (``hwp.cli.solve_periodic_harmonic``,
``hwp.geometry.jet_batch``) and calls inside the defining module.
``uninstall`` puts the originals back. The program itself is unmodified.

A span records its name, start, end, parent span and the iteration it
belongs to (the request identifier). A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    span: str         # <module>.<attribute path>: what is wrapped, and the span name
    metric: str       # per-layer self-time metric (seconds)
    moves: str        # end-to-end metric and workload it should move


def _count_assemble(counts, args, kwargs, op):
    counts["operators.dimension"] = max(counts["operators.dimension"], op.dimension)
    counts["operators.nnz"] = max(counts["operators.nnz"], op.matrix.nnz)


def _count_solve(counts, args, kwargs, result):
    counts["operators.solves"] += 1


def _count_march(counts, args, kwargs, report):
    periods, steps = report.params["periods"], report.params["n_steps"]
    counts["periodic.march_periods"] += periods
    counts["periodic.march_steps"] += (periods + 1) * steps  # + the recorded period


def _count_samples(counts, args, kwargs, samples):
    counts["mesh.interior_samples"] += samples.interior_points.shape[0]


def _count_jets(counts, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    counts["fields.jet_points"] += len(points)


def _count_rayleigh(counts, args, kwargs, report):
    counts["geometry.rayleigh_iterations"] += report.iterations


_HF, _HM, _V = "harmonic-fine", "harmonic-modes", "verify"

LAYERS: tuple[Layer, ...] = tuple(Layer(*row) for row in (
    ("cli.parse_scenario", "cli.parse_s", "setup_s on every workload"),
    ("cli.run_scenario", "cli.self_s", f"wall_s on {_HM} and {_HF}"),
    ("periodic.solve_periodic_harmonic", "periodic.harmonic_self_s", f"wall_s on {_HM}"),
    ("periodic.epsilon_march", "periodic.march_s", f"wall_s on {_HF} only"),
    ("operators.assemble_coupled_mode", "operators.assemble_s", f"wall_s on {_HM}"),
    ("operators.solve_linear", "operators.solve_linear_s",
     f"wall_s on {_HM} (large) and {_HF} (under half); peak_rss_mb on {_HF}"),
    ("operators.solve_mean_pair", "operators.mean_pair_s", f"wall_s on {_HF} and {_HM}"),
    ("reporting.write_grid_csv", "reporting.grid_csv_s",
     f"wall_s on {_HF} (large) and {_HM} (small)"),
    ("reporting.write_csv", "reporting.csv_s",
     f"wall_s on {_HF} (large) and {_HM} (small); formats the grid CSVs too"),
    ("reporting.write_json", "reporting.json_s", f"wall_s on {_HF} and {_HM} (tiny)"),
    ("analysis.weak_residual", "analysis.weak_residual_s", f"wall_s on {_HF}"),
    ("analysis.sobolev_time_norm", "analysis.sobolev_norm_s", f"wall_s on {_HF}"),
    ("analysis.estimate_check", "analysis.estimate_check_s", f"wall_s on {_HF}"),
    ("analysis.multiplier_identity_residual", "analysis.identity_s", f"wall_s on {_V}"),
    ("analysis.equipartition_residual", "analysis.equipartition_s", f"wall_s on {_V}"),
    ("quadrature.sbp_stiffness", "quadrature.sbp_stiffness_s", f"wall_s on {_V} and {_HF}"),
    ("quadrature.laplacian_5pt", "quadrature.laplacian_5pt_s", f"wall_s on {_HF} (mean pair)"),
    ("mesh.sample_domain", "mesh.sample_domain_s", f"wall_s and peak_rss_mb on {_V}"),
    ("fields.jet_batch", "fields.jet_batch_s", f"wall_s and peak_rss_mb on {_V}"),
    ("geometry.check_conditions", "geometry.check_conditions_s",
     f"wall_s and peak_rss_mb on {_V}"),
    ("geometry.boundary_sign_table", "geometry.boundary_table_s", f"wall_s on {_V}"),
    ("geometry.check_poincare", "geometry.check_poincare_s", f"wall_s and peak_rss_mb on {_V}"),
    ("timefourier.FourierField.sample_real", "timefourier.sample_real_s",
     f"wall_s on {_HF} and {_HM}"),
    ("timefourier.time_transform", "timefourier.time_transform_s", f"wall_s on {_HF}"),
    ("closedform.analytic_mode", "closedform.analytic_mode_s",
     f"wall_s on every workload except the geometry checks of {_V}"),
))

COUNTERS: dict[str, Callable] = {
    "operators.assemble_coupled_mode": _count_assemble,
    "operators.solve_linear": _count_solve,
    "periodic.epsilon_march": _count_march,
    "mesh.sample_domain": _count_samples,
    "fields.jet_batch": _count_jets,
    "geometry.check_poincare": _count_rayleigh,
}

# Counts, with the end-to-end metric each should move. They must repeat
# exactly across the iterations of a run (checked) and across runs.
COUNTS: dict[str, str] = {
    "operators.solves": "wall_s on harmonic-modes and harmonic-fine",
    "operators.dimension": "peak_rss_mb on harmonic-fine",
    "operators.nnz": "peak_rss_mb on harmonic-fine",
    "periodic.march_steps": "wall_s on harmonic-fine only",
    "periodic.march_periods": "wall_s on harmonic-fine only",
    "mesh.interior_samples": "wall_s and peak_rss_mb on verify",
    "fields.jet_points": "wall_s and peak_rss_mb on verify",
    "geometry.rayleigh_iterations": "wall_s on verify",
    "reporting.bytes": "wall_s on harmonic-fine (CSV bytes only; JSON holds timings)",
    "reporting.values": "wall_s on harmonic-fine (CSV cells)",
}

# Derived per-layer figures: (name, unit, what it is).
DERIVED = (
    ("operators.solve_linear_s_per_call", "s", "solve_linear self time / solves"),
    ("periodic.step_us", "us", "march self time / march steps"),
    ("trace.overhead_s", "s", "traced minus untraced wall_s (medians)"),
    ("trace.leftover_s", "s", "untraced wall_s minus the summed span self times"),
)

_REPORTING = ("reporting.write_grid_csv", "reporting.write_csv")


class Tracer:
    """In-memory span recorder; wraps hwp functions while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.csv_paths: list[str] = []
        self.iteration = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(span)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = {"id": len(spans), "parent": stack[-1] if stack else None,
                      "name": span, "iteration": self.iteration}
            spans.append(record)
            stack.append(record["id"])
            record["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            if span in _REPORTING and not any(spans[p]["name"] in _REPORTING
                                              for p in stack):
                self.csv_paths.append(str(args[0]))  # outermost CSV write
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "hwp" or n.startswith("hwp.")) and m is not None]
        for layer in LAYERS:
            module, *path, attr = layer.span.split(".")
            owner = sys.modules["hwp." + module]
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer.span, original)
            if path:  # a method: patch the class attribute
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def begin(self, iteration: int) -> None:
        self.iteration = iteration
        self.counts.clear()
        self.csv_paths.clear()

    def self_times(self, iteration: int) -> dict[str, float]:
        """Self time per span name for one iteration."""
        mine = [s for s in self.spans if s["iteration"] == iteration]
        child = defaultdict(float)
        for s in mine:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in mine:
            out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        return dict(out)
