"""Workload definitions and correctness gates of the hwp benchmark.

A workload is a fixed list of ``hwp`` commands, each a flat ``key = value``
config, run in order through ``hwp.cli.parse_scenario`` and
``hwp.cli.run_scenario``. Every command has a gate that reads the files it
wrote and returns the failures it found, plus the accuracy figures the
report prints.

Each workload has two sizes: ``full`` (what the benchmark measures) and
``smoke`` (tiny grids, for checking that every metric is emitted).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Accuracy gates. The solution-error bound is the acceptance criterion-1
# threshold; the gap ratio is the paper's linear-in-eps claim (halving eps
# halves the gap); the identity bound is loose: the discrete identity's
# relative residual is O(h^2), measured 6e-5 at 385^2 and 5e-4 at 129^2.
MAX_REL_ERROR = 0.02
GAP_RATIO_RANGE = (1.8, 2.2)
MAX_IDENTITY_REL_RESIDUAL = 1e-3
MAX_WEAK_RESIDUAL = 1e-8


@dataclass(frozen=True)
class Command:
    command: str          # hwp command name
    name: str             # scenario name, so outputs are <command>_<name>.*
    full: dict            # config keys at benchmark size
    smoke: dict           # config keys at smoke size
    expect: dict | None = None  # geometry-check: expected verdicts

    def config_text(self, size: str, seed: int) -> str:
        keys = {"name": self.name, **(self.full if size == "full" else self.smoke),
                "seed": seed}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def stem(self) -> str:
        return f"{self.command.replace('-', '_')}_{self.name}"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


def _grid(n: int) -> dict:
    return {"grid.nx": n, "grid.ny_w": n, "grid.ny_h": n}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "harmonic-modes",
        (Command("solve", "modes",
                 {**_grid(81), "modes": 16, "forcing.wave": "mode:2"},
                 {**_grid(33), "modes": 4, "forcing.wave": "mode:2"}),)),
    Workload(
        "harmonic-fine",
        (Command("solve", "fine",
                 {**_grid(161), "modes": 2, "forcing.wave": "mode:2",
                  "check.weak": "true", "check.weak.tests": 5},
                 {**_grid(33), "modes": 2, "forcing.wave": "mode:2",
                  "check.weak": "true", "check.weak.tests": 2}),
         # The damped march rides along as a second check of the solution. On
         # its own it was too unsteady for a workload: wall-time IQR/median
         # 0.2-0.3 over ten runs on a shared 2-vCPU box.
         Command("epsilon-sweep", "march",
                 {**_grid(13), "steps": 256, "epsilons": "0.2,0.1,0.05",
                  "modes": 6, "forcing.wave": "mode:2"},
                 {**_grid(17), "steps": 64, "epsilons": "0.2,0.1,0.05",
                  "modes": 4, "forcing.wave": "mode:2"}))),
    Workload(
        "verify",
        (Command("geometry-check", "spiral",
                 {"domain": "spiral", "field": "spiral:0.2", "resolution": 96},
                 {"domain": "spiral", "field": "spiral:0.2", "resolution": 16},
                 expect={"contractive": True, "generalized_optics": True,
                         "graph_quadratic_form": True, "interface_sign": True}),
         Command("geometry-check", "rect",
                 {"domain": "rectangle", "field": "graph-vertical:2",
                  "poincare": "true", "poincare.nx": 193, "poincare.ny": 193},
                 {"domain": "rectangle", "field": "graph-vertical:2",
                  "poincare": "true", "poincare.nx": 17, "poincare.ny": 17},
                 expect={"contractive": False, "generalized_optics": False,
                         "graph_quadratic_form": True, "interface_sign": True}),
         Command("identity-check", "identity",
                 {**_grid(385), "mode": 2},
                 {**_grid(129), "mode": 2}))),
)}


def _load(out_dir: Path, cmd: Command) -> dict:
    return json.loads((out_dir / f"{cmd.stem()}.json").read_text())


def check_outputs(cmd: Command, out_dir: Path) -> tuple[list[str], dict]:
    """Gate one command's outputs. Returns (failures, accuracy figures)."""
    data = _load(out_dir, cmd)
    failures: list[str] = []
    figures: dict[str, float] = {}
    if cmd.command == "solve":
        rel = float(data["relative_error_vs_analytic"])
        figures["rel_error"] = rel
        if not rel <= MAX_REL_ERROR:
            failures.append(f"rel_error {rel:.3e} > {MAX_REL_ERROR}")
        if "weak_residual" in data:
            weak = float(data["weak_residual"])
            if not weak <= MAX_WEAK_RESIDUAL:
                failures.append(f"weak_residual {weak:.3e} > {MAX_WEAK_RESIDUAL}")
    elif cmd.command == "epsilon-sweep":
        eps, gaps = data["epsilons"], [float(g) for g in data["gaps"]]
        figures["gap_rel"] = gaps[-1]
        lo, hi = GAP_RATIO_RANGE
        for i in range(len(gaps) - 1):
            ratio = gaps[i] / gaps[i + 1] if gaps[i + 1] > 0 else float("inf")
            if abs(eps[i] / eps[i + 1] - 2.0) > 1e-12 or not lo <= ratio <= hi:
                failures.append(f"gap ratio eps={eps[i]}/{eps[i + 1]}: {ratio:.3f} "
                                f"outside [{lo}, {hi}]")
    elif cmd.command == "geometry-check":
        for key, want in cmd.expect.items():
            got = data["verdicts"].get(key)
            if got is not want:
                failures.append(f"{cmd.name}: verdict {key} = {got}, expected {want}")
        if "poincare" in data:
            pc = data["poincare"]
            if pc["converged"] is not True:
                failures.append(f"{cmd.name}: Rayleigh iteration did not converge")
            if not float(pc["rayleigh_min"]) > 0:
                failures.append(f"{cmd.name}: rayleigh_min {pc['rayleigh_min']} <= 0")
    elif cmd.command == "identity-check":
        lhs = abs(float(data["lhs_value"]))
        rel = float(data["residual"]) / lhs if lhs > 0 else float("inf")
        figures["identity_rel_residual"] = rel
        if not rel <= MAX_IDENTITY_REL_RESIDUAL:
            failures.append(f"identity_rel_residual {rel:.3e} > "
                            f"{MAX_IDENTITY_REL_RESIDUAL}")
    return failures, figures
