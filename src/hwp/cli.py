"""Scenario-driven command line front end.

Usage:
    hwp <command> --config <path> [--out <dir>] [--seed <u64>]

Commands: solve, epsilon-sweep, geometry-check, identity-check,
regularity-scan, example-gen. Configs are flat ``key = value`` text files
(``#`` comments allowed); dotted keys group related settings. All outputs
are written as ``<command>_<name>.json`` plus CSV tables with deterministic
formatting, so identical configs and seeds reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import analysis, closedform, geometry, reporting
from . import quadrature as quadr
from .errors import (AliasingError, AnalysisError, ClosedFormError,
                     ConfigurationError, FieldDomainError, GeometryCheckError,
                     HwpError, MeshError, SolverError)
from .fields import parse_field
from .mesh import DEMO_DOMAINS, build_stacked_rectangles, sample_domain
from .periodic import ModeStream
from .timefourier import (HEAT, WAVE, FourierField, ModeSource, add_mode_samples,
                          hermitian_defect)

COMMANDS = ("solve", "epsilon-sweep", "geometry-check", "identity-check",
            "regularity-scan", "example-gen")

_EXIT_CODES = (
    (ConfigurationError, 2),
    (FileNotFoundError, 3),
    (MeshError, 10),
    (FieldDomainError, 11),
    (GeometryCheckError, 11),
    (SolverError, 12),
    (AliasingError, 13),
    (AnalysisError, 14),
    (ClosedFormError, 15),
)


@dataclass
class _Key:
    typ: str                     # int | float | str | bool | ints | floats
    default: object = None
    required: bool = False
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None


_GRID_KEYS = {
    "grid.nx": _Key("int", 33, lo=3, hi=4097),
    "grid.ny_w": _Key("int", 33, lo=3, hi=4097),
    "grid.ny_h": _Key("int", 33, lo=3, hi=4097),
    "grid.lx": _Key("float", float(np.pi), lo=1e-8),
    "grid.ly_w": _Key("float", 1.0, lo=1e-8),
    "grid.ly_h": _Key("float", 1.0, lo=1e-8),
}

_COMMON_KEYS = {
    "command": _Key("str"),
    "name": _Key("str", "run"),
    "seed": _Key("int", 0, lo=0),
}

_TOL_KEY = {"tol": _Key("float", 1e-10, lo=1e-16, hi=1e-2)}

_FORCING_KEYS = {
    **_TOL_KEY,
    "period": _Key("float", closedform.REFERENCE_PERIOD, lo=1e-8),
    "forcing.wave": _Key("str", "mode:2"),
    "forcing.wave.amplitude": _Key("float", 1.0),
    "forcing.heat": _Key("str", "none"),
    "forcing.heat.amplitude": _Key("float", 1.0),
}

SCHEMAS: dict[str, dict[str, _Key]] = {
    "solve": {**_COMMON_KEYS, **_GRID_KEYS, **_FORCING_KEYS,
              "modes": _Key("int", 16, lo=0, hi=512),
              "check.weak": _Key("bool", False),
              "check.weak.tests": _Key("int", 5, lo=1, hi=100)},
    "epsilon-sweep": {**_COMMON_KEYS, **_GRID_KEYS, **_FORCING_KEYS,
                      "modes": _Key("int", 8, lo=1, hi=128),
                      "epsilons": _Key("floats", (0.2, 0.1, 0.05)),
                      "steps": _Key("int", 512, lo=4, hi=65536)},
    "geometry-check": {**_COMMON_KEYS, **_TOL_KEY,
                       "domain": _Key("str", required=True, choices=DEMO_DOMAINS),
                       "resolution": _Key("int", 32, lo=8, hi=4096),
                       "field": _Key("str", required=True),
                       "poincare": _Key("bool", False),
                       "poincare.nx": _Key("int", 17, lo=5, hi=513),
                       "poincare.ny": _Key("int", 17, lo=5, hi=513)},
    # the closed-form commands fix the box (0, pi) x (0, 1): node counts only
    "identity-check": {**_COMMON_KEYS,
                       **{k: _GRID_KEYS[k] for k in ("grid.nx", "grid.ny_w", "grid.ny_h")},
                       "mode": _Key("int", 2, lo=1, hi=64),
                       "field": _Key("str", "graph-vertical:2")},
    "regularity-scan": {**_COMMON_KEYS,
                        "grid.nx": _Key("int", 129, lo=3, hi=4097),
                        "grid.ny_w": _Key("int", 65, lo=3, hi=4097),
                        "rule": _Key("str", "G1", choices=("G1", "G2")),
                        "truncations": _Key("ints", (8, 64))},
    "example-gen": {**_COMMON_KEYS, **{k: _GRID_KEYS[k] for k in ("grid.nx", "grid.ny_w")},
                    "mode": _Key("int", 2, lo=1, hi=256)},
}


@dataclass
class Scenario:
    command: str
    values: dict = dc_field(default_factory=dict)
    out_dir: str = "."

    def __getitem__(self, key):
        return self.values[key]

    @property
    def name(self) -> str:
        return self.values["name"]

    @property
    def seed(self) -> int:
        return self.values["seed"]


def _convert(key: str, spec: _Key, raw: str):
    try:
        if spec.typ == "int":
            val = int(raw)
        elif spec.typ == "float":
            val = float(raw)
        elif spec.typ == "bool":
            low = raw.strip().lower()
            if low not in ("true", "false", "0", "1", "yes", "no"):
                raise ValueError(f"not a boolean: {raw!r}")
            val = low in ("true", "1", "yes")
        elif spec.typ in ("ints", "floats"):
            parts = raw.split(",")
            if not all(p.strip() for p in parts):
                raise ValueError(f"{raw!r} has an empty entry")
            val = tuple(map(int if spec.typ == "ints" else float, parts))
        else:
            val = raw.strip()
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r}: {exc}") from exc
    if spec.typ in ("float", "floats") and not np.all(np.isfinite(val)):
        raise ConfigurationError(f"key {key!r}: {raw!r} is not a finite number")
    if spec.typ in ("int", "float"):
        if spec.lo is not None and val < spec.lo:
            raise ConfigurationError(
                f"key {key!r}: value {val} below minimum {spec.lo}")
        if spec.hi is not None and val > spec.hi:
            raise ConfigurationError(
                f"key {key!r}: value {val} above maximum {spec.hi}")
    if spec.choices is not None and val not in spec.choices:
        raise ConfigurationError(
            f"key {key!r}: {val!r} not one of {', '.join(map(str, spec.choices))}")
    return val


_FORCING_FORMS = {"forcing.wave": "none | mode:<n> | series:G1|G2[:<N>] | file:<csv>",
                  "forcing.heat": "none | smooth:<k> | file:<csv>"}
# the rectangular demo domains, on which the Poincare check runs, by their side lx
_POINCARE_SIDES = {"unit-square": 1.0, "rectangle": np.pi}


def _positive_int(raw: str) -> int:
    n = int(raw)
    if n < 1:
        raise ValueError(f"{n} < 1")
    return n


def _forcing_spec(key: str, text: str) -> tuple[str, tuple]:
    """Split a forcing.wave / forcing.heat spec into (kind, args).

    Anything but the forms of ``_FORCING_FORMS`` (integers >= 1; series
    terms default to 8) is a ConfigurationError naming the key.
    """
    kind, _, rest = text.partition(":")
    args = rest.split(":")
    try:
        if text == "none":
            return "none", ()
        if kind == "file" and rest:
            return "file", (rest,)
        if key == "forcing.wave" and kind == "mode" and len(args) == 1:
            return "mode", (_positive_int(args[0]),)
        if key == "forcing.wave" and kind == "series" and args[0] in ("G1", "G2") \
                and len(args) <= 2:
            return "series", (args[0], _positive_int(args[1]) if len(args) == 2 else 8)
        if key == "forcing.heat" and kind == "smooth" and len(args) == 1:
            return "smooth", (_positive_int(args[0]),)
    except ValueError:
        pass
    raise ConfigurationError(
        f"key {key!r}: bad forcing spec {text!r}; expected {_FORCING_FORMS[key]}")


def parse_scenario(text: str, command: str, out_dir: str = ".") -> Scenario:
    """Parse and validate a flat key=value config for one command."""
    if command not in SCHEMAS:
        raise ConfigurationError(
            f"unknown command {command!r}; available: {', '.join(COMMANDS)}")
    schema = SCHEMAS[command]
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in schema:
            raise ConfigurationError(
                f"unknown key {key!r} for command {command!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _convert(key, schema[key], raw.strip())
    if values.get("command") not in (None, command):
        raise ConfigurationError(
            f"config says command={values['command']!r} but {command!r} was invoked")
    missing = [k for k, s in schema.items() if s.required and k not in values]
    if missing:
        raise ConfigurationError(
            f"missing required keys for {command!r}: {', '.join(sorted(missing))}")
    for key, spec in schema.items():
        values.setdefault(key, spec.default)
    values["command"] = command

    # forcing and field specs parse, and referenced files exist, before
    # execution starts; the analytic wave families are 2 pi-periodic, live
    # on the reference box and are resolved, and every analytic or smooth
    # forced mode is one the solve computes
    for key in _FORCING_FORMS:
        if key in schema:
            kind, args = _forcing_spec(key, values[key])
            if kind == "file" and not Path(args[0]).is_file():
                raise FileNotFoundError(f"forcing file not found: {args[0]}")
            if kind in ("mode", "series") and values["period"] != closedform.REFERENCE_PERIOD:
                raise ConfigurationError(f"key 'period': {values['period']} is not 2 pi, "
                                         f"the period of {key!r} = {values[key]!r}")
            if kind in ("mode", "series") and not closedform.on_reference_geometry(
                    values["grid.lx"], values["grid.ly_w"]):
                raise ConfigurationError(
                    f"keys 'grid.lx', 'grid.ly_w': {values['grid.lx']:g} x "
                    f"{values['grid.ly_w']:g} is not the box pi x 1 of {key!r} = {values[key]!r}")
            if kind in ("mode", "series", "smooth") and args[-1] > values["modes"]:
                raise ConfigurationError(f"key {key!r}: {values[key]!r} forces mode {args[-1]}, "
                                         f"above 'modes' = {values['modes']}")
            if kind == "series" and args[1] > closedform.max_terms(values["grid.nx"]):
                raise ConfigurationError(
                    f"key {key!r}: {values[key]!r} needs 'grid.nx' >= {2 * args[1] + 1}, "
                    f"got {values['grid.nx']}")
    if "period" in schema and values["period"] != closedform.REFERENCE_PERIOD and all(
            values[key] == "none" for key in _FORCING_FORMS):
        raise ConfigurationError(f"key 'period': {values['period']} is not 2 pi, and only "
                                 f"a file: or smooth: forcing takes another period")
    if "field" in schema:
        try:
            parse_field(values["field"])
        except ConfigurationError as exc:
            raise ConfigurationError(f"key 'field': {exc}") from exc
    if values.get("poincare") and values["domain"] not in _POINCARE_SIDES:
        raise ConfigurationError(
            f"key 'poincare': the Rayleigh-quotient check runs on the rectangular domains "
            f"{', '.join(_POINCARE_SIDES)} only, not 'domain' = {values['domain']!r}")
    if "epsilons" in schema and not all(e > 0 for e in values["epsilons"]):
        raise ConfigurationError(
            f"key 'epsilons': damping shifts must be positive, got {values['epsilons']}")
    truncs = values.get("truncations", ())
    if any(n < 1 for n in truncs) or any(b <= a for a, b in zip(truncs, truncs[1:])):
        raise ConfigurationError(
            f"key 'truncations': need strictly increasing values >= 1, got {truncs}")
    if truncs and truncs[-1] > closedform.max_terms(values["grid.nx"]):
        raise ConfigurationError(
            f"key 'truncations': {truncs[-1]} terms need 'grid.nx' >= {2 * truncs[-1] + 1}, "
            f"got {values['grid.nx']}")
    if "steps" in schema and values["modes"] > (values["steps"] - 1) // 2:
        raise ConfigurationError(
            f"key 'modes': {values['modes']} modes need at least "
            f"{2 * values['modes'] + 1} 'steps' per period, got {values['steps']}")
    return Scenario(command=command, values=values, out_dir=out_dir)


# ---------------------------------------------------------------------------
# Forcing construction
# ---------------------------------------------------------------------------

# A coefficient file describes a real forcing, so c_{-k} = conj(c_k). Files
# written with %.17g round-trip exactly; the tolerance on the file's
# hermitian_defect (relative to the largest coefficient) only forgives
# round-off from other writers. The source then serves the modes k >= 0.
HERMITIAN_TOL = 1e-12


def _load_coefficient_file(path: str, period: float, shape, domain: str,
                           modes: int) -> ModeSource:
    """The file's forcing as a source over its validated modes k >= 0; a
    malformed file is a ConfigurationError naming it. np.loadtxt parses the
    rows below the header line into one float block, the columns it names."""
    with open(path) as fh:
        header = next((line for line in fh if line.strip()), None)
        if header is None:
            raise ConfigurationError(f"coefficient file {path} is empty; expected the "
                                     f"header k,j,i,re,im")
        names = [name.strip() for name in header.split(",")]
        with warnings.catch_warnings():  # a file with the header only has no rows
            warnings.simplefilter("ignore", UserWarning)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:  # rows of unequal length, or a cell that is no number
                raise ConfigurationError(
                    f"coefficient file {path}: {str(exc).split(';')[0]}") from exc
    if data.size and data.shape[1] != len(names):
        raise ConfigurationError(f"coefficient file {path}: rows do not match the header "
                                 f"(got {data.shape[1]} columns instead of {len(names)})")
    cols = {}
    for key in ("k", "j", "i", "re", "im"):
        if key not in names:
            raise ConfigurationError(f"coefficient file {path}: column {key} is missing")
        cols[key] = col = data[:, names.index(key)] if data.size else np.zeros(0)
        integer = key in ("k", "j", "i")
        bad = ~np.isfinite(col) | (integer & (col != np.round(col)))
        if np.any(bad):
            kind = "an integer" if integer else "a finite number"
            raise ConfigurationError(
                f"coefficient file {path}: column {key} value {col[bad][0]:g} "
                f"is not {kind}")
    for name, key, bad, what in (
            ("index", "j", (cols["j"] < 0) | (cols["j"] >= shape[0]), f"outside 0..{shape[0] - 1}"),
            ("index", "i", (cols["i"] < 0) | (cols["i"] >= shape[1]), f"outside 0..{shape[1] - 1}"),
            ("mode", "k", np.abs(cols["k"]) > modes, f"is above modes = {modes}")):
        if np.any(bad):
            raise ConfigurationError(f"coefficient file {path}: {name} {key} = "
                                     f"{cols[key][bad][0]:g} {what}")
    ks, j, i = (cols[key].astype(int) for key in ("k", "j", "i"))
    n = int(np.max(np.abs(ks))) if len(ks) else 0
    cells = np.ravel_multi_index((ks + n, j, i), (2 * n + 1,) + tuple(shape))
    _, first = np.unique(cells, return_index=True)
    if len(first) < len(cells):
        row = np.setdiff1d(np.arange(len(cells)), first)[0]
        raise ConfigurationError(f"coefficient file {path}: the row (k, j, i) = "
                                 f"({ks[row]}, {j[row]}, {i[row]}) is repeated")
    coeffs = np.zeros((2 * n + 1,) + tuple(shape), dtype=complex)
    coeffs.reshape(-1)[cells] += cols["re"] + 1j * cols["im"]  # 0 + v: a -0 cell reads as +0
    defect = hermitian_defect(coeffs)
    if defect > HERMITIAN_TOL:
        raise ConfigurationError(
            f"coefficient file {path}: not a real forcing, c(-k) != conj(c(k)) "
            f"(relative defect {defect:.3e} > {HERMITIAN_TOL:.0e})")
    return ModeSource(period, n, tuple(shape), domain, coeffs[n:].copy().__getitem__)


def _wave_forcing(scn: Scenario, grid) -> tuple[ModeSource | None, ModeSource | None, dict]:
    """The wave forcing g and, for mode:<n>, its closed-form solution, as
    sources; analytic forcing builds each mode when a solve asks for it."""
    text = scn["forcing.wave"]
    amp = scn["forcing.wave.amplitude"]
    meta = {"spec": text, "amplitude": amp}
    kind, args = _forcing_spec("forcing.wave", text)
    if kind == "none":
        return None, None, meta
    if kind == "mode":
        g, w_ref = closedform.analytic_sources(args[0], grid)
        meta["analytic_mode"] = args[0]
        return g.scaled(amp), w_ref.scaled(amp), meta
    if kind == "series":
        g, _ = closedform.series_sources(closedform.series_rule(args[0]), args[1], grid)
        return g.scaled(amp), None, meta
    return _load_coefficient_file(args[0], scn["period"], (grid.ny_w, grid.nx),
                                  WAVE, scn["modes"]).scaled(amp), None, meta


def _smooth_heat_source(grid, period: float, k: int, amplitude: float) -> ModeSource:
    """amplitude cos(k w t) * sin(pi x / Lx) * (1 + y / Ly_h) on the heat
    subdomain; the amplitude is built into mode k, so the zero modes stay +0."""
    if k < 1:
        raise ConfigurationError(f"smooth heat forcing needs k >= 1, got {k}")
    shape = np.sin(np.pi * grid.x / grid.lx)[None, :] * (1.0 + grid.y_h / grid.ly_h)[:, None]
    return ModeSource(period, k, (grid.ny_h, grid.nx), HEAT, {k: 0.5 * amplitude * shape}.get)


def smooth_heat_forcing(grid, period: float, k: int = 1,
                        amplitude: float = 1.0) -> FourierField:
    """The smooth heat forcing with every mode built (_smooth_heat_source)."""
    return _smooth_heat_source(grid, period, k, amplitude).stored()


def _heat_forcing(scn: Scenario, grid) -> tuple[ModeSource | None, dict]:
    text = scn["forcing.heat"]
    amp = scn["forcing.heat.amplitude"]
    meta = {"spec": text, "amplitude": amp}
    kind, args = _forcing_spec("forcing.heat", text)
    if kind == "none":
        return None, meta
    if kind == "smooth":
        return _smooth_heat_source(grid, scn["period"], args[0], amp), meta
    return _load_coefficient_file(args[0], scn["period"], (grid.ny_h, grid.nx),
                                  HEAT, scn["modes"]).scaled(amp), meta


def _build_grid(scn: Scenario):
    return build_stacked_rectangles(
        scn["grid.lx"], scn["grid.ly_w"], scn["grid.ly_h"],
        scn["grid.nx"], scn["grid.ny_w"], scn["grid.ny_h"])


def _reference_grid(scn: Scenario):
    """The closed-form families' box (0, pi) x (0, 1) at the scenario's nodes;
    the heat box, which no closed-form command reads, has 3 rows by default."""
    return build_stacked_rectangles(np.pi, 1.0, 1.0, scn["grid.nx"], scn["grid.ny_w"],
                                    scn.values.get("grid.ny_h", 3))


def _out(scn: Scenario, suffix: str) -> str:
    stem = f"{scn.command.replace('-', '_')}_{scn.name}"
    return str(Path(scn.out_dir) / f"{stem}{suffix}")


def _phase(msg: str) -> None:
    print(f"[hwp] {msg}")


# ---------------------------------------------------------------------------
# Command runners
# ---------------------------------------------------------------------------

def _run_solve(scn: Scenario) -> dict:
    grid = _build_grid(scn)
    g, w_ref, meta_w = _wave_forcing(scn, grid)
    f, meta_h = _heat_forcing(scn, grid)
    _phase(f"solving {scn['modes']} modes on {grid.nx}x{grid.ny_w}+{grid.ny_h} grid")
    stream = ModeStream(grid, f, g, scn["modes"], tol=scn["tol"])
    n, period = stream.n_modes, stream.period
    error = w_ref is not None and f is None
    mass_w = quadr.trap_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    mass_h = quadr.trap_mass(grid.ny_h, grid.nx, grid.hx, grid.hy_h)
    # squared norms of each mode as it arrives: u l2, w l2, w h1, then
    # w - w_ref and w_ref in l2 when the error is reported
    sq = np.zeros((5 if error else 3, n + 1))
    times = np.arange(8) * period / 8.0
    snaps = {"w": np.zeros((8, grid.ny_w, grid.nx)), "u": np.zeros((8, grid.ny_h, grid.nx))}
    weak = (analysis.WeakCheck(grid, period, scn["check.weak.tests"], scn.seed)
            if scn["check.weak"] else None)
    residuals: dict[int, float] = {}
    for k, w_k, u_k, residual in stream:
        residuals[k] = residual
        sq[:3, k] = (quadr.norm_sq(mass_h, u_k), quadr.norm_sq(mass_w, w_k),
                     quadr.gradient_energy(w_k, grid.hx, grid.hy_w))
        if error:
            ref_k = w_ref.mode(k)
            sq[3:, k] = quadr.norm_sq(mass_w, w_k - ref_k), quadr.norm_sq(mass_w, ref_k)
        add_mode_samples(snaps["w"], times, period, k, w_k)
        add_mode_samples(snaps["u"], times, period, k, u_k)
        if weak is not None:
            weak.add(k, w_k, u_k, f, g)

    # rows k = -N..N from the modes k >= 0: mode -k, the conjugate of mode k,
    # has its norms
    ks = np.arange(-n, n + 1)
    u_norm, w_norm = np.sqrt(sq[0]), np.sqrt(sq[1])
    residual = np.array([residuals[k] for k in range(n + 1)])
    reporting.write_csv(_out(scn, "_modes.csv"), ["k", "u_norm", "w_norm", "residual"],
                        [ks, u_norm[abs(ks)], w_norm[abs(ks)], residual[abs(ks)]])
    for name in ("w", "u"):
        for j, snap in enumerate(snaps.pop(name)):  # freed once written
            reporting.write_grid_csv(_out(scn, f"_{name}_t{j}.csv"), snap)

    omega = 2.0 * np.pi / period
    max_residual = max(residuals.values())
    summary = {
        "grid": {"nx": grid.nx, "ny_w": grid.ny_w, "ny_h": grid.ny_h,
                 "lx": grid.lx, "ly_w": grid.ly_w, "ly_h": grid.ly_h},
        "period": period,
        "modes": scn["modes"],
        "forcing": {"wave": meta_w, "heat": meta_h},
        "max_residual": max_residual,
        "norms": {name: analysis.plancherel_norm(row, 0, omega)
                  for name, row in zip(("u_l2", "w_l2", "w_h1"), sq)},
        "seed": scn.seed,
    }
    if error:
        ref_norm = analysis.plancherel_norm(sq[4, :w_ref.n_modes + 1], 0, omega)
        rel = analysis.plancherel_norm(sq[3], 0, omega) / max(ref_norm, 1e-300)
        summary["relative_error_vs_analytic"] = rel
        _phase(f"relative error vs analytic solution: {rel:.3e}")
    if weak is not None:
        summary["weak_residual"] = weak.residual()
    reporting.write_json(_out(scn, ".json"), summary)
    _phase(f"max mode residual {max_residual:.3e}, wrote {_out(scn, '.json')}")
    return summary


def _run_epsilon_sweep(scn: Scenario) -> dict:
    grid = _build_grid(scn)
    g, _, meta_w = _wave_forcing(scn, grid)
    f, meta_h = _heat_forcing(scn, grid)
    epsilons, modes = scn["epsilons"], scn["modes"]
    # the undamped reference and, per eps, the periodic orbit of the
    # trapezoidal march with `steps` steps, streamed in lockstep
    reference = ModeStream(grid, f, g, modes, tol=scn["tol"])
    orbits = [ModeStream(grid, f, g, modes, tol=scn["tol"], eps=eps, n_steps=scn["steps"])
              for eps in epsilons]
    _phase(f"reference harmonic solve and {len(epsilons)} damped orbits, in lockstep")
    mass_w = quadr.trap_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    mass_h = quadr.trap_mass(grid.ny_h, grid.nx, grid.hx, grid.hy_h)
    # per mode |w_ref|^2 and, per eps, |w - w_ref|^2, the damped-energy terms
    # |u|^2_H1, |u|^2 and |w|^2, and the residual
    ref_sq, per_mode = np.zeros(modes + 1), np.zeros((len(epsilons), 5, modes + 1))
    for (k, w_ref, _, _), *damped in zip(reference, *orbits):
        ref_sq[k] = quadr.norm_sq(mass_w, w_ref)
        for sq, (_, w_k, u_k, residual) in zip(per_mode, damped):
            sq[:, k] = (quadr.norm_sq(mass_w, w_k - w_ref),
                        quadr.gradient_energy(u_k, grid.hx, grid.hy_h),
                        quadr.norm_sq(mass_h, u_k), quadr.norm_sq(mass_w, w_k), residual)
    omega = 2.0 * np.pi / reference.period
    w_ref_norm = max(analysis.plancherel_norm(ref_sq, 0, omega), 1e-300)
    # the forcing's norms do not depend on eps
    forcing = [analysis._spatial_norm_sq(x, grid, flavor)
               for x, flavor in ((f, "dual"), (g, "l2"))]
    gaps = [analysis.plancherel_norm(sq[0], 0, omega) / w_ref_norm for sq in per_mode]
    ratios = [analysis.damped_energy(eps, omega, *sq[1:4], *forcing)["ratio"]
              for eps, sq in zip(epsilons, per_mode)]
    for eps, gap in zip(epsilons, gaps):
        _phase(f"eps={eps:g}: gap {gap:.3e}")
    reporting.write_csv(_out(scn, ".csv"),
                        ["epsilon", "dt", "gap_rel", "damped_energy_ratio", "max_residual"],
                        [epsilons, [orbit.dt for orbit in orbits], gaps, ratios,
                         per_mode[:, 4].max(axis=1)])
    summary = {
        "epsilons": list(epsilons),
        "gaps": gaps,
        "damped_energy_ratios": ratios,
        "forcing": {"wave": meta_w, "heat": meta_h},
        "steps": scn["steps"],
        "seed": scn.seed,
    }
    reporting.write_json(_out(scn, ".json"), summary)
    return summary


def _run_geometry_check(scn: Scenario) -> dict:
    spec = parse_field(scn["field"])
    _phase(f"sampling domain {scn['domain']} at resolution {scn['resolution']}")
    samples = sample_domain(scn["domain"], scn["resolution"])
    report = geometry.check_conditions(spec, samples, tol=scn["tol"])
    payload = report.as_dict()
    reporting.write_csv(_out(scn, "_boundary.csv"),
                        ["x", "y", "nx", "ny", "tag", "b_dot_n"],
                        geometry.boundary_sign_table(report, samples))
    if scn["domain"] == "trapezoid":
        obs = geometry.trapezoid_obstruction(spec, scn["resolution"], tol=scn["tol"])
        payload["trapezoid_obstruction"] = obs.as_dict()
        _phase(f"trapezoid counting identity mismatch {obs.mismatch:.3e}, "
               f"{len(obs.sign_violations)} sign violations")
    if scn["poincare"]:
        grid = build_stacked_rectangles(_POINCARE_SIDES[scn["domain"]], 1.0, 1.0,
                                        scn["poincare.nx"], scn["poincare.ny"], 3)
        pc = geometry.check_poincare(spec, grid)
        payload["poincare"] = {"rayleigh_min": pc.rayleigh_min,
                               "iterations": pc.iterations,
                               "converged": pc.converged,
                               "negative_eigenvalues": pc.negative_eigenvalues}
        _phase(f"rayleigh_min = {pc.rayleigh_min:.6e} in {pc.iterations} iterations")
    reporting.write_json(_out(scn, ".json"), payload)
    _phase(f"verdicts: {report.verdicts}")
    return payload


def _run_identity_check(scn: Scenario) -> dict:
    grid = _reference_grid(scn)
    spec = parse_field(scn["field"])
    n = scn["mode"]
    g, w = closedform.analytic_sources(n, grid)
    _phase(f"flow-multiplier identity for analytic mode {n}, field {spec.describe()}")
    report = analysis.multiplier_identity_residual(w, g, None, None, spec, grid)
    payload = report.as_dict()
    payload["mode"] = n
    payload["field"] = spec.describe()
    payload["equipartition_residual"] = analysis.equipartition_residual(w, g, grid)
    names = sorted(report.terms)
    reporting.write_csv(_out(scn, "_terms.csv"), ["term", "value"],
                        [names, [report.terms[t] for t in names]])
    reporting.write_json(_out(scn, ".json"), payload)
    _phase(f"identity residual {report.residual:.3e} "
           f"(lhs {report.lhs_value:.6e}, rhs {report.rhs_value:.6e})")
    return payload


def _run_regularity_scan(scn: Scenario) -> dict:
    grid = _reference_grid(scn)
    rule = closedform.series_rule(scn["rule"])
    _phase(f"scan rule {rule.tag}, truncations {scn['truncations']}")
    result = analysis.regularity_scan(rule, scn["truncations"], grid)
    reporting.write_csv(_out(scn, ".csv"), ["n_terms", "s0", "s1", "grad_norm"],
                        list(zip(*result["rows"])))
    reporting.write_json(_out(scn, ".json"),
                         {"rule": result["rule"], "verdicts": result["verdicts"],
                          "seed": scn.seed})
    _phase(f"verdicts: {result['verdicts']}")
    return result


def _run_example_gen(scn: Scenario) -> dict:
    grid = _reference_grid(scn)
    n = scn["mode"]
    g, w = closedform.analytic_mode(n, grid)
    amp_g, amp_w = closedform.mode_amplitudes(n, grid)
    c = np.stack([-0.5j * amp_g, 0.5j * amp_g])  # the modes k = +-n of sin(n t) A_g
    m, j, i = np.nonzero(c)  # row-major: the nodes of k = n, then of k = -n
    reporting.write_csv(_out(scn, "_g_coeffs.csv"), ["k", "j", "i", "re", "im"],
                        [np.array([n, -n])[m], j, i, c[m, j, i].real, c[m, j, i].imag])
    reporting.write_grid_csv(_out(scn, "_w_amplitude.csv"), amp_w)
    payload = {
        "mode": n,
        "w_l2": analysis.sobolev_time_norm(w, 0, grid, "l2"),
        "w_h1": analysis.sobolev_time_norm(w, 0, grid, "h1"),
        "g_l2": analysis.sobolev_time_norm(g, 0, grid, "l2"),
        "seed": scn.seed,
    }
    reporting.write_json(_out(scn, ".json"), payload)
    _phase(f"wrote analytic mode {n} data")
    return payload


_RUNNERS = {
    "solve": _run_solve,
    "epsilon-sweep": _run_epsilon_sweep,
    "geometry-check": _run_geometry_check,
    "identity-check": _run_identity_check,
    "regularity-scan": _run_regularity_scan,
    "example-gen": _run_example_gen,
}


def run_scenario(scn: Scenario) -> int:
    """Execute a parsed scenario; returns the process exit status."""
    error_path = _out(scn, "_error.json")
    try:
        Path(scn.out_dir).mkdir(parents=True, exist_ok=True)
        _RUNNERS[scn.command](scn)
        Path(error_path).unlink(missing_ok=True)  # left by an earlier failed run
        return 0
    except Exception as exc:  # mapped to per-module exit codes below
        code = 1
        for klass, c in _EXIT_CODES:
            if isinstance(exc, klass):
                code = c
                break
        record = {"error_type": type(exc).__name__, "message": str(exc),
                  "exit_code": code}
        if isinstance(exc, SolverError):
            record["residual"] = exc.residual
            record["history"] = exc.history
        try:
            reporting.write_json(error_path, record)
        except OSError:
            pass
        print(f"[hwp] error ({type(exc).__name__}): {exc}", file=sys.stderr)
        if not isinstance(exc, (HwpError, FileNotFoundError)):
            raise
        return code
    finally:  # the CSV formatter's workspace lives for one command
        reporting._workspace.cache_clear()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hwp",
        description="Periodic heat-wave solver and verifier scenarios.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"[hwp] cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        scn = parse_scenario(text, args.command, out_dir=args.out)
        if args.seed is not None:
            scn.values["seed"] = _convert("seed", SCHEMAS[args.command]["seed"],
                                          str(args.seed))
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"[hwp] config error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 3
    return run_scenario(scn)


if __name__ == "__main__":
    sys.exit(main())
