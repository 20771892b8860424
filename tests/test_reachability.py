"""Every function in src/hwp runs from a command or a demo.

A fresh interpreter installs a profile hook (``sys.setprofile``) before it
imports ``hwp``, so code that runs at import counts. It then runs every
command at tiny sizes through ``cli.main`` (every forcing kind, every demo
domain, the Poincare and trapezoid checks, ``file:`` forcing) and the demos
in-process, and writes out each code object that ran. The test compares
that set with every ``def`` in src/hwp, found by ``ast``. A function that no
command or demo reaches is deleted, or gets an ``ALLOWLIST`` entry that
says why it stays; an entry that names nothing, or whose function ran,
fails the test too.

Two kinds of class have no ``def`` of their own to see run:

* a dataclass: the run also writes out each dataclass of src/hwp whose
  generated ``__init__`` code ran, so one that nothing builds fails;
* an exception class: ``ast`` checks that src/hwp raises it, or raises a
  class derived from it, somewhere.

Run by hand: ``python tests/test_reachability.py <dir>`` writes the code
objects that ran, and the dataclasses built, to ``<dir>/ran.json``.
"""

import ast
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hwp"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# "<module>.<qualified name>" -> why it stays although no command or demo runs it
ALLOWLIST = {
    "operators.coupled_matrix": "builds ModeOperator.matrix, whose nonzeros "
                                "bench/tracing.py counts",
    "operators.ModeOperator.matrix": "bench/tracing.py reads its nonzero count",
    "quadrature.sbp_stiffness": "bench/tracing.py wraps it as a traced layer",
    "mesh.DomainSamples.interior_points": "every interior point in one array, which "
                                          "bench/tracing.py counts; commands read chunks",
    "mesh.DomainSamples.interior_weights": "every interior weight in one array, for "
                                           "checks against the sampled quadrature",
    "quadrature.laplacian_5pt": "bench/tracing.py wraps it as a traced layer",
    "errors.SolverError.__init__": "runs only when a solve fails",
    "analysis._sup_time_norm": "the sup-in-time norm of the existence estimates of "
                               "estimate_check, which no command runs yet",
    "operators.harmonic_extension_mode": "the extension lemma across the interface, "
                                         "which no command runs yet",
    "operators._interface_functional": "the heat functional of the extension lemma",
    "timefourier.periodic_antiderivative": "the periodic primitive of acceptance criterion 9",
}

_GRID = "grid.nx = 9\ngrid.ny_w = 9\ngrid.ny_h = 9\n"
_COEFFS = "example_gen_gen_g_coeffs.csv"  # written by the first scenario
_DOMAIN_FIELDS = {"arc": "arc", "horn": "horn:0.5", "rectangle": "graph-vertical:2",
                  "shell": "spiral:0.2", "spiral": "spiral:0.2",
                  "trapezoid": "translate:0,0", "triangle": "translate:0,0",
                  "unit-square": "graph-vertical:2"}

SCENARIOS = (
    ("example-gen", "grid.nx = 9\ngrid.ny_w = 9\nmode = 2\nname = gen\n"),
    ("solve", _GRID + "modes = 2\nforcing.heat = smooth:1\ncheck.weak = true\n"
              "name = mode\n"),
    ("solve", _GRID + "modes = 3\nforcing.wave = series:G1:3\nname = series\n"),
    ("solve", _GRID + f"modes = 2\nforcing.wave = file:{_COEFFS}\nname = wave-file\n"),
    ("solve", _GRID + f"modes = 2\nforcing.wave = none\nforcing.heat = file:{_COEFFS}\n"
              "name = heat-file\n"),
    ("epsilon-sweep", _GRID + "modes = 2\nsteps = 8\nepsilons = 0.2,0.1\n"
                      "forcing.heat = smooth:1\nname = sweep\n"),
    *(("geometry-check", f"domain = {domain}\nfield = {field}\nresolution = 8\n"
       f"poincare = {domain in ('rectangle', 'unit-square')}\npoincare.nx = 5\n"
       f"poincare.ny = 5\nname = {domain}\n")
      for domain, field in _DOMAIN_FIELDS.items()),
    ("identity-check", _GRID + "mode = 1\nname = ident\n"),
    ("regularity-scan", "grid.nx = 17\ngrid.ny_w = 9\nrule = G2\ntruncations = 2,4\n"),
)


def _trace(workdir: Path) -> set:
    """The code objects that ran."""
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from hwp.cli import main
        for command, text in SCENARIOS:
            cfg = workdir / "scenario.cfg"
            cfg.write_text(text)
            code = main([command, "--config", str(cfg), "--out", str(workdir)])
            if code:
                raise SystemExit(f"{command} exited {code} on:\n{text}")
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    return ran


def _parsed():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, path.resolve(), ast.parse(path.read_text())


def _defs() -> dict[str, tuple[str, int, str]]:
    """Every def in src/hwp as "<module>.<qualified name>" -> (file, first
    line, name); the first line is the first decorator's, as in the code
    object."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                assert name not in out, f"two defs named {name}"
                out[name] = (str(path), first, child.name)
                visit(child, name, path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for module, path, tree in _parsed():
        visit(tree, module, path)
    return out


def _dataclasses() -> list[str]:
    """Every module-level class of src/hwp decorated with @dataclass or
    @dataclass(...), as "<module>.<class>"."""
    def is_dataclass(decorator):
        name = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(name, ast.Name) and name.id == "dataclass"

    return [f"{module}.{node.name}" for module, _, tree in _parsed() for node in tree.body
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))]


def _exceptions_never_raised() -> list[str]:
    """Exception classes of src/hwp (derived from Exception, directly or
    through another of them) that no raise statement in src/hwp names,
    neither they nor a class derived from them."""
    bases, raised = {}, set()
    for _, _, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)

    def ancestors(name):
        return {name}.union(*(ancestors(b) for b in bases.get(name, ())))

    errors = {name for name in bases if "Exception" in ancestors(name)}
    covered = set().union(*(ancestors(name) for name in raised))
    return sorted(errors - covered)


def test_every_function_runs_from_a_command_or_a_demo(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "ran.json").read_text())
    ran = {tuple(row) for row in record["ran"]}
    defs = _defs()
    never = sorted(n for n, key in defs.items() if key not in ran and n not in ALLOWLIST)
    never += sorted(n for n in _dataclasses()
                    if n not in record["built"] and n not in ALLOWLIST)
    known = set(defs) | set(_dataclasses())
    unknown = sorted(n for n in ALLOWLIST if n not in known)
    stale = sorted(n for n in ALLOWLIST
                   if (n in defs and defs[n] in ran) or n in record["built"])
    assert not never, ("no command or demo runs these; delete them, or give each "
                       f"an ALLOWLIST entry with its reason: {never}")
    assert not unknown, f"ALLOWLIST entries that name no def or dataclass in src/hwp: {unknown}"
    assert not stale, f"ALLOWLIST entries whose function ran; drop them: {stale}"


def test_every_exception_class_is_raised():
    assert _exceptions_never_raised() == [], \
        "exception classes that src/hwp never raises, nor any class derived from them"


if __name__ == "__main__":
    workdir = Path(sys.argv[1])
    ran = _trace(workdir)

    def built(name):
        module, cls = name.split(".")
        return getattr(importlib.import_module(f"hwp.{module}"), cls).__init__.__code__ in ran

    (workdir / "ran.json").write_text(json.dumps({
        "ran": sorted((str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name)
                      for c in ran),
        "built": [name for name in _dataclasses() if built(name)]}))
