"""The names the benchmark tracer wraps or reads exist in the package.

bench/tracing.py patches hwp functions by dotted name when a run is traced
(``bench/run.py --trace 1``); a deleted or renamed function would only show
there. These tests read the tracer's tables and run its counters on a
small solve; they edit nothing under bench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import hwp
import hwp.cli  # noqa: F401  (the tracer wraps names in every hwp module)

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


TRACING = _load_tracing()
SPANS = sorted({layer.span for layer in TRACING.LAYERS} | set(TRACING.COUNTERS))


@pytest.mark.parametrize("span", SPANS)
def test_traced_span_resolves(span):
    module, *path = span.split(".")
    owner = importlib.import_module("hwp." + module)
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner)


def test_counted_mode_operator_exposes_matrix():
    # the assemble counter reads op.dimension and op.matrix.nnz; at 81^2,
    # k = 1 the count is the operators.nnz harmonic-modes reports
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 5, 5, 5)
    op = hwp.assemble_coupled_mode(grid, 1, 2 * np.pi)
    assert op.matrix.shape == (op.dimension, op.dimension)
    assert op.matrix.nnz > 0
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 81, 81, 81)
    assert hwp.assemble_coupled_mode(grid, 1, 2 * np.pi).matrix.nnz == 62331


def test_tracer_counts_a_solve(tmp_path):
    # install the tracer, run a 9^2 solve through the cli, and read the
    # counters a traced benchmark run reports: mode 2, the one mode of the
    # forcing with data, is one solve of 105 unknowns, 483 nonzeros (as at
    # every k >= 1); the mean pair and mode 1 have no data and no solve
    original = hwp.operators.solve_linear
    tracer = TRACING.Tracer()
    scn = hwp.cli.parse_scenario(
        "name = traced\ngrid.nx = 9\ngrid.ny_w = 9\ngrid.ny_h = 9\n"
        "modes = 2\nforcing.wave = mode:2\n", "solve", out_dir=str(tmp_path))
    tracer.install()
    try:
        code = hwp.cli.run_scenario(scn)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["operators.solves"] == 1
    assert tracer.counts["operators.dimension"] == 105
    assert tracer.counts["operators.nnz"] == 483
    assert hwp.operators.solve_linear is original


def test_public_names_exist():
    assert [name for name in hwp.__all__ if not hasattr(hwp, name)] == []
