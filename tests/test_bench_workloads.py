"""Every benchmark workload passes its correctness gates at its smoke size.

bench/workloads.py lists the commands a benchmark run drives and the gates
(``check_outputs``) that read what they wrote; a change that breaks a gate
would otherwise only show in a benchmark run. These tests load that file
without writing into bench/ and run each command through
``hwp.cli.parse_scenario`` and ``hwp.cli.run_scenario``, as the benchmark's
worker does, at the ``smoke`` size.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from hwp.cli import parse_scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_smoke_workload_passes_its_gates(tmp_path, name):
    for cmd in WORKLOADS.WORKLOADS[name].commands:
        scn = parse_scenario(cmd.config_text("smoke", 1), cmd.command, out_dir=str(tmp_path))
        assert run_scenario(scn) == 0, cmd.stem()
        failures, _ = WORKLOADS.check_outputs(cmd, tmp_path)
        assert failures == [], (cmd.stem(), failures)
