"""One benchmark workload in one fresh process.

Started by ``bench/run.py``; not meant to be run by hand. It imports
``hwp`` from ``<root>/src``, parses the workload's scenarios (the set-up
time), then runs the workload as a closed loop, one command at a time,
until ``--seconds`` have passed (at least ``MIN_ITERATIONS`` iterations).
With ``--trace 1`` untraced and traced iterations alternate, so the
tracing overhead is measured in the same process. With ``--probe`` it
stops after set-up. The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up starts before any heavy import

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

from tracing import COUNTS, Tracer
from workloads import WORKLOADS, check_outputs

MIN_ITERATIONS = 3        # untraced iterations (and traced ones with --trace 1)
HARD_LIMIT_S = 150.0      # stop starting iterations after this, whatever --seconds says
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "HWP_THREADS")


def _import_hwp(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import hwp.cli
    if not Path(hwp.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"hwp was imported from {hwp.cli.__file__}, not {src}")
    return hwp.cli


def _clear_caches() -> None:
    """Empty every functools cache in hwp, so each iteration pays what a
    fresh ``hwp`` process pays."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hwp" or name.startswith("hwp.")):
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _csv_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def _csv_volume(paths: list[str]) -> tuple[int, int]:
    """Bytes and data cells of the CSV files written (header row excluded)."""
    n_bytes = n_values = 0
    for path in paths:
        data = Path(path).read_bytes()
        header, _, body = data.partition(b"\n")
        n_bytes += len(data)
        cols = header.count(b",") + 1
        n_values += body.count(b"\n") * cols
    return n_bytes, n_values


def _environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hwp": sys.modules["hwp"].__version__,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def run(args) -> dict:
    root = Path(args.root)
    workload = WORKLOADS[args.workload]
    cli = _import_hwp(root)
    for cmd in workload.commands:  # validate every scenario before any work
        cli.parse_scenario(cmd.config_text(args.size, args.seed), cmd.command)
    setup_s = time.perf_counter() - _T_START
    result = {"setup_s": setup_s}
    if args.probe:
        return result

    out = Path(args.out)
    tracer = Tracer()
    iterations: list[dict] = []
    first_hashes: dict[str, str] | None = None
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        index = len(iterations)
        shutil.rmtree(out, ignore_errors=True)
        _clear_caches()
        if traced:
            tracer.install()
            tracer.begin(index)
        gc.collect()
        records = []
        t0 = time.perf_counter()
        for cmd in workload.commands:
            c0 = time.perf_counter()
            try:
                scn = cli.parse_scenario(cmd.config_text(args.size, args.seed),
                                         cmd.command, out_dir=str(out))
                rc = cli.run_scenario(scn)
                failures = [] if rc == 0 else [f"{cmd.stem()}: exit code {rc}"]
            except Exception as exc:  # a crashing command is a failed attempt
                rc, failures = 1, [f"{cmd.stem()}: {type(exc).__name__}: {exc}"]
            records.append({"stem": cmd.stem(), "rc": rc, "failures": failures,
                            "seconds": time.perf_counter() - c0, "figures": {}})
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()

        # gates, outside the timed region
        for cmd, rec in zip(workload.commands, records):
            if rec["rc"] != 0:
                continue
            try:
                failures, figures = check_outputs(cmd, out)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                failures, figures = [f"{cmd.stem()}: unreadable output: {exc}"], {}
            rec["failures"] += failures
            rec["figures"] = figures
        hashes = _csv_hashes(out)
        if first_hashes is None:
            first_hashes = hashes
        for name in sorted(set(hashes) | set(first_hashes)):
            if hashes.get(name) != first_hashes.get(name):
                rec = next((r for r in records if name.startswith(r["stem"])), records[0])
                rec["failures"].append(f"{name}: bytes differ from iteration 0")
        it = {"index": index, "traced": traced, "wall_s": wall, "commands": records,
              "hashes": hashes}
        if traced:
            it["self_s"] = tracer.self_times(index)
            counts = {k: tracer.counts.get(k, 0) for k in COUNTS}
            counts["reporting.bytes"], counts["reporting.values"] = \
                _csv_volume(tracer.csv_paths)
            it["counts"] = counts
        iterations.append(it)

        now = time.perf_counter()
        n_untraced = sum(not i["traced"] for i in iterations)
        n_traced = len(iterations) - n_untraced
        enough = n_untraced >= MIN_ITERATIONS and (not args.trace
                                                   or n_traced >= MIN_ITERATIONS)
        typical = statistics.median(i["wall_s"] for i in iterations)
        if now - loop_start > HARD_LIMIT_S or (enough and now + typical > deadline):
            break

    result.update({
        "loop_s": time.perf_counter() - loop_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": iterations,
        "env": _environment(),
    })
    if args.trace:
        result["spans"] = tracer.spans
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", required=True, help="scratch directory for hwp outputs")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args()
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
