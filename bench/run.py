"""hwp benchmark: whole ``hwp`` commands, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload harmonic-modes --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --smoke

Each run starts ``PROBES`` set-up probes and then one worker process
(``bench/worker.py``) for the workload, one after the other, so that
set-up time and peak memory are measured in fresh processes and no
workload's memory leaks into another's figure. The worker drives the
commands in-process through ``hwp.cli.parse_scenario`` and
``hwp.cli.run_scenario`` in a closed loop (one client, one command at a
time), with ``HWP_THREADS`` unset. The seed is passed as the scenario
``seed``.

The report lists every metric by name with its unit and sample count;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``). A command fails when it exits nonzero, when a correctness
gate in ``workloads.py`` rejects its output, when a CSV it writes differs
in bytes from an earlier iteration or an earlier run of the same source,
or when a per-layer count differs between iterations or from an earlier
traced run of the same source.

``--smoke`` runs every workload at tiny grids, traced and untraced, and
checks that every metric named in ``BENCHMARK.json`` is emitted. Worker
logs and per-run result files (with the environment and, for traced runs,
every span) go to ``.bench_out/``; the hwp outputs of a run are deleted
once they have been checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNTS, DERIVED, LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PROBES = 4                # set-up probes per run, besides the worker's own set-up
RUN_BUDGET_S = 170.0      # a run must end within this, whatever happens
ACCURACY = ("rel_error", "gap_rel", "identity_rel_residual")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values) -> str:
    """Highest common percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.6g} ({n - sum(v <= q for v in values)} beyond)"
    return f"no percentile has 10 samples beyond it (n={n})"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    # Read .git directly: `git rev-parse` would name an enclosing repository
    # when the checkout itself is not one.
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _spawn(args: list[str], log: Path, budget_end: float) -> None:
    env = {k: v for k, v in os.environ.items() if k != "HWP_THREADS"}
    timeout = budget_end - time.monotonic()
    if timeout <= 1:
        raise BenchError("run budget exhausted before the worker could start")
    with open(log, "a") as out:
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                                  stdout=out, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
            raise BenchError(f"worker timed out after {timeout:.0f} s; see {log}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}; see {log}")


def _benchmark_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {"end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]], "units": units,
            "why": {w["name"]: w["why"] for w in spec["workloads"]},
            "run_seconds": spec["run_seconds"]}


def _check_repeats(workload: str, size: str, section: str, values: dict) -> list[str]:
    """Names whose value differs from the one an earlier run of the same
    source and configs stored. The seed changes neither CSVs nor counts."""
    store = OUT / "repeats.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    configs = "".join(c.command + c.config_text(size, 0) for c in WORKLOADS[workload].commands)
    key = (f"{section}:{workload}:{size}:{_source_digest()}:"
           f"{hashlib.sha256(configs.encode()).hexdigest()[:16]}")
    earlier = known.get(key)
    if earlier is None:
        known[key] = values
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)
        return []
    return sorted(n for n in set(values) | set(earlier) if values.get(n) != earlier.get(n))


def _per_layer(iterations: list[dict]) -> tuple[dict, list[str]]:
    plain = [i for i in iterations if not i["traced"]]
    traced = [i for i in iterations if i["traced"]]
    values = {layer.metric: _median([i["self_s"].get(layer.span, 0.0) for i in traced])
              for layer in LAYERS}
    counts = traced[0]["counts"]
    problems = [f"count {k} changed between iterations: {counts[k]} vs {i['counts'][k]}"
                for i in traced[1:] for k in COUNTS if i["counts"][k] != counts[k]]
    values.update({k: counts[k] for k in COUNTS})
    solves, steps = counts["operators.solves"], counts["periodic.march_steps"]
    values["operators.solve_linear_s_per_call"] = (
        values["operators.solve_linear_s"] / solves if solves else 0.0)
    values["periodic.step_us"] = values["periodic.march_s"] / steps * 1e6 if steps else 0.0
    wall_plain = _median([i["wall_s"] for i in plain])
    values["trace.overhead_s"] = _median([i["wall_s"] for i in traced]) - wall_plain
    values["trace.leftover_s"] = wall_plain - _median(
        [sum(i["self_s"].values()) for i in traced])
    return values, problems


def _span_tree(spans: list[dict], iteration: int) -> list[str]:
    """Spans of one traced iteration, merged by call path."""
    mine = [s for s in spans if s["iteration"] == iteration]
    by_id = {s["id"]: s for s in mine}
    paths: dict[tuple, list[float]] = {}
    child_time: dict[int, float] = {}
    for s in mine:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    for s in mine:
        path, p = [s["name"]], s["parent"]
        while p is not None:
            path.append(by_id[p]["name"])
            p = by_id[p]["parent"]
        agg = paths.setdefault(tuple(reversed(path)), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += s["end"] - s["start"]
        agg[2] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
    lines = [f"  {'span (indented under its parent)':<58} {'calls':>6} "
             f"{'total_s':>9} {'self_s':>9}"]
    for path in sorted(paths):
        calls, total, self_s = paths[path]
        lines.append(f"  {'  ' * (len(path) - 1) + path[-1]:<58} {calls:>6} "
                     f"{total:>9.4f} {self_s:>9.4f}")
    return lines


def run_once(workload: str, seed: int, seconds: float, trace: int, size: str,
             spec: dict) -> dict:
    started = time.monotonic()
    budget_end = started + RUN_BUDGET_S
    tag = f"{workload}-{size}-seed{seed}-trace{trace}"
    work = OUT / "work" / tag
    work.mkdir(parents=True, exist_ok=True)
    log = work / "worker.log"
    log.write_text("")
    common = ["--root", str(ROOT), "--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace), "--size", size,
              "--out", str(work / "out")]
    setups = []
    for k in range(PROBES):
        probe = work / f"probe{k}.json"
        _spawn([*common, "--probe", "--result", str(probe)], log, budget_end)
        setups.append(json.loads(probe.read_text())["setup_s"])
    result_path = work / "worker.json"
    _spawn([*common, "--result", str(result_path)], log, budget_end)
    res = json.loads(result_path.read_text())
    shutil.rmtree(work / "out", ignore_errors=True)  # checked already; up to 10 MB a run
    setups.append(res["setup_s"])
    its = res["iterations"]

    for name in _check_repeats(workload, size, "csv", its[0]["hashes"]):
        rec = next((c for c in its[0]["commands"] if name.startswith(c["stem"])),
                   its[0]["commands"][0])
        rec["failures"].append(f"{name}: bytes differ from an earlier run of this source")
    layer_values = {}
    if trace:
        layer_values, problems = _per_layer(its)
        counts = {k: layer_values[k] for k in COUNTS}
        problems += [f"count {k} differs from an earlier run of this source"
                     for k in _check_repeats(workload, size, "counts", counts)]
        first_traced = next(i for i in its if i["traced"])
        first_traced["commands"][0]["failures"].extend(problems)

    commands = [c for i in its for c in i["commands"]]
    attempted = len(commands)
    failed = sum(1 for c in commands if c["failures"])
    walls = [i["wall_s"] for i in its if not i["traced"]]
    e2e = {"wall_s": _median(walls), "setup_s": _median(setups),
           "peak_rss_mb": res["peak_rss_mb"], "fail_ratio": failed / attempted}
    samples = {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": 1,
               "fail_ratio": attempted}
    for name in ACCURACY:
        vals = [c["figures"][name] for c in commands if name in c["figures"]]
        if vals:
            e2e[name], samples[name] = _median(vals), len(vals)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = layer_values if trace else e2e
    missing = [m for m in wanted if m not in source]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json not produced: {missing}")
    if trace and set(layer_values) != set(wanted):
        raise BenchError("per-layer metrics not listed in BENCHMARK.json: "
                         f"{sorted(set(layer_values) - set(wanted))}")
    env = {**res["env"], "seed": seed, "git_commit": _git_commit(),
           "source_sha256": _source_digest(), "workload": workload, "size": size,
           "seconds": seconds, "trace": trace, "run_s": time.monotonic() - started}
    report = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": source[m], "unit": spec["units"][m]} for m in wanted},
    }
    record = {"env": env, "end_to_end": e2e, "samples": samples, "walls": walls,
              "setups": setups, "per_layer": layer_values, "iterations": its,
              "result": report}
    if trace:
        record["spans"] = res["spans"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record))

    print(f"# workload {workload} ({size} size): {spec['why'][workload]}")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# closed loop, 1 client; {len(its)} iterations "
          f"({len(walls)} untraced) in {res['loop_s']:.1f} s")
    print(f"{'metric':<36} {'value':>14} {'unit':<6} {'samples':>7}  detail")
    units = {**spec["units"], "fail_ratio": "1", **{name: "1" for name in ACCURACY}}
    for name in ("wall_s", "setup_s", "peak_rss_mb", "fail_ratio", *ACCURACY):
        value = f"{e2e[name]:>14.6g}" if name in e2e else f"{'n/a':>14}"
        detail = _tail(walls) if name == "wall_s" else ""
        print(f"{name:<36} {value} {units[name]:<6} {samples.get(name, 0):>7}  {detail}")
    if trace:
        moves = {l.metric: l.moves for l in LAYERS} | COUNTS | {
            n: what for n, _, what in DERIVED}
        n_traced = sum(i["traced"] for i in its)
        print(f"# per-layer self times: medians of {n_traced} traced iterations")
        for name in wanted:
            print(f"{name:<36} {layer_values[name]:>14.6g} {spec['units'][name]:<6} "
                  f"{n_traced:>7}  should move: {moves[name]}")
        print(f"# span tree of traced iteration {first_traced['index']} "
              f"({len(res['spans'])} spans in all; written to {results / (tag + '.json')})")
        print("\n".join(_span_tree(res["spans"], first_traced["index"])))
    for c in commands:
        for msg in c["failures"]:
            print(f"# FAILED {msg}")
    return report


def smoke(spec: dict) -> int:
    print("# layer -> metric table (per-layer self times, counts, derived figures)")
    for layer in LAYERS:
        print(f"  {layer.span:<42} {layer.metric:<34} moves {layer.moves}")
    for name, moves in COUNTS.items():
        print(f"  {'(count)':<42} {name:<34} moves {moves}")
    for name, unit, what in DERIVED:
        print(f"  {'(derived, ' + unit + ')':<42} {name:<34} {what}")
    bad = []
    for name in WORKLOADS:
        for trace in (0, 1):
            report = run_once(name, 0, 0.0, trace, "smoke", spec)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            if not report["correct"] or sorted(report["metrics"]) != sorted(wanted):
                bad.append(f"{name} trace={trace}")
    print(json.dumps({"smoke": "failed" if bad else "ok", "failed_runs": bad}))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="hwp benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny grids and check the metrics")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative (it becomes the scenario seed)")
    try:
        if not (ROOT / "src" / "hwp" / "cli.py").is_file():
            raise BenchError(f"no hwp sources under {ROOT / 'src'}")
        spec = _benchmark_spec()
        if args.smoke:
            return smoke(spec)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        report = run_once(args.workload, args.seed, seconds, args.trace, "full", spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
