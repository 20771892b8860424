import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hwp import analysis, cli, closedform, geometry, mesh, operators, reporting
from hwp import quadrature as quad
from hwp.cli import (COMMANDS, SCHEMAS, _forcing_spec, _load_coefficient_file, main,
                     parse_scenario, run_scenario, smooth_heat_forcing)
from hwp.errors import ConfigurationError
from hwp.fields import jet_batch
from hwp.periodic import ModeStream, solve_periodic_harmonic
from hwp.timefourier import HEAT, WAVE, FourierField, ModeSource

import fourier_oracle as oracle
from conftest import traced_peak


MINIMAL_SOLVE = """
# minimal solve scenario
grid.nx = 17
grid.ny_w = 17
grid.ny_h = 17
forcing.wave = mode:2
"""


def test_parse_minimal_solve_fills_defaults():
    scn = parse_scenario(MINIMAL_SOLVE, "solve")
    assert scn["modes"] == 16
    assert scn["tol"] == 1e-10
    assert scn["period"] == pytest.approx(2 * np.pi)
    assert scn.name == "run"


def test_parse_rejects_negative_mode_count():
    with pytest.raises(ConfigurationError) as err:
        parse_scenario(MINIMAL_SOLVE + "modes = -1\n", "solve")
    assert "modes" in str(err.value)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigurationError) as err:
        parse_scenario("gridd.nx = 9\n", "solve")
    assert "gridd.nx" in str(err.value)


def test_parse_reports_missing_required_keys():
    with pytest.raises(ConfigurationError) as err:
        parse_scenario("resolution = 16\n", "geometry-check")
    msg = str(err.value)
    assert "domain" in msg and "field" in msg


def test_parse_rejects_missing_forcing_file():
    with pytest.raises(FileNotFoundError) as err:
        parse_scenario(MINIMAL_SOLVE + "forcing.heat = file:/does/not/exist.csv\n",
                       "solve")
    assert "/does/not/exist.csv" in str(err.value)


def test_parse_command_mismatch():
    with pytest.raises(ConfigurationError):
        parse_scenario("command = solve\n", "geometry-check")


def _write(tmp_path, text):
    p = tmp_path / "scenario.cfg"
    p.write_text(text)
    return str(p)


def test_solve_scenario_end_to_end(tmp_path):
    cfg = _write(tmp_path, MINIMAL_SOLVE + "name = demo\nmodes = 3\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "solve_demo.json").read_text())
    assert summary["max_residual"] <= 1e-9
    assert summary["relative_error_vs_analytic"] < 0.1
    assert (out / "solve_demo_modes.csv").exists()
    assert (out / "solve_demo_w_t0.csv").exists()
    assert (out / "solve_demo_u_t7.csv").exists()


def test_solve_determinism_byte_identical(tmp_path):
    # every CSV and every result JSON repeats byte for byte: the JSON carries
    # no timings
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for command, text in (("solve", MINIMAL_SOLVE + "modes = 2\nseed = 7\n"),
                          ("epsilon-sweep", MINIMAL_SOLVE + "modes = 2\nsteps = 8\n"
                           "epsilons = 0.2,0.1\nforcing.heat = smooth:1\nseed = 7\n")):
        cfg = _write(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(out1)]) == 0
        assert main([command, "--config", cfg, "--out", str(out2)]) == 0
    written = sorted(p.name for p in out1.iterdir())
    assert "solve_run.json" in written and "epsilon_sweep_run.json" in written
    assert written == sorted(p.name for p in out2.iterdir())
    for name in written:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name



def _stored_forcing(spec: str, amp: float, grid, period=2 * np.pi) -> FourierField:
    """A forcing spec's whole mode stack, built as the solve built it before
    forcing came one mode at a time: the reference for the mode sources."""
    kind, args = _forcing_spec("forcing.heat" if spec.startswith("smooth") else
                               "forcing.wave", spec)
    if kind == "smooth":
        return smooth_heat_forcing(grid, period, args[0], amp)
    if kind == "mode":
        n = args[0]
        return tuple(oracle.scaled(oracle.from_modes(period, n, {n: -0.5j * a}, WAVE), amp)
                     for a in closedform.mode_amplitudes(n, grid))
    rule, n_terms = closedform.series_rule(args[0]), args[1]
    g = FourierField.zeros(period, n_terms, (grid.ny_w, grid.nx), WAVE)
    phi = closedform.bump_profile()
    for n in range(1, n_terms + 1):
        sx = np.sin(n * grid.x)[None, :]
        g.coeffs[n] = -0.5j * rule.coefficient(n) * (-sx * phi.d2phi(grid.y_w)[:, None])
    return oracle.scaled(g, amp)


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("spec,amp", [("mode:2", 1.0), ("mode:3", -1.5), ("series:G1:5", 1.0),
                                      ("series:G2:4", -0.25), ("smooth:1", 1.0),
                                      ("smooth:3", -0.7)])
def test_on_demand_forcing_modes_are_the_stored_stack(spec, amp):
    # every mode, signed zeros included, is the bits of the whole stack
    grid = mesh.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 13, 9)
    key = "forcing.heat" if spec.startswith("smooth") else "forcing.wave"
    scn = parse_scenario(f"grid.nx = 17\ngrid.ny_w = 13\ngrid.ny_h = 9\nmodes = 6\n"
                         f"{key} = {spec}\n{key}.amplitude = {amp}\n", "solve")
    if key == "forcing.heat":
        sources, stacks = [cli._heat_forcing(scn, grid)[0]], [_stored_forcing(spec, amp, grid)]
    else:
        g, w_ref, _ = cli._wave_forcing(scn, grid)
        sources = [g] if w_ref is None else [g, w_ref]
        stacks = _stored_forcing(spec, amp, grid)
        stacks = [stacks] if isinstance(stacks, FourierField) else list(stacks)
    for source, stack in zip(sources, stacks):
        assert source.n_modes == stack.n_modes
        for k in range(-stack.n_modes - 1, stack.n_modes + 2):
            assert np.array_equal(_bits(source.mode(k)), _bits(stack.mode(k))), k
        assert np.array_equal(_bits(source.stored().coeffs), _bits(stack.coeffs))


@pytest.mark.parametrize("keys", [
    "forcing.wave = mode:2\nforcing.wave.amplitude = -1.5\ncheck.weak = true\n",
    "forcing.wave = series:G1:4\nforcing.heat = smooth:2\nforcing.heat.amplitude = 0.7\n"
    "check.weak = true\ncheck.weak.tests = 3\n",
    "forcing.wave = mode:3\nmodes = 6\n"])
def test_streamed_solve_is_the_collected_report(tmp_path, monkeypatch, keys):
    # the solve command consumes the mode stream one mode at a time; it sees
    # exactly the modes whose forcing has data, and those modes, and the
    # norms, error and weak residual it writes, are those of the collected
    # report on the stored forcing, bit for bit; every other mode of the
    # report is +0 with residual 0.0; the snapshots are its sample_real up to
    # the order of summation
    seen = []

    class Recording(ModeStream):
        def __iter__(self):
            for k, w_k, u_k, residual in super().__iter__():
                seen.append((k, w_k.copy(), u_k.copy(), residual))
                yield k, w_k, u_k, residual

    monkeypatch.setattr(cli, "ModeStream", Recording)
    text = "grid.nx = 17\ngrid.ny_w = 13\ngrid.ny_h = 9\nname = s\nseed = 3\n" + keys
    scn = parse_scenario(text, "solve", out_dir=str(tmp_path))
    assert run_scenario(scn) == 0
    summary = json.loads((tmp_path / "solve_s.json").read_text())

    grid = mesh.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 13, 9)
    wave, heat = scn["forcing.wave"], scn["forcing.heat"]
    g = _stored_forcing(wave, scn["forcing.wave.amplitude"], grid)
    g, w_ref = g if isinstance(g, tuple) else (g, None)
    f = None if heat == "none" else _stored_forcing(heat, scn["forcing.heat.amplitude"], grid)
    report = solve_periodic_harmonic(grid, f, g, scn["modes"])
    data = [k for k in range(scn["modes"] + 1)
            if any(x is not None and np.any(x.mode(k)) for x in (f, g))]
    assert [k for k, *_ in seen] == data
    for k, w_k, u_k, residual in seen:
        assert np.array_equal(_bits(w_k), _bits(report.w.coeffs[k]))
        assert np.array_equal(_bits(u_k), _bits(report.u.coeffs[k]))
        assert residual == report.mode_residuals[k]
    for k in sorted(set(range(scn["modes"] + 1)) - set(data)):
        assert not np.any(_bits(report.w.coeffs[k])) and not np.any(_bits(report.u.coeffs[k]))
        assert report.mode_residuals[k] == 0.0
    for name, field_, flavor in (("u_l2", report.u, "l2"), ("w_l2", report.w, "l2"),
                                 ("w_h1", report.w, "h1")):
        assert summary["norms"][name] == analysis.sobolev_time_norm(field_, 0, grid, flavor)
    if w_ref is not None and f is None:
        rel = (analysis.sobolev_time_norm(report.w - w_ref, 0, grid, "l2")
               / analysis.sobolev_time_norm(w_ref, 0, grid, "l2"))
        assert summary["relative_error_vs_analytic"] == rel
    if scn["check.weak"]:
        assert summary["weak_residual"] == analysis.weak_residual(
            report, f, g, grid, n_tests=scn["check.weak.tests"], seed=3)
    times = np.arange(8) * report.period / 8.0
    for name, field_ in (("w", report.w), ("u", report.u)):
        want = field_.sample_real(times)
        for j in range(8):
            got = np.loadtxt(tmp_path / f"solve_s_{name}_t{j}.csv", delimiter=",", skiprows=1)
            assert np.max(np.abs(got - want[j])) <= 1e-14 * np.max(np.abs(want))


_PINNED_GRID = "grid.nx = 17\ngrid.ny_w = 13\ngrid.ny_h = 9\nname = pin\nseed = 3\n"
_PINNED_SWEEP = ("grid.nx = 9\ngrid.ny_w = 9\ngrid.ny_h = 9\nname = pin\nseed = 3\n"
                 "forcing.wave = mode:2\nmodes = 4\nsteps = 16\n")


def _output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("command,text,data,digest", [
    # wave mode 3 at a negative amplitude: the empty modes are signed zeros
    ("solve", _PINNED_GRID + "forcing.wave = mode:3\nmodes = 6\n"
     "forcing.wave.amplitude = -1.5\ncheck.weak = true\n", [3],
     "e415e55640de77e2c446950a2f6d0f5820efa7f8f2a6767f71abdad61b554782"),
    ("solve", _PINNED_GRID + "forcing.wave = series:G1:2\nforcing.heat = smooth:4\n"
     "modes = 6\ncheck.weak = true\n", [1, 2, 4],
     "96b2e67e9fc3ea446c9cf2676dc1a416e598ea280ba9bd0a217aa2ebe83886b4"),
    # the reference and three damped orbits, in lockstep
    ("epsilon-sweep", _PINNED_SWEEP, [2] * 4,
     "4be0cb5ee664a6dec5cd9e8a56378c1e7fb82a9ef29172820cfdda8c5a876bb2")])
def test_mode_streams_touch_only_the_modes_with_data(tmp_path, monkeypatch, command, text,
                                                     data, digest):
    # a mode whose forcing has no data is neither solved, nor split into
    # fields, nor added to a snapshot; the JSON and CSV bytes are those
    # pinned when every mode was solved
    calls = {"solve_linear": [], "split_mode_solution": [], "add_mode_samples": []}

    def count(owner, name, mode_of):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name].append(mode_of(*args))
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(operators, "solve_linear", lambda op, *_: op.k)
    count(operators, "split_mode_solution", lambda op, *_: op.k)
    count(cli, "add_mode_samples", lambda samples, times, period, k, c_k: k)
    assert run_scenario(parse_scenario(text, command, out_dir=str(tmp_path))) == 0
    assert calls["solve_linear"] == calls["split_mode_solution"] == data
    assert calls["add_mode_samples"] == ([k for k in data for _ in "wu"]
                                         if command == "solve" else [])
    assert _output_digest(tmp_path) == digest


def test_sweep_forcing_norms_reduce_only_the_modes_with_data(tmp_path, monkeypatch):
    # the heat forcing's dual norm, which the damped-energy ratios read, takes
    # one Dirichlet solve per mode with data: smooth:3 has one of modes 0..4
    dual, seen = operators.heat_dual_norm_sq, []
    monkeypatch.setattr(operators, "heat_dual_norm_sq",
                        lambda grid, v: seen.append(v.copy()) or dual(grid, v))
    scn = parse_scenario(_PINNED_SWEEP + "forcing.heat = smooth:3\n", "epsilon-sweep",
                         out_dir=str(tmp_path))
    assert run_scenario(scn) == 0
    assert len(seen) == 1 and np.any(seen[0])


@pytest.mark.parametrize("skew", ["another mode", "fewer modes"])
def test_sweep_rejects_streams_that_disagree_on_their_modes(tmp_path, monkeypatch, skew):
    # the lockstep zip pairs mode k of the reference with mode k of every
    # orbit; an orbit that yields another mode, or ends early, is a
    # SolverError naming both, not a silent mispairing
    class Skewed(ModeStream):
        def __iter__(self):
            for k, *rest in super().__iter__():
                if self.eps == 0.1 and skew == "fewer modes":
                    return
                yield (k + 1 if self.eps == 0.1 else k, *rest)

    monkeypatch.setattr(cli, "ModeStream", Skewed)
    scn = parse_scenario(_PINNED_SWEEP, "epsilon-sweep", out_dir=str(tmp_path))
    assert run_scenario(scn) == 12
    record = json.loads((tmp_path / "epsilon_sweep_pin_error.json").read_text())
    assert record["error_type"] == "SolverError" and record["exit_code"] == 12
    other = "3" if skew == "another mode" else "None"
    assert (f"the reference yields mode 2 and the orbits at eps = [0.2, 0.1, 0.05] "
            f"modes [2, {other}, 2]") in record["message"]
    assert not (tmp_path / "epsilon_sweep_pin.json").exists()


def test_solve_memory_does_not_grow_with_modes(tmp_path):
    # at 129^2 with series:G1:<modes> forcing, the traced peak of a whole
    # solve run for modes = 4, 16 and 64 differs by less than one wave mode
    # stack of modes = 4 (5 * 129^2 complex values); holding the stacks of
    # w, u and w - w_ref took 8.8, 18.0 and 54.8 MiB
    peaks = []
    for modes in (4, 16, 64):
        scn = parse_scenario(f"grid.nx = 129\ngrid.ny_w = 129\ngrid.ny_h = 129\n"
                             f"modes = {modes}\nforcing.wave = series:G1:{modes}\n",
                             "solve", out_dir=str(tmp_path))
        peak, status = traced_peak(lambda: run_scenario(scn))
        assert status == 0
        peaks.append(peak)
    assert max(peaks) - min(peaks) < 5 * 129 * 129 * 16, peaks


def test_weak_check_adds_no_mode_to_the_solve(tmp_path):
    # the weak check pairs each mode as it streams: a whole solve at 129^2
    # with it peaks less than two complex wave modes above the same solve
    # without it (stacking modes 0..2 of w and u and storing the forcing
    # added 1.52 MiB)
    peaks = []
    for weak in ("false", "true"):
        scn = parse_scenario("grid.nx = 129\ngrid.ny_w = 129\ngrid.ny_h = 129\nmodes = 16\n"
                             f"forcing.wave = series:G1:16\ncheck.weak = {weak}\n",
                             "solve", out_dir=str(tmp_path))
        peak, status = traced_peak(lambda: run_scenario(scn))
        assert status == 0
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 2 * 129 * 129 * 16, peaks


def test_mode_tables_are_the_two_sided_bytes(tmp_path):
    # the fields store modes k >= 0; solve's _modes.csv and example-gen's
    # _g_coeffs.csv still list k = -N..N, byte for byte what the two-sided
    # arithmetic writes: |conj c| == |c| bitwise, and the rows of k = -n
    # keep the signed zeros of (i/2) A
    grid_keys = MINIMAL_SOLVE.replace("forcing.wave = mode:2\n", "")
    cfg = _write(tmp_path, grid_keys + "name = pin\nmodes = 5\n"
                 "forcing.wave = series:G1:4\nforcing.heat = smooth:2\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    grid = mesh.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 17, 17)
    g = closedform.series_sources(closedform.series_rule("G1"), 4, grid)[0].stored()
    rep = solve_periodic_harmonic(grid, smooth_heat_forcing(grid, 2 * np.pi, 2), g, 5)
    ks = list(range(-5, 6))
    u, w = oracle.two_sided(rep.u), oracle.two_sided(rep.w)
    mass_w, mass_h = (quad.trap_mass(ny, 17, grid.hx, hy)
                      for ny, hy in ((17, grid.hy_w), (17, grid.hy_h)))
    ref = tmp_path / "ref_modes.csv"
    reporting.write_csv(str(ref), ["k", "u_norm", "w_norm", "residual"],
                        [ks, [np.sqrt(quad.norm_sq(mass_h, c)) for c in u],
                         [np.sqrt(quad.norm_sq(mass_w, c)) for c in w],
                         [rep.mode_residuals.get(abs(k), 0.0) for k in ks]])
    assert (out / "solve_pin_modes.csv").read_bytes() == ref.read_bytes()

    cfg = _write(tmp_path, "grid.nx = 17\ngrid.ny_w = 17\nname = pin\nmode = 3\n")
    assert main(["example-gen", "--config", cfg, "--out", str(out)]) == 0
    amp = closedform.mode_amplitudes(3, grid)[0]
    c = np.stack([-0.5j * amp, 0.5j * amp])  # sin(3t) A as two-sided modes +-3
    m, j, i = np.nonzero(c)
    ref = tmp_path / "ref_g_coeffs.csv"
    reporting.write_csv(str(ref), ["k", "j", "i", "re", "im"],
                        [np.array([3, -3])[m], j, i, c[m, j, i].real, c[m, j, i].imag])
    written = (out / "example_gen_pin_g_coeffs.csv").read_bytes()
    assert written == ref.read_bytes() and b",-0," in written
    back = _load_coefficient_file(str(out / "example_gen_pin_g_coeffs.csv"), 2 * np.pi,
                                  (17, 17), WAVE, 3)
    assert np.array_equal(oracle.two_sided(back), oracle.two_sided(closedform.analytic_mode(3, grid)[0]))

def test_geometry_check_spiral_on_shell(tmp_path):
    cfg = _write(tmp_path, """
domain = shell
field = spiral:0.2
resolution = 16
name = shell
""")
    out = tmp_path / "out"
    assert main(["geometry-check", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "geometry_check_shell.json").read_text())
    assert payload["contractivity_margin"] == pytest.approx(0.2, abs=1e-10)
    assert payload["verdicts"]["generalized_optics"]
    assert (out / "geometry_check_shell_boundary.csv").exists()


def test_geometry_check_unit_square_with_poincare(tmp_path):
    cfg = _write(tmp_path, """
domain = unit-square
field = graph-vertical:2
resolution = 16
poincare = true
poincare.nx = 9
poincare.ny = 9
""")
    out = tmp_path / "out"
    assert main(["geometry-check", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "geometry_check_run.json").read_text())
    assert payload["domain"] == "unit-square"
    assert payload["poincare"]["rayleigh_min"] > 0
    assert payload["graph_quadform_margin"] >= 0.24


def test_poincare_on_a_curved_domain_rejected_before_work(tmp_path, capsys):
    # the Rayleigh-quotient check needs a rectangular domain; the spiral used
    # to be sampled, its margins computed and its boundary CSV written first
    cfg = _write(tmp_path, "domain = spiral\nfield = spiral:0.2\nresolution = 16\n"
                 "poincare = true\n")
    out = tmp_path / "out"
    assert main(["geometry-check", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "'poincare'" in captured.err and "'domain' = 'spiral'" in captured.err
    assert captured.out == "" and not out.exists()


def test_identity_check_scenario(tmp_path):
    cfg = _write(tmp_path, "grid.nx = 33\ngrid.ny_w = 33\ngrid.ny_h = 5\nmode = 2\n")
    out = tmp_path / "out"
    assert main(["identity-check", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "identity_check_run.json").read_text())
    assert payload["residual"] < 1e-2
    assert payload["equipartition_residual"] < 1e-2


def test_regularity_scan_scenario(tmp_path):
    cfg = _write(tmp_path, "rule = G1\ntruncations = 4,8\ngrid.nx = 33\ngrid.ny_w = 17\n")
    out = tmp_path / "out"
    assert main(["regularity-scan", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "regularity_scan_run.json").read_text())
    assert payload["verdicts"]["s1_increasing"]


@pytest.mark.parametrize("mode", [2, 3])
def test_example_gen_coefficients_match_node_loop(tmp_path, mode):
    cfg = _write(tmp_path, f"mode = {mode}\ngrid.nx = 17\ngrid.ny_w = 17\n")
    out = tmp_path / "out"
    assert main(["example-gen", "--config", cfg, "--out", str(out)]) == 0
    # reference: the per-node loop the column build replaced, row-major,
    # over the modes +-n of sin(n t) A_g as (-+i/2) A_g; they equal the
    # field's modes (the signed zeros of their real parts aside)
    grid = mesh.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 17, 17)
    g, _ = closedform.analytic_mode(mode, grid)
    amp = closedform.mode_amplitudes(mode, grid)[0]
    lines = ["k,j,i,re,im"]
    for k, c in ((mode, -0.5j * amp), (-mode, 0.5j * amp)):
        assert np.array_equal(c, g.mode(k))
        for j in range(grid.ny_w):
            for i in range(grid.nx):
                if c[j, i] != 0:
                    lines.append("%d,%d,%d,%.17g,%.17g" % (k, j, i, c[j, i].real, c[j, i].imag))
    assert len(lines) > 2
    assert (out / "example_gen_run_g_coeffs.csv").read_text() == "\n".join(lines) + "\n"


def test_example_gen_roundtrip_as_forcing_file(tmp_path):
    cfg = _write(tmp_path, "mode = 2\ngrid.nx = 17\ngrid.ny_w = 17\n")
    out = tmp_path / "out"
    assert main(["example-gen", "--config", cfg, "--out", str(out)]) == 0
    coeffs = out / "example_gen_run_g_coeffs.csv"
    assert coeffs.exists()
    solve_cfg = _write(tmp_path, f"""
grid.nx = 17
grid.ny_w = 17
grid.ny_h = 17
modes = 3
forcing.wave = file:{coeffs}
name = fromfile
""")
    out2 = tmp_path / "out2"
    assert main(["solve", "--config", solve_cfg, "--out", str(out2)]) == 0
    ref_cfg = _write(tmp_path, MINIMAL_SOLVE + "modes = 3\nname = direct\n")
    out3 = tmp_path / "out3"
    assert main(["solve", "--config", ref_cfg, "--out", str(out3)]) == 0
    a = json.loads((out2 / "solve_fromfile.json").read_text())["norms"]
    b = json.loads((out3 / "solve_direct.json").read_text())["norms"]
    assert a["w_l2"] == pytest.approx(b["w_l2"], rel=1e-12)


def test_error_path_writes_machine_readable_record(tmp_path):
    cfg = _write(tmp_path, "domain = trapezoid\nfield = arc\nresolution = 16\n")
    out = tmp_path / "out"
    # arc-renormalized field is undefined at y = 0 on the trapezoid interface
    code = main(["geometry-check", "--config", cfg, "--out", str(out)])
    assert code == 11
    record = json.loads((out / "geometry_check_run_error.json").read_text())
    assert record["exit_code"] == 11
    assert record["error_type"] == "FieldDomainError"


def test_bad_config_path_exit_code():
    assert main(["solve", "--config", "/nope/missing.cfg"]) == 3


@pytest.mark.parametrize("line", ["tol = nan", "grid.lx = inf"])
def test_non_finite_numbers_rejected_by_name(tmp_path, capsys, line):
    cfg = _write(tmp_path, MINIMAL_SOLVE + line + "\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert repr(line.split(" =")[0]) in capsys.readouterr().err
    assert not out.exists()  # rejected before any work started


def test_non_finite_list_entry_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_scenario("epsilons = 0.2, nan\n", "epsilon-sweep")
    assert "epsilons" in str(err.value)


SMALL_SOLVE = "grid.nx = 9\ngrid.ny_w = 9\ngrid.ny_h = 9\nmodes = 2\n"


@pytest.mark.parametrize("key,value", [("j", -1), ("j", 20), ("i", 9)])
def test_coefficient_file_index_out_of_range_rejected(tmp_path, capsys, key, value):
    idx = {"j": 2, "i": 3, key: value}
    coeffs = tmp_path / "g.csv"
    coeffs.write_text(f"k,j,i,re,im\n1,{idx['j']},{idx['i']},0.5,0.0\n"
                      f"-1,{idx['j']},{idx['i']},0.5,0.0\n")
    cfg = _write(tmp_path, SMALL_SOLVE + f"forcing.wave = file:{coeffs}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(coeffs) in err and f"{key} = {value}" in err


@pytest.mark.parametrize("column,text", [
    ("k", "k,j,i,re,im\nnan,2,3,0.5,0.0\n"),
    ("j", "k,j,i,re,im\n1,2.5,3,0.5,0.0\n-1,2.5,3,0.5,0.0\n"),
    ("k", "k,j,i,re,im\n1.5,2,3,0.5,0.0\n-1.5,2,3,0.5,0.0\n"),
    ("re", "k,j,i,re,im\n1,2,3,nan,0.0\n-1,2,3,nan,0.0\n"),
    ("im", "k,j,i,re\n1,2,3,0.5\n-1,2,3,0.5\n"),
], ids=["k-nan", "j-fraction", "k-fraction-pair", "re-nan", "im-missing"])
def test_coefficient_file_bad_column_rejected_by_name(tmp_path, capsys, column, text):
    coeffs = tmp_path / "g.csv"
    coeffs.write_text(text)
    cfg = _write(tmp_path, SMALL_SOLVE + f"forcing.wave = file:{coeffs}\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(coeffs) in captured.err and f"column {column} " in captured.err
    assert "solving" not in captured.out  # rejected before any work started
    assert [p.name for p in out.iterdir()] == ["solve_run_error.json"]


@pytest.mark.parametrize("text,what", [
    ("", "is empty"),
    ("k,j,i,re,im\n1,3,3,1.0\n", "got 4 columns instead of 5"),
    ("k,j,i,re,im\n1,3,3,1.0,0.0\n-1,3,3,1.0\n", "columns"),
    ("k,j,i,re,im\n1,3,3,abc,0.0\n-1,3,3,abc,0.0\n", "'abc'"),
], ids=["empty", "ragged-row", "ragged-later-row", "non-numeric"])
def test_coefficient_file_unreadable_rejected_by_name(tmp_path, capsys, text, what):
    # numpy's IndexError (empty) and ValueError (ragged) used to escape as
    # exit 1 with a traceback
    coeffs = tmp_path / "g.csv"
    coeffs.write_text(text)
    cfg = _write(tmp_path, SMALL_SOLVE + f"forcing.wave = file:{coeffs}\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(coeffs) in captured.err and what in captured.err
    assert "solving" not in captured.out  # rejected before any work started
    assert [p.name for p in out.iterdir()] == ["solve_run_error.json"]


def test_coefficient_file_parse_memory_is_bounded(tmp_path):
    # a 65^2 wave file with modes +-1..16 at every node: 135,200 rows and
    # about 6 MiB of text for a kept stack of 1.1 MiB; reading every line
    # and parsing with genfromtxt peaked at 90.6 MiB
    n, top = 65, 16
    rng = np.random.default_rng(0)
    c = rng.standard_normal((top, n, n)) + 1j * rng.standard_normal((top, n, n))
    k, j, i = (a.ravel() for a in np.meshgrid(np.arange(1, top + 1), np.arange(n),
                                              np.arange(n), indexing="ij"))
    rows = np.concatenate([np.stack([k, j, i, c.real.ravel(), c.imag.ravel()], axis=1),
                           np.stack([-k, j, i, c.real.ravel(), -c.imag.ravel()], axis=1)])
    coeffs = tmp_path / "g.csv"
    np.savetxt(coeffs, rows, fmt=["%d", "%d", "%d", "%.17g", "%.17g"], delimiter=",",
               header="k,j,i,re,im", comments="")
    del rows, k, j, i
    peak, source = traced_peak(
        lambda: _load_coefficient_file(str(coeffs), 2 * np.pi, (n, n), WAVE, top))
    assert peak < 24 * 2**20, peak
    assert source.n_modes == top
    assert np.array_equal(source.mode(5), c[4])
    assert np.array_equal(source.mode(-16), np.conj(c[15]))


def test_coefficient_file_header_only_is_zero_forcing(tmp_path):
    coeffs = tmp_path / "g.csv"
    coeffs.write_text("k,j,i,re,im\n")
    f = _load_coefficient_file(str(coeffs), 2 * np.pi, (9, 9), WAVE, 2)
    assert f.n_modes == 0 and not np.any(f.stored().coeffs)


def test_coefficient_file_serves_its_rows(tmp_path):
    # one row per (k, j, i), served as the modes k >= 0 of a source
    coeffs = tmp_path / "g.csv"
    coeffs.write_text("k,j,i,re,im\n1,2,3,0.625,-0.75\n-1,2,3,0.625,0.75\n0,4,5,1.5,0.0\n")
    f = _load_coefficient_file(str(coeffs), 2 * np.pi, (9, 9), WAVE, 2)
    assert isinstance(f, ModeSource) and f.n_modes == 1
    assert f.mode(1)[2, 3] == 0.625 - 0.75j
    assert f.mode(-1)[2, 3] == 0.625 + 0.75j
    assert f.mode(0)[4, 5] == 1.5
    assert sum(np.count_nonzero(f.mode(k)) for k in (-1, 0, 1)) == 3


def test_coefficient_file_repeated_rows_rejected_by_name(tmp_path, capsys):
    # an example-gen file with every row listed twice solved to twice the
    # forcing (w_l2 0.0795 instead of 0.0398) with exit 0
    cfg = _write(tmp_path, "grid.nx = 9\ngrid.ny_w = 9\nname = gen\n")
    assert main(["example-gen", "--config", cfg, "--out", str(tmp_path)]) == 0
    coeffs = tmp_path / "example_gen_gen_g_coeffs.csv"
    header, *rows = coeffs.read_text().splitlines()
    coeffs.write_text("\n".join([header] + rows + rows) + "\n")
    first = rows[0].split(",")[:3]
    cfg = _write(tmp_path, SMALL_SOLVE + f"forcing.wave = file:{coeffs}\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(coeffs) in captured.err
    assert f"({', '.join(first)}) is repeated" in captured.err
    assert "solving" not in captured.out
    assert [p.name for p in out.iterdir()] == ["solve_run_error.json"]


@pytest.mark.parametrize("k", [3, 10**12])
@pytest.mark.parametrize("command", ["solve", "epsilon-sweep"])
def test_coefficient_file_mode_above_modes_rejected(tmp_path, capsys, command, k):
    # modes = 2: a k = +-3 pair used to be dropped without a word (exit 0,
    # zero norms), and the field was sized by the largest |k| in the file
    coeffs = tmp_path / "g.csv"
    coeffs.write_text(f"k,j,i,re,im\n{k},2,3,0.5,0.0\n-{k},2,3,0.5,0.0\n")
    cfg = _write(tmp_path, SMALL_SOLVE + f"forcing.wave = file:{coeffs}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(coeffs) in captured.err
    assert f"k = {k:g}" in captured.err and "modes = 2" in captured.err
    assert "solving" not in captured.out and "reference" not in captured.out


@pytest.mark.parametrize("spec,top", [("mode:3", 3), ("series:G1:4", 4), ("series:G2", 8)])
@pytest.mark.parametrize("command", ["solve", "epsilon-sweep"])
def test_analytic_wave_forcing_above_modes_rejected(tmp_path, capsys, command, spec, top):
    # modes = 2: mode:3 used to give w = 0 with exit 0, and series terms
    # above 2 were dropped without a word
    cfg = _write(tmp_path, SMALL_SOLVE + f"forcing.wave = {spec}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "'forcing.wave'" in captured.err and f"mode {top}," in captured.err
    assert "'modes' = 2" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["solve", "epsilon-sweep"])
def test_smooth_heat_forcing_above_modes_rejected(tmp_path, capsys, command):
    # modes = 2: smooth:3 forces mode 3, which no solve computes; it used to
    # exit 0 with u_l2 = w_l2 = w_h1 = 0
    cfg = _write(tmp_path, SMALL_SOLVE + "forcing.wave = none\nforcing.heat = smooth:3\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "'forcing.heat'" in captured.err and "mode 3," in captured.err
    assert "'modes' = 2" in captured.err
    assert captured.out == "" and not out.exists()


def test_negative_seed_override_rejected_by_name(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_SOLVE + "check.weak = true\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--seed", "-5"]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_geometry_check_sample_bound_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(mesh, "MAX_INTERIOR_SAMPLES", 1000)
    cfg = _write(tmp_path, "domain = unit-square\nfield = zero\nresolution = 64\n")
    out = tmp_path / "out"
    assert main(["geometry-check", "--config", cfg, "--out", str(out)]) == 2
    record = json.loads((out / "geometry_check_run_error.json").read_text())
    assert "4096" in record["message"] and "1000" in record["message"]


def test_directions_key_rejected_by_name(tmp_path, capsys):
    # the graph margin is exact, so the old direction count has no meaning
    cfg = _write(tmp_path, "domain = unit-square\nfield = zero\ndirections = 64\n")
    out = tmp_path / "out"
    assert main(["geometry-check", "--config", cfg, "--out", str(out)]) == 2
    assert "'directions'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,spec", [
    ("forcing.wave", "mode:x"), ("forcing.wave", "mode:0"), ("forcing.wave", "mode:2:1"),
    ("forcing.wave", "series:G3:4"), ("forcing.wave", "series:G1:x"),
    ("forcing.wave", "series:G1:0"), ("forcing.wave", "smooth:1"),
    ("forcing.wave", "file:"), ("forcing.heat", "smooth:x"),
    ("forcing.heat", "smooth:0"), ("forcing.heat", "mode:2"),
])
def test_bad_forcing_spec_rejected_by_name(tmp_path, capsys, key, spec):
    cfg = _write(tmp_path, SMALL_SOLVE + f"{key} = {spec}\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and repr(spec) in err
    assert not out.exists()  # rejected before any work started


def test_forcing_specs_parse_with_defaults():
    assert _forcing_spec("forcing.wave", "series:G2") == ("series", ("G2", 8))
    assert _forcing_spec("forcing.wave", "series:G1:3") == ("series", ("G1", 3))
    assert _forcing_spec("forcing.wave", "file:a:b.csv") == ("file", ("a:b.csv",))
    assert _forcing_spec("forcing.heat", "smooth:2") == ("smooth", (2,))
    assert _forcing_spec("forcing.heat", "none") == ("none", ())


def test_duplicate_key_rejected_by_name(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_SOLVE + "modes = 3\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'modes'" in err and "duplicate" in err
    assert not out.exists()


def test_epsilon_sweep_scenario(tmp_path):
    cfg = _write(tmp_path, "grid.nx = 17\ngrid.ny_w = 17\ngrid.ny_h = 17\n"
                           "name = sweep\n")
    out = tmp_path / "out"
    assert main(["epsilon-sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "epsilon_sweep_sweep.json").read_text())
    assert summary["epsilons"] == [0.2, 0.1, 0.05]
    gaps = summary["gaps"]
    assert len(summary["damped_energy_ratios"]) == 3
    for a, b in zip(gaps, gaps[1:]):
        assert 1.8 <= a / b <= 2.2  # the gap is linear in eps
    header = (out / "epsilon_sweep_sweep.csv").read_text().splitlines()[0]
    assert header == "epsilon,dt,gap_rel,damped_energy_ratio,max_residual"


def test_epsilon_sweep_is_the_stacked_route(tmp_path):
    # the sweep streams the reference and each eps orbit in lockstep and keeps
    # per-mode squared norms; its gaps, damped-energy ratios, dt and residuals
    # are those of the collected reports, the field difference and
    # estimate_check, bit for bit
    text = ("grid.nx = 17\ngrid.ny_w = 13\ngrid.ny_h = 9\nmodes = 4\nsteps = 16\n"
            "epsilons = 0.2,0.1\nforcing.wave = series:G1:3\nforcing.heat = smooth:2\n"
            "forcing.heat.amplitude = -0.7\nname = s\n")
    scn = parse_scenario(text, "epsilon-sweep", out_dir=str(tmp_path))
    assert run_scenario(scn) == 0
    summary = json.loads((tmp_path / "epsilon_sweep_s.json").read_text())
    table = np.loadtxt(tmp_path / "epsilon_sweep_s.csv", delimiter=",", skiprows=1)

    grid = mesh.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 13, 9)
    g = _stored_forcing("series:G1:3", 1.0, grid)
    f = _stored_forcing("smooth:2", -0.7, grid)
    reference = solve_periodic_harmonic(grid, f, g, 4)
    ref_norm = analysis.sobolev_time_norm(reference.w, 0, grid, "l2")
    for i, eps in enumerate((0.2, 0.1)):
        rep = solve_periodic_harmonic(grid, f, g, 4, eps=eps, n_steps=16)
        gap = analysis.sobolev_time_norm(rep.w - reference.w, 0, grid, "l2") / ref_norm
        est = analysis.estimate_check(rep, f, g, "damped-energy")
        assert summary["gaps"][i] == gap
        assert summary["damped_energy_ratios"][i] == est["ratio"]
        assert list(table[i, [1, 2, 3, 4]]) == [rep.params["dt"], gap, est["ratio"],
                                                rep.max_residual()]


def test_epsilon_sweep_memory_does_not_grow_with_modes(tmp_path):
    # at 65^2 with 129 steps and two epsilons, the traced peak of a whole sweep
    # for modes = 4, 16 and 64 differs by less than one w + u mode stack of
    # modes = 4 (5 * 2 * 65^2 complex values); holding the reference's and
    # each orbit's stacks took 3.2, 7.9 and 26.6 MiB
    peaks = []
    for modes in (4, 16, 64):
        scn = parse_scenario(f"grid.nx = 65\ngrid.ny_w = 65\ngrid.ny_h = 65\n"
                             f"modes = {modes}\nsteps = 129\nepsilons = 0.2,0.1\n"
                             f"forcing.wave = series:G1:4\n", "epsilon-sweep",
                             out_dir=str(tmp_path))
        peak, status = traced_peak(lambda: run_scenario(scn))
        assert status == 0
        peaks.append(peak)
    assert max(peaks) - min(peaks) < 5 * 2 * 65 * 65 * 16, peaks


@pytest.mark.parametrize("line", ["period_tol = 1e-7", "max_periods = 400"])
def test_epsilon_sweep_march_keys_rejected_by_name(tmp_path, capsys, line):
    # the sweep solves for the damped orbit directly; nothing is marched
    cfg = _write(tmp_path, SMALL_SOLVE + line + "\n")
    out = tmp_path / "out"
    assert main(["epsilon-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert repr(line.split(" =")[0]) in capsys.readouterr().err
    assert not out.exists()


def test_epsilon_sweep_modes_beyond_steps_rejected_by_name(tmp_path, capsys):
    # 8 steps per period resolve modes 1..3 only; more were once cut silently
    text = "grid.nx = 9\ngrid.ny_w = 9\ngrid.ny_h = 9\nsteps = 8\n"
    assert parse_scenario(text + "modes = 3\n", "epsilon-sweep")["modes"] == 3
    cfg = _write(tmp_path, text + "modes = 8\n")
    out = tmp_path / "out"
    assert main(["epsilon-sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'modes'" in err and "'steps'" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.2, 0", "-0.1"])
def test_epsilon_sweep_non_positive_shift_rejected_by_name(value):
    with pytest.raises(ConfigurationError) as err:
        parse_scenario(f"epsilons = {value}\n", "epsilon-sweep")
    assert "'epsilons'" in str(err.value)


@pytest.mark.parametrize("command,line", [
    ("regularity-scan", "truncations = ,"), ("regularity-scan", "truncations = 0,8"),
    ("regularity-scan", "truncations = 64,8"), ("epsilon-sweep", "epsilons = ,"),
    ("epsilon-sweep", "epsilons = 0.2,,0.1"), ("regularity-scan", "truncations = 8,,64,"),
], ids=["empty-truncations", "zero-truncation", "decreasing-truncations",
        "empty-epsilons", "blank-epsilon-entry", "blank-truncation-entries"])
def test_bad_list_rejected_by_name_before_work(tmp_path, capsys, command, line):
    cfg = _write(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert repr(line.split(" =")[0]) in captured.err
    assert not captured.out  # no phase line: nothing started
    assert not out.exists()


@pytest.mark.parametrize("command,line", [
    ("identity-check", "tol = 1e-8"), ("regularity-scan", "tol = 1e-8"),
    ("example-gen", "tol = 1e-8"), ("identity-check", "period = 3.0"),
    ("example-gen", "period = 3.0"), ("identity-check", "grid.lx = 3"),
    ("identity-check", "grid.ly_w = 1"), ("identity-check", "grid.ly_h = 1"),
    ("identity-check", "equipartition = false"), ("example-gen", "grid.lx = 3"),
    ("example-gen", "grid.ly_w = 1"), ("example-gen", "grid.ly_h = 1"),
    ("example-gen", "grid.ny_h = 9"),
])
def test_keys_a_command_never_reads_rejected_by_name(tmp_path, capsys, command, line):
    # these commands take no tolerance, and their analytic family is 2 pi-periodic
    # and lives on the box (0, pi) x (0, 1) of the wave grid: a box key could
    # only fail (exit 15), and the heat box is never read
    cfg = _write(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert repr(line.split(" =")[0]) in captured.err
    assert not captured.out
    assert not out.exists()


@pytest.mark.parametrize("extra", ["", "forcing.heat = smooth:1\n",
                                   "forcing.wave = series:G1:2\n"],
                         ids=["mode", "mode-with-heat", "series"])
@pytest.mark.parametrize("command", ["solve", "epsilon-sweep"])
def test_period_other_than_two_pi_rejected_with_analytic_wave_forcing(
        tmp_path, capsys, command, extra):
    # mode:<n> and series: forcings are 2 pi-periodic; another period was
    # ignored, or failed only after the run had started
    cfg = _write(tmp_path, SMALL_SOLVE + "period = 3.0\n" + extra)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "'period'" in captured.err and "'forcing.wave'" in captured.err
    assert not captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "epsilon-sweep"])
def test_period_other_than_two_pi_rejected_without_forcing(tmp_path, capsys, command):
    # with both forcings none the stream fell back to 2 pi: period = 3 wrote
    # "period": 2 pi (solve) and dt = 2 pi / steps (epsilon-sweep) with exit 0
    text = SMALL_SOLVE + "steps = 8\n" if command == "epsilon-sweep" else SMALL_SOLVE
    cfg = _write(tmp_path, text + "period = 3.0\nforcing.wave = none\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "'period'" in captured.err
    assert not captured.out
    assert not out.exists()
    # a smooth: heat forcing takes the period
    scn = parse_scenario(text + "period = 3.0\nforcing.wave = none\nforcing.heat = smooth:1\n",
                         command, out_dir=str(out))
    assert run_scenario(scn) == 0
    if command == "solve":
        assert json.loads((out / "solve_run.json").read_text())["period"] == 3.0
    else:
        assert np.loadtxt(out / "epsilon_sweep_run.csv", delimiter=",", skiprows=1)[0, 1] == 3.0 / 8


@pytest.mark.parametrize("command,text,keys", [
    ("solve", "grid.lx = 2\nforcing.wave = mode:2\n", ("'grid.lx'", "'forcing.wave'")),
    ("solve", "grid.nx = 9\nforcing.wave = series:G1:8\n", ("'grid.nx'", "'forcing.wave'")),
    ("regularity-scan", "grid.nx = 129\ntruncations = 8,65\n", ("'grid.nx'", "'truncations'")),
], ids=["box", "series-nodes", "truncation-nodes"])
def test_closed_form_the_grid_cannot_hold_rejected_by_name(tmp_path, capsys, command,
                                                          text, keys):
    # the closed-form families live on the box (0, pi) x (0, 1), and N terms
    # need nx - 1 >= 2 N nodes; each of these used to parse and start, then
    # fail with a ClosedFormError (exit 15)
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert all(key in captured.err for key in keys), captured.err
    assert not captured.out
    assert not out.exists()


def test_identity_check_memory_does_not_grow_with_mode(tmp_path):
    # the whole command at 385^2 reads the closed-form sources one mode at a
    # time: 10.4 MiB traced for mode 2 and for mode 8, where the stored w and
    # g of modes 0..n and their Parseval copies took 28.5 MiB at mode 2
    peaks = []
    for mode in (2, 8):
        scn = parse_scenario(f"grid.nx = 385\ngrid.ny_w = 385\nmode = {mode}\n",
                             "identity-check", out_dir=str(tmp_path))
        peak, status = traced_peak(lambda: run_scenario(scn))
        assert status == 0
        peaks.append(peak)
    assert max(peaks) <= 12 * 2**20, peaks
    assert max(peaks) - min(peaks) < 2**20, peaks


def test_regularity_scan_memory_does_not_grow_with_truncation(tmp_path):
    # at 257 x 9 the traced peaks for truncations 8,16 and 8,128 differ by
    # less than 16 mode grids; a forcing and a solution stack per row took
    # 1.99 and 9.95 MiB
    peaks = []
    for truncs in ("8,16", "8,128"):
        scn = parse_scenario(f"grid.nx = 257\ngrid.ny_w = 9\ntruncations = {truncs}\n",
                             "regularity-scan", out_dir=str(tmp_path))
        peak, status = traced_peak(lambda: run_scenario(scn))
        assert status == 0
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < 16 * 257 * 9 * 16, peaks


@pytest.mark.parametrize("command", ["solve", "epsilon-sweep"])
def test_non_hermitian_coefficient_file_rejected(tmp_path, capsys, command):
    # a one-sided mode k = 1 with no conjugate k = -1 is not a real forcing
    coeffs = tmp_path / "g.csv"
    coeffs.write_text("k,j,i,re,im\n1,2,3,0.5,0.0\n")
    cfg = _write(tmp_path, SMALL_SOLVE + f"forcing.wave = file:{coeffs}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(coeffs) in err and "conj" in err


@pytest.mark.parametrize("k", [0, -1])
def test_smooth_heat_forcing_rejects_non_positive_mode(k):
    grid = mesh.build_stacked_rectangles(np.pi, 1.0, 1.0, 5, 5, 5)
    with pytest.raises(ConfigurationError):
        smooth_heat_forcing(grid, 2 * np.pi, k)


def test_geometry_check_evaluates_each_jet_batch_once(tmp_path, monkeypatch):
    # the boundary b.n of check_conditions also fills _boundary.csv
    calls = []

    def counting_jet_batch(spec, points):
        calls.append(len(points))
        return jet_batch(spec, points)

    monkeypatch.setattr(geometry, "jet_batch", counting_jet_batch)
    cfg = _write(tmp_path, "domain = spiral\nfield = spiral:0.2\nresolution = 16\n")
    out = tmp_path / "out"
    assert main(["geometry-check", "--config", cfg, "--out", str(out)]) == 0
    samples = mesh.sample_domain("spiral", 16)
    assert sorted(calls) == sorted([len(samples.interior_points),
                                    len(samples.boundary_points)])
    rows = (out / "geometry_check_run_boundary.csv").read_text().splitlines()
    assert len(rows) == 1 + len(samples.boundary_points)


def _perturbed_solver(monkeypatch):
    # a solution off by a relative 1e-6 fails the 1e-10 residual contract
    exact = operators._separable_solve
    monkeypatch.setattr(operators, "_separable_solve",
                        lambda *args: exact(*args) * (1 + 1e-6))


def test_solver_error_record_carries_residual(tmp_path, monkeypatch):
    _perturbed_solver(monkeypatch)
    cfg = _write(tmp_path, SMALL_SOLVE + "forcing.wave = mode:2\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 12
    record = json.loads((out / "solve_run_error.json").read_text())
    assert record["error_type"] == "SolverError" and record["exit_code"] == 12
    assert record["residual"] > 1e-10
    assert record["history"] == []


def test_successful_run_removes_stale_error_record(tmp_path, monkeypatch):
    cfg = _write(tmp_path, SMALL_SOLVE + "forcing.wave = mode:2\n")
    out = tmp_path / "out"
    _perturbed_solver(monkeypatch)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 12
    assert (out / "solve_run_error.json").exists()
    monkeypatch.undo()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "solve_run_error.json").exists()
    assert (out / "solve_run.json").exists()


_FIELD_COMMANDS = {"geometry-check": "domain = unit-square\nresolution = 16\n",
                   "identity-check": "grid.nx = 9\ngrid.ny_w = 9\ngrid.ny_h = 9\n"}


@pytest.mark.parametrize("text", ["spiral:nan", "horn:inf", "translate:nan,0",
                                  "translate:1,2,3", "graph-vertical:2,5"])
@pytest.mark.parametrize("command", sorted(_FIELD_COMMANDS))
def test_bad_field_arguments_rejected_by_name(tmp_path, capsys, command, text):
    # non-finite or surplus arguments used to run and write nan margins and
    # residuals, or to be dropped
    cfg = _write(tmp_path, _FIELD_COMMANDS[command] + f"field = {text}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'field'" in err and repr(text) in err
    assert not out.exists()  # rejected before any work started


def _readme_key_table() -> dict[str, list[str]]:
    """{command: the keys the README's key table lists for it, in row order}."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    start = lines.index("| key | commands | default | accepted values |") + 2
    listed: dict[str, list[str]] = {}
    for line in itertools.takewhile(lambda s: s.startswith("|"), lines[start:]):
        keys_cell, commands_cell = line.split("|")[1:3]
        commands = (COMMANDS if commands_cell.strip() == "all"
                    else [c.strip() for c in commands_cell.split(",")])
        for command in commands:
            listed.setdefault(command, []).extend(re.findall(r"`([^`]+)`", keys_cell))
    return listed


def test_readme_key_table_matches_schemas():
    listed = _readme_key_table()
    assert sorted(listed) == sorted(COMMANDS)
    for command, keys in listed.items():
        assert len(keys) == len(set(keys)), f"{command}: a key is listed twice"
        assert set(keys) == set(SCHEMAS[command]), command


def test_the_csv_workspace_lives_for_one_command(tmp_path):
    # held past its command, the formatter's 800-KiB workspace would add to
    # a later command's peak memory
    reporting.write_grid_csv(str(tmp_path / "grid.csv"), np.ones((3, 3)))
    assert reporting._workspace.cache_info().currsize == 1
    assert run_scenario(parse_scenario(MINIMAL_SOLVE, "solve", str(tmp_path))) == 0
    assert reporting._workspace.cache_info().currsize == 0
