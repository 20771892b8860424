import numpy as np
import pytest

import hwp
from hwp import analysis, cli, geometry
from hwp.errors import ConfigurationError, FieldDomainError
from hwp.fields import jet_batch, sym_min_eig
from hwp.timefourier import FourierField

from conftest import per_point, traced_peak
from jet_oracle import per_point_jets

ALL_SPECS = [
    hwp.translate((0.3, -0.2)),
    hwp.horn(0.5),
    hwp.spiral(0.2),
    hwp.graph_vertical(2.0),
    hwp.arc_renormalized(),
    hwp.VectorFieldSpec("zero"),
]


def _jet_at(spec, point):
    """The jet_batch row of one point."""
    return {name: rows[0] for name, rows in jet_batch(spec, [point]).items()}


def test_translate_jet():
    jet = _jet_at(hwp.translate((0.0, 0.0)), (2.0, 3.0))
    assert np.allclose(jet["b"], [2.0, 3.0])
    assert np.allclose(jet["grad"], np.eye(2))
    assert jet["div"] == 2.0
    assert jet["lap_div"] == 0.0


def test_spiral_jet_and_quadratic_form():
    jet = _jet_at(hwp.spiral(0.2), (1.0, 0.0))
    assert np.allclose(jet["b"], [0.2, 1.0])
    assert jet["div"] == pytest.approx(0.4)
    # quadratic form xi^T grad(b) xi = alpha |xi|^2 for every direction
    sym = 0.5 * (jet["grad"] + jet["grad"].T)
    for theta in np.linspace(0, np.pi, 17):
        xi = np.array([np.cos(theta), np.sin(theta)])
        assert xi @ sym @ xi == pytest.approx(0.2, abs=1e-14)


def test_horn_jet():
    jet = _jet_at(hwp.horn(2.0), (1.0, 1.0))
    assert np.allclose(jet["b"], [2.0, 1.0])
    assert np.allclose(jet["grad"], np.diag([2.0, 1.0]))
    assert jet["div"] == pytest.approx(3.0)


def test_arc_requires_upper_half_plane():
    with pytest.raises(FieldDomainError):
        _jet_at(hwp.arc_renormalized(), (1.0, 0.0))
    with pytest.raises(FieldDomainError):
        _jet_at(hwp.arc_renormalized(), (1.0, -0.5))


def test_divergence_equals_trace_of_gradient():
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-2, 2, 50), rng.uniform(0.1, 2, 50)])
    for spec in ALL_SPECS:
        out = jet_batch(spec, pts)
        trace = out["grad"][:, 0, 0] + out["grad"][:, 1, 1]
        assert np.max(np.abs(trace - out["div"])) < 1e-12, spec.kind


def test_affine_variants_have_vanishing_higher_jets():
    pts = np.array([[0.7, 0.9], [-1.2, 0.4]])
    for spec in ALL_SPECS:
        if spec.kind == "arc":
            continue
        out = jet_batch(spec, pts)
        assert np.all(out["grad_div"] == 0.0)
        assert np.all(out["lap_div"] == 0.0)


def test_arc_gradient_against_finite_differences():
    # independent check of the closed-form jet by central differencing b
    spec = hwp.arc_renormalized()
    pts = np.array([[0.8, 1.3], [-0.5, 0.7], [1.5, 0.2]])
    out = jet_batch(spec, pts)
    d = 1e-6
    for p, grad in zip(pts, out["grad"]):
        for col, e in enumerate(np.eye(2)):
            fd = (jet_batch(spec, p + d * e)["b"]
                  - jet_batch(spec, p - d * e)["b"])[0] / (2 * d)
            assert np.max(np.abs(fd - grad[:, col])) < 1e-6


def test_arc_renormalized_divergence_is_one():
    # div(Phi * rotation) = 1 by construction; cross-check via FD of b
    spec = hwp.arc_renormalized()
    p = np.array([0.4, 1.1])
    d = 1e-6
    def b(q):
        return jet_batch(spec, q)["b"][0]
    div_fd = ((b(p + [d, 0]) - b(p - [d, 0]))[0]
              + (b(p + [0, d]) - b(p - [0, d]))[1]) / (2 * d)
    assert div_fd == pytest.approx(1.0, abs=1e-6)


def test_sym_min_eig_matches_numpy():
    rng = np.random.default_rng(3)
    grads = rng.standard_normal((20, 2, 2))
    mine = sym_min_eig(grads)
    for g, lam in zip(grads, mine):
        sym = 0.5 * (g + g.T)
        assert lam == pytest.approx(np.linalg.eigvalsh(sym)[0], abs=1e-12)


def test_parse_field_round_trip():
    assert hwp.parse_field("translate:1,2").params == (1.0, 2.0)
    assert hwp.parse_field("horn:0.5").params == (0.5,)
    assert hwp.parse_field("graph-vertical:2").params == (2.0,)
    assert hwp.parse_field("zero").kind == "zero"
    with pytest.raises(ConfigurationError):
        hwp.parse_field("vortex:1")


@pytest.mark.parametrize("text", ["horn:abc", "arc:1", "zero:0", "spiral:0.2,1",
                                  "graph-vertical:-inf", "translate:,5", "translate:1,"])
def test_parse_field_rejects_bad_arguments(text):
    # a non-number used to escape as a bare ValueError, and an empty entry
    # was skipped, so 'translate:,5' read as translate:5,0
    with pytest.raises(ConfigurationError) as err:
        hwp.parse_field(text)
    assert repr(text) in str(err.value)


def test_parse_field_pads_missing_arguments():
    assert hwp.parse_field("translate:1").params == (1.0, 0.0)
    assert hwp.parse_field("horn").params == (1.0,)
    assert hwp.parse_field("spiral:").params == (0.2,)


# ---------------------------------------------------------------------------
# broadcast jets against the per-point jets they replaced
# ---------------------------------------------------------------------------

_KIND_FIELDS = ["translate:0.3,-0.2", "horn:0.5", "spiral:0.2", "graph-vertical:2", "arc",
                "zero"]


def test_only_b_and_arc_grad_have_a_row_per_point():
    pts = np.column_stack([np.linspace(-1.0, 1.0, 7), np.linspace(0.1, 2.0, 7)])
    for spec in ALL_SPECS:
        out = jet_batch(spec, pts)
        rows = {name: len(value) for name, value in out.items()}
        varying = {"b", "grad"} if spec.kind == "arc" else {"b"}
        assert rows == {name: 7 if name in varying else 1 for name in out}, spec.kind
        oracle = per_point_jets(spec, pts)
        for name, value in per_point(out).items():
            np.testing.assert_array_equal(value, oracle[name])


@pytest.mark.parametrize("field", [f for f in _KIND_FIELDS if f != "arc"])
def test_affine_jets_allocate_only_b(field):
    # b takes 16 bytes per point; the per-point jets took 80
    pts = np.random.default_rng(0).uniform(0.1, 1.0, (1 << 14, 2))
    peak, _ = traced_peak(lambda: jet_batch(hwp.parse_field(field), pts))
    assert peak <= 20 * len(pts), peak


def _run_outputs(command, text, out_dir):
    """Every file one hwp command writes, by name, as bytes."""
    cli.run_scenario(cli.parse_scenario(text, command, out_dir=str(out_dir)))
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _with_per_point_jets(monkeypatch, fn):
    """fn() with geometry and analysis reading the per-point jets."""
    with monkeypatch.context() as m:
        m.setattr(geometry, "jet_batch", per_point_jets)
        m.setattr(analysis, "jet_batch", per_point_jets)
        return fn()


@pytest.mark.parametrize("resolution", [16, 48])
@pytest.mark.parametrize("field", _KIND_FIELDS)
def test_geometry_check_outputs_are_the_per_point_bits(field, resolution, tmp_path,
                                                       monkeypatch):
    # the JSON (margins, verdicts, area, trapezoid report) and the boundary
    # CSV of every demo domain; arc runs only where it is defined
    ran = []
    for domain in hwp.DEMO_DOMAINS:
        text = f"domain = {domain}\nfield = {field}\nresolution = {resolution}\n"
        got = _run_outputs("geometry-check", text, tmp_path / domain)
        ref = _with_per_point_jets(monkeypatch, lambda: _run_outputs(
            "geometry-check", text, tmp_path / f"{domain}-ref"))
        assert got == ref, domain
        if "geometry_check_run.json" in got:
            ran.append(domain)
            if domain == "trapezoid":
                spec = hwp.parse_field(field)
                report = hwp.trapezoid_obstruction(spec, resolution)
                assert repr(report) == repr(_with_per_point_jets(
                    monkeypatch, lambda: hwp.trapezoid_obstruction(spec, resolution)))
    assert "arc" in ran and (field == "arc" or len(ran) == len(hwp.DEMO_DOMAINS))


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("field", [f for f in _KIND_FIELDS if f != "arc"])
def test_poincare_form_and_identity_are_the_per_point_bits(field, n, monkeypatch):
    spec = hwp.parse_field(field)
    for lx in (np.pi, 1.0):
        grid = hwp.build_stacked_rectangles(lx, 1.0, 1.0, n, n, 3)
        got = geometry._poincare_form(spec, grid)
        ref = _with_per_point_jets(monkeypatch, lambda: geometry._poincare_form(spec, grid))
        for mine, theirs in zip((got[0].data, got[0].indices, got[0].indptr, *got[1:]),
                                (ref[0].data, ref[0].indices, ref[0].indptr, *ref[1:])):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)
    # the identity terms of the closed-form mode with and without interface
    # data h, H (mean-free, random)
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, n, n, n)
    g, w = hwp.analytic_mode(2, grid)
    rng = np.random.default_rng(n)
    h, big_h = (FourierField(w.period, np.vstack([np.zeros(n), rng.standard_normal((2, n))
                                                   + 1j * rng.standard_normal((2, n))]),
                             "interface") for _ in range(2))
    for data in ((None, None), (h, big_h)):
        got = hwp.multiplier_identity_residual(w, g, *data, spec, grid)
        ref = _with_per_point_jets(
            monkeypatch, lambda: hwp.multiplier_identity_residual(w, g, *data, spec, grid))
        assert repr(got.as_dict()) == repr(ref.as_dict())
