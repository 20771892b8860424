import numpy as np
import pytest

import hwp
from hwp.errors import ConfigurationError, FieldDomainError
from hwp.fields import eval_b, jet_batch, sym_min_eig

ALL_SPECS = [
    hwp.translate((0.3, -0.2)),
    hwp.horn(0.5),
    hwp.spiral(0.2),
    hwp.graph_vertical(2.0),
    hwp.arc_renormalized(),
    hwp.zero_field(),
]


def test_translate_jet():
    jet = hwp.field_jet(hwp.translate((0.0, 0.0)), (2.0, 3.0))
    assert np.allclose(jet.b, [2.0, 3.0])
    assert np.allclose(jet.grad_b, np.eye(2))
    assert jet.div_b == 2.0
    assert jet.lap_div_b == 0.0


def test_spiral_jet_and_quadratic_form():
    jet = hwp.field_jet(hwp.spiral(0.2), (1.0, 0.0))
    assert np.allclose(jet.b, [0.2, 1.0])
    assert jet.div_b == pytest.approx(0.4)
    # quadratic form xi^T grad(b) xi = alpha |xi|^2 for every direction
    sym = 0.5 * (jet.grad_b + jet.grad_b.T)
    for theta in np.linspace(0, np.pi, 17):
        xi = np.array([np.cos(theta), np.sin(theta)])
        assert xi @ sym @ xi == pytest.approx(0.2, abs=1e-14)


def test_horn_jet():
    jet = hwp.field_jet(hwp.horn(2.0), (1.0, 1.0))
    assert np.allclose(jet.b, [2.0, 1.0])
    assert np.allclose(jet.grad_b, np.diag([2.0, 1.0]))
    assert jet.div_b == pytest.approx(3.0)


def test_arc_requires_upper_half_plane():
    with pytest.raises(FieldDomainError):
        hwp.field_jet(hwp.arc_renormalized(), (1.0, 0.0))
    with pytest.raises(FieldDomainError):
        hwp.field_jet(hwp.arc_renormalized(), (1.0, -0.5))


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
            fd = (eval_b(spec, p + d * e) - eval_b(spec, p - d * e))[0] / (2 * d)
            assert np.max(np.abs(fd - grad[:, col])) < 1e-6


def test_arc_renormalized_divergence_is_one():
    # div(Phi * rotation) = 1 by construction; cross-check via FD of b
    spec = hwp.arc_renormalized()
    p = np.array([0.4, 1.1])
    d = 1e-6
    div_fd = ((eval_b(spec, p + [d, 0]) - eval_b(spec, p - [d, 0]))[0, 0]
              + (eval_b(spec, p + [0, d]) - eval_b(spec, p - [0, d]))[0, 1]) / (2 * d)
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
