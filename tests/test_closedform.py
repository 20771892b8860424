
import numpy as np
import pytest

import hwp
from hwp import closedform
from hwp.errors import ClosedFormError

import fourier_oracle as oracle

T = 2 * np.pi


def test_poly_bump_endpoints():
    prof = hwp.bump_profile()
    for y in (0.0, 1.0):
        assert prof.phi(y) == 0.0
        assert prof.dphi(y) == 0.0


def test_poly_bump_midpoint_values():
    prof = hwp.bump_profile()
    assert prof.phi(0.5) == pytest.approx(1.0 / 16.0, abs=1e-15)
    # phi'' = 2 - 12 y + 12 y^2
    assert prof.d2phi(0.5) == pytest.approx(-1.0, abs=1e-15)


def test_bump_derivative_matches_finite_differences():
    prof = hwp.bump_profile()
    ys = np.linspace(0.05, 0.95, 7)
    d = 1e-5
    fd = (prof.phi(ys + d) - prof.phi(ys - d)) / (2 * d)
    assert np.max(np.abs(fd - prof.dphi(ys))) < 1e-9


def test_analytic_mode_point_values():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 65, 65, 3)
    g, w = hwp.analytic_mode(1, grid)
    i = 32  # x = pi/2
    j = 32  # y = 1/2
    t = np.array([np.pi / 2])
    assert w.sample_real(t)[0, j, i] == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert g.sample_real(t)[0, j, i] == pytest.approx(1.0, abs=1e-12)


def test_analytic_mode_boundary_traces():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 17, 3)
    _, w = hwp.analytic_mode(2, grid)
    # zero Dirichlet trace on the whole wave boundary, including the interface
    modes = oracle.two_sided(w)
    assert np.max(np.abs(modes[:, 0, :])) == 0.0
    assert np.max(np.abs(modes[:, -1, :])) == 0.0
    assert np.max(np.abs(modes[:, :, 0])) < 1e-15
    # the analytic normal derivative vanishes on the interface
    assert hwp.bump_profile().dphi(0.0) == 0.0


def test_analytic_mode_requires_reference_geometry():
    grid = hwp.build_stacked_rectangles(2.0, 1.0, 1.0, 9, 9, 3)
    with pytest.raises(ClosedFormError):
        hwp.analytic_mode(1, grid)


def test_analytic_mode_solves_wave_equation():
    # w_tt - Lap w = g pointwise for the closed forms
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 33, 33, 3)
    g, w = hwp.analytic_mode(3, grid)
    prof = hwp.bump_profile()
    x, y = np.meshgrid(grid.x, grid.y_w)
    for t in (0.3, 1.7):
        wtt = -9 * np.sin(3 * t) * np.sin(3 * x) * prof.phi(y)
        lap = (np.sin(3 * t) * (-9) * np.sin(3 * x) * prof.phi(y)
               + np.sin(3 * t) * np.sin(3 * x) * prof.d2phi(y))
        g_t = g.sample_real(np.array([t]))[0]
        assert np.max(np.abs(wtt - lap - g_t)) < 1e-12


def test_series_composition():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 33, 17, 3)
    rule = hwp.series_rule("G1")
    g2_series = closedform.series_sources(rule, 2, grid)[0].stored()
    g1, _ = hwp.analytic_mode(1, grid)
    g2, _ = hwp.analytic_mode(2, grid)
    combo = oracle.two_sided(g1, 2) + 0.5 * oracle.two_sided(g2, 2)
    assert np.max(np.abs(oracle.two_sided(g2_series) - combo)) < 1e-15

    gG2 = closedform.series_sources(hwp.series_rule("G2"), 1, grid)[0].stored()
    assert np.max(np.abs(oracle.two_sided(gG2) - oracle.two_sided(g1, 1))) < 1e-15


def test_series_truncation_consistency():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 33, 17, 3)
    rule = hwp.series_rule("G1")
    g4, g3 = (closedform.series_sources(rule, n, grid)[0].stored() for n in (4, 3))
    gm4, _ = hwp.analytic_mode(4, grid)
    diff = g4 - g3
    expected = oracle.two_sided(gm4, 4) / 4.0
    assert np.max(np.abs(oracle.two_sided(diff) - expected)) < 1e-15


def test_series_rules_summability():
    # G1 coefficients are square-summable; G2 remain so with an n^2 weight
    n = np.arange(1, 10001, dtype=float)
    a = np.array([hwp.series_rule("G1").coefficient(k) for k in range(1, 10001)])
    b = np.array([hwp.series_rule("G2").coefficient(k) for k in range(1, 10001)])
    assert np.sum(a**2) < np.pi**2 / 6 + 1e-6
    assert np.sum(n**2 * b**2) < np.pi**2 / 6 + 1e-6


def test_series_aliasing_guard():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 9, 3)
    with pytest.raises(ClosedFormError):
        closedform.series_sources(hwp.series_rule("G1"), 16, grid)



@pytest.mark.parametrize("family,data", [("mode:3", [3]), ("series:G1:4", [1, 2, 3, 4])])
def test_family_sources_build_each_amplitude_once(family, data, monkeypatch):
    # g and w_ref each build only their own amplitude of a mode that carries
    # data; both used to build the pair of mode_amplitudes and keep half
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 9, 3)
    if family == "mode:3":
        g, w = closedform.analytic_sources(3, grid)
    else:
        g, w = closedform.series_sources(hwp.series_rule("G1"), 4, grid)
    built = []
    amplitude = closedform._amplitude
    monkeypatch.setattr(closedform, "_amplitude",
                        lambda n, grid_, i: built.append((n, i)) or amplitude(n, grid_, i))
    for k in range(g.n_modes + 1):
        g.mode(k), w.mode(k)
    assert built == [(n, i) for n in data for i in (0, 1)]
