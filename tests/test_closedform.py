import warnings

import numpy as np
import pytest

import hwp
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


def test_custom_bump_endpoint_violation_rejected():
    with pytest.raises(ClosedFormError):
        hwp.bump_profile("custom", coeffs=[0.0, 1.0])  # phi = y
    # a valid custom bump: y^3 (1-y)^3 expanded
    coeffs = np.polynomial.Polynomial([0, 0, 0, 1]) * np.polynomial.Polynomial([1, -1]) ** 3
    prof = hwp.bump_profile("custom", coeffs=coeffs.coef)
    assert prof.phi(0.5) == pytest.approx(1.0 / 64.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_custom_bump_rejects_non_finite_coefficients(bad):
    # a NaN coefficient used to pass the endpoint checks (NaN > 1e-12 is False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ClosedFormError, match="must be finite"):
            hwp.bump_profile("custom", coeffs=[0.0, 0.0, bad, 0.0, 0.0])


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
    g2_series, _ = hwp.series_forcing(rule, 2, grid)
    g1, _ = hwp.analytic_mode(1, grid)
    g2, _ = hwp.analytic_mode(2, grid)
    combo = g1 + g2.scaled(0.5)
    assert np.max(np.abs(oracle.two_sided(g2_series) - oracle.two_sided(combo, 2))) < 1e-15

    gG2, _ = hwp.series_forcing(hwp.series_rule("G2"), 1, grid)
    assert np.max(np.abs(oracle.two_sided(gG2) - oracle.two_sided(g1, 1))) < 1e-15


def test_series_truncation_consistency():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 33, 17, 3)
    rule = hwp.series_rule("G1")
    g4, _ = hwp.series_forcing(rule, 4, grid)
    g3, _ = hwp.series_forcing(rule, 3, grid)
    gm4, _ = hwp.analytic_mode(4, grid)
    diff = g4 - g3
    expected = gm4.scaled(1.0 / 4.0)
    assert np.max(np.abs(oracle.two_sided(diff) - oracle.two_sided(expected, 4))) < 1e-15


def test_series_rules_summability():
    # G1 coefficients are square-summable; G2 remain so with an n^2 weight
    n = np.arange(1, 10001, dtype=float)
    a = hwp.series_rule("G1").coefficients(10000)
    b = hwp.series_rule("G2").coefficients(10000)
    assert np.sum(a**2) < np.pi**2 / 6 + 1e-6
    assert np.sum(n**2 * b**2) < np.pi**2 / 6 + 1e-6


def test_series_aliasing_guard():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 9, 3)
    with pytest.raises(ClosedFormError):
        hwp.series_forcing(hwp.series_rule("G1"), 16, grid)
