import copy
import warnings

import numpy as np
import pytest

import hwp
from hwp import analysis, closedform
from hwp.cli import smooth_heat_forcing
from hwp.errors import AnalysisError, ConfigurationError
from hwp.timefourier import FourierField, ModeSource
from hwp import quadrature as quad
from hwp.fields import jet_batch

import fourier_oracle as oracle
from conftest import traced_peak

T = 2 * np.pi


def _sbp_form(ny, nx, hx, hy):
    """The sparse edge form on the interior rows, the oracle of the
    matrix-free apply."""
    return quad.sbp_stiffness(ny, nx, hx, hy, np.arange(1, ny - 1))


def wave_grid(n, ny=None):
    return hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, n, ny or n, 3)


def _unit_spatial_shape(grid):
    """A spatial field with grid L2 norm exactly one."""
    shape = np.outer(np.sin(np.pi * grid.y_w), np.sin(grid.x))
    mass = quad.trap_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    return shape / np.sqrt(quad.norm_sq(mass, shape))


def test_sobolev_norm_closed_form():
    grid = wave_grid(17)
    psi = _unit_spatial_shape(grid)
    f = oracle.from_modes(T, 3, {3: -0.5j * psi}, "wave")
    # value^2 = (1 + 9)^s * (1/4 + 1/4)
    assert analysis.sobolev_time_norm(f, 1, grid) ** 2 == pytest.approx(5.0, rel=1e-12)
    assert analysis.sobolev_time_norm(f, -1, grid) ** 2 == pytest.approx(0.05, rel=1e-12)


def test_sobolev_s0_matches_direct_quadrature():
    grid = wave_grid(17)
    rng = np.random.default_rng(2)
    f = FourierField.zeros(T, 3, (grid.ny_w, grid.nx), "wave")
    for k in range(0, 4):
        c = rng.standard_normal() + (1j * rng.standard_normal() if k else 0)
        f.coeffs[k] = c * np.outer(np.cos(grid.y_w), np.sin(2 * grid.x))
    val = analysis.sobolev_time_norm(f, 0, grid)
    ts = np.arange(64) * T / 64
    samples = f.sample_real(ts)
    mass = quad.trap_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    direct = np.sqrt(np.mean([quad.norm_sq(mass, s) for s in samples]))
    assert val == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("flavor", ["l2", "h1"])
def test_sobolev_time_norm_rejects_non_finite_coefficients(bad, flavor):
    # a NaN coefficient used to give a NaN norm
    grid = wave_grid(9)
    f = FourierField.zeros(T, 1, (grid.ny_w, grid.nx), "wave")
    f.coeffs[1, 4, 4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnalysisError, match="^sobolev_time_norm: .*non-finite"):
            analysis.sobolev_time_norm(f, 0, grid, flavor)


@pytest.mark.parametrize("n_modes, n", [(2, 161), (16, 81), (2, 385)])
def test_spatial_norm_sq_is_bitwise_the_stacked_reduction(n_modes, n):
    grid = wave_grid(n)
    rng = np.random.default_rng(n)
    f = oracle.random_real_field(rng, T, n_modes, (grid.ny_w, grid.nx))
    mass = quad.trap_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    modes = np.stack([f.mode(k) for k in range(n_modes + 1)])
    stacked = np.sum(mass[None, ...] * np.abs(modes) ** 2, axis=(1, 2))
    assert np.array_equal(analysis._spatial_norm_sq(f, grid, "l2"), stacked)


def test_norm_profile_monotone_in_s():
    grid = wave_grid(9)
    rng = np.random.default_rng(6)
    f = FourierField.zeros(T, 4, (grid.ny_w, grid.nx), "wave")
    for k in range(1, 5):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        f.coeffs[k] = c * np.outer(grid.y_w, np.sin(grid.x))
    norms = [analysis.sobolev_time_norm(f, s, grid) for s in (-2, -1, 0, 0.5, 1, 2)]
    for a, b in zip(norms, norms[1:]):
        assert a <= b * (1 + 1e-12)
    with pytest.raises(AnalysisError):
        analysis.sobolev_time_norm(f, 9.0, grid)


# ---------------------------------------------------------------------------
# flow-multiplier identity
# ---------------------------------------------------------------------------

def _identity_residuals(spec, grids=(33, 65, 129)):
    out = []
    for n in grids:
        grid = wave_grid(n, n)
        g2, w2 = hwp.analytic_mode(2, grid)
        rep = hwp.multiplier_identity_residual(w2, g2, None, None, spec, grid)
        out.append(rep)
    return out


def test_multiplier_identity_graph_vertical_second_order():
    reps = _identity_residuals(hwp.graph_vertical(2.0))
    r = [rep.residual for rep in reps]
    assert 3.5 <= r[0] / r[1] <= 4.5
    assert 3.5 <= r[1] / r[2] <= 4.5
    # breakdown terms recompose the two sides exactly
    for rep in reps:
        lhs = (rep.terms["lhs_contractivity"] + rep.terms["lhs_interface_tangential"]
               + rep.terms["lhs_wall_normal"])
        rhs = (rep.terms["rhs_g_flow"] + rep.terms["rhs_g_w_div"]
               + rep.terms["rhs_w2_lapdiv"] + rep.terms["rhs_h2_sign"]
               + rep.terms["rhs_H2_flux"])
        assert abs(lhs - rep.lhs_value) < 1e-12
        assert abs(rhs - rep.rhs_value) < 1e-12


def test_multiplier_identity_translate_cross_check():
    reps = _identity_residuals(hwp.translate((0.0, 0.0)), grids=(33, 65))
    assert 3.5 <= reps[0].residual / reps[1].residual <= 4.5
    # different field, different term breakdown, same identity structure
    graph = _identity_residuals(hwp.graph_vertical(2.0), grids=(33,))[0]
    assert reps[0].terms["rhs_g_w_div"] != pytest.approx(graph.terms["rhs_g_w_div"])


def test_multiplier_identity_continuum_value():
    # with b = (0, y-2) both sides approach int_0^T int int |w_y|^2 for
    # (w2, g2): the time factor integrates to pi, the x factor to pi/2,
    # and ||phi'||^2 = 2/105, so lhs -> pi^2/105
    grid = wave_grid(129, 129)
    g2, w2 = hwp.analytic_mode(2, grid)
    rep = hwp.multiplier_identity_residual(w2, g2, None, None,
                                           hwp.graph_vertical(2.0), grid)
    assert rep.lhs_value == pytest.approx(np.pi**2 / 105.0, rel=0.01)
    assert rep.residual < 1e-4


def test_multiplier_identity_zero_fields():
    grid = wave_grid(17)
    zero = FourierField.zeros(T, 2, (grid.ny_w, grid.nx), "wave")
    rep = hwp.multiplier_identity_residual(zero, zero, None, None,
                                           hwp.translate((0.0, 0.0)), grid)
    assert rep.lhs_value == 0.0
    assert rep.rhs_value == 0.0


def test_multiplier_identity_rejects_nonzero_mean():
    grid = wave_grid(9)
    g2, w2 = hwp.analytic_mode(2, grid)
    bad = FourierField(T, g2.coeffs.copy(), "wave")
    bad.coeffs[0] = 1.0
    with pytest.raises(AnalysisError):
        hwp.multiplier_identity_residual(w2, bad, None, None,
                                         hwp.translate((0.0, 0.0)), grid)


def _identity_terms_oracle(w, g, h, big_h, spec, grid, jet_batch=jet_batch):
    """The identity's terms by the uniform rule on 2n+3 time samples, one
    sample at a time (the rule is exact for products of two fields of
    degree <= n); absent h or H are zero."""
    ny, nx, hx, hy = grid.ny_w, grid.nx, grid.hx, grid.hy_w
    n = max(f.n_modes for f in (w, g, h, big_h) if f is not None)
    wt = 2 * n + 3
    times = np.arange(wt) * w.period / wt
    dt = w.period / wt
    w_t, g_t = w.sample_real(times), g.sample_real(times)
    h_t = h.sample_real(times) if h is not None else np.zeros((wt, nx))
    H_t = big_h.sample_real(times) if big_h is not None else np.zeros((wt, nx))

    xc, yc = quad.cell_centers(grid.x, grid.y_w)
    jets = jet_batch(spec, np.stack([xc.ravel(), yc.ravel()], axis=1))
    bx, by = (jets["b"][:, i].reshape(xc.shape) for i in (0, 1))
    gsym = 0.5 * (jets["grad"] + np.swapaxes(jets["grad"], 1, 2))
    g11, g12, g22 = (gsym[:, p, q].reshape(xc.shape) for p, q in ((0, 0), (0, 1), (1, 1)))
    divb = jets["div"].reshape(xc.shape)
    lapdiv = jets["lap_div"].reshape(xc.shape)
    area = hx * hy
    wx = quad.trap_weights_1d(nx, hx)
    iface = jet_batch(spec, np.stack([grid.x, np.zeros(nx)], axis=1))
    iface_b_dot_n, iface_dn_divb = -iface["b"][:, 1], -iface["grad_div"][:, 1]
    wy = quad.trap_weights_1d(ny, hy)
    top_b = jet_batch(spec, np.stack([grid.x, np.full(nx, grid.ly_w)], axis=1))["b"]
    left_b = jet_batch(spec, np.stack([np.zeros(ny), grid.y_w], axis=1))["b"]
    right_b = jet_batch(spec, np.stack([np.full(ny, grid.lx), grid.y_w], axis=1))["b"]

    acc = dict.fromkeys(("lhs_contractivity", "lhs_interface_tangential",
                         "lhs_wall_normal", "rhs_g_flow", "rhs_g_w_div",
                         "rhs_w2_lapdiv", "rhs_h2_sign", "rhs_H2_flux"), 0.0)
    for m in range(wt):
        wm, gm, Hm = w_t[m], g_t[m], H_t[m]
        fx, fy = quad.cell_gradient(wm, hx, hy)
        acc["lhs_contractivity"] += dt * area * np.sum(
            g11 * fx**2 + 2 * g12 * fx * fy + g22 * fy**2)
        gc, wc = quad.cell_average(gm), quad.cell_average(wm)
        acc["rhs_g_flow"] += dt * area * np.sum(gc * (bx * fx + by * fy))
        acc["rhs_g_w_div"] += dt * area * 0.5 * np.sum(gc * wc * divb)
        acc["rhs_w2_lapdiv"] += dt * area * 0.25 * np.sum(wc**2 * lapdiv)
        dH = np.zeros(nx)
        dH[1:-1] = (Hm[2:] - Hm[:-2]) / (2 * hx)
        dH[0] = (-3 * Hm[0] + 4 * Hm[1] - Hm[2]) / (2 * hx)
        dH[-1] = (3 * Hm[-1] - 4 * Hm[-2] + Hm[-3]) / (2 * hx)
        acc["lhs_interface_tangential"] += dt * 0.5 * np.sum(wx * dH**2 * iface_b_dot_n)
        acc["rhs_h2_sign"] += dt * 0.5 * np.sum(wx * h_t[m]**2 * iface_b_dot_n)
        acc["rhs_H2_flux"] += dt * (-0.25) * np.sum(wx * Hm**2 * iface_dn_divb)
        dn_top = quad.one_sided_deriv_high(wm, hy, axis=0)
        dn_left = -quad.one_sided_deriv_low(wm.T, hx, axis=0)
        dn_right = quad.one_sided_deriv_high(wm.T, hx, axis=0)
        acc["lhs_wall_normal"] += dt * (-0.5) * (
            np.sum(wx * dn_top**2 * top_b[:, 1]) + np.sum(wy * dn_left**2 * (-left_b[:, 0]))
            + np.sum(wy * dn_right**2 * right_b[:, 0]))
    return {k: float(v) for k, v in acc.items()}


def _smooth_real_field(n_modes, live, shapes, domain, rng):
    """A real field whose modes +-k, k in live, are random complex
    combinations of the given smooth shapes (conjugate at -k)."""
    f = FourierField.zeros(T, n_modes, shapes.shape[1:], domain)
    for k in live:
        c = rng.standard_normal(len(shapes)) + (1j * rng.standard_normal(len(shapes)) if k else 0)
        f.coeffs[k] = np.tensordot(c, shapes, axes=1)
    return f


def _identity_data(grid, seed):
    """w with a mean and no k = 2, mean-free g, h and H of differing
    lengths, so padding and the skipped mode are exercised."""
    rng = np.random.default_rng(seed)
    area = np.stack([np.outer(np.cos(p * grid.y_w), np.sin(m * grid.x))
                     for p in (0.5, 2.0) for m in (1, 2, 3)])
    line = np.stack([np.sin(m * grid.x + p) for m in (1, 2, 3) for p in (0.0, 1.0)])
    return (_smooth_real_field(3, (0, 1, 3), area, "wave", rng),
            _smooth_real_field(2, (1,), area, "wave", rng),
            _smooth_real_field(1, (1,), line, "interface", rng),
            _smooth_real_field(4, (1, 3, 4), line, "interface", rng))


def _jets_with_varying_div(spec, points):
    """The field's jets with a non-constant grad(div b) and Lap(div b)
    spliced in (every built-in field has a constant div b), so that every
    term of the identity is non-zero; the terms' algebra does not need
    the jets consistent."""
    jets = jet_batch(spec, points)
    x, y = points[:, 0], points[:, 1]
    jets["grad_div"] = np.stack([np.cos(x) * (1.0 + y), 0.5 + np.sin(x) * y], axis=1)
    jets["lap_div"] = 1.0 + np.sin(x) * np.cos(y)
    return jets


@pytest.mark.parametrize("field", ["graph-vertical:2", "spiral:0.2"])
@pytest.mark.parametrize("n", [17, 33])
def test_identity_terms_match_sampled_loop(n, field, monkeypatch):
    # every term, the interface terms of non-zero h and H included, against
    # the 2n+3-sample loop the Parseval sums replaced
    monkeypatch.setattr(analysis, "jet_batch", _jets_with_varying_div)
    grid = wave_grid(n, n)
    spec = hwp.parse_field(field)
    w, g, h, big_h = _identity_data(grid, n)
    rep = hwp.multiplier_identity_residual(w, g, h, big_h, spec, grid)
    ref = _identity_terms_oracle(w, g, h, big_h, spec, grid, _jets_with_varying_div)
    assert list(rep.terms) == list(ref)
    scale = max(abs(v) for v in ref.values())
    for name, value in ref.items():
        assert abs(value) > 1e-3 * scale, name
        assert abs(rep.terms[name] - value) <= 1e-12 * scale, name
    # absent h and H contribute exactly nothing
    bare = hwp.multiplier_identity_residual(w, g, None, None, spec, grid)
    assert bare.terms["rhs_h2_sign"] == bare.terms["rhs_H2_flux"] == 0.0
    assert bare.terms["lhs_interface_tangential"] == 0.0
    assert bare.terms["lhs_contractivity"] == pytest.approx(
        rep.terms["lhs_contractivity"], rel=1e-14)
    # the analytic mode: one live mode of seven
    g2, w2 = hwp.analytic_mode(2, grid)
    rep = hwp.multiplier_identity_residual(w2, g2, None, None, spec, grid)
    ref = _identity_terms_oracle(w2, g2, None, None, spec, grid, _jets_with_varying_div)
    scale = max(abs(v) for v in ref.values())
    for name, value in ref.items():
        assert abs(rep.terms[name] - value) <= 1e-12 * scale, name


@pytest.mark.parametrize("name", ["w", "g", "h", "H"])
def test_multiplier_identity_rejects_non_real_input_by_name(name):
    # a field stores modes k >= 0, so c_-1 != conj(c_1) cannot be given;
    # the one non-real input left, a complex mean, is refused when the
    # field is built, before it reaches the identity
    grid = wave_grid(9)
    fields = dict(zip(("w", "g", "h", "H"), _identity_data(grid, 3)))
    coeffs = fields[name].coeffs.copy()
    coeffs[0] += 1e-6j * np.max(np.abs(coeffs))
    with pytest.raises(AnalysisError, match="^the mean c_0 of a real field must be real"):
        fields[name] = FourierField(T, coeffs, fields[name].domain)


def _mode_stacks(period, fields):
    """The modes analysis._parseval_modes yields, collected (each dict is
    copied before the generator empties it): their weights and each field's
    coefficients at them, shape (K, *spatial) (None stays None)."""
    data = [(k, weight_k, dict(c)) for k, weight_k, c in analysis._parseval_modes(period, fields)]
    weight = np.array([weight_k for _, weight_k, _ in data])
    return weight, {name: None if f is None else
                    np.array([c[name] for _, _, c in data]).reshape((-1,) + f.spatial_shape)
                    for name, f in fields.items()}


def _single_pass_identity(w, g, h, big_h, spec, grid, jet_batch=jet_batch):
    """The identity with every cell-centre jet and area density in one
    pass, over the stacked modes, the oracle of the per-mode cell-row
    strips (mean-free checks left out)."""
    weight, modes = _mode_stacks(w.period, {"w": w, "g": g, "h": h, "H": big_h})
    pair = analysis._pair
    ny, nx, hx, hy = grid.ny_w, grid.nx, grid.hx, grid.hy_w
    xc, yc = quad.cell_centers(grid.x, grid.y_w)
    jets = jet_batch(spec, np.stack([xc.ravel(), yc.ravel()], axis=1))
    bx, by = (jets["b"][:, i].reshape(xc.shape) for i in (0, 1))
    gsym = 0.5 * (jets["grad"] + np.swapaxes(jets["grad"], 1, 2))
    g11, g12, g22 = (gsym[:, p, q].reshape(xc.shape) for p, q in ((0, 0), (0, 1), (1, 1)))
    divb = jets["div"].reshape(xc.shape)
    lapdiv = jets["lap_div"].reshape(xc.shape)
    area = hx * hy
    wx = quad.trap_weights_1d(nx, hx)
    iface = jet_batch(spec, np.stack([grid.x, np.zeros(nx)], axis=1))
    iface_b_dot_n, iface_dn_divb = -iface["b"][:, 1], -iface["grad_div"][:, 1]
    wy = quad.trap_weights_1d(ny, hy)
    top_b = jet_batch(spec, np.stack([grid.x, np.full(nx, grid.ly_w)], axis=1))["b"]
    left_b = jet_batch(spec, np.stack([np.zeros(ny), grid.y_w], axis=1))["b"]
    right_b = jet_batch(spec, np.stack([np.full(ny, grid.lx), grid.y_w], axis=1))["b"]

    def integral(density):
        return float(weight @ np.sum(density, axis=tuple(range(1, density.ndim))))

    wk, gk = modes["w"], modes["g"]
    fx, fy = quad.cell_gradient(wk, hx, hy)
    gc, wc = quad.cell_average(gk), quad.cell_average(wk)
    h2 = dH2 = H2 = np.zeros((weight.size, nx))
    if modes["h"] is not None:
        h2 = pair(modes["h"], modes["h"])
    if modes["H"] is not None:
        Hk = modes["H"]
        dH = np.empty_like(Hk)
        dH[:, 1:-1] = (Hk[:, 2:] - Hk[:, :-2]) / (2 * hx)
        dH[:, 0] = quad.one_sided_deriv_low(Hk, hx, axis=1)
        dH[:, -1] = quad.one_sided_deriv_high(Hk, hx, axis=1)
        dH2, H2 = pair(dH, dH), pair(Hk, Hk)
    dn_top = quad.one_sided_deriv_high(wk, hy, axis=1)
    dn_left = -quad.one_sided_deriv_low(wk, hx, axis=2)
    dn_right = quad.one_sided_deriv_high(wk, hx, axis=2)
    terms = {
        "lhs_contractivity": area * integral(
            g11 * pair(fx, fx) + 2 * g12 * pair(fx, fy) + g22 * pair(fy, fy)),
        "lhs_interface_tangential": 0.5 * integral(wx * dH2 * iface_b_dot_n),
        "lhs_wall_normal": -0.5 * (
            integral(wx * pair(dn_top, dn_top) * top_b[:, 1])
            + integral(wy * pair(dn_left, dn_left) * (-left_b[:, 0]))
            + integral(wy * pair(dn_right, dn_right) * right_b[:, 0])),
        "rhs_g_flow": area * integral(pair(gc, bx * fx + by * fy)),
        "rhs_g_w_div": 0.5 * area * integral(pair(gc, wc) * divb),
        "rhs_w2_lapdiv": 0.25 * area * integral(pair(wc, wc) * lapdiv),
        "rhs_h2_sign": 0.5 * integral(wx * h2 * iface_b_dot_n),
        "rhs_H2_flux": -0.25 * integral(wx * H2 * iface_dn_divb),
    }
    terms = {name: value + 0.0 for name, value in terms.items()}
    lhs = (terms["lhs_contractivity"] + terms["lhs_interface_tangential"]
           + terms["lhs_wall_normal"])
    rhs = (terms["rhs_g_flow"] + terms["rhs_g_w_div"] + terms["rhs_w2_lapdiv"]
           + terms["rhs_h2_sign"] + terms["rhs_H2_flux"])
    return analysis.IdentityReport(lhs_value=lhs, rhs_value=rhs, residual=abs(lhs - rhs),
                                   terms=terms, hx=hx, hy=hy)


_STRIP_FIELDS = ["graph-vertical:2", "translate:0,0", "spiral:0.2"]


def _strip_case(nx, ny, field, traces, monkeypatch):
    """(strips, single pass) on one grid, every term non-zero (varying
    div b jets), with or without the interface data h and H."""
    monkeypatch.setattr(analysis, "jet_batch", _jets_with_varying_div)
    grid = wave_grid(nx, ny)
    spec = hwp.parse_field(field)
    w, g, h, big_h = _identity_data(grid, nx + ny)
    if not traces:
        h = big_h = None
    return (hwp.multiplier_identity_residual(w, g, h, big_h, spec, grid),
            _single_pass_identity(w, g, h, big_h, spec, grid, _jets_with_varying_div))


@pytest.mark.parametrize("traces", [True, False], ids=["h,H", "bare"])
@pytest.mark.parametrize("field", _STRIP_FIELDS)
@pytest.mark.parametrize("n", [33, 129])
def test_identity_in_one_strip_equals_single_pass(n, field, traces, monkeypatch):
    assert (n - 1) ** 2 <= hwp.fields._JET_CHUNK
    got, ref = _strip_case(n, n, field, traces, monkeypatch)
    assert repr(got.as_dict()) == repr(ref.as_dict())


@pytest.mark.parametrize("traces", [True, False], ids=["h,H", "bare"])
@pytest.mark.parametrize("field", _STRIP_FIELDS)
@pytest.mark.parametrize("dims", [(385, 385), (385, 100)], ids=["385^2", "385x100"])
def test_identity_strips_match_single_pass(dims, field, traces, monkeypatch):
    # 385 nodes across give strips of 16384 // 384 = 42 cell rows: nine
    # full strips and one of 6 rows at 385^2, two and one of 15 at 385x100
    nx, ny = dims
    rows = hwp.fields._JET_CHUNK // (nx - 1)
    assert (ny - 1) > rows and (ny - 1) % rows
    got, ref = _strip_case(nx, ny, field, traces, monkeypatch)
    scale = max(abs(ref.lhs_value), abs(ref.rhs_value))
    for name, value in ref.terms.items():
        assert abs(got.terms[name] - value) <= 1e-13 * scale, name
    assert abs(got.lhs_value - ref.lhs_value) <= 1e-13 * scale
    assert abs(got.rhs_value - ref.rhs_value) <= 1e-13 * scale


def test_identity_memory_is_bounded():
    grid = wave_grid(385, 385)
    g, w = hwp.analytic_mode(2, grid)
    spec = hwp.graph_vertical(2.0)
    peak, _ = traced_peak(lambda: hwp.multiplier_identity_residual(w, g, None, None, spec, grid))
    assert peak < 16e6


@pytest.mark.parametrize("family", ["mode:3", "series:G1:5"])
def test_identity_and_equipartition_from_sources_are_the_stored_bits(family):
    # both read their fields one mode at a time through mode(k), so a source
    # that builds each mode on demand gives the bits of its stored field
    grid = wave_grid(65, 49)
    if family == "mode:3":
        g, w = closedform.analytic_sources(3, grid)
    else:
        g, w = closedform.series_sources(closedform.series_rule("G1"), 5, grid)
    g_stored, w_stored = g.stored(), w.stored()
    for field in _STRIP_FIELDS:
        spec = hwp.parse_field(field)
        got = hwp.multiplier_identity_residual(w, g, None, None, spec, grid)
        ref = hwp.multiplier_identity_residual(w_stored, g_stored, None, None, spec, grid)
        assert repr(got.as_dict()) == repr(ref.as_dict())
    assert (repr(hwp.equipartition_residual(w, g, grid))
            == repr(hwp.equipartition_residual(w_stored, g_stored, grid)))


def test_parseval_modes_hold_one_mode_at_a_time():
    # each modes dict is emptied before the next mode is built, so the
    # previous mode is no longer referenced while the next one is made
    grid = wave_grid(17)
    g, w = closedform.series_sources(closedform.series_rule("G2"), 4, grid)
    seen = []
    for k, _, modes in analysis._parseval_modes(w.period, {"w": w, "g": g, "h": None}):
        assert all(seen_modes == {} for seen_modes in seen)
        assert modes["h"] is None and modes["w"].shape == (17, 17)
        seen.append(modes)
    assert [len(m) for m in seen] == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# equipartition balance
# ---------------------------------------------------------------------------

def test_equipartition_closed_form_second_order():
    vals = {}
    for n in (33, 65):
        grid = wave_grid(n, n)
        g1, w1 = hwp.analytic_mode(1, grid)
        vals[n] = hwp.equipartition_residual(w1, g1, grid)
    assert vals[33] / vals[65] == pytest.approx(4.0, abs=0.8)
    # sanity: the common value of both sides is (T/2)(pi/2)||phi'||^2;
    # check the pairing integral against it
    grid = wave_grid(65, 65)
    g1, w1 = hwp.analytic_mode(1, grid)
    mass = quad.interior_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    # int_0^T sum_nodes mass g w dt by Parseval: T sum_k <g_k, conj(w_k)>
    rhs = T * np.sum(mass * oracle.two_sided(g1) * np.conj(oracle.two_sided(w1))).real
    assert rhs == pytest.approx((T / 2) * (np.pi / 2) * (2.0 / 105.0), rel=1e-3)


def test_equipartition_zero():
    grid = wave_grid(9)
    zero = FourierField.zeros(T, 1, (grid.ny_w, grid.nx), "wave")
    assert hwp.equipartition_residual(zero, zero, grid) == 0.0


def test_equipartition_exact_for_discrete_manufactured_forcing():
    grid = wave_grid(17)
    rng = np.random.default_rng(7)
    n = 3
    w = FourierField.zeros(T, n, (grid.ny_w, grid.nx), "wave")
    prof = np.zeros(grid.ny_w)
    prof[2:-1] = rng.standard_normal(grid.ny_w - 3)
    # rows 0 and 1 vanish: discrete zero Neumann data on the interface
    for k in range(1, n + 1):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        shape = np.outer(prof, np.sin(int(rng.integers(1, 4)) * grid.x))
        w.coeffs[k] = c * shape
    g = FourierField.zeros(T, n, (grid.ny_w, grid.nx), "wave")
    hx, hy = grid.hx, grid.hy_w
    for k in range(1, n + 1):
        wk = w.mode(k)
        lap = np.zeros_like(wk)
        lap[1:-1, 1:-1] = ((wk[1:-1, 2:] - 2 * wk[1:-1, 1:-1] + wk[1:-1, :-2]) / hx**2
                           + (wk[2:, 1:-1] - 2 * wk[1:-1, 1:-1] + wk[:-2, 1:-1]) / hy**2)
        g.coeffs[k] = -(k ** 2) * wk - lap
    assert hwp.equipartition_residual(w, g, grid) <= 1e-9


def _equipartition_oracle(w, g, grid):
    """(lhs, rhs) of the equipartition balance, mode by mode over k = -n..n
    with the sparse edge form."""
    mass = quad.interior_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    form = _sbp_form(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    n = max(w.n_modes, g.n_modes)
    wc, gc = oracle.two_sided(w, n), oracle.two_sided(g, n)
    lhs = rhs = 0.0
    for idx, k in enumerate(range(-n, n + 1)):
        wk = wc[idx]
        lhs += w.period * np.real(np.vdot(wk.ravel(), form @ wk.ravel()))
        lhs -= w.period * (w.omega * k) ** 2 * quad.norm_sq(mass, wk)
        rhs += w.period * np.real(np.sum(mass * gc[idx] * np.conj(wk)))
    return lhs, rhs


@pytest.mark.parametrize("n", [17, 33])
def test_equipartition_matches_sparse_form_oracle(n):
    grid = wave_grid(n, n)
    w, g, _, _ = _identity_data(grid, n + 1)
    lhs, rhs = _equipartition_oracle(w, g, grid)
    got = hwp.equipartition_residual(w, g, grid)
    assert abs(got - abs(lhs - rhs)) <= 1e-12 * (abs(lhs) + abs(rhs))
    g2, w2 = hwp.analytic_mode(2, grid)
    lhs, rhs = _equipartition_oracle(w2, g2, grid)
    got = hwp.equipartition_residual(w2, g2, grid)
    assert abs(got - abs(lhs - rhs)) <= 1e-12 * (abs(lhs) + abs(rhs))


@pytest.mark.parametrize("name", ["w", "g"])
def test_equipartition_rejects_non_real_input_by_name(name):
    # mode 1 without its partner cannot be stored; a complex mean, the one
    # non-real input left, is refused when the field is built, and a
    # source of its modes refuses a non-real scale factor
    grid = wave_grid(9)
    w, g, _, _ = _identity_data(grid, 4)
    field_ = w if name == "w" else g
    with pytest.raises(AnalysisError, match="^the mean c_0 of a real field must be real"):
        FourierField(T, field_.coeffs + 1e-3j, field_.domain)
    with pytest.raises(AnalysisError, match="^cannot scale a real field by the non-real"):
        ModeSource(T, field_.n_modes, field_.spatial_shape, field_.domain,
                   field_.mode).scaled(1.0 + 1e-6j)


# ---------------------------------------------------------------------------
# weak residual
# ---------------------------------------------------------------------------

def _random_test_pair_oracle(grid, period, rng, n_modes=2):
    """The per-test field construction weak_residual replaced: smooth
    periodic test pair (psi on wave, phi on heat) with matching interface
    traces, vanishing on the respective outer walls."""
    psi = FourierField.zeros(period, n_modes, (grid.ny_w, grid.nx), "wave")
    phi = FourierField.zeros(period, n_modes, (grid.ny_h, grid.nx), "heat")
    yw = (grid.y_w / grid.ly_w)[:, None]
    yh = (grid.y_h / grid.ly_h)[:, None]
    for k in range(0, n_modes + 1):
        c = rng.standard_normal() + (1j * rng.standard_normal() if k else 0)
        m = int(rng.integers(1, 4))
        trace_shape = np.sin(m * grid.x)[None, :]
        psi_k = c * trace_shape * (1.0 - yw) ** 2
        phi_k = c * trace_shape * (1.0 + yh) ** 2
        # extra interior content with zero trace
        cw = rng.standard_normal() + (1j * rng.standard_normal() if k else 0)
        ch = rng.standard_normal() + (1j * rng.standard_normal() if k else 0)
        mw = int(rng.integers(1, 4))
        psi_k = psi_k + cw * np.sin(mw * grid.x)[None, :] * np.sin(np.pi * yw)
        phi_k = phi_k + ch * np.sin(mw * grid.x)[None, :] * np.sin(np.pi * (1.0 + yh))
        psi.coeffs[k], phi.coeffs[k] = psi_k, phi_k
    return psi, phi


def _weak_residual_oracle(report, f, g, grid, n_tests=10, seed=2024):
    """weak_residual as a loop over tests and modes on full test fields."""
    rng = np.random.default_rng(seed)
    period = report.period
    u, w = report.u, report.w
    omega = w.omega
    form_w = _sbp_form(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    form_h = _sbp_form(grid.ny_h, grid.nx, grid.hx, grid.hy_h)
    mass_w = quad.interior_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    mass_h = quad.interior_mass(grid.ny_h, grid.nx, grid.hx, grid.hy_h)
    wx_full = np.zeros(grid.nx)
    wx_full[1:-1] = grid.hx

    n_all = max([w.n_modes, u.n_modes]
                + [x.n_modes for x in (f, g) if x is not None])
    wk = oracle.two_sided(w, n_all)
    uk = oracle.two_sided(u, n_all)
    gk = oracle.two_sided(g, n_all) if g is not None else None
    fk = oracle.two_sided(f, n_all) if f is not None else None

    worst = 0.0
    for _ in range(n_tests):
        psi, phi = _random_test_pair_oracle(grid, period, rng)
        pk = oracle.two_sided(psi, n_all)
        qk = oracle.two_sided(phi, n_all)
        total = 0.0 + 0.0j
        for idx, k in enumerate(range(-n_all, n_all + 1)):
            wkk, ukk = wk[idx], uk[idx]
            p, q = np.conj(pk[idx]), np.conj(qk[idx])
            val = np.sum(p.ravel() * (form_w @ wkk.ravel()))
            val -= (omega * k) ** 2 * np.sum(mass_w * wkk * p)
            val += np.sum(q.ravel() * (form_h @ ukk.ravel()))
            val += 1j * omega * k * np.sum(mass_h * ukk * q)
            tau = p[0, :]
            dyw = (wkk[1, :] - wkk[0, :]) / grid.hy_w
            dyu = (ukk[-1, :] - ukk[-2, :]) / grid.hy_h
            val += np.sum(wx_full * tau * (dyw - dyu))
            if gk is not None:
                val -= np.sum(mass_w * gk[idx] * p)
            if fk is not None:
                val -= np.sum(mass_h * fk[idx] * q)
            total += period * val
        test_scale = np.sqrt(
            analysis.sobolev_time_norm(psi, 1, grid, "l2") ** 2
            + analysis.sobolev_time_norm(psi, 0, grid, "h1") ** 2
            + analysis.sobolev_time_norm(phi, 1, grid, "l2") ** 2
            + analysis.sobolev_time_norm(phi, 0, grid, "h1") ** 2)
        worst = max(worst, abs(total) / max(test_scale, 1e-300))
    return worst


def _assert_matches_oracle(rep, f, g, grid, corruptions, converged=True, seed=5):
    """Projected and looped weak residuals agree on rep and on each
    corrupted copy; round-off level on a converged solve."""
    new = hwp.weak_residual(rep, f, g, grid, n_tests=6, seed=seed)
    old = _weak_residual_oracle(rep, f, g, grid, n_tests=6, seed=seed)
    if converged:
        assert new <= 1e-12 and old <= 1e-12
    else:
        assert new == pytest.approx(old, rel=1e-10)
    for target in corruptions:
        bad = copy.deepcopy(rep)
        bad_g = oracle.scaled(g, 1.01) if target == "g" else g
        if target in ("w", "u"):
            getattr(bad, target).coeffs *= 1.01
        new = hwp.weak_residual(bad, f, bad_g, grid, n_tests=6, seed=seed)
        old = _weak_residual_oracle(bad, f, bad_g, grid, n_tests=6, seed=seed)
        assert old > 1e-8, target  # the corruption is seen at all
        assert new == pytest.approx(old, rel=1e-10), target


@pytest.mark.parametrize("dims", [(9, 9, 9), (33, 33, 33), (17, 9, 13)])
@pytest.mark.parametrize("modes", [1, 2, 3])
@pytest.mark.parametrize("forcing", ["wave", "heat", "both"])
def test_weak_residual_matches_oracle(dims, modes, forcing):
    # the heat forcing reaches mode `modes`, so the data has fewer (1), as
    # many (2) and more (3) modes than the test pairs
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, *dims)
    g = hwp.analytic_mode(1, grid)[0] if forcing != "heat" else None
    f = None
    if forcing != "wave":
        f = FourierField(T, oracle.truncated(smooth_heat_forcing(grid, T, 1), modes).coeffs
                         + smooth_heat_forcing(grid, T, modes).coeffs, "heat")
    rep = hwp.solve_periodic_harmonic(grid, f, g, modes)
    corruptions = (["w", "g"] if g is not None else []) + (["u"] if f is not None else [])
    _assert_matches_oracle(rep, f, g, grid, corruptions)


def test_weak_residual_matches_oracle_damped_march():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 9, 9)
    g2, _ = hwp.analytic_mode(2, grid)
    params = hwp.EpsilonParams(eps=0.1, n_steps=64, period_tol=1e-7,
                               max_periods=300, n_report_modes=3)
    rep = hwp.epsilon_march(grid, None, g2, params)
    _assert_matches_oracle(rep, None, g2, grid, ["w", "u", "g"], converged=False)


def test_weak_residual_zero_solution():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 9, 9)
    rep = hwp.solve_periodic_harmonic(grid, None, None, 2)
    assert hwp.weak_residual(rep, None, None, grid, n_tests=3) == 0.0


def test_weak_residual_small_and_sensitive():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 33, 33, 33)
    g2, _ = hwp.analytic_mode(2, grid)
    rep = hwp.solve_periodic_harmonic(grid, None, g2, 3)
    base = hwp.weak_residual(rep, None, g2, grid, n_tests=10, seed=11)
    assert base <= 1e-10
    rep.w.coeffs *= 1.01
    corrupted = hwp.weak_residual(rep, None, g2, grid, n_tests=10, seed=11)
    assert corrupted >= 10 * max(base, 1e-300)


def test_weak_residual_meaningful_for_damped_march():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 9, 9)
    g2, _ = hwp.analytic_mode(2, grid)
    params = hwp.EpsilonParams(eps=0.1, n_steps=128, period_tol=1e-7,
                               max_periods=300, n_report_modes=3)
    rep = hwp.epsilon_march(grid, None, g2, params)
    r = hwp.weak_residual(rep, None, g2, grid, n_tests=5)
    assert 0 < r < 0.2  # damping-shift defect, vanishing as eps, dt -> 0


def _full_test_basis(grid):
    """The 6 test fields of each side as grid arrays (6, ny, nx), in the
    order of analysis._test_factors."""
    sines, y_w, y_h = analysis._test_factors(grid)
    return (np.einsum("ty,mx->tmyx", y_w, sines).reshape(6, grid.ny_w, grid.nx),
            np.einsum("ty,mx->tmyx", y_h, sines).reshape(6, grid.ny_h, grid.nx))


@pytest.mark.parametrize("dims", [(9, 9, 9), (17, 9, 13), (33, 65, 17)])
def test_weak_residual_grams_match_full_fields(dims):
    # the Grams from 1-D sums against trapezoid-mass and cell-gradient sums
    # over the full test fields
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, *dims)
    sines, y_w, y_h = analysis._test_factors(grid)
    for basis, profiles, hy in zip(_full_test_basis(grid), (y_w, y_h),
                                   (grid.hy_w, grid.hy_h)):
        flat = basis.reshape(6, -1)
        mass = quad.trap_mass(basis.shape[1], grid.nx, grid.hx, hy).ravel()
        fx, fy = (d.reshape(6, -1) for d in quad.cell_gradient(basis, grid.hx, hy))
        refs = ((flat * mass) @ flat.T, (fx @ fx.T + fy @ fy.T) * (grid.hx * hy))
        for got, ref in zip(analysis._gram(sines, profiles, grid.hx, hy), refs):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_weak_residual_memory_is_bounded():
    # at 161^2 the check holds a few grid lines per mode, not the 6 test
    # fields per side and their complex products (15 MB before)
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 161, 161, 161)
    g2, _ = hwp.analytic_mode(2, grid)
    f = smooth_heat_forcing(grid, T, 1)
    rep = hwp.solve_periodic_harmonic(grid, f, g2, 2)
    peak, _ = traced_peak(lambda: hwp.weak_residual(rep, f, g2, grid, n_tests=5))
    assert peak < 2**20



@pytest.mark.parametrize("flavor", ["l2", "h1"])
def test_sup_time_norm_samples_in_chunks(flavor):
    # the 128 times are sampled N+1 at a time: the peak stays within a few
    # mode stacks (all 128 at once peaked at 79.6 MB at 161^2, 2 modes),
    # and the maximum is the one over all 128 samples
    grid = wave_grid(161)
    w = oracle.random_real_field(np.random.default_rng(1), T, 2, (grid.ny_w, grid.nx))
    stack = w.coeffs.nbytes
    peak, got = traced_peak(lambda: analysis._sup_time_norm(w, grid, flavor))
    assert peak <= 3 * stack
    mass = quad.trap_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    samples = w.sample_real(np.arange(128) * T / 128)
    ref = max(quad.norm_sq(mass, x) if flavor == "l2" else
              quad.gradient_energy(x, grid.hx, grid.hy_w) for x in samples)
    assert got == pytest.approx(np.sqrt(ref), rel=1e-14, abs=0)

@pytest.mark.parametrize("target,value", [("w", np.nan), ("u", np.inf),
                                          ("f", -np.inf), ("g", np.nan)])
def test_weak_residual_rejects_non_finite(target, value):
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 9, 9)
    g2, _ = hwp.analytic_mode(2, grid)
    f = smooth_heat_forcing(grid, T, 1)
    rep = hwp.solve_periodic_harmonic(grid, f, g2, 2)
    fields_ = {"w": rep.w, "u": rep.u, "f": f, "g": g2}
    if target == "w":
        rep.w.coeffs[:, 3, 3] = value
    else:
        fields_[target].coeffs[:] = value
    with pytest.raises(AnalysisError, match=f"'{target}'"):
        hwp.weak_residual(rep, f, g2, grid, n_tests=3)


@pytest.mark.parametrize("n_tests", [0, -3])
def test_weak_residual_rejects_no_tests(n_tests):
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 9, 9)
    rep = hwp.solve_periodic_harmonic(grid, None, None, 2)
    with pytest.raises(AnalysisError, match="n_tests"):
        hwp.weak_residual(rep, None, None, grid, n_tests=n_tests)


# ---------------------------------------------------------------------------
# estimate ratios
# ---------------------------------------------------------------------------

def test_estimate_zero_data():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 9, 9)
    rep = hwp.solve_periodic_harmonic(grid, None, None, 2)
    out = analysis.estimate_check(rep, None, None, "existence-strong")
    assert out["lhs"] == 0.0
    assert out["rhs"] == 0.0
    assert out["ratio"] == 0.0
    assert not out["violation"]


def test_estimate_ratio_stable_under_refinement():
    # the u term of the left side decays to zero with h (the exact heat
    # component vanishes for this forcing), so stability is asymptotic
    ratios = []
    for n in (33, 65, 129):
        grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, n, n, n)
        g2, _ = hwp.analytic_mode(2, grid)
        rep = hwp.solve_periodic_harmonic(grid, None, g2, 2)
        ratios.append(analysis.estimate_check(rep, None, g2, "existence-strong")["ratio"])
    spread = (max(ratios) - min(ratios)) / max(ratios)
    assert spread < 0.2


def test_estimate_graph_variant_and_interface_sign():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 17, 17)
    g2, _ = hwp.analytic_mode(2, grid)
    rep = hwp.solve_periodic_harmonic(grid, None, g2, 3)
    strong = analysis.estimate_check(rep, None, g2, "existence-strong")
    graph = analysis.estimate_check(rep, None, g2, "existence-graph")
    # same solution, larger data norms on the right: smaller ratio
    assert graph["ratio"] < strong["ratio"]
    isign = analysis.estimate_check(rep, None, g2, "interface-sign")
    assert 0 < isign["ratio"] < np.inf
    assert "u_norm_meanfree" in strong


def test_estimate_violation_flag():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 9, 9)
    rep = hwp.solve_periodic_harmonic(grid, None, None, 2)
    rep.w.coeffs[1] = 1.0  # nonzero solution, zero data
    out = analysis.estimate_check(rep, None, None, "existence-strong")
    assert out["violation"]
    assert out["ratio"] == np.inf


def test_damped_energy_estimate_requires_epsilon_report():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 9, 9)
    rep = hwp.solve_periodic_harmonic(grid, None, None, 2)
    with pytest.raises(AnalysisError):
        analysis.estimate_check(rep, None, None, "damped-energy")


# ---------------------------------------------------------------------------
# regularity scan
# ---------------------------------------------------------------------------

def test_regularity_scan_g1_signature():
    grid = wave_grid(129, 65)
    out = analysis.regularity_scan(hwp.series_rule("G1"), (8, 16, 32, 64), grid)
    v = out["verdicts"]
    assert v["s0_stable"]
    assert v["s1_increasing"]
    assert v["s1_ratio"] >= 2.0
    # s0 differences shrink while s1 strictly increases
    s0 = [r[1] for r in out["rows"]]
    diffs = np.diff(s0)
    assert np.all(diffs[1:] < diffs[:-1])


def test_regularity_scan_g2_stable():
    grid = wave_grid(129, 65)
    out = analysis.regularity_scan(hwp.series_rule("G2"), (8, 64), grid)
    s1 = [r[2] for r in out["rows"]]
    assert max(s1) / min(s1) <= 1.10


def test_regularity_scan_matches_closed_form_sums():
    grid = wave_grid(129, 65)
    out = analysis.regularity_scan(hwp.series_rule("G1"), (8, 64), grid)
    prof = hwp.bump_profile()
    mass = quad.trap_weights_1d(grid.ny_w, grid.hy_w)
    phi_sq = float(np.sum(mass * prof.phi(grid.y_w) ** 2))
    c = 0.5 * (np.pi / 2) * phi_sq
    for n, s0, s1, _ in out["rows"]:
        exp0 = np.sqrt(c * sum(1.0 / m**2 for m in range(1, n + 1)))
        exp1 = np.sqrt(c * sum((1.0 + m**2) / m**2 for m in range(1, n + 1)))
        assert s0 == pytest.approx(exp0, rel=1e-11)
        assert s1 == pytest.approx(exp1, rel=1e-11)


def test_regularity_scan_single_term_matches_analytic_mode():
    grid = wave_grid(33, 33)
    out = analysis.regularity_scan(hwp.series_rule("G2"), (1,), grid)
    _, w1 = hwp.analytic_mode(1, grid)
    assert out["rows"][0][1] == pytest.approx(
        analysis.sobolev_time_norm(w1, 0, grid), rel=1e-12)


def test_regularity_scan_requires_increasing_truncations():
    grid = wave_grid(33, 33)
    with pytest.raises(ConfigurationError):
        analysis.regularity_scan(hwp.series_rule("G1"), (8, 8), grid)
