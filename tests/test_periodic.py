import ast
import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hwp
from hwp import analysis, closedform
from hwp import operators as ops
from hwp import quadrature as quad
from hwp.errors import ConfigurationError, SolverError
from hwp.timefourier import HEAT, WAVE, FourierField

import fourier_oracle as oracle

T = 2 * np.pi


def grid_n(n):
    return hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, n, n, n)


def test_zero_forcing_gives_trivial_solution():
    grid = grid_n(9)
    rep = hwp.solve_periodic_harmonic(grid, None, None, 3)
    assert analysis.sobolev_time_norm(rep.w, 0, grid) <= 1e-12
    assert analysis.sobolev_time_norm(rep.u, 0, grid) <= 1e-12


def test_analytic_mode_reproduction_second_order():
    rels = {}
    for n in (17, 33):
        grid = grid_n(n)
        g2, w2 = hwp.analytic_mode(2, grid)
        rep = hwp.solve_periodic_harmonic(grid, None, g2, 3)
        rels[n] = (analysis.sobolev_time_norm(rep.w - w2, 0, grid)
                   / analysis.sobolev_time_norm(w2, 0, grid))
        assert rep.max_residual() <= 1e-9
    assert rels[33] < 0.02
    assert rels[17] / rels[33] == pytest.approx(4.0, abs=0.9)


def test_reconstruction_is_real():
    grid = grid_n(9)
    g2, _ = hwp.analytic_mode(2, grid)
    rep = hwp.solve_periodic_harmonic(grid, None, g2, 3)
    ts = np.linspace(0, T, 13)
    for field in (rep.w, rep.u):
        # the two-sided sum of the modes -N..N is real, and is what
        # sample_real evaluates
        samples = oracle.sample(oracle.two_sided(field), T, ts)
        scale = max(np.max(np.abs(samples)), 1e-300)
        assert np.max(np.abs(samples.imag)) / scale < 1e-10
        assert np.max(np.abs(field.sample_real(ts) - samples.real)) / scale < 1e-10


def test_interface_velocity_matching_weak_identity():
    # int int_Gamma u xi = -int int_Gamma w dt(xi) for random periodic xi
    grid = grid_n(17)
    g2, _ = hwp.analytic_mode(2, grid)
    from hwp.cli import smooth_heat_forcing
    f = smooth_heat_forcing(grid, T, 1)
    rep = hwp.solve_periodic_harmonic(grid, f, g2, 4)
    rng = np.random.default_rng(0)
    wx = np.zeros(grid.nx)
    wx[1:-1] = grid.hx
    u_tr = oracle.two_sided(rep.u)[:, -1, :]
    w_tr = oracle.two_sided(rep.w)[:, 0, :]
    n = rep.u.n_modes
    scale = analysis.sobolev_time_norm(rep.trace_h, 0, grid)
    for _ in range(10):
        xi = FourierField.zeros(T, n, (grid.nx,), "interface")
        for k in range(0, n + 1):
            c = rng.standard_normal() + (1j * rng.standard_normal() if k else 0)
            shape = np.sin(int(rng.integers(1, 4)) * grid.x)
            xi.coeffs[k] = c * shape
        xi_k = oracle.two_sided(xi)
        lhs = rhs = 0.0
        for idx, k in enumerate(range(-n, n + 1)):
            lhs += T * np.real(np.sum(wx * u_tr[idx] * np.conj(xi_k[idx])))
            rhs -= T * np.real(np.sum(wx * w_tr[idx]
                                      * np.conj(1j * k * xi_k[idx])))
        xi_scale = np.sqrt(float(np.sum(np.abs(xi_k) ** 2)))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, scale * xi_scale)


def test_mean_invariance():
    grid = grid_n(9)
    X, Y = np.meshgrid(grid.x, grid.y_h)
    f = FourierField.zeros(T, 2, (grid.ny_h, grid.nx), "heat")
    f.coeffs[0] = np.sin(X) * (1 + Y)  # pure mean forcing
    rep = hwp.solve_periodic_harmonic(grid, f, None, 2)
    pair = hwp.solve_mean_pair(grid, f.mode(0).real, None)
    assert np.max(np.abs(rep.u.mode(0) - pair.mean_u)) == 0.0
    assert np.max(np.abs(rep.w.mode(0) - pair.mean_w)) == 0.0


def test_mode_zero_reports_the_whole_residual():
    # mode 0 records ||A x - b|| / ||b||, the hypot of its heat-row and
    # wave-row parts, as every other mode does (not the larger part)
    grid = grid_n(17)
    X, Y = np.meshgrid(grid.x, grid.y_h)
    mean_f = np.sin(X) * Y * (Y + 1)
    X, Y = np.meshgrid(grid.x, grid.y_w)
    mean_g = np.sin(X) * (1 - Y)
    f = oracle.from_modes(T, 1, {0: mean_f}, HEAT)
    g = oracle.from_modes(T, 1, {0: mean_g}, WAVE)
    rep = hwp.solve_periodic_harmonic(grid, f, g, 1)
    pair = hwp.solve_mean_pair(grid, mean_f, mean_g)
    assert pair.residual_heat > 0 and pair.residual_wave > 0
    assert pair.residual == np.hypot(pair.residual_heat, pair.residual_wave)
    assert rep.mode_residuals[0] == pair.residual
    assert rep.mode_residuals[0] > max(pair.residual_heat, pair.residual_wave)


def test_trace_primitive_is_interface_trace():
    grid = grid_n(9)
    from hwp.cli import smooth_heat_forcing
    rep = hwp.solve_periodic_harmonic(grid, smooth_heat_forcing(grid, T, 1),
                                      None, 2)
    # h = dt(w) on the interface, H = its mean-free primitive = w trace
    n = rep.w.n_modes
    for k in range(-n, n + 1):
        if k == 0:
            continue
        np.testing.assert_allclose(rep.trace_h.mode(k),
                                   1j * k * rep.w.mode(k)[0, :], atol=1e-15)
        np.testing.assert_allclose(rep.trace_primitive.mode(k),
                                   rep.w.mode(k)[0, :], atol=1e-15)
    prim = hwp.periodic_antiderivative(rep.trace_h, 1)
    assert np.max(np.abs(oracle.two_sided(prim)
                         - oracle.two_sided(rep.trace_primitive))) < 1e-14


# ---------------------------------------------------------------------------
# damped march
# ---------------------------------------------------------------------------

def test_epsilon_march_zero_forcing_converges_immediately():
    grid = grid_n(9)
    params = hwp.EpsilonParams(eps=0.1, n_steps=64, period_tol=1e-9,
                               max_periods=10)
    rep = hwp.epsilon_march(grid, None, None, params, period=T)
    assert rep.params["periods"] == 1
    assert analysis.sobolev_time_norm(rep.w, 0, grid) <= 1e-12


def test_epsilon_march_approaches_harmonic_solution():
    grid = grid_n(17)
    g2, _ = hwp.analytic_mode(2, grid)
    ref = hwp.solve_periodic_harmonic(grid, None, g2, 4)
    params = hwp.EpsilonParams(eps=0.05, n_steps=256, period_tol=1e-6,
                               max_periods=300, n_report_modes=4)
    rep = hwp.epsilon_march(grid, None, g2, params)
    gap = (analysis.sobolev_time_norm(rep.w - ref.w, 0, grid)
           / analysis.sobolev_time_norm(ref.w, 0, grid))
    dt = T / 256
    assert gap < 3.0 * (0.05 + dt)


def test_epsilon_march_interface_velocity_relation():
    grid = grid_n(9)
    g2, _ = hwp.analytic_mode(2, grid)
    params = hwp.EpsilonParams(eps=0.1, n_steps=128, period_tol=1e-7,
                               max_periods=200, n_report_modes=4)
    rep = hwp.epsilon_march(grid, None, g2, params)
    dt = T / 128
    scale = float(np.max(np.abs(oracle.two_sided(rep.w)[:, 0, :])))  # global trace scale
    for k in (1, 2):
        lhs = rep.u.mode(k)[-1, :]
        rhs = 1j * k * rep.w.mode(k)[0, :]
        assert np.max(np.abs(lhs - rhs)) <= 5 * dt * scale


def test_contraction_strengthens_with_damping():
    grid = grid_n(9)
    g2, _ = hwp.analytic_mode(2, grid)
    rates = {}
    for eps in (0.05, 0.2):
        params = hwp.EpsilonParams(eps=eps, n_steps=128, period_tol=1e-6,
                                   max_periods=400, n_report_modes=4)
        rep = hwp.epsilon_march(grid, None, g2, params)
        rates[eps] = np.median(rep.params["contraction"])
    assert rates[0.2] < rates[0.05]
    # the damping shift sets the decay rate: factor ~ exp(-eps T) per period
    assert rates[0.05] == pytest.approx(np.exp(-0.05 * T), abs=0.12)


def _dense_first_order_step(grid, eps, dt, y, g, f):
    """Reference trapezoidal step of the first-order (w, v, u) system,
    assembled densely with plain loops, the state in the order of
    _band_state. The interface v slot carries the flux-balance row at the
    new level; the heat interface trace is v."""
    wid, hid = {}, {}
    for j in range(1, grid.ny_h - 1):
        for i in range(1, grid.nx - 1):
            hid[j, i] = len(hid)
    for j in range(grid.ny_w - 1):
        for i in range(1, grid.nx - 1):
            wid[j, i] = len(hid) + len(wid)
    nw = len(wid)
    n = 2 * nw + len(hid)
    hx, hyw, hyh = grid.hx, grid.hy_w, grid.hy_h
    k = np.zeros((n, n))
    alg = np.zeros((n, n))
    force = np.zeros(n)
    ode = np.ones(n)
    for (j, i), p in wid.items():
        k[p, nw + p] = 1.0
        r = nw + p
        if j == 0:  # flux balance: d_y w (upward) = d_y u (downward)
            ode[r] = 0.0
            alg[r, p] -= 3 / (2 * hyw)
            alg[r, wid[1, i]] += 4 / (2 * hyw)
            if (2, i) in wid:
                alg[r, wid[2, i]] -= 1 / (2 * hyw)
            alg[r, nw + p] -= 3 / (2 * hyh)
            alg[r, hid[grid.ny_h - 2, i]] += 4 / (2 * hyh)
            if (grid.ny_h - 3, i) in hid:
                alg[r, hid[grid.ny_h - 3, i]] -= 1 / (2 * hyh)
            continue
        k[r, p] = -2 / hx**2 - 2 / hyw**2 - eps**2
        k[r, r] = -2 * eps
        for jj, ii, h in ((j, i - 1, hx), (j, i + 1, hx), (j - 1, i, hyw), (j + 1, i, hyw)):
            if (jj, ii) in wid:
                k[r, wid[jj, ii]] += 1 / h**2
        force[r] = g[j, i]
    for (j, i), r in hid.items():
        k[r, r] = -2 / hx**2 - 2 / hyh**2 - eps
        for jj, ii, h in ((j, i - 1, hx), (j, i + 1, hx), (j - 1, i, hyh), (j + 1, i, hyh)):
            if jj == grid.ny_h - 1 and 0 < ii < grid.nx - 1:
                k[r, nw + wid[0, ii]] += 1 / h**2  # heat trace = v
            elif (jj, ii) in hid:
                k[r, hid[jj, ii]] += 1 / h**2
        force[r] = f[j, i]
    lhs = np.diag(ode) - 0.5 * dt * k
    rhs = np.diag(ode) + 0.5 * dt * k
    algebraic = ode == 0
    lhs[algebraic] = alg[algebraic]
    rhs[algebraic] = 0.0
    return np.linalg.solve(lhs, rhs @ y + dt * force)


class _SparseMarch:
    """The sparse trapezoidal step the march used before the sine basis,
    kept as its oracle, with the interface of periodic._SineMarch. The
    state is one vector in the unknown order of operators (_band_state);
    the new level is factored by splu, the old level is a sparse matrix and
    c[:, i] is the data of step i before the solve."""

    def __init__(self, grid, eps, dt, n_steps, g, f):
        self.grid = grid
        self.s = s = 2.0 / dt
        op = ops.ModeOperator(0, 0.0, grid, ((s + eps) ** 2, s + eps, s))
        nw, nh = op.n_wave, op.n_heat
        self.nh, self.nw, self.shape = nh, nw, (nh + 2 * nw,)
        iface = np.arange(nw) < grid.nx - 2  # the first wave row
        interior_rows = sp.diags(np.concatenate((np.ones(nh, bool), ~iface)).astype(float))
        old = -(interior_rows @ ops.coupled_matrix(
            grid, -(s * s + 2 * eps * s - eps**2), -(s - eps), -s)).tocsc()
        c = 3.0 / (2 * grid.hy_h)
        self.rhs_mat = sp.hstack([  # columns u, w, v; v enters the w rows only
            old[:, :nh],
            old[:, nh:] + sp.diags(np.where(iface, -c * s, 0.0), -nh, shape=(nh + nw, nw)),
            sp.diags(np.where(iface, -c, 2 * s), -nh, shape=(nh + nw, nw))]).tocsr()
        self.lu = spla.splu(op.matrix.tocsc())
        times = np.arange(n_steps + 1) * dt
        gs = None if g is None else g.sample_real(times)
        fs = None if f is None else f.sample_real(times)
        # trapezoidal average of the forcing at both step ends, twice
        self.c = np.stack([2.0 * ops.mode_rhs(
            op, None if fs is None else 0.5 * (fs[i] + fs[i + 1]),
            None if gs is None else 0.5 * (gs[i] + gs[i + 1])) for i in range(n_steps)], -1)
        self.mass_w = quad.trap_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
        self.mass_h = quad.trap_mass(grid.ny_h, grid.nx, grid.hx, grid.hy_h)

    def fields(self, y):
        grid, nh, nw, m = self.grid, self.nh, self.nw, self.grid.nx - 2
        w = np.zeros((grid.ny_w, grid.nx))
        v = np.zeros((grid.ny_w, grid.nx))
        u = np.zeros((grid.ny_h, grid.nx))
        u[1:-1, 1:-1] = y[:nh].reshape(-1, m)
        w[:-1, 1:-1] = y[nh:nh + nw].reshape(-1, m)
        v[:-1, 1:-1] = y[nh + nw:].reshape(-1, m)
        u[-1, :] = v[0, :]
        return w, v, u

    def energy(self, y):
        w, v, u = self.fields(y)
        grad = float(np.real(ops.wave_edge_form(self.grid, w, w)))
        return grad + quad.norm_sq(self.mass_w, v) + quad.norm_sq(self.mass_h, u)

    def step(self, y, i):
        nh, nw = self.nh, self.nw
        x = self.lu.solve(self.rhs_mat @ y + self.c[:, i])  # the new u and w
        v_new = self.s * (x[nh:] - y[nh:nh + nw]) - y[nh + nw:]
        return np.concatenate((x, v_new))


def _band_state(w, v, u):
    """(w, v, u) as one vector in the unknown order of operators: the heat
    interior rows of u, then the interface and wave interior rows of w,
    then the same of v."""
    return np.concatenate((u[1:-1, 1:-1].ravel(), w[:-1, 1:-1].ravel(), v[:-1, 1:-1].ravel()))


def _sine_state(grid, y):
    """A _band_state vector as the state of _SineMarch: per x-frequency the
    same rows (u, w, then v) in the sine basis."""
    m = grid.nx - 2
    return ops._sine_basis(m) @ y.reshape(-1, m).T


def _constant_forcing(dt, g, f):
    """g and f as time-constant fields of period dt: one step of size dt
    sees each at both ends."""
    return oracle.from_modes(dt, 0, {0: g}, WAVE), oracle.from_modes(dt, 0, {0: f}, HEAT)


@pytest.mark.parametrize("n", [5, 7])
def test_march_step_matches_dense_first_order_step(n):
    from hwp.periodic import _SineMarch
    grid = grid_n(n)
    eps, dt = 0.2, T / 16
    rng = np.random.default_rng(n)
    y = rng.standard_normal((2 * (grid.ny_w - 1) + grid.ny_h - 2) * (grid.nx - 2))
    g = rng.standard_normal((grid.ny_w, grid.nx))
    f = rng.standard_normal((grid.ny_h, grid.nx))
    march = _SineMarch(grid, eps, dt, 1, *_constant_forcing(dt, g, f))
    got = _band_state(*march.fields(march.step(_sine_state(grid, y), 0)))
    ref = _dense_first_order_step(grid, eps, dt, y, g, f)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [5, 9])
def test_sine_step_matches_sparse_step(n):
    from hwp.periodic import _SineMarch
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, n, n - 2, n + 2)
    eps, dt = 0.2, T / 16
    rng = np.random.default_rng(n)
    y = rng.standard_normal((2 * (grid.ny_w - 1) + grid.ny_h - 2) * (grid.nx - 2))
    forcing = _constant_forcing(dt, rng.standard_normal((grid.ny_w, grid.nx)),
                                rng.standard_normal((grid.ny_h, grid.nx)))
    march = _SineMarch(grid, eps, dt, 1, *forcing)
    got = _band_state(*march.fields(march.step(_sine_state(grid, y), 0)))
    ref = _SparseMarch(grid, eps, dt, 1, *forcing).step(y, 0)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("case", ["mode2", "aliased", "smooth1-17"])
def test_sine_march_matches_sparse_march(monkeypatch, case):
    # the same period loop over the sparse step: equal period counts, and
    # period_diffs compared absolutely, as round-off bounds the late ones
    from hwp import periodic
    from hwp.cli import smooth_heat_forcing
    f = None
    if case == "mode2":
        grid = grid_n(9)
        g, _ = hwp.analytic_mode(2, grid)
        steps, eps = 64, 0.2
    elif case == "aliased":
        grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 5, 5)
        g = closedform.series_sources(hwp.series_rule("G1"), 8, grid)[0].stored()
        steps, eps = 8, 0.5
    else:
        grid, g = grid_n(17), None
        f = smooth_heat_forcing(grid, T, 1)
        steps, eps = 512, 0.2
    params = hwp.EpsilonParams(eps=eps, n_steps=steps, period_tol=1e-9,
                               max_periods=1000, n_report_modes=6)
    rep = hwp.epsilon_march(grid, f, g, params)
    monkeypatch.setattr(periodic, "_SineMarch", _SparseMarch)
    ref = hwp.epsilon_march(grid, f, g, params)
    assert rep.params["periods"] == ref.params["periods"]
    np.testing.assert_allclose(rep.params["period_diffs"], ref.params["period_diffs"],
                               rtol=0, atol=1e-12)
    assert _max_rel(rep.w, ref.w) <= 1e-12
    assert _max_rel(rep.u, ref.u) <= 1e-12


def test_epsilon_march_assembles_no_matrix(monkeypatch):
    from hwp import periodic

    def no_assembly(*args, **kwargs):
        raise AssertionError("the march must not assemble a matrix or mode_rhs data")

    monkeypatch.setattr(ops, "coupled_matrix", no_assembly)
    monkeypatch.setattr(ops, "mode_rhs", no_assembly)
    grid = grid_n(9)
    g2, _ = hwp.analytic_mode(2, grid)
    params = hwp.EpsilonParams(eps=0.2, n_steps=64, period_tol=1e-9, max_periods=100)
    rep = hwp.epsilon_march(grid, None, g2, params)
    assert rep.mode_residuals[0] <= 1e-9 and np.any(rep.w.coeffs)
    tree = ast.parse(inspect.getsource(periodic))
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.startswith("scipy.sparse")]


def test_epsilon_march_refuses_a_step_above_the_memory_bound():
    # 257^2 at 256 steps needs about 1.6 GB for S and the step forcings
    grid = grid_n(257)
    params = hwp.EpsilonParams(eps=0.1, n_steps=256)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError) as err:
            hwp.epsilon_march(grid, None, None, params, period=T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    msg = str(err.value)
    assert "257x257+257 grid" in msg and "256 steps" in msg and "MAX_MARCH_BYTES" in msg
    assert peak < 2**20


def test_mode_solve_failure_names_the_mode_once():
    grid = grid_n(9)
    g2, _ = hwp.analytic_mode(2, grid)
    with pytest.raises(SolverError) as err:
        hwp.solve_periodic_harmonic(grid, None, g2, 3, tol=1e-30)
    assert str(err.value).count("k=2") == 1
    assert err.value.residual > 1e-30


def test_zero_data_modes_build_no_matrix(monkeypatch):
    # mode:2 forcing with 6 modes: only mode 2 carries data and reaches the
    # separable solve, and nothing assembles a sparse matrix
    from hwp import operators as ops
    grid = grid_n(9)
    g2, _ = hwp.analytic_mode(2, grid)

    def no_assembly(*args, **kwargs):
        raise AssertionError("mode systems must not assemble a sparse matrix")

    solves = []
    separable = ops._separable_solve
    monkeypatch.setattr(ops, "coupled_matrix", no_assembly)
    monkeypatch.setattr(ops, "_separable_solve",
                        lambda *args: solves.append(args[-1]) or separable(*args))
    rep = hwp.solve_periodic_harmonic(grid, None, g2, 6)
    assert solves == ["mode k=2"]
    for k in (1, 3, 4, 5, 6):
        assert rep.mode_residuals[k] == 0.0
        assert not np.any(rep.w.mode(k)) and not np.any(rep.u.mode(k))
    assert 0 < rep.mode_residuals[2] <= 1e-10


def test_epsilon_march_max_periods_error_carries_history():
    grid = grid_n(9)
    g2, _ = hwp.analytic_mode(2, grid)
    params = hwp.EpsilonParams(eps=0.01, n_steps=64, period_tol=1e-12,
                               max_periods=3)
    with pytest.raises(SolverError) as err:
        hwp.epsilon_march(grid, None, g2, params)
    assert len(err.value.history) == 3


def _max_rel(a, b):
    a, b = oracle.two_sided(a), oracle.two_sided(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("case", ["mode2", "mode2+smooth1", "aliased"])
def test_converged_march_equals_trapezoidal_symbol_solve(case):
    # The march converges to the discrete periodic orbit that the frequency
    # solve computes directly; they differ by the march's period tolerance.
    from hwp.cli import smooth_heat_forcing
    if case == "aliased":
        # 8 steps per period see forcing modes 5..8 as their aliases -3..0
        grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 5, 5)
        g = closedform.series_sources(hwp.series_rule("G1"), 8, grid)[0].stored()
        steps, eps = 8, 0.5
    else:
        grid = grid_n(9)
        g, _ = hwp.analytic_mode(2, grid)
        steps, eps = 64, 0.2
    f = None if case == "mode2" else smooth_heat_forcing(grid, T, 1)
    tol = 1e-9
    params = hwp.EpsilonParams(eps=eps, n_steps=steps, period_tol=tol,
                               max_periods=1000, n_report_modes=6)
    march = hwp.epsilon_march(grid, f, g, params)
    freq = hwp.solve_periodic_harmonic(grid, f, g, 6, eps=eps, n_steps=steps)
    assert freq.w.n_modes == march.w.n_modes == min(6, (steps - 1) // 2)
    assert _max_rel(march.w, freq.w) <= 10 * tol
    assert _max_rel(march.u, freq.u) <= 10 * tol


def test_frequency_epsilon_report_feeds_damped_energy_estimate():
    grid = grid_n(9)
    g2, _ = hwp.analytic_mode(2, grid)
    rep = hwp.solve_periodic_harmonic(grid, None, g2, 40, eps=0.1, n_steps=16)
    assert rep.method == "epsilon"
    assert rep.params == {"eps": 0.1, "dt": T / 16, "n_steps": 16}
    assert rep.w.n_modes == 7  # capped at (n_steps - 1) // 2
    assert rep.max_residual() <= 1e-10
    out = analysis.estimate_check(rep, None, g2, "damped-energy")
    assert out["eps"] == 0.1 and 0 < out["ratio"] < np.inf


def test_damped_solve_approaches_trapezoidal_orbit_as_dt_shrinks():
    # continuous-in-time damped solution vs the trapezoidal orbit: O(dt^2)
    grid = grid_n(9)
    g2, _ = hwp.analytic_mode(2, grid)
    cont = hwp.solve_periodic_harmonic(grid, None, g2, 3, eps=0.2)
    assert cont.method == "epsilon" and cont.params["dt"] is None
    diffs = [_max_rel(hwp.solve_periodic_harmonic(grid, None, g2, 3, eps=0.2,
                                                  n_steps=m).w, cont.w)
             for m in (64, 128)]
    assert diffs[0] / diffs[1] == pytest.approx(4.0, abs=0.2)


@pytest.mark.parametrize("kwargs", [{"eps": -0.1}, {"eps": float("nan")},
                                    {"eps": 0.1, "n_steps": 3}])
def test_damped_solve_rejects_bad_parameters(kwargs):
    grid = grid_n(5)
    with pytest.raises(ConfigurationError):
        hwp.solve_periodic_harmonic(grid, None, None, 2, **kwargs)


def test_epsilon_params_validation():
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"eps": 0.0}, {"eps": 0.1, "n_steps": 2}, {"eps": nan},
                   {"eps": inf}, {"eps": 0.1, "period_tol": nan},
                   {"eps": 0.1, "period_tol": inf}, {"eps": 0.1, "period_tol": 0.0},
                   {"eps": 0.1, "period_tol": -1.0}, {"eps": 0.1, "max_periods": 0}):
        with pytest.raises(ConfigurationError):
            hwp.EpsilonParams(**kwargs)
