import numpy as np
import pytest

import hwp
from hwp import analysis
from hwp.errors import ConfigurationError, SolverError
from hwp.timefourier import FourierField

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
        samples = field.sample(ts)
        scale = max(np.max(np.abs(samples)), 1e-300)
        assert np.max(np.abs(samples.imag)) / scale < 1e-10


def test_interface_velocity_matching_weak_identity():
    # int int_Gamma u xi = -int int_Gamma w dt(xi) for random periodic xi
    grid = grid_n(17)
    g2, _ = hwp.analytic_mode(2, grid)
    from hwp.cli import smooth_heat_forcing
    f = smooth_heat_forcing(grid, T, 1)
    rep = hwp.solve_periodic_harmonic(grid, f, g2, 4)
    rng = np.random.default_rng(0)
    wx = np.zeros(grid.nx)
    wx[grid.interface_columns] = grid.hx
    u_tr = rep.u.coeffs[:, -1, :]
    w_tr = rep.w.coeffs[:, 0, :]
    n = rep.u.n_modes
    scale = analysis.sobolev_time_norm(rep.trace_h, 0, grid)
    for _ in range(10):
        xi = FourierField.zeros(T, n, (grid.nx,), "interface")
        for k in range(0, n + 1):
            c = rng.standard_normal() + (1j * rng.standard_normal() if k else 0)
            shape = np.sin(int(rng.integers(1, 4)) * grid.x)
            xi.coeffs[k + n] = c * shape
            xi.coeffs[-k + n] = np.conj(c * shape)
        lhs = rhs = 0.0
        for idx, k in enumerate(range(-n, n + 1)):
            lhs += T * np.real(np.sum(wx * u_tr[idx] * np.conj(xi.coeffs[idx])))
            rhs -= T * np.real(np.sum(wx * w_tr[idx]
                                      * np.conj(1j * k * xi.coeffs[idx])))
        xi_scale = np.sqrt(float(np.sum(np.abs(xi.coeffs) ** 2)))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, scale * xi_scale)


def test_mean_invariance():
    grid = grid_n(9)
    X, Y = np.meshgrid(grid.x, grid.y_h)
    f = FourierField.zeros(T, 2, (grid.ny_h, grid.nx), "heat")
    f.coeffs[2] = np.sin(X) * (1 + Y)  # pure mean forcing
    rep = hwp.solve_periodic_harmonic(grid, f, None, 2)
    pair = hwp.solve_mean_pair(grid, f.mode(0).real, None)
    assert np.max(np.abs(rep.u.mode(0) - pair.mean_u)) == 0.0
    assert np.max(np.abs(rep.w.mode(0) - pair.mean_w)) == 0.0


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
    assert np.max(np.abs(prim.coeffs - rep.trace_primitive.coeffs)) < 1e-14


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
    scale = float(np.max(np.abs(rep.w.coeffs[:, 0, :])))  # global trace scale
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
    assembled densely with plain loops. The interface v slot carries the
    flux-balance row at the new level; the heat interface trace is v."""
    wid, hid = {}, {}
    for j in range(grid.ny_w - 1):
        for i in range(1, grid.nx - 1):
            wid[j, i] = len(wid)
    for j in range(1, grid.ny_h - 1):
        for i in range(1, grid.nx - 1):
            hid[j, i] = len(hid)
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
            alg[r, 2 * nw + hid[grid.ny_h - 2, i]] += 4 / (2 * hyh)
            if (grid.ny_h - 3, i) in hid:
                alg[r, 2 * nw + hid[grid.ny_h - 3, i]] -= 1 / (2 * hyh)
            continue
        k[r, p] = -2 / hx**2 - 2 / hyw**2 - eps**2
        k[r, r] = -2 * eps
        for jj, ii, h in ((j, i - 1, hx), (j, i + 1, hx), (j - 1, i, hyw), (j + 1, i, hyw)):
            if (jj, ii) in wid:
                k[r, wid[jj, ii]] += 1 / h**2
        force[r] = g[j, i]
    for (j, i), q in hid.items():
        r = 2 * nw + q
        k[r, r] = -2 / hx**2 - 2 / hyh**2 - eps
        for jj, ii, h in ((j, i - 1, hx), (j, i + 1, hx), (j - 1, i, hyh), (j + 1, i, hyh)):
            if jj == grid.ny_h - 1 and 0 < ii < grid.nx - 1:
                k[r, nw + wid[0, ii]] += 1 / h**2  # heat trace = v
            elif (jj, ii) in hid:
                k[r, 2 * nw + hid[jj, ii]] += 1 / h**2
        force[r] = f[j, i]
    lhs = np.diag(ode) - 0.5 * dt * k
    rhs = np.diag(ode) + 0.5 * dt * k
    algebraic = ode == 0
    lhs[algebraic] = alg[algebraic]
    rhs[algebraic] = 0.0
    return np.linalg.solve(lhs, rhs @ y + dt * force)


@pytest.mark.parametrize("n", [5, 7])
def test_march_step_matches_dense_first_order_step(n):
    from hwp.periodic import _MarchOperator
    grid = grid_n(n)
    eps, dt = 0.2, T / 16
    march = _MarchOperator(grid, eps, dt)
    rng = np.random.default_rng(n)
    y = rng.standard_normal(march.n)
    g = rng.standard_normal((grid.ny_w, grid.nx))
    f = rng.standard_normal((grid.ny_h, grid.nx))
    got = march.step(y, march.forcing_vector(g, f))
    ref = _dense_first_order_step(grid, eps, dt, y, g, f)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


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
                        lambda op, rhs: solves.append(op.k) or separable(op, rhs))
    rep = hwp.solve_periodic_harmonic(grid, None, g2, 6)
    assert solves == [2]
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
    return float(np.max(np.abs(a.coeffs - b.coeffs)) / np.max(np.abs(b.coeffs)))


@pytest.mark.parametrize("case", ["mode2", "mode2+smooth1", "aliased"])
def test_converged_march_equals_trapezoidal_symbol_solve(case):
    # The march converges to the discrete periodic orbit that the frequency
    # solve computes directly; they differ by the march's period tolerance.
    from hwp.cli import smooth_heat_forcing
    if case == "aliased":
        # 8 steps per period see forcing modes 5..8 as their aliases -3..0
        grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 5, 5)
        g, _ = hwp.series_forcing(hwp.series_rule("G1"), 8, grid)
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
