import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hwp
from hwp import operators as ops
from hwp import quadrature as quad
from hwp.errors import ConfigurationError, SolverError

T = 2 * np.pi


def small_grid(n=9):
    return hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, n, n, n)


def _wave_ids(grid, offset):
    """Oracle layout: wave unknown ids from offset, shape (ny_w, nx),
    row-major over the rows below the top wall (interface first) and the
    inner columns; -1 marks Dirichlet wall nodes. The coupled systems put
    them after the heat unknowns (offset n_heat)."""
    ids = -np.ones((grid.ny_w, grid.nx), dtype=int)
    ids[:-1, 1:-1] = offset + np.arange((grid.ny_w - 1) * (grid.nx - 2)).reshape(-1, grid.nx - 2)
    return ids


def _heat_ids(grid):
    """Oracle layout: heat unknown ids from 0, shape (ny_h, nx); -1 on the
    walls and the interface row."""
    ids = -np.ones((grid.ny_h, grid.nx), dtype=int)
    ids[1:-1, 1:-1] = np.arange((grid.ny_h - 2) * (grid.nx - 2)).reshape(-1, grid.nx - 2)
    return ids


@pytest.mark.parametrize("dims", [(3, 3, 3), (5, 5, 5), (6, 5, 4), (7, 7, 7), (9, 7, 5)],
                         ids=lambda d: "-".join(map(str, d)))
def test_unknown_layout(dims):
    # (nx, ny_w, ny_h): one unknown per interface node and per interior node
    # of each side; a solution vector is zero on every wall node, the two
    # interface-row corners included, and nonzero elsewhere (the interface
    # node has a wave neighbour above and a heat neighbour below)
    nx, ny_w, ny_h = dims
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, nx, ny_w, ny_h)
    op = hwp.assemble_coupled_mode(grid, 1, T)
    assert op.dimension == (nx - 2) * (ny_w - 1 + ny_h - 2)
    assert grid.n_interface == nx - 2
    rng = np.random.default_rng(nx)
    x = (1.0 + rng.random(op.dimension)) * (1 + 1j)
    w, u = ops.split_mode_solution(op, x)
    assert w[0, 0] == w[0, -1] == u[-1, 0] == u[-1, -1] == 0
    np.testing.assert_array_equal(w != 0, _wave_ids(grid, op.n_heat) >= 0)
    np.testing.assert_array_equal(u[:-1] != 0, _heat_ids(grid)[:-1] >= 0)
    np.testing.assert_array_equal(u[-1], op.coeffs[2] * w[0])  # the derived trace
    # data go in and solutions come out in one order: the interiors of f and
    # g land in those of u and w, the interface row and the walls stay zero
    f = 1.0 + rng.random((ny_h, nx))
    g = 1.0 + rng.random((ny_w, nx))
    w, u = ops.split_mode_solution(op, ops.mode_rhs(op, f, g))
    interior_w, interior_h = np.zeros_like(g), np.zeros_like(f)
    interior_w[1:-1, 1:-1], interior_h[1:-1, 1:-1] = g[1:-1, 1:-1], f[1:-1, 1:-1]
    np.testing.assert_array_equal(w, interior_w)
    np.testing.assert_array_equal(u, interior_h)


def test_mode_dimension_5x5x5():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 5, 5, 5)
    op = hwp.assemble_coupled_mode(grid, 1, T)
    # wave interior + interface + heat interior = 9 + 3 + 9
    assert op.n_wave == 12
    assert op.n_heat == 9
    assert op.dimension == 21


def test_conjugate_mode_symmetry():
    grid = small_grid()
    a = hwp.assemble_coupled_mode(grid, 2, T).matrix
    b = hwp.assemble_coupled_mode(grid, -2, T).matrix
    assert abs(a - b.conj()).max() == 0.0


def test_wave_diagonal_carries_squared_frequency():
    grid = small_grid()
    op = hwp.assemble_coupled_mode(grid, 2, T)
    # an interior wave row: diagonal = -(w k)^2 + 2/hx^2 + 2/hy^2 with wk = 2
    r = _wave_ids(op.grid, op.n_heat)[2, 2]
    diag = op.matrix[r, r]
    expected = -4.0 + 2 / grid.hx**2 + 2 / grid.hy_w**2
    assert diag == pytest.approx(expected, rel=1e-15)


def test_mode_zero_redirects_to_mean_pair():
    with pytest.raises(ConfigurationError):
        hwp.assemble_coupled_mode(small_grid(), 0, T)


def test_solve_linear_manufactured_pair_recovery():
    grid = small_grid(9)
    op = hwp.assemble_coupled_mode(grid, 1, T)
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    rhs = op.matrix @ x0
    x = hwp.solve_linear(op, rhs, tol=1e-10)
    assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-9


def test_solve_linear_contract_violations():
    grid = small_grid(5)
    op = hwp.assemble_coupled_mode(grid, 1, T)
    with pytest.raises(ConfigurationError):
        hwp.solve_linear(op, np.zeros(3))
    with pytest.raises(ConfigurationError):
        hwp.solve_linear(op, np.zeros(op.dimension), tol=0.0)


def test_solve_linear_rejects_non_finite_tolerance():
    op = hwp.assemble_coupled_mode(small_grid(5), 1, T)
    rhs = np.ones(op.dimension, dtype=complex)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            hwp.solve_linear(op, rhs, tol=tol)


def _entrywise_coupled_matrix(grid, c_wave, c_heat, c_trace):
    """Reference: the coupled stencil written entry by entry on the 2-D
    index maps (the Kronecker build in operators must reproduce it)."""
    dtype = np.result_type(c_wave, c_heat, c_trace, float)
    heat_ids = _heat_ids(grid)
    n_heat = int((heat_ids >= 0).sum())
    wave_ids = _wave_ids(grid, n_heat)
    n = n_heat + int((wave_ids >= 0).sum())
    hx, hyw, hyh = grid.hx, grid.hy_w, grid.hy_h
    a = sp.lil_matrix((n, n), dtype=dtype)

    def add(r, c, v):
        for rr, cc in zip(np.ravel(r), np.ravel(c)):
            if cc >= 0:  # Dirichlet wall nodes carry the value zero
                a[rr, cc] += v

    # wave interior rows: (-Lap + c_wave) w
    jj, ii = np.mgrid[1:grid.ny_w - 1, 1:grid.nx - 1]
    r = wave_ids[jj, ii]
    add(r, r, c_wave + 2.0 / hx**2 + 2.0 / hyw**2)
    for dj, di, coef in ((0, -1, -1 / hx**2), (0, 1, -1 / hx**2),
                         (-1, 0, -1 / hyw**2), (1, 0, -1 / hyw**2)):
        add(r, wave_ids[jj + dj, ii + di], coef)
    # heat interior rows: (-Lap + c_heat) u; the north neighbor of the top
    # row is the interface trace c_trace * w
    jj, ii = np.mgrid[1:grid.ny_h - 1, 1:grid.nx - 1]
    r = heat_ids[jj, ii]
    add(r, r, c_heat + 2.0 / hx**2 + 2.0 / hyh**2)
    for dj, di, coef in ((0, -1, -1 / hx**2), (0, 1, -1 / hx**2),
                         (-1, 0, -1 / hyh**2), (1, 0, -1 / hyh**2)):
        add(r, heat_ids[jj + dj, ii + di], coef)
    top = jj == grid.ny_h - 2
    add(r[top], wave_ids[0, ii[top]], -c_trace / hyh**2)
    # interface rows: d_y w (wave side, upward) - d_y u (heat side, downward)
    icols = grid.interface_columns
    r = wave_ids[0, icols]
    for nb, coef in ((r, -3.0 / (2 * hyw) - 3.0 * c_trace / (2 * hyh)),
                     (wave_ids[1, icols], 4.0 / (2 * hyw)),
                     (wave_ids[2, icols], -1.0 / (2 * hyw)),
                     (heat_ids[grid.ny_h - 2, icols], 4.0 / (2 * hyh)),
                     (heat_ids[grid.ny_h - 3, icols], -1.0 / (2 * hyh))):
        add(r, nb, coef)
    return a.tocsr()


_DT = T / 64
_EPS = 0.1
_S_MARCH = 2.0 / _DT
_COEFFS = [(-1.0 + 0j, 1j, 1j), (-9.0 + 0j, -3j, -3j), (0.0, 0.0, 0.0),
           ((_S_MARCH + _EPS) ** 2, _S_MARCH + _EPS, _S_MARCH)]
_COEFF_IDS = ["k=1", "k=-3", "mean", "march"]


_STENCIL_DIMS = pytest.mark.parametrize(
    "dims", [(9, 9, 9, np.pi, 1.0, 1.0), (17, 9, 13, 2.0, 1.0, 0.7),
             (5, 3, 3, np.pi, 1.0, 1.0), (33, 65, 17, np.pi, 1.0, 1.0)],
    ids=["9^3", "17-9-13", "5-3-3", "33-65-17"])
_STENCIL_COEFFS = pytest.mark.parametrize("coeffs", _COEFFS + [
    (-(_S_MARCH**2 + 2 * _EPS * _S_MARCH - _EPS**2), -(_S_MARCH - _EPS), -_S_MARCH)],
    ids=_COEFF_IDS + ["march-old"])


@_STENCIL_DIMS
@_STENCIL_COEFFS
def test_coupled_matrix_matches_entrywise_reference(dims, coeffs):
    nx, ny_w, ny_h, lx, ly_w, ly_h = dims
    grid = hwp.build_stacked_rectangles(lx, ly_w, ly_h, nx, ny_w, ny_h)
    a = ops.coupled_matrix(grid, *coeffs)
    ref = _entrywise_coupled_matrix(grid, *coeffs)
    assert a.dtype == ref.dtype
    assert a.shape == ref.shape
    assert a.nnz == np.count_nonzero(a.data)  # no explicit zeros stored
    diff = abs(a - ref).max()
    assert diff <= 1e-15 * abs(ref).max()


@_STENCIL_DIMS
@_STENCIL_COEFFS
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_coupled_apply_matches_matrix_product(dims, coeffs, kind):
    nx, ny_w, ny_h, lx, ly_w, ly_h = dims
    grid = hwp.build_stacked_rectangles(lx, ly_w, ly_h, nx, ny_w, ny_h)
    a = ops.coupled_matrix(grid, *coeffs)
    rng = np.random.default_rng(nx * ny_w + ny_h)
    x = rng.standard_normal(a.shape[0])
    if kind == "complex":
        x = x + 1j * rng.standard_normal(a.shape[0])
    ref = a @ x
    band, interior = ops._column_band(grid, *coeffs)
    y = ops.coupled_apply(band, interior, grid.hx, x.reshape(-1, nx - 2)).ravel()
    assert y.dtype == ref.dtype
    assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)


def _coupled_apply_plain(band, interior, hx, x):
    """coupled_apply with temporaries and fancy-index copies, the oracle of
    the in-place version."""
    b = band.reshape(band.shape + (1,) * (x.ndim - 1))
    y = b[4] * x
    for d in (1, 2):
        y[:-d] += b[4 - d, d:] * x[d:]
        y[d:] += b[4 + d, :-d] * x[:-d]
    xi = x[interior]
    tx = 2.0 * xi
    tx[:, 1:] -= xi[:, :-1]
    tx[:, :-1] -= xi[:, 1:]
    y[interior] += tx / hx**2
    return y


@pytest.mark.parametrize("system", ["mode", "mean", "dirichlet", "lift"])
@pytest.mark.parametrize("nrhs", [None, 3])
def test_coupled_apply_is_bitwise_the_plain_expressions(system, nrhs):
    # each system as its solve passes it: x has the dtype of band and data
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 17, 9, 13)
    nh, nw = grid.ny_h - 2, grid.ny_w - 1
    if system == "lift":
        interior = np.arange(nw) > 0
        band = np.zeros((7, nw))
        band[4] = np.where(interior, 2.0, 1.0) / grid.hy_w**2
        band[3, 1:] = band[5, :-1] = -1.0 / grid.hy_w**2
    else:
        coeffs = {"mode": ((0.1 + 2j) ** 2, 0.1 + 2j, 2j), "mean": (0.04, 0.2, 0.0),
                  "dirichlet": (0.0, 0.0, 0.0)}[system]
        band, interior = ops._column_band(grid, *coeffs)
        if system == "dirichlet":
            band, interior = band[:, :nh], interior[:nh]
    rng = np.random.default_rng(7)
    shape = (band.shape[1], grid.nx - 2) + ((nrhs,) if nrhs else ())
    x = rng.standard_normal(shape)
    if system != "mean":
        x = x + 1j * rng.standard_normal(shape)
    got = ops.coupled_apply(band, interior, grid.hx, x)
    ref = _coupled_apply_plain(band, interior, grid.hx, x)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


def test_solve_linear_memory_is_bounded():
    # one live 161^2 mode: the solve and its in-place residual check hold at
    # most 4 arrays of the column system's size (3.78 measured)
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 161, 161, 161)
    g2, _ = hwp.analytic_mode(2, grid)
    op = ops.assemble_coupled_mode(grid, 2, T)
    rhs = ops.mode_rhs(op, None, g2.mode(2))
    column_system = rhs.nbytes
    tracemalloc.start()
    try:
        ops.solve_linear(op, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.residual <= 1e-10
    assert peak <= 4 * column_system


@pytest.mark.parametrize("system", ["mode", "mean", "lift", "dual"])
def test_residual_contract_catches_a_perturbed_solution(monkeypatch, system):
    # a solution off by a relative 1e-6 must fail the contract: 1e-10 for
    # the coupled systems, 1e-9 for the lift and the heat Dirichlet inverse
    grid = small_grid(9)
    exact = ops._separable_solve
    monkeypatch.setattr(ops, "_separable_solve",
                        lambda *args: exact(*args) * (1 + 1e-6))
    X, Y = np.meshgrid(grid.x, grid.y_w)
    g = np.sin(X) * (1 - Y)
    with pytest.raises(SolverError) as err:
        if system == "mode":
            op = hwp.assemble_coupled_mode(grid, 1, T)
            hwp.solve_linear(op, hwp.mode_rhs(op, None, g), tol=1e-10)
        elif system == "mean":
            hwp.solve_mean_pair(grid, None, g, tol=1e-10)
        elif system == "lift":
            hwp.harmonic_extension_mode(grid, *_manufactured_heat_mode(grid, 1j), 1, T)
        else:
            ops.heat_dual_norm_sq(grid, g)
    assert err.value.residual > 1e-10


@pytest.mark.parametrize("dims", [(9, 9, 9, np.pi, 1.0, 1.0),
                                  (17, 9, 13, 2.0, 1.0, 0.7),
                                  (5, 3, 3, np.pi, 1.0, 1.0)],
                         ids=["9^3", "17-9-13", "5-3-3"])
@pytest.mark.parametrize("coeffs", _COEFFS, ids=_COEFF_IDS)
def test_separable_solve_matches_sparse_lu(monkeypatch, dims, coeffs):
    nx, ny_w, ny_h, lx, ly_w, ly_h = dims
    grid = hwp.build_stacked_rectangles(lx, ly_w, ly_h, nx, ny_w, ny_h)
    op = ops.ModeOperator(1, 1.0, grid, coeffs)
    rng = np.random.default_rng(nx + ny_w + ny_h)
    b = rng.standard_normal(op.dimension)
    if op.matrix.dtype.kind == "c":
        b = b + 1j * rng.standard_normal(op.dimension)
    ref = spla.spsolve(op.matrix.tocsc(), b)

    def no_sparse_lu(*args, **kwargs):
        raise AssertionError("coupled operators must not use sparse LU")

    monkeypatch.setattr(spla, "spsolve", no_sparse_lu)
    x = hwp.solve_linear(op, b)
    assert x.dtype == ref.dtype
    assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)


def test_separable_solve_reports_lapack_failure(monkeypatch):
    op = hwp.assemble_coupled_mode(small_grid(5), 1, T)
    band, interior = ops._column_band(op.grid, *op.coeffs)
    singular = (np.zeros_like(band), np.zeros_like(interior))
    monkeypatch.setattr(ops, "_column_band", lambda grid, *c: singular)
    with pytest.raises(SolverError):
        hwp.solve_linear(op, np.ones(op.dimension, dtype=complex))


def test_zero_data_never_factorizes(monkeypatch):
    grid = small_grid(9)
    op = hwp.assemble_coupled_mode(grid, 2, T)

    def no_factorization(*args, **kwargs):
        raise AssertionError("zero data need no factorization")

    monkeypatch.setattr(spla, "spsolve", no_factorization)
    monkeypatch.setattr(ops, "_separable_solve", no_factorization)
    x = hwp.solve_linear(op, np.zeros(op.dimension, dtype=complex))
    assert x.dtype == complex and not np.any(x)


def test_flux_row_divergence_consistency():
    # summing flux-balance row values over the interface reproduces the
    # difference of the two one-sided boundary sums for any nodal data
    grid = small_grid(9)
    op = hwp.assemble_coupled_mode(grid, 1, T)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    w, u = ops.split_mode_solution(op, x)
    rows = _wave_ids(grid, op.n_heat)[0, grid.interface_columns]
    total = complex(np.sum((op.matrix @ x)[rows]))
    dyw = (-3 * w[0, :] + 4 * w[1, :] - w[2, :]) / (2 * grid.hy_w)
    dyu = (3 * u[-1, :] - 4 * u[-2, :] + u[-3, :]) / (2 * grid.hy_h)
    direct = complex(np.sum((dyw - dyu)[grid.interface_columns]))
    assert abs(total - direct) < 1e-12 * max(1.0, abs(direct))


def test_mean_pair_zero():
    grid = small_grid(9)
    pair = hwp.solve_mean_pair(grid, None, None)
    assert np.max(np.abs(pair.mean_u)) == 0.0
    assert np.max(np.abs(pair.mean_w)) == 0.0


def test_mean_pair_manufactured_second_order():
    # <u> = sin(x) y (y+1) on the heat box; <f> = -Lap<u>
    errs = {}
    for n in (17, 33):
        grid = small_grid(n)
        X, Y = np.meshgrid(grid.x, grid.y_h)
        exact = np.sin(X) * Y * (Y + 1)
        f_mean = np.sin(X) * (Y**2 + Y - 2.0)
        pair = hwp.solve_mean_pair(grid, f_mean, None)
        errs[n] = np.max(np.abs(pair.mean_u - exact))
        assert pair.residual_heat <= 1e-10
        assert pair.residual_wave <= 1e-10
    assert errs[17] / errs[33] == pytest.approx(4.0, abs=1.2)


def test_mean_pair_residual_contract_enforced():
    grid = small_grid(9)
    X, Y = np.meshgrid(grid.x, grid.y_w)
    g = np.cos(X) * (1 - Y)
    with pytest.raises(SolverError):
        hwp.solve_mean_pair(grid, None, g, tol=1e-30)
    pair = hwp.solve_mean_pair(grid, None, g)
    assert pair.residual_wave <= 1e-10
    assert pair.residual_heat <= 1e-10


@pytest.mark.parametrize("which", ["heat", "wave"])
def test_mean_pair_rejects_nan_data(which):
    grid = small_grid(9)
    f = np.ones((grid.ny_h, grid.nx))
    g = np.ones((grid.ny_w, grid.nx))
    (f if which == "heat" else g)[3, 4] = np.nan
    with pytest.raises(SolverError):
        hwp.solve_mean_pair(grid, f, g)


def test_mean_pair_boundary_conditions():
    grid = small_grid(9)
    X, Y = np.meshgrid(grid.x, grid.y_h)
    pair = hwp.solve_mean_pair(grid, np.sin(X) * (1 + Y), np.cos(X))
    assert np.max(np.abs(pair.mean_u[0, :])) == 0.0   # bottom wall
    assert np.max(np.abs(pair.mean_u[:, 0])) == 0.0   # side walls
    assert np.max(np.abs(pair.mean_u[-1, :])) == 0.0  # interface trace
    assert np.max(np.abs(pair.mean_w[-1, :])) == 0.0  # outer wave wall
    assert np.max(np.abs(pair.mean_w[:, 0])) == 0.0


def test_mean_pair_flux_compatibility_first_order():
    # the wave normal derivative matches the heat flux to O(h) in the
    # two-point sense (the solve enforces the three-point rows exactly)
    gaps = {}
    for n in (17, 33):
        grid = small_grid(n)
        X, Y = np.meshgrid(grid.x, grid.y_h)
        pair = hwp.solve_mean_pair(grid, np.sin(X) * (1 + Y) * Y, None)
        flux_heat = quad.one_sided_deriv_high(pair.mean_u, grid.hy_h, axis=0)
        dyw_2pt = (pair.mean_w[1, :] - pair.mean_w[0, :]) / grid.hy_w
        cols = grid.interface_columns
        gaps[n] = np.max(np.abs((dyw_2pt - flux_heat)[cols]))
    assert gaps[33] < gaps[17]
    assert gaps[17] / gaps[33] == pytest.approx(2.0, abs=1.0)


# ---------------------------------------------------------------------------
# harmonic extension of the interface flux
# ---------------------------------------------------------------------------

def test_harmonic_extension_trivial():
    grid = small_grid(9)
    e = hwp.harmonic_extension_mode(grid, np.zeros((9, 9)), None, 1, T)
    assert np.max(np.abs(e)) == 0.0


def _manufactured_heat_mode(grid, iwk):
    u = np.outer(1.0 + grid.y_h, np.sin(grid.x)) * (0.3 + 0.1j)
    f = np.zeros_like(u)
    hx, hy = grid.hx, grid.hy_h
    f[1:-1, 1:-1] = iwk * u[1:-1, 1:-1] - (
        (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / hx**2
        + (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / hy**2)
    return u, f


@pytest.mark.parametrize("dims", [(17, 17, 17, np.pi, 1.0, 1.0), (17, 9, 13, 2.0, 1.0, 0.7)],
                         ids=["17^3", "17-9-13"])
def test_harmonic_extension_matches_direct_mixed_solve(dims):
    # alternative assembly oracle: same mixed problem, assembled row by row
    nx, ny_w, ny_h, lx, ly_w, ly_h = dims
    grid = hwp.build_stacked_rectangles(lx, ly_w, ly_h, nx, ny_w, ny_h)
    u, f = _manufactured_heat_mode(grid, 1j)
    e = hwp.harmonic_extension_mode(grid, u, f, 1, T)
    assert np.max(np.abs(e[-1, :])) == 0.0  # vanishes on the outer wall
    assert np.max(np.abs(e[:, 0])) == 0.0

    flux = (u[-1, :] - u[-2, :]) / grid.hy_h
    wid = _wave_ids(grid, 0)
    n = int((wid >= 0).sum())
    a = sp.lil_matrix((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)
    hx, hyw = grid.hx, grid.hy_w
    for j in range(grid.ny_w - 1):
        for i in range(1, grid.nx - 1):
            r = wid[j, i]
            if j == 0:
                a[r, r] += hx / hyw
                a[r, wid[1, i]] -= hx / hyw
                b[r] = -hx * flux[i]
            else:
                a[r, r] += hx * hyw * (2 / hx**2 + 2 / hyw**2)
                for jj, ii in ((j, i - 1), (j, i + 1), (j - 1, i), (j + 1, i)):
                    if wid[jj, ii] >= 0:
                        a[r, wid[jj, ii]] -= hx * hyw / (hx**2 if jj == j else hyw**2)
    x = spla.spsolve(a.tocsc(), b)
    oracle = np.zeros((grid.ny_w, grid.nx), dtype=complex)
    oracle[wid >= 0] = x[wid[wid >= 0]]
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(e - oracle)) < 1e-8 * scale


def test_harmonic_extension_energy_estimate_reported():
    # ||grad e|| <= C (||iwk u||_dual + ||grad u|| + ||f||_dual); report C
    grid = small_grid(17)
    u, f = _manufactured_heat_mode(grid, 1j)
    e = hwp.harmonic_extension_mode(grid, u, f, 1, T)
    from hwp import quadrature as quad
    lhs = np.sqrt(quad.gradient_energy(e, grid.hx, grid.hy_w))
    rhs = (np.sqrt(ops.heat_dual_norm_sq(grid, 1j * u))
           + np.sqrt(quad.gradient_energy(u, grid.hx, grid.hy_h))
           + np.sqrt(ops.heat_dual_norm_sq(grid, f)))
    assert lhs > 0
    c = lhs / rhs
    assert c < 10.0  # a modest, grid-stable constant


def _per_hat_functional(grid, u_k, f_k, iwk, eps):
    """Reference: the discrete harmonic extension of every interface hat
    into the heat rectangle, one Dirichlet solve each, kept in an
    (n_interface, ny, nx) table, then each pairing summed term by term."""
    ny, nx = grid.ny_h, grid.nx
    form = quad.sbp_stiffness(ny, nx, grid.hx, grid.hy_h, np.arange(1, ny - 1)).tocsr()
    lu = spla.splu(quad.laplacian_5pt(ny, nx, grid.hx, grid.hy_h).tocsc())
    exts = np.zeros((grid.n_interface, ny, nx))
    for col, i in enumerate(grid.interface_columns):
        rhs = np.zeros((ny - 2, nx - 2))
        rhs[-1, i - 1] = 1.0 / grid.hy_h**2  # hat value 1 enters the row below
        exts[col, 1:-1, 1:-1] = lu.solve(rhs.ravel()).reshape(ny - 2, nx - 2)
        exts[col, -1, i] = 1.0
    mass = quad.interior_mass(ny, nx, grid.hx, grid.hy_h)
    form_u = form @ u_k.ravel()
    out = np.zeros(grid.n_interface, dtype=complex)
    for col, psi in enumerate(exts):
        val = np.sum(mass * f_k * psi) - iwk * np.sum(mass * u_k * psi)
        val -= eps * np.sum(mass * u_k * psi)
        out[col] = val - psi.ravel() @ form_u
    return out


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("dims", [(9, 9, 9, np.pi, 1.0, 1.0), (17, 17, 17, np.pi, 1.0, 1.0),
                                  (17, 9, 13, 2.0, 1.0, 0.7)],
                         ids=["9^3", "17^3", "17-9-13"])
def test_interface_functional_matches_per_hat_table(dims, eps):
    nx, ny_w, ny_h, lx, ly_w, ly_h = dims
    grid = hwp.build_stacked_rectangles(lx, ly_w, ly_h, nx, ny_w, ny_h)
    rng = np.random.default_rng(nx + ny_h)
    u, f = rng.standard_normal((2, ny_h, nx)) + 1j * rng.standard_normal((2, ny_h, nx))
    ref = _per_hat_functional(grid, u, f, 2j, eps)
    got = ops._interface_functional(grid, u, f, 2j, eps)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", ["u_k", "f_k"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_harmonic_extension_rejects_non_finite_input(name, bad):
    # one bad interior node used to give a NaN field and no error
    grid = small_grid(9)
    u, f = _manufactured_heat_mode(grid, 1j)
    (u if name == "u_k" else f)[3, 4] = bad
    with pytest.raises(SolverError, match=f"{name} has non-finite values"):
        hwp.harmonic_extension_mode(grid, u, f, 1, T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dual_norm_rejects_non_finite_input(bad):
    grid = small_grid(9)
    v = np.ones((grid.ny_h, grid.nx))
    v[4, 4] = bad
    with pytest.raises(SolverError, match="v has non-finite values"):
        ops.heat_dual_norm_sq(grid, v)
    with pytest.raises(SolverError, match="v has non-finite values"):
        ops.heat_dual_norm_sq(grid, np.stack([np.ones_like(v), v]))


def test_dual_norm_matches_sparse_lu():
    # oracle: a sparse LU of the five-point Dirichlet Laplacian; a stack of
    # fields gives the same norms in one solve
    grid = hwp.build_stacked_rectangles(2.0, 1.0, 0.7, 17, 9, 13)
    ny, nx = grid.ny_h, grid.nx
    lu = spla.splu(quad.laplacian_5pt(ny, nx, grid.hx, grid.hy_h).astype(complex).tocsc())
    rng = np.random.default_rng(5)
    v = rng.standard_normal((3, ny, nx)) + 1j * rng.standard_normal((3, ny, nx))
    v[1] = 0.0
    ref = np.array([np.real(np.vdot(b, lu.solve(b))) * grid.hx * grid.hy_h
                    for b in (c[1:-1, 1:-1].ravel() for c in v)])
    got = np.array([ops.heat_dual_norm_sq(grid, c) for c in v])
    assert got[1] == ref[1] == 0.0
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
    stacked = ops.heat_dual_norm_sq(grid, v)
    assert stacked.shape == (3,)
    assert np.all(np.abs(stacked - ref) <= 1e-12 * np.abs(ref))


def test_dual_norm_positive_and_scales():
    grid = small_grid(17)
    v = np.outer(np.sin(np.pi * (grid.y_h + 1)), np.sin(grid.x))
    base = ops.heat_dual_norm_sq(grid, v)
    assert base > 0
    assert ops.heat_dual_norm_sq(grid, 2 * v) == pytest.approx(4 * base, rel=1e-12)


@pytest.mark.parametrize("rows", ["interior", "all"])
def test_sbp_stiffness_matches_edge_loop(rows):
    # reference: the form assembled edge by edge
    ny, nx, hx, hy = 7, 9, np.pi / 8, 1.0 / 6
    x_rows = np.arange(1, ny - 1) if rows == "interior" else np.arange(ny)
    ref = np.zeros((ny * nx, ny * nx))
    edges = [(j * nx + i, j * nx + i + 1, hy / hx) for j in x_rows for i in range(nx - 1)]
    edges += [(j * nx + i, (j + 1) * nx + i, hx / hy)
              for i in range(1, nx - 1) for j in range(ny - 1)]
    for a, b, c in edges:
        ref[a, a] += c
        ref[b, b] += c
        ref[a, b] -= c
        ref[b, a] -= c
    form = quad.sbp_stiffness(ny, nx, hx, hy, x_rows).toarray()
    np.testing.assert_allclose(form, ref, rtol=1e-15, atol=0)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("dims", [(7, 9), (17, 33), (3, 3)])
def test_sbp_apply_matches_sparse_form(dims, dtype):
    # the matrix-free apply against the assembled form on the interior
    # rows, slice by slice of a (2, 3, ny, nx) batch
    ny, nx = dims
    hx, hy = np.pi / (nx - 1), 0.7 / (ny - 1)
    rng = np.random.default_rng(ny * nx)
    u = rng.standard_normal((2, 3, ny, nx)).astype(dtype)
    if dtype is complex:
        u += 1j * rng.standard_normal(u.shape)
    form = quad.sbp_stiffness(ny, nx, hx, hy, np.arange(1, ny - 1))
    ref = (form @ u.reshape(-1, ny * nx).T).T.reshape(u.shape)
    got = quad.sbp_apply(u, hx, hy)
    assert got.dtype == u.dtype
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    np.testing.assert_array_equal(quad.sbp_apply(u[1, 2], hx, hy), got[1, 2])


def test_wave_edge_form_of_a_batch_matches_single_pairs():
    grid = hwp.build_stacked_rectangles(2.0, 1.0, 0.7, 17, 9, 13)
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((2, 4, grid.ny_w, grid.nx)) * (1 + 1j)
    form = quad.sbp_stiffness(grid.ny_w, grid.nx, grid.hx, grid.hy_w, np.arange(1, grid.ny_w - 1))
    ref = np.array([np.vdot(q.ravel(), form @ p.ravel()) for p, q in zip(a, b)])
    got = ops.wave_edge_form(grid, a, b)
    assert got.shape == (4,)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert ops.wave_edge_form(grid, a[2], b[2]) == got[2]


def test_cell_average_accepts_a_batch():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((3, 7, 9)) + 1j * rng.standard_normal((3, 7, 9))
    got = quad.cell_average(f)
    assert got.shape == (3, 6, 8)
    for k in range(3):
        np.testing.assert_array_equal(got[k], quad.cell_average(f[k]))
    np.testing.assert_allclose(got[1, 2, 3], f[1, 2:4, 3:5].mean(), rtol=1e-15)
