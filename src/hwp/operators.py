"""The coupled heat-wave stencil and the solves built on it.

Every linear system of the two solvers discretizes one operator on the
stacked rectangles. ``coupled_matrix(grid, c_wave, c_heat, c_trace)``
assembles it:

* (-Lap + c_wave) w on wave interior rows (five-point Laplacian),
* (-Lap + c_heat) u on heat interior rows,
* one flux-balance row per interface node: the second-order one-sided
  vertical derivative of w (wave side) minus that of u (heat side),
* the heat interface trace eliminated as u = c_trace * w, so interface
  nodes carry a single wave unknown.

The callers differ only in the coefficients (s = i w k for temporal mode k,
or the trapezoidal symbol s = (2i/dt) tan(w k dt/2) for the discrete
periodic orbit of a march with step dt; s = 2/dt for the march step; eps
the damping shift, 0 for the undamped problem):

    system                    c_wave       c_heat    c_trace
    mode k != 0               (s+eps)^2    s+eps     s
    mean pair (k = 0)         eps^2        eps       0
    march step (new level)    (s+eps)^2    s+eps     s

The matrix dtype follows the coefficients: the mean pair and the march step
are real, the mode systems complex.

Layout. Every system here has one unknown order, that of ``_column_band``:
the y-rows heat interior (bottom to top), the interface row (one wave
unknown per node), then the wave interior rows (bottom to top), each row
the nx-2 inner nodes along x. In that order the matrix is the Kronecker sum

    A = B_y (x) I_x + D_y (x) T_x,

B_y the pentadiagonal column system, D_y the identity without the interface
row and T_x the three-point x second difference (-1, 2, -1)/hx^2.
``_column_band`` is the one place the stencil coefficients are written and
the one statement of which nodes are unknowns and in what order:
``mode_rhs`` and ``split_mode_solution`` move fields in and out of it, the
solves and residual checks work in it, and the march (periodic) keeps its
state in it. ``coupled_matrix`` writes A from it; no solve assembles:
``ModeOperator.matrix`` is built on demand only, by the tests and to count
nonzeros.

Extension. ``harmonic_extension_mode`` lifts the heat interface flux of
one mode into the wave rectangle (the extension lemma); its heat-side
functional takes one adjoint Dirichlet solve, not one per interface node.
The edge forms are applied matrix-free by ``quadrature.sbp_apply`` (the
heat one in that functional, the wave one in ``wave_edge_form``). Both
solves are Kronecker sums of the same form: the Dirichlet -Lap of the
heat interior (the matrix ``quadrature.laplacian_5pt``, never assembled
here), which ``heat_dual_norm_sq`` inverts too, is the heat rows of
``_column_band`` at (0, 0, 0), and the wave edge form on the free nodes
[:-1, 1:-1] over hx*hy_w is B/hy_w^2 (x) I + D (x) T_x,
B = tridiag(-1, (1, 2, ..., 2), -1), D the identity without the
(two-point Neumann) interface row.

Solving. Each system is a pair (band, interior): B in LAPACK band storage
and the rows of D. ``_separable_solve`` applies the fast direct method of
Buzbee, Golub & Nielson (SIAM J. Numer. Anal. 7, 1970): the orthonormal
sine transform (DST-I) in x splits the system into one banded y-system
B + lambda_j D per x-frequency, each solved by LAPACK gbsv for all
right-hand sides at once (``_frequency_solves``, called directly by the
march in the sine basis). This module's solves check ||A x - b|| / ||b||
by ``coupled_apply``, against tol in ``solve_linear`` (zero data return
exact zeros without a solve) and 1e-9 in the other two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import get_lapack_funcs

from .errors import ConfigurationError, SolverError
from .mesh import Grid
from . import quadrature as quad


def coupled_matrix(grid: Grid, c_wave: complex, c_heat: complex,
                   c_trace: complex) -> sp.csr_matrix:
    """The coupled stencil with shifts c_wave, c_heat and heat trace
    u = c_trace * w on the interface (see the module docstring): the
    Kronecker sum B_y (x) I_x + D_y (x) T_x of _column_band."""
    band, interior = _column_band(grid, c_wave, c_heat, c_trace)
    n, m = band.shape[1], grid.nx - 2
    b_y = sp.dia_matrix((band[2:], [2, 1, 0, -1, -2]), shape=(n, n))
    t_x = sp.diags(np.array([-1.0, 2.0, -1.0]) / grid.hx**2, [-1, 0, 1], shape=(m, m))
    a = (sp.kron(b_y, sp.identity(m), format="csr")
         + sp.kron(sp.diags(interior.astype(float)), t_x, format="csr"))
    a.eliminate_zeros()
    return a


def coupled_apply(band: np.ndarray, interior: np.ndarray, hx: float,
                  x: np.ndarray) -> np.ndarray:
    """(B (x) I + D (x) T_x) x without the matrix, for any system of the
    module docstring: x holds the rows in band order, shape (n, m) or
    (n, m, nrhs); the five band products of B plus T_x on the rows of D.
    Each band product, and T_x on each run of rows of D, is formed in one
    buffer and added in place: the plain expressions' operations in their
    order, bitwise theirs when x has the result's dtype (every solve here)."""
    b = band.reshape(band.shape + (1,) * (x.ndim - 1))
    y = b[4] * x
    buf = np.empty_like(y)
    for d in (1, 2):
        y[:-d] += np.multiply(b[4 - d, d:], x[d:], out=buf[:-d])  # entries (r, r + d)
        y[d:] += np.multiply(b[4 + d, :-d], x[:-d], out=buf[d:])  # entries (r, r - d)
    runs = np.flatnonzero(np.diff(interior, prepend=False, append=False))
    for r0, r1 in runs.reshape(-1, 2):
        xi, tx = x[r0:r1], buf[r0:r1]
        np.multiply(xi, 2.0, out=tx)
        tx[:, 1:] -= xi[:, :-1]
        tx[:, :-1] -= xi[:, 1:]
        tx /= hx**2
        y[r0:r1] += tx
    return y


@dataclass
class ModeOperator:
    """The coupled system for one temporal frequency (k = 0: the real mean
    pair), kept matrix-free: solve_linear works from the coefficients."""

    k: int
    omega: float
    grid: Grid
    coeffs: tuple  # (c_wave, c_heat, c_trace) of coupled_matrix
    # heat-row and wave-row (interface included) parts of ||A x - b|| / ||b||
    # of the last solve_linear on this operator
    residual_heat: float = field(default=0.0, init=False)
    residual_wave: float = field(default=0.0, init=False)

    @property
    def residual(self) -> float:
        return float(np.hypot(self.residual_heat, self.residual_wave))

    @property
    def n_wave(self) -> int:
        return (self.grid.ny_w - 1) * (self.grid.nx - 2)

    @property
    def n_heat(self) -> int:
        return (self.grid.ny_h - 2) * (self.grid.nx - 2)

    @property
    def dimension(self) -> int:
        return self.n_wave + self.n_heat

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The assembled sparse system, built on first use only."""
        return coupled_matrix(self.grid, *self.coeffs)


def assemble_coupled_mode(grid: Grid, k: int, period: float, eps: float = 0.0,
                          dt: float | None = None) -> ModeOperator:
    """Assemble the coupled mode system for frequency index k != 0.

    The time derivative is the symbol s = i w k, or with a step dt the
    trapezoidal symbol s = (2i/dt) tan(w k dt/2); eps is the damping shift.
    """
    if k == 0:
        raise ConfigurationError("mode 0 is stationary; use solve_mean_pair")
    omega = 2.0 * np.pi / period
    s = 1j * omega * k if dt is None else (2j / dt) * np.tan(0.5 * omega * k * dt)
    a = s + eps
    return ModeOperator(k, omega, grid, (a * a, a, s))


def mode_rhs(op: ModeOperator, f_k: np.ndarray | None,
             g_k: np.ndarray | None) -> np.ndarray:
    """Right-hand side vector from nodal mode coefficients of (f, g) in the
    unknown order (module docstring): the interior nodes of f, row by row,
    a zero interface row, then the interior nodes of g."""
    grid = op.grid
    nh = grid.ny_h - 2
    rhs = np.zeros((nh + grid.ny_w - 1, grid.nx - 2),
                   dtype=np.result_type(*op.coeffs, float))
    if f_k is not None:
        rhs[:nh] = f_k[1:-1, 1:-1]
    if g_k is not None:
        rhs[nh + 1:] = g_k[1:-1, 1:-1]
    return rhs.ravel()


def _column_band(grid: Grid, c_wave: complex, c_heat: complex,
                 c_trace: complex) -> tuple[np.ndarray, np.ndarray]:
    """The coupled stencil of one x-column without its x second difference.

    Rows run heat interior (bottom to top), interface, wave interior. Returns
    B_y in LAPACK band storage for two sub- and two super-diagonals (rows 0-1
    are the fill-in room partial pivoting needs, row 4 the diagonal) and the
    mask of rows that carry the x second difference (D_y: all but the
    interface row).
    """
    nh, nw = grid.ny_h - 2, grid.ny_w - 2
    n = nh + 1 + nw
    hyw, hyh = grid.hy_w, grid.hy_h
    band = np.zeros((7, n), dtype=np.result_type(c_wave, c_heat, c_trace, float))

    def put(rows, d, v):  # entry (row, row + d) of B_y
        band[4 - d, rows + d] = v

    heat = np.arange(nh)
    put(heat, 0, c_heat + 2.0 / hyh**2)
    put(heat[1:], -1, -1.0 / hyh**2)
    put(heat[:-1], 1, -1.0 / hyh**2)
    put(heat[-1:], 1, -c_trace / hyh**2)  # north of the top row: the trace
    wave = nh + 1 + np.arange(nw)
    put(wave, 0, c_wave + 2.0 / hyw**2)
    put(wave, -1, -1.0 / hyw**2)  # south of the first row: the interface
    put(wave[:-1], 1, -1.0 / hyw**2)
    for d, coef in ((0, -3.0 / (2 * hyw) - 3.0 * c_trace / (2 * hyh)),
                    (1, 4.0 / (2 * hyw)), (2, -1.0 / (2 * hyw)),
                    (-1, 4.0 / (2 * hyh)), (-2, -1.0 / (2 * hyh))):
        if 0 <= nh + d < n:  # outside the column is a Dirichlet wall node
            put(np.array([nh]), d, coef)
    interior = np.ones(n, dtype=bool)
    interior[nh] = False
    return band, interior


@lru_cache(maxsize=16)
def _sine_basis(m: int) -> np.ndarray:
    """Orthonormal DST-I matrix; symmetric and its own inverse."""
    j = np.arange(1, m + 1)
    basis = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(j, j) / (m + 1))
    basis.flags.writeable = False
    return basis


def _x_eigenvalues(m: int, hx: float) -> np.ndarray:
    """Eigenvalues (2 - 2 cos theta_j) / hx^2 of the x second difference in
    the order of _sine_basis, in the form that keeps the small ones accurate."""
    return (2.0 * np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1)) / hx) ** 2


def _frequency_solves(band: np.ndarray, interior: np.ndarray, hx: float,
                      cols: np.ndarray, what: str) -> None:
    """Solve (B + lambda_j D) x = cols[j] in place for every x-frequency j,
    one LAPACK gbsv each; cols (m, n[, nrhs]) has the dtype of band."""
    lam = _x_eigenvalues(cols.shape[0], hx)
    gbsv, = get_lapack_funcs(("gbsv",), (band, cols))
    for j in range(cols.shape[0]):
        ab = band.copy()
        ab[4, interior] += lam[j]
        _, _, cols[j], info = gbsv(2, 2, ab, cols[j], overwrite_ab=True)
        if info != 0:
            raise SolverError(f"{what}: banded solve of x-frequency {j + 1} "
                              f"failed (LAPACK info {info})")


def _separable_solve(band: np.ndarray, interior: np.ndarray, hx: float,
                     rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve (B (x) I + D (x) T_x) x = rhs by the sine transform in x and one
    banded y-solve per x-frequency for all right-hand sides; rhs and x hold
    the rows in band order, (n, m) or (n, m, nrhs). what names the system."""
    m = rhs.shape[1]
    dtype = np.result_type(band, rhs)
    sine = _sine_basis(m)
    # row j: the y-system data of x-frequency j
    cols = (sine @ np.moveaxis(rhs, 1, 0).reshape(m, -1)).astype(dtype, copy=False)
    cols = cols.reshape((m,) + rhs.shape[:1] + rhs.shape[2:])
    _frequency_solves(band.astype(dtype), interior, hx, cols, what)
    x = (sine @ cols.reshape(m, -1)).reshape(cols.shape)
    return np.ascontiguousarray(np.moveaxis(x, 0, 1))


def _checked_solve(band: np.ndarray, interior: np.ndarray, hx: float,
                   rhs: np.ndarray, what: str,
                   tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """_separable_solve held to ||A x - b|| <= tol ||b|| per right-hand side b
    through coupled_apply (zero b give exact zeros); returns x and A x - rhs."""
    x = _separable_solve(band, interior, hx, rhs, what)
    r = coupled_apply(band, interior, hx, x)
    r -= rhs
    b = np.linalg.norm(rhs, axis=(0, 1))
    rel = float(np.max(np.linalg.norm(r, axis=(0, 1)) / np.where(b > 0, b, 1.0)))
    if not rel <= tol:
        raise SolverError(f"{what} missed the residual contract: {rel:.3e} > {tol:.1e}",
                          residual=rel)
    return x, r


def solve_linear(op: ModeOperator, rhs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Separable direct solve of the coupled system under the residual
    contract, its heat-row and wave-row parts recorded on op; zero data
    return exact zeros without a solve."""
    if rhs.shape[0] != op.dimension:
        raise ConfigurationError(
            f"rhs length {rhs.shape[0]} does not match dimension {op.dimension}")
    if not np.isfinite(tol) or tol <= 0:
        raise ConfigurationError(f"tolerance must be positive and finite, got {tol}")
    op.residual_heat = op.residual_wave = 0.0
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros_like(rhs)
    grid = op.grid
    band, interior = _column_band(grid, *op.coeffs)
    x, r = _checked_solve(band, interior, grid.hx, rhs.reshape(-1, grid.nx - 2),
                          f"mode k={op.k}", tol)
    nh = grid.ny_h - 2  # the heat rows come first
    op.residual_heat = float(np.linalg.norm(r[:nh]) / bnorm)
    op.residual_wave = float(np.linalg.norm(r[nh:]) / bnorm)
    return x.ravel()


def split_mode_solution(op: ModeOperator, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scatter a solution vector (unknown order of the module docstring)
    into wave and heat nodal arrays.

    The heat array includes the derived interface trace u = c_trace * w in
    its last row (zero for the mean pair), so it is complex on a k != 0
    operator even for a real x.
    """
    grid = op.grid
    nh = grid.ny_h - 2
    xb = x.reshape(-1, grid.nx - 2)
    w = np.zeros((grid.ny_w, grid.nx), dtype=x.dtype)
    w[:-1, 1:-1] = xb[nh:]
    u = np.zeros((grid.ny_h, grid.nx), dtype=np.result_type(x, op.coeffs[2]))
    u[1:-1, 1:-1] = xb[:nh]
    if op.k:  # at k = 0 the product would write -0 where w is negative
        u[-1, :] = op.coeffs[2] * w[0, :]
    return w, u


# ---------------------------------------------------------------------------
# Stationary mean-value pair
# ---------------------------------------------------------------------------

@dataclass
class MeanPair:
    """Time-average components; mean_u vanishes on the whole heat boundary,
    mean_w on the outer wave wall."""

    mean_u: np.ndarray  # (ny_h, nx) real
    mean_w: np.ndarray  # (ny_w, nx) real
    residual_heat: float
    residual_wave: float

    @property
    def residual(self) -> float:
        return float(np.hypot(self.residual_heat, self.residual_wave))


def solve_mean_pair(grid: Grid, mean_f: np.ndarray | None,
                    mean_g: np.ndarray | None, tol: float = 1e-10,
                    eps: float = 0.0) -> MeanPair:
    """Solve the stationary problem for the time averages: the real coupled
    stencil at (eps^2, eps, 0), eps the damping shift.

    The heat trace vanishes (it is the mean of a time derivative), so the
    heat average solves a Dirichlet problem and its one-sided interface
    flux is the Neumann data of the wave average. residual_heat and
    residual_wave are the heat-row and wave-row (interface included) parts
    of ||Ax - b|| / ||b||; residual is the whole, which solve_linear holds
    against tol.
    """
    op = ModeOperator(0, 0.0, grid, (eps * eps, eps, 0.0))
    x = solve_linear(op, mode_rhs(op, mean_f, mean_g), tol=tol)
    w, u = split_mode_solution(op, x)
    return MeanPair(mean_u=u, mean_w=w, residual_heat=op.residual_heat,
                    residual_wave=op.residual_wave)


# ---------------------------------------------------------------------------
# Discrete dual norm and the periodic harmonic extension
# ---------------------------------------------------------------------------

def _dirichlet_solve(grid: Grid, b: np.ndarray) -> np.ndarray:
    """(-Lap)^(-1) b on the heat interior, b (ny_h-2, nx-2[, nrhs]): the heat
    rows of _column_band at (0, 0, 0), whose interface-row entries go unread."""
    nh = grid.ny_h - 2
    band, interior = _column_band(grid, 0.0, 0.0, 0.0)
    return _checked_solve(band[:, :nh], interior[:nh], grid.hx, b, "heat Dirichlet solve")[0]


def heat_dual_norm_sq(grid: Grid, v: np.ndarray) -> float | np.ndarray:
    """<v, (-Lap)^(-1) v> hx hy, the dual norm squared on the heat rectangle
    (homogeneous Dirichlet inverse), of one field (ny_h, nx) or of each field
    of a stack (K, ny_h, nx) in one solve; fields zero inside need none."""
    if not np.all(np.isfinite(v)):
        raise SolverError("v has non-finite values")
    b = np.moveaxis(v[..., 1:-1, 1:-1], 0, -1) if v.ndim == 3 else v[1:-1, 1:-1, None]
    live = np.any(b, axis=(0, 1))
    out = np.zeros(live.shape)
    if np.any(live):
        z = _dirichlet_solve(grid, b[..., live])
        out[live] = np.real(np.sum(np.conj(b[..., live]) * z, axis=(0, 1)))
    out *= grid.hx * grid.hy_h
    return out if v.ndim == 3 else float(out[0])


def _interface_functional(grid: Grid, u_k: np.ndarray, f_k: np.ndarray | None,
                          iwk: complex, eps: float = 0.0) -> np.ndarray:
    """<F, psi_i> for every interface hat i, where F is the heat-side weak
    residual pairing of the extension lemma and psi_i the discrete harmonic
    extension of hat i into the heat rectangle.

    psi_i is L^(-1) e_i / hy^2 on the interior nodes (L the symmetric
    Dirichlet five-point operator, e_i the unit vector of the node below
    hat i) and the hat on the interface row. The pairing is linear in psi_i,
    so with r = M (f - (iwk + eps) u) - A_H u (M the interior mass, A_H the
    edge form) one adjoint solve serves every hat:
        <F, psi_i> = r[top, i] + (L^(-1) r_int)[top - 1, i - 1] / hy^2.
    """
    ny, nx, hx, hy = grid.ny_h, grid.nx, grid.hx, grid.hy_h
    r = -(iwk + eps) * u_k
    if f_k is not None:
        r = r + f_k
    r = quad.interior_mass(ny, nx, hx, hy) * r
    r -= quad.sbp_apply(u_k, hx, hy)
    z = _dirichlet_solve(grid, r[1:-1, 1:-1])
    return r[-1, 1:-1] + z[-1] / hy**2


def harmonic_extension_mode(grid: Grid, u_k: np.ndarray, f_k: np.ndarray | None,
                            k: int, period: float) -> np.ndarray:
    """Wave-side lift of the heat interface flux for one temporal mode of
    the undamped problem (the heat functional at eps = 0).

    Solves, in the discrete weak sense, the stationary problem
        a_W(e, phi) = <F, phi|_interface>   for all wave test functions phi
    with e = 0 on the outer wave wall, where F is the heat-side residual
    functional built from (u_k, f_k) (see _interface_functional).
    Equivalently e is discrete-harmonic with Neumann interface data equal to
    the discrete heat flux of u_k. a_W on the free nodes is a Kronecker sum
    (module docstring), solved separably.
    """
    for name, a in (("u_k", u_k), ("f_k", f_k)):
        if a is not None and not np.all(np.isfinite(a)):
            raise SolverError(f"{name} has non-finite values")
    iwk = 1j * (2.0 * np.pi / period) * k
    n, hy = grid.ny_w - 1, grid.hy_w
    rhs = np.zeros((n, grid.nx - 2), dtype=complex)
    rhs[0] = _interface_functional(grid, np.asarray(u_k, dtype=complex), f_k,
                                   iwk) / (grid.hx * hy)
    # B / hy^2 in band storage: rows interface, then wave interior upward
    interior = np.arange(n) > 0
    band = np.zeros((7, n))
    band[4] = np.where(interior, 2.0, 1.0) / hy**2
    band[3, 1:] = band[5, :-1] = -1.0 / hy**2
    e = np.zeros((grid.ny_w, grid.nx), dtype=complex)
    e[:-1, 1:-1] = _checked_solve(band, interior, grid.hx, rhs, "harmonic extension")[0]
    return e


def wave_edge_form(grid: Grid, a: np.ndarray, b: np.ndarray) -> complex | np.ndarray:
    """Edge Dirichlet form a_W(a, conj(b)) on the wave rectangle (exact
    summation-by-parts partner of the five-point Laplacian there), of one
    pair (ny_w, nx) or of each pair of a batch (..., ny_w, nx); the products
    overwrite the scattered a, so two arrays of a's size are held."""
    scattered = quad.sbp_apply(a, grid.hx, grid.hy_w)
    return np.sum(np.multiply(np.conj(b), scattered, out=scattered), axis=(-2, -1))
