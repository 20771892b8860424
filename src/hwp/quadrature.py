"""Discrete quadrature and difference forms on uniform rectangular subgrids.

All nodal fields are arrays of shape (ny, nx), row j at height y_j, column i
at abscissa x_i. Three ingredients recur everywhere:

* trapezoidal masses for L2 inner products,
* cell-centered gradients (second order) for energy-type integrals,
* an edge-based Dirichlet form that satisfies an exact summation-by-parts
  identity against the five-point Laplacian, used where discrete identities
  must hold to round-off rather than to truncation order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def trap_weights_1d(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def trap_mass(ny: int, nx: int, hx: float, hy: float) -> np.ndarray:
    """Trapezoidal quadrature weights over the full rectangle."""
    return np.outer(trap_weights_1d(ny, hy), trap_weights_1d(nx, hx))


def interior_mass(ny: int, nx: int, hx: float, hy: float) -> np.ndarray:
    """Uniform weights hx*hy on strictly interior nodes, zero on the rim.

    This is the mass that pairs exactly with five-point Laplacian rows in the
    summation-by-parts identity (see ``sbp_stiffness``).
    """
    m = np.zeros((ny, nx))
    m[1:-1, 1:-1] = hx * hy
    return m


def norm_sq(mass: np.ndarray, a: np.ndarray) -> float:
    return float(np.sum(mass * np.abs(a) ** 2))


def cell_average(f: np.ndarray) -> np.ndarray:
    """Average of the four corner values per grid cell, shape (ny-1, nx-1)."""
    return 0.25 * (f[:-1, :-1] + f[:-1, 1:] + f[1:, :-1] + f[1:, 1:])


def cell_gradient(f: np.ndarray, hx: float, hy: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order gradient at cell centers, each of shape (..., ny-1, nx-1);
    leading axes of f are a batch."""
    fx = ((f[..., :-1, 1:] - f[..., :-1, :-1]) + (f[..., 1:, 1:] - f[..., 1:, :-1])) / (2.0 * hx)
    fy = ((f[..., 1:, :-1] - f[..., :-1, :-1]) + (f[..., 1:, 1:] - f[..., :-1, 1:])) / (2.0 * hy)
    return fx, fy


def cell_centers(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xc = 0.5 * (x[:-1] + x[1:])
    yc = 0.5 * (y[:-1] + y[1:])
    return np.meshgrid(xc, yc)


def gradient_energy(f: np.ndarray, hx: float, hy: float) -> float:
    """Cell-quadrature approximation of the Dirichlet energy int |grad f|^2."""
    fx, fy = cell_gradient(f, hx, hy)
    return float(np.sum((np.abs(fx) ** 2 + np.abs(fy) ** 2)) * hx * hy)


def anisotropic_gradient_form(ny: int, nx: int, hx: float, hy: float,
                              s11: np.ndarray, s12: np.ndarray,
                              s22: np.ndarray) -> sp.csr_matrix:
    """Sparse quadratic form  f -> int (grad f)^T S grad f  with per-cell
    symmetric coefficients S = [[s11, s12], [s12, s22]] (arrays over cells,
    shape (ny-1, nx-1)), acting on flattened nodal values (j*nx + i).

    Diagonal terms use the mean of the squared edge differences on opposite
    cell edges (no checkerboard kernel, suitable for eigenproblems); the
    cross term pairs the two averaged differences. The form is positive
    semidefinite whenever every S is.
    """
    area = hx * hy
    dx = sp.diags([-1.0, 1.0], [0, 1], shape=(nx - 1, nx)) / hx
    dy = sp.diags([-1.0, 1.0], [0, 1], shape=(ny - 1, ny)) / hy
    lo_x, hi_x = sp.eye(nx - 1, nx), sp.eye(nx - 1, nx, k=1)
    lo_y, hi_y = sp.eye(ny - 1, ny), sp.eye(ny - 1, ny, k=1)
    d_bottom, d_top = sp.kron(lo_y, dx), sp.kron(hi_y, dx)
    d_left, d_right = sp.kron(dy, lo_x), sp.kron(dy, hi_x)
    gx, gy = 0.5 * (d_bottom + d_top), 0.5 * (d_left + d_right)
    c11, c12, c22 = (sp.diags(np.ravel(c)) for c in (s11, s12, s22))
    form = (0.5 * area * (d_bottom.T @ c11 @ d_bottom + d_top.T @ c11 @ d_top
                          + d_left.T @ c22 @ d_left + d_right.T @ c22 @ d_right)
            + area * (gx.T @ c12 @ gy + gy.T @ c12 @ gx))
    return form.tocsr()


def sbp_stiffness(ny: int, nx: int, hx: float, hy: float,
                  x_edge_rows: np.ndarray) -> sp.csr_matrix:
    """Edge-difference Dirichlet form over the full node set (flattened j*nx+i).

    The form
        a(u, v) = sum_{x-edges in x_edge_rows} (hy/hx) du dv
                + sum_{y-edges, interior columns} (hx/hy) du dv
    satisfies, for v vanishing on the side columns and on one horizontal rim,
    the exact identity
        sum_interior hx*hy * v * Lap5(u) = -a(u, v) + boundary flux term,
    where the flux term uses two-point one-sided differences on the remaining
    horizontal rim. x_edge_rows must be the rows that carry Laplacian rows
    (strictly interior rows of the subgrid).
    """
    dx = sp.diags([-1.0, 1.0], [0, 1], shape=(nx - 1, nx))
    dy = sp.diags([-1.0, 1.0], [0, 1], shape=(ny - 1, ny))
    edge_rows = np.zeros(ny)
    edge_rows[np.atleast_1d(x_edge_rows)] = 1.0
    interior_cols = np.zeros(nx)
    interior_cols[1:-1] = 1.0
    form = ((hy / hx) * sp.kron(sp.diags(edge_rows), dx.T @ dx)
            + (hx / hy) * sp.kron(dy.T @ dy, sp.diags(interior_cols)))
    return form.tocsr()


def laplacian_5pt(ny: int, nx: int, hx: float, hy: float) -> sp.csr_matrix:
    """Negative five-point Laplacian (-Lap) with homogeneous Dirichlet rim.

    Returned matrix acts on the free (strictly interior) nodes only, in
    row-major interior ordering.
    """
    nyi, nxi = ny - 2, nx - 2
    ex = np.ones(nxi)
    ey = np.ones(nyi)
    tx = sp.diags([2 * ex / hx**2, -ex[:-1] / hx**2, -ex[:-1] / hx**2], [0, 1, -1])
    ty = sp.diags([2 * ey / hy**2, -ey[:-1] / hy**2, -ey[:-1] / hy**2], [0, 1, -1])
    return (sp.kron(sp.identity(nyi), tx) + sp.kron(ty, sp.identity(nxi))).tocsr()


def one_sided_deriv_low(f: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order one-sided derivative at the low end of `axis` (3-point)."""
    f = np.moveaxis(f, axis, 0)
    return (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)


def one_sided_deriv_high(f: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order one-sided derivative at the high end of `axis` (3-point)."""
    f = np.moveaxis(f, axis, 0)
    return (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
