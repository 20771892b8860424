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
    """Average of the four corner values per grid cell, shape (..., ny-1, nx-1);
    leading axes of f are a batch."""
    return 0.25 * (f[..., :-1, :-1] + f[..., :-1, 1:] + f[..., 1:, :-1] + f[..., 1:, 1:])


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


def sbp_apply(u: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """``sbp_stiffness(ny, nx, hx, hy, range(1, ny - 1)) @ u`` without the
    matrix, for u of shape (..., ny, nx) (leading axes a batch): the x-edge
    differences of the interior rows and the y-edge differences of the
    interior columns, each scattered back onto its two end nodes."""
    out = np.zeros_like(u)
    d = np.diff(u[..., 1:-1, :], axis=-1) * (hy / hx)
    out[..., 1:-1, :-1] -= d
    out[..., 1:-1, 1:] += d
    d = np.diff(u[..., 1:-1], axis=-2) * (hx / hy)
    out[..., :-1, 1:-1] -= d
    out[..., 1:, 1:-1] += d
    return out


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
