"""Geometric condition checks for multiplier fields on sampled domains.

The checks report margins rather than bare pass/fail because the continuum
conditions involve non-explicit constants:

* contractivity_margin: min over interior samples of the smallest eigenvalue
  of the symmetric part of grad b (positive means uniformly contractive);
* gammaW_sign_max: max of b.n over wall samples (<= 0 required);
* interface_sign_min: min of b.n over interface samples (>= 0 wanted for the
  interface-sign variant of the energy estimate);
* bilap_max: max of Lap(div b) over interior samples (<= 0 required);
* graph_quadform_margin: largest C with xi^T grad b xi >= C |xi . b|^2 over
  samples and all directions xi, exact per sample: with S = sym(grad b),
  b_perp = (-b_y, b_x), p = b_perp^T S b_perp and q = b_perp^T S b it is
  det S / p if p > 0, -inf if p < 0 or (p = 0, q != 0), b^T S b / |b|^4 if
  p = q = 0; samples with b = 0 give -inf only where S is negative
  (see _quadform_margin);
* a Rayleigh-quotient check of the interface Poincare inequality on the
  rectangular wave subgrid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GeometryCheckError, SolverError
from .fields import VectorFieldSpec, jet_batch, sym_min_eig
from .mesh import DomainSamples, Grid, _ruled_midpoints, sample_domain
from . import quadrature as quad

# relative round-off level at which p and q of _quadform_margin count as zero
_PQ_RTOL = 64 * np.finfo(float).eps


@dataclass
class GeometryReport:
    field: str
    domain: str
    tol: float
    contractivity_margin: float
    gammaW_sign_max: float
    interface_sign_min: float
    bilap_max: float
    graph_quadform_margin: float
    # b.n per boundary sample, for boundary_sign_table; not part of as_dict
    b_dot_n: np.ndarray = field(repr=False, compare=False)
    verdicts: dict[str, bool] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "field": self.field,
            "domain": self.domain,
            "tol": self.tol,
            "contractivity_margin": self.contractivity_margin,
            "gammaW_sign_max": self.gammaW_sign_max,
            "interface_sign_min": self.interface_sign_min,
            "bilap_max": self.bilap_max,
            "graph_quadform_margin": self.graph_quadform_margin,
            "verdicts": dict(self.verdicts),
        }


def _quadform_margin(jets: dict[str, np.ndarray], tol: float) -> float:
    """Largest C with xi^T grad(b) xi >= C |xi.b|^2 at every point and every xi.

    Exact per point, from the interior jets (b, grad). With S = sym(grad b),
    b_perp = (-b_y, b_x), p = b_perp^T S b_perp and q = b_perp^T S b, the
    directions xi = (b + t b_perp) / |b|^2 give xi.b = 1 and
    xi^T S xi = (b^T S b + 2 t q + t^2 p) / |b|^4, so the minimum over xi is

    * det S / p               when p > 0 (since b^T S b p - q^2 = det S |b|^4);
    * -inf                    when p < 0, or p = 0 and q != 0;
    * b^T S b / |b|^4         when p = q = 0.

    "p = 0" and "q = 0" are read at the round-off tolerance
    ``_PQ_RTOL * |S|_F * |b|^2`` (|S|_F the Frobenius norm), the size of the
    rounding error of p and q. Points with b = 0 (exactly) bound nothing:
    there every xi has xi.b = 0, and they only make the margin -inf when the
    form itself goes negative there, lambda_min(S) < -tol. The result is inf
    when no point has b != 0.
    """
    b, grad = jets["b"], jets["grad"]
    bx, by = b[:, 0], b[:, 1]
    sxx, syy = grad[:, 0, 0], grad[:, 1, 1]
    sxy = 0.5 * (grad[:, 0, 1] + grad[:, 1, 0])
    bb = bx * bx + by * by
    moving = bb > 0
    if np.any(sym_min_eig(grad[~moving]) < -tol):
        return -np.inf
    if not np.any(moving):
        return np.inf
    bx, by, sxx, syy, sxy, bb = (a[moving] for a in (bx, by, sxx, syy, sxy, bb))
    p = sxx * by * by - 2.0 * sxy * bx * by + syy * bx * bx
    q = sxy * (bx * bx - by * by) + (syy - sxx) * bx * by
    zero = _PQ_RTOL * np.sqrt(sxx * sxx + 2.0 * sxy * sxy + syy * syy) * bb
    if np.any((p < -zero) | ((np.abs(p) <= zero) & (np.abs(q) > zero))):
        return -np.inf
    flat = p <= zero
    det = sxx * syy - sxy * sxy
    bsb = sxx * bx * bx + 2.0 * sxy * bx * by + syy * by * by
    return float(min(np.min(det[~flat] / p[~flat], initial=np.inf),
                     np.min(bsb[flat] / (bb[flat] * bb[flat]), initial=np.inf)))


def check_conditions(spec: VectorFieldSpec, samples: DomainSamples,
                     tol: float = 1e-10) -> GeometryReport:
    """Evaluate all sign and contractivity margins of a field on a domain."""
    if samples.interior_points.size == 0:
        raise GeometryCheckError("empty interior sample set")
    gamma_w = samples.gamma_w_mask()
    gamma = samples.gamma_mask()
    if not np.any(gamma_w) or not np.any(gamma):
        raise GeometryCheckError(
            f"domain {samples.name!r} has empty boundary sample sets; "
            "cannot certify sign conditions")

    interior = jet_batch(spec, samples.interior_points)
    contractivity = float(np.min(sym_min_eig(interior["grad"])))
    bilap_max = float(np.max(interior["lap_div"]))

    bnd = jet_batch(spec, samples.boundary_points)
    b_dot_n = np.sum(bnd["b"] * samples.boundary_normals, axis=1)
    gammaW_sign_max = float(np.max(b_dot_n[gamma_w]))
    interface_sign_min = float(np.min(b_dot_n[gamma]))

    margin = _quadform_margin(interior, tol)

    verdicts = {
        "contractive": contractivity > tol,
        "generalized_optics": (contractivity > tol
                               and gammaW_sign_max <= tol
                               and bilap_max <= tol),
        "interface_sign": interface_sign_min >= -tol,
        "graph_quadratic_form": (margin > tol
                                 and gammaW_sign_max <= tol
                                 and bilap_max <= tol),
    }
    return GeometryReport(
        field=spec.describe(), domain=samples.name, tol=tol,
        contractivity_margin=contractivity,
        gammaW_sign_max=gammaW_sign_max,
        interface_sign_min=interface_sign_min,
        bilap_max=bilap_max,
        graph_quadform_margin=margin,
        verdicts=verdicts,
        b_dot_n=b_dot_n,
    )


def boundary_sign_table(report: GeometryReport, samples: DomainSamples) -> list[tuple]:
    """Per-sample b.n rows (x, y, nx, ny, tag, b_dot_n) for CSV export, from
    the b.n that check_conditions computed on the same samples."""
    rows = []
    for p, n, t, v in zip(samples.boundary_points, samples.boundary_normals,
                          samples.boundary_tags, report.b_dot_n):
        rows.append((float(p[0]), float(p[1]), float(n[0]), float(n[1]), str(t), float(v)))
    return rows


# ---------------------------------------------------------------------------
# Interface Poincare inequality via a generalized Rayleigh quotient
# ---------------------------------------------------------------------------

@dataclass
class PoincareReport:
    rayleigh_min: float
    iterations: int
    converged: bool

    @property
    def poincare_constant(self) -> float:
        """Constant in ||f||^2 <= C * (form), valid when rayleigh_min > 0."""
        return np.inf if self.rayleigh_min <= 0 else 1.0 / self.rayleigh_min


def _poincare_form(spec: VectorFieldSpec, grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Assemble (A, M) of the generalized eigenproblem on the wave rectangle.

    A f . f = int (grad f)^T sym(grad b) grad f + ||f||^2_{L2(interface)}
              - int_wall (b.n) |dn f|^2,
    M = trapezoidal volume mass. The space vanishes on the wall (all of the
    boundary except the bottom interface edge).
    """
    ny, nx = grid.ny_w, grid.nx
    hx, hy = grid.hx, grid.hy_w

    xc, yc = quad.cell_centers(grid.x, grid.y_w)
    centers = np.stack([xc.ravel(), yc.ravel()], axis=1)
    jets = jet_batch(spec, centers)
    sym = 0.5 * (jets["grad"] + np.swapaxes(jets["grad"], 1, 2))
    a_full = quad.anisotropic_gradient_form(
        ny, nx, hx, hy,
        sym[:, 0, 0].reshape(xc.shape), sym[:, 0, 1].reshape(xc.shape),
        sym[:, 1, 1].reshape(xc.shape))

    # interface L2 mass on the bottom row (corner nodes are constrained anyway)
    wx = quad.trap_weights_1d(nx, hx)
    interface = np.zeros(ny * nx)
    interface[1:nx - 1] = wx[1:nx - 1]

    # -int_wall (b.n) |dn f|^2 with 3-point one-sided normal derivatives
    # (3 f_wall - 4 f_1 + f_2) / (2h), f_wall = 0: one row of D per wall
    # sample, weighted by -(b.n) times its trapezoid weight.
    wy = quad.trap_weights_1d(ny, hy)
    b_top = jet_batch(spec, np.stack([grid.x, np.full(nx, grid.ly_w)], axis=1))["b"]
    b_left = jet_batch(spec, np.stack([np.zeros(ny), grid.y_w], axis=1))["b"]
    b_right = jet_batch(spec, np.stack([np.full(ny, grid.lx), grid.y_w], axis=1))["b"]
    i, j = np.arange(nx), np.arange(ny)
    near = np.concatenate([(ny - 2) * nx + i, j * nx + 1, j * nx + nx - 2])
    far = np.concatenate([(ny - 3) * nx + i, j * nx + 2, j * nx + nx - 3])
    h = np.concatenate([np.full(nx, hy), np.full(2 * ny, hx)])
    b_dot_n = np.concatenate([b_top[:, 1], -b_left[:, 0], b_right[:, 0]])
    coef = -b_dot_n * np.concatenate([wx, wy, wy])
    rows = np.arange(len(near))
    d = sp.csr_matrix((np.concatenate([-4.0 / (2 * h), 1.0 / (2 * h)]),
                       (np.concatenate([rows, rows]), np.concatenate([near, far]))),
                      shape=(len(near), ny * nx))
    a_full = a_full + sp.diags(interface) + d.T @ sp.diags(coef) @ d

    free = np.arange(ny * nx).reshape(ny, nx)[:-1, 1:-1].ravel()  # interface row free
    a = a_full.tocsr()[free][:, free]
    mass = quad.trap_mass(ny, nx, hx, hy).ravel()[free]
    m = sp.diags(mass).tocsr()
    a = 0.5 * (a + a.T)
    return a.tocsr(), m


def check_poincare(spec: VectorFieldSpec, grid: Grid, rel_tol: float = 1e-8,
                   max_iterations: int = 500) -> PoincareReport:
    """Smallest generalized Rayleigh quotient of the interface Poincare form.

    Inverse-power iteration on (A, M) with a small mass shift; A may be
    singular (e.g. for the zero field), in which case the reported minimum
    is zero to solver accuracy.
    """
    a, m = _poincare_form(spec, grid)
    n = a.shape[0]
    scale = abs(a).sum() / max(abs(m).sum(), 1e-300)
    sigma = 1e-6 * max(scale, 1e-12)
    lu = spla.splu((a + sigma * m).tocsc())
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n)
    v /= np.sqrt(v @ (m @ v))
    lam = np.inf
    for it in range(1, max_iterations + 1):
        w = lu.solve(m @ v)
        w /= np.sqrt(w @ (m @ w))
        lam_new = (w @ (a @ w)) / (w @ (m @ w))
        if abs(lam_new - lam) <= rel_tol * max(abs(lam_new), sigma):
            return PoincareReport(rayleigh_min=float(lam_new), iterations=it,
                                  converged=True)
        lam, v = lam_new, w
    raise SolverError(
        f"Rayleigh iteration did not converge in {max_iterations} iterations "
        f"(last value {lam:.6e})", residual=float(lam))


# ---------------------------------------------------------------------------
# Trapezoid domain: divergence-count identity and sign bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class TrapezoidObstructionReport:
    field: str
    interior_integral: float
    boundary_integral: float
    mismatch: float
    contractivity_margin: float
    sign_violations: list[tuple[float, float, float]]

    def as_dict(self) -> dict:
        return {
            "field": self.field,
            "interior_integral": self.interior_integral,
            "boundary_integral": self.boundary_integral,
            "mismatch": self.mismatch,
            "contractivity_margin": self.contractivity_margin,
            "n_sign_violations": len(self.sign_violations),
            "sign_violations": [list(v) for v in self.sign_violations[:32]],
        }


def trapezoid_obstruction(spec: VectorFieldSpec, resolution: int = 64,
                          tol: float = 1e-10) -> TrapezoidObstructionReport:
    """Evaluate the trapezoid counting identity for a candidate field.

    On the trapezoid with vertices (0,0), (1,0), (2,1), (0,1) and interface
    on {(x,0): 0 <= x <= 1}, the identity

        int_Omega dx b1 + int_Omega_l dy b2
        = int_0^1 [b1(1+y, y) - b2(1+y, y) - b1(0, y)] dy
          + int_1^2 b2(x, 1) dx

    holds for any smooth field (Omega_l is the triangle x >= 1 of the
    trapezoid). A contractive field makes the left side strictly positive
    while the wall sign conditions force every bracket on the right to be
    non-positive; the report records both sides and all wall samples where
    the sign condition fails.
    """
    samples = sample_domain("trapezoid", resolution)
    jets = jet_batch(spec, samples.interior_points)
    interior = float(np.sum(jets["grad"][:, 0, 0] * samples.interior_weights))
    # Omega_l = right triangle, x in (1, 1+y)
    ys, hy = np.linspace(0, 1, resolution, endpoint=False) + 0.5 / resolution, 1.0 / resolution
    y, x, hx = _ruled_midpoints(ys, np.zeros_like(ys), ys, resolution, "trapezoid")
    jl = jet_batch(spec, np.stack([1.0 + x, y], axis=1))
    interior += float(np.sum(jl["grad"][:, 1, 1] * (hx * hy)))

    ny = 4 * resolution  # 1D quadrature is cheap; oversample it
    yq, hyq = np.linspace(0, 1, ny, endpoint=False) + 0.5 / ny, 1.0 / ny
    slant = jet_batch(spec, np.stack([1.0 + yq, yq], axis=1))["b"]
    left = jet_batch(spec, np.stack([np.zeros(ny), yq], axis=1))["b"]
    xq = 1.0 + yq
    top = jet_batch(spec, np.stack([xq, np.ones(ny)], axis=1))["b"]
    boundary = float(np.sum((slant[:, 0] - slant[:, 1] - left[:, 0]) * hyq)
                     + np.sum(top[:, 1] * hyq))

    contractivity = float(np.min(sym_min_eig(jets["grad"])))

    bnd = jet_batch(spec, samples.boundary_points)
    b_dot_n = np.sum(bnd["b"] * samples.boundary_normals, axis=1)
    wall = samples.gamma_w_mask()
    bad = wall & (b_dot_n > tol)
    violations = [(float(p[0]), float(p[1]), float(v))
                  for p, v in zip(samples.boundary_points[bad], b_dot_n[bad])]

    return TrapezoidObstructionReport(
        field=spec.describe(),
        interior_integral=interior,
        boundary_integral=boundary,
        mismatch=abs(interior - boundary),
        contractivity_margin=contractivity,
        sign_violations=violations,
    )
