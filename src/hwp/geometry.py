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

The interior samples are built, and their margins computed, in chunks of
whole columns of at most ``fields._JET_CHUNK`` samples (samples, jets and
reductions together), so check_conditions and trapezoid_obstruction hold
one chunk's arrays, whatever the sample count; the chunked margins are
bitwise those of one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GeometryCheckError, SolverError
from .fields import _JET_CHUNK, VectorFieldSpec, jet_batch, on_grid, sym_min_eig
from .mesh import DomainSamples, Grid, _ruled_columns, sample_domain
from . import quadrature as quad

# relative round-off level at which p and q of _quadform_margin count as zero
_PQ_RTOL = 64 * np.finfo(float).eps
# convergence tolerance (relative) and iteration limit of check_poincare
_RAYLEIGH_RTOL, _RAYLEIGH_MAX_ITERATIONS = 1e-8, 500
# relative residual every shifted solve of check_poincare must meet, and the
# iterative refinement steps a solve of an indefinite form may take to meet it
_SOLVE_RTOL, _REFINE_STEPS = 1e-9, 2
# SuperLU panel width and relaxed-supernode size of check_poincare's factor:
# the panel workspace grows with panel width times order; at 193^2-385^2
# (scipy 1.17) width 2 factored faster than SuperLU's default and, where
# that workspace sets the peak (graph-vertical), took about half the memory;
# relaxing supernodes changed neither the fill nor the time
_PANEL_SIZE, _RELAX = 2, 1


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
    area: float  # the sum of the interior weights, chunk by chunk
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
            "area": self.area,
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
    if not np.all(moving):  # the compactions copy; skip them when all samples move
        if np.any(np.broadcast_to(sym_min_eig(grad), bb.shape)[~moving] < -tol):
            return -np.inf
        if not np.any(moving):
            return np.inf
        bx, by, sxx, syy, sxy, bb = (np.broadcast_to(a, moving.shape)[moving]
                                     for a in (bx, by, sxx, syy, sxy, bb))
    p = sxx * by * by - 2.0 * sxy * bx * by + syy * bx * bx
    q = sxy * (bx * bx - by * by) + (syy - sxx) * bx * by
    zero = _PQ_RTOL * np.sqrt(sxx * sxx + 2.0 * sxy * sxy + syy * syy) * bb
    if np.any((p < -zero) | ((np.abs(p) <= zero) & (np.abs(q) > zero))):
        return -np.inf
    flat = p <= zero
    det = sxx * syy - sxy * sxy
    if not np.any(flat):
        return float(np.min(det / p, initial=np.inf))
    bsb = sxx * bx * bx + 2.0 * sxy * bx * by + syy * by * by
    return float(min(np.min(np.broadcast_to(det, p.shape)[~flat] / p[~flat], initial=np.inf),
                     np.min(bsb[flat] / (bb[flat] * bb[flat]), initial=np.inf)))


def check_conditions(spec: VectorFieldSpec, samples: DomainSamples,
                     tol: float = 1e-10) -> GeometryReport:
    """Evaluate all sign and contractivity margins of a field on a domain.

    The interior samples, their jets and the three reductions
    (contractivity, bilap_max, the graph quadratic-form margin) are built
    one chunk of whole columns at a time (``RuledColumns.chunks``), so the
    working set is one chunk's arrays whatever the sample count; every
    margin and verdict is bitwise that of one batch. The same pass sums the
    chunks' weights into the report's area. The boundary jets are one
    batch.
    """
    if samples.interior.size == 0:
        raise GeometryCheckError("empty interior sample set")
    gamma_w = samples.gamma_w_mask()
    gamma = samples.gamma_mask()
    if not np.any(gamma_w) or not np.any(gamma):
        raise GeometryCheckError(
            f"domain {samples.name!r} has empty boundary sample sets; "
            "cannot certify sign conditions")

    # the interior reductions chunk by chunk; np.minimum / np.maximum carry
    # a NaN through like the min / max of one batch, and any chunk's -inf
    # margin wins, as one batch returns -inf before it takes any minimum
    contractivity, bilap_max, margin, blocked, area = np.inf, -np.inf, np.inf, False, 0.0
    for points, weights in samples.interior.chunks():
        area += np.sum(weights)
        jets = jet_batch(spec, points)
        contractivity = np.minimum(contractivity, np.min(sym_min_eig(jets["grad"])))
        bilap_max = np.maximum(bilap_max, np.max(jets["lap_div"]))
        chunk_margin = _quadform_margin(jets, tol)
        margin = np.minimum(margin, chunk_margin)
        blocked = blocked or chunk_margin == -np.inf
    contractivity, bilap_max = float(contractivity), float(bilap_max)
    margin = -np.inf if blocked else float(margin)

    bnd = jet_batch(spec, samples.boundary_points)
    b_dot_n = np.sum(bnd["b"] * samples.boundary_normals, axis=1)
    gammaW_sign_max = float(np.max(b_dot_n[gamma_w]))
    interface_sign_min = float(np.min(b_dot_n[gamma]))

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
        area=float(area),
        verdicts=verdicts,
        b_dot_n=b_dot_n,
    )


def boundary_sign_table(report: GeometryReport, samples: DomainSamples) -> tuple:
    """The b.n CSV columns (x, y, nx, ny, tag, b_dot_n) of the boundary
    samples, from the b.n that check_conditions computed on them."""
    pts, nrm = samples.boundary_points, samples.boundary_normals
    return (pts[:, 0], pts[:, 1], nrm[:, 0], nrm[:, 1], samples.boundary_tags,
            report.b_dot_n)


# ---------------------------------------------------------------------------
# Interface Poincare inequality via a generalized Rayleigh quotient
# ---------------------------------------------------------------------------

@dataclass
class PoincareReport:
    rayleigh_min: float
    iterations: int
    converged: bool
    negative_eigenvalues: int | None  # below -sigma; None if the factor pivoted off-diagonal

    @property
    def poincare_constant(self) -> float:
        """Constant in ||f||^2 <= C * (form), valid when rayleigh_min > 0 and
        no eigenvalue is negative."""
        if self.rayleigh_min <= 0 or self.negative_eigenvalues:
            return np.inf
        return 1.0 / self.rayleigh_min


def _poincare_form(spec: VectorFieldSpec, grid: Grid
                   ) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Assemble (A, M) of the generalized eigenproblem on the wave rectangle.

    A f . f = int (grad f)^T S grad f + ||f||^2_{L2(interface)}
              - int_wall (b.n) |dn f|^2,
    S = sym(grad b), M = trapezoidal volume mass, both on the free nodes
    [:-1, 1:-1] (the space vanishes on the wall, all of the boundary but
    the bottom interface edge). Per cell with corners sw, se, nw, ne the
    gradient term is
        (s11 hy/hx)/2 (|f_se - f_sw|^2 + |f_ne - f_nw|^2)
      + (s22 hx/hy)/2 (|f_nw - f_sw|^2 + |f_ne - f_se|^2)
      + (s12/2) (f_se - f_sw + f_ne - f_nw)(f_nw - f_sw + f_ne - f_se):
    mean squared differences on opposite edges (no checkerboard kernel) and
    the product of the averaged differences. A node couples only to its
    eight neighbours, so A is built from its nine diagonals.

    Returns A (CSR, sorted column indices), the diagonal of M, and the
    position of each diagonal entry of A in A.data. A stores its nonzero
    entries and every diagonal entry, so a shift can be added in place; it
    is exactly symmetric, so its CSR arrays are also its CSC ones. The cell
    gradients are evaluated in strips of node rows, each with the cell rows
    on both sides, at most ``fields._JET_CHUNK`` cells unless a strip of
    one node row holds more; every node sums its cells in the order of one
    batch, so A does not depend on the strips.
    """
    ny, nx = grid.ny_w, grid.nx
    hx, hy = grid.hx, grid.hy_w

    # diag[j, i]: entry (n, n) at node n = (j, i); east, north, north_east
    # and north_west: entry (n, n') with n' = (j, i+1), (j+1, i), (j+1, i+1)
    # and (j+1, i-1)
    diag, east, north, north_east, north_west = np.zeros((5, ny, nx))
    rows = max(1, _JET_CHUNK // (nx - 1) - 1)
    for r0 in range(0, ny, rows):
        # node rows r0..r1-1 take cell rows c0..c1-1: the cell above a node
        # row first, then the cell below, as in one batch
        r1 = min(r0 + rows, ny)
        c0, c1 = max(r0 - 1, 0), min(r1, ny - 1)
        xc, yc = quad.cell_centers(grid.x, grid.y_w[c0:c1 + 1])
        grad = jet_batch(spec, np.stack([xc.ravel(), yc.ravel()], axis=1))["grad"]
        sx = (0.5 * hy / hx) * grad[:, 0, 0]
        sy = (0.5 * hx / hy) * grad[:, 1, 1]
        sxy = 0.25 * (grad[:, 0, 1] + grad[:, 1, 0])
        # per cell, or one value broadcast over the cells (read-only views)
        sx, sy, sxy, plus, minus = (np.broadcast_to(on_grid(a, xc.shape), xc.shape)
                                    for a in (sx, sy, sxy, sx + sy + sxy, sx + sy - sxy))
        above, below = slice(r0 - c0, None), slice(None, r1 - 1 - c0)
        up, down = slice(r0, c1), slice(c0 + 1, r1)
        diag[up, :-1] += plus[above]
        diag[up, 1:] += minus[above]
        diag[down, :-1] += minus[below]
        diag[down, 1:] += plus[below]
        east[up, :-1] -= sx[above]
        east[down, :-1] -= sx[below]
        north[up, :-1] -= sy[above]
        north[up, 1:] -= sy[above]
        north_east[up, :-1] -= sxy[above]
        north_west[up, 1:] += sxy[above]

    # interface L2 mass on the bottom row
    wx = quad.trap_weights_1d(nx, hx)
    diag[0, 1:-1] += wx[1:-1]

    # one rank-one term per wall sample: -(b.n) w (dn f)^2 with its trapezoid
    # weight w and dn f = (4 f_near - f_far) / (2h), i.e.
    # c (2 f_near - f_far / 2)^2 with c = -(b.n) w / h^2
    wy = quad.trap_weights_1d(ny, hy)
    b_top = jet_batch(spec, np.stack([grid.x, np.full(nx, grid.ly_w)], axis=1))["b"]
    b_left = jet_batch(spec, np.stack([np.zeros(ny), grid.y_w], axis=1))["b"]
    b_right = jet_batch(spec, np.stack([np.full(ny, grid.lx), grid.y_w], axis=1))["b"]
    c = -b_top[:, 1] * wx / hy**2
    diag[-2] += 4.0 * c
    diag[-3] += 0.25 * c
    north[-3] -= c
    for near, far, c in ((1, 2, b_left[:, 0] * wy / hx**2),
                         (-2, -3, -b_right[:, 0] * wy / hx**2)):
        diag[:, near] += 4.0 * c
        diag[:, far] += 0.25 * c
        east[:, min(near, far)] -= c

    # restrict to the free nodes, where a coupling (n, n') is the diagonal
    # n' - n of A; couplings to the wall columns drop out, and neighbour
    # kinds whose offsets coincide (nx <= 4) sum into one diagonal
    m = nx - 2
    n = (ny - 1) * m
    east[:, -2] = north_east[:, -2] = north_west[:, 1] = 0.0
    bands = {0: diag}
    for d, band in ((1, east), (m - 1, north_west), (m, north), (m + 1, north_east)):
        bands[d] = bands.get(d, 0.0) + band
    upper = {d: bands[d][:-1, 1:-1].ravel()[:n - d] for d in sorted(bands) if d < n}
    del diag, east, north, north_east, north_west, bands
    # keep the diagonals that store anything (s11 = s12 = 0 leaves three;
    # storing the empty ones slowed the LU of check_poincare several-fold),
    # mirrored so A is exactly symmetric: row p holds diagonal d at column
    # p + d, from upper[|d|] at min(p, p + d)
    upper = {d: band for d, band in upper.items() if d == 0 or np.any(band)}
    offsets = sorted({*upper, *(-d for d in upper)})
    values = np.zeros((n, len(offsets)))
    for col, d in enumerate(offsets):
        if d >= 0:
            values[:n - d, col] = upper[d]
        else:
            values[-d:, col] = upper[-d]
    stored = values != 0
    centre = offsets.index(0)
    stored[:, centre] = True
    data = values[stored]
    indices = (np.arange(n, dtype=np.int32)[:, None]
               + np.array(offsets, dtype=np.int32))[stored]
    counts = stored.sum(axis=1)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    at_diagonal = indptr[:-1] + stored[:, :centre].sum(axis=1, dtype=np.int32)
    a = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    mass = quad.trap_mass(ny, nx, hx, hy)[:-1, 1:-1].ravel()
    return a, mass, at_diagonal


def _mass_shift(a_data: np.ndarray, mass: np.ndarray) -> float:
    """The shift sigma of check_poincare: 1e-6 times the ratio of the sums
    of |A| over its nonzero entries and of M, and at least 1e-18. A stored
    zero of A's diagonal is left out, as it would change the grouping of
    the pairwise sum."""
    magnitude = a_data[a_data != 0]
    np.abs(magnitude, out=magnitude)
    return 1e-6 * max(magnitude.sum() / max(mass.sum(), 1e-300), 1e-12)


def check_poincare(spec: VectorFieldSpec, grid: Grid) -> PoincareReport:
    """Generalized Rayleigh quotient of the interface Poincare form nearest 0.

    Inverse-power iteration on (A, M) with a small mass shift sigma. The
    one matrix A + sigma M (sigma M added into A's diagonal entries in
    place) is factored in SuperLU's symmetric mode (diagonal pivots, one
    symmetric fill-reducing ordering; A is symmetric, so its CSR arrays are
    its CSC ones) with the panel and relaxed-supernode sizes
    ``_PANEL_SIZE`` and ``_RELAX``, and the diagonal M is applied as a
    vector. Every solve is held to ||(A + sigma M) w - M v|| <= 1e-9 ||M v||
    and raises SolverError with its relative residual otherwise; when the
    form is indefinite (the unpivoted factor may then lose accuracy), a
    solve that misses first takes up to ``_REFINE_STEPS`` steps of
    iterative refinement, w += solve(M v - (A + sigma M) w). Converged
    when two successive quotients differ by 1e-8 relative; SolverError if
    not within 500 iterations.

    The iteration finds the eigenvalue nearest -sigma, which is the
    smallest only when the form is positive semidefinite up to -sigma.
    negative_eigenvalues counts the eigenvalues below -sigma: the negative
    pivots of the symmetric factor (Sylvester's law of inertia), or None
    when the factor pivoted off the diagonal. rayleigh_min is the smallest
    eigenvalue when that count is 0. A may be singular (e.g. for the zero
    field), in which case the reported minimum is zero to solver accuracy.
    """
    shifted, mass, at_diagonal = _poincare_form(spec, grid)
    sigma = _mass_shift(shifted.data, mass)
    shifted.data[at_diagonal] += sigma * mass
    lu = spla.splu(sp.csc_matrix((shifted.data, shifted.indices, shifted.indptr),
                                 shape=shifted.shape),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   relax=_RELAX, panel_size=_PANEL_SIZE,
                   options={"SymmetricMode": True})
    negative = (int(np.count_nonzero(lu.U.diagonal() < 0))
                if np.array_equal(lu.perm_r, lu.perm_c) else None)
    # an unpivoted factor of a positive definite form is backward stable, so
    # only an indefinite (or off-diagonally pivoted) one is refined
    refine = 0 if negative == 0 else _REFINE_STEPS
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(shifted.shape[0])
    v /= np.sqrt(v @ (mass * v))
    lam = np.inf
    for it in range(1, _RAYLEIGH_MAX_ITERATIONS + 1):
        mv = mass * v
        w = lu.solve(mv)
        for step in range(refine + 1):
            if step:
                w += lu.solve(mv - aw)
            aw = shifted @ w
            residual = float(np.linalg.norm(aw - mv) / np.linalg.norm(mv))
            if residual <= _SOLVE_RTOL:
                break
        if not residual <= _SOLVE_RTOL:
            raise SolverError(f"Poincare solve {it} missed its residual contract: "
                              f"{residual:.3e} > {_SOLVE_RTOL:.0e}", residual=residual)
        wmw = w @ (mass * w)
        lam_new = (w @ aw) / wmw - sigma
        if abs(lam_new - lam) <= _RAYLEIGH_RTOL * max(abs(lam_new), sigma):
            return PoincareReport(rayleigh_min=float(lam_new), iterations=it,
                                  converged=True, negative_eigenvalues=negative)
        lam, v = lam_new, w / np.sqrt(wmw)
    raise SolverError(
        f"Rayleigh iteration did not converge in {_RAYLEIGH_MAX_ITERATIONS} iterations "
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
    interior, contractivity = 0.0, np.inf
    for points, weights in samples.interior.chunks():
        grad = jet_batch(spec, points)["grad"]
        interior += float(np.sum(grad[:, 0, 0] * weights))
        contractivity = np.minimum(contractivity, np.min(sym_min_eig(grad)))
    contractivity = float(contractivity)
    # Omega_l = right triangle, x in (1, 1+y)
    ys, hy = np.linspace(0, 1, resolution, endpoint=False) + 0.5 / resolution, 1.0 / resolution
    y, x, hx = _ruled_columns(ys, hy, np.zeros_like(ys), ys, resolution,
                              "trapezoid").midpoints()
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
