import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import hwp
from hwp.errors import FieldDomainError, GeometryCheckError, SolverError
from hwp import geometry, quadrature as quad
from hwp.fields import jet_batch, sym_min_eig
from hwp.geometry import _poincare_form, boundary_sign_table
from hwp.mesh import DomainSamples

from conftest import per_point, traced_peak

ROOT = Path(__file__).resolve().parent.parent


def test_triangle_translate_passes_geometric_optics():
    samples = hwp.sample_domain("triangle", 32)
    rep = hwp.check_conditions(hwp.translate((0.0, 0.0)), samples)
    assert rep.contractivity_margin == pytest.approx(1.0, abs=1e-12)
    assert rep.gammaW_sign_max <= 1e-10
    assert rep.verdicts["generalized_optics"]
    assert rep.verdicts["interface_sign"]


def test_horn_generalized_optics():
    samples = hwp.sample_domain("horn", 32)
    rep = hwp.check_conditions(hwp.horn(0.5), samples)
    # eigenvalues of diag(beta, 1) give the margin beta
    assert rep.contractivity_margin == pytest.approx(0.5, abs=1e-12)
    assert rep.gammaW_sign_max <= 1e-10
    assert rep.verdicts["generalized_optics"]


def test_graph_vertical_on_unit_square():
    samples = hwp.sample_domain("unit-square", 32)
    rep = hwp.check_conditions(hwp.graph_vertical(2.0), samples)
    # xi^T grad(b) xi = xi_2^2 while |xi.b|^2 = (y-2)^2 xi_2^2 <= 4 xi_2^2
    assert rep.contractivity_margin == pytest.approx(0.0, abs=1e-12)
    assert not rep.verdicts["contractive"]
    assert rep.graph_quadform_margin >= 0.25 - 1e-12
    assert rep.graph_quadform_margin <= 0.26
    assert rep.verdicts["graph_quadratic_form"]
    assert rep.interface_sign_min >= 1.0  # b.n = 2 - y on the bottom edge


def test_spiral_field_margin_on_shell():
    samples = hwp.sample_domain("shell", 16)
    rep = hwp.check_conditions(hwp.spiral(0.2), samples, tol=1e-10)
    assert rep.contractivity_margin == pytest.approx(0.2, abs=1e-10)
    assert rep.verdicts["generalized_optics"]
    assert rep.verdicts["interface_sign"]


def test_arc_domain_satisfies_graph_form_only():
    samples = hwp.sample_domain("arc", 16)
    rep = hwp.check_conditions(hwp.arc_renormalized(), samples)
    assert not rep.verdicts["contractive"]
    assert rep.verdicts["graph_quadratic_form"]
    assert rep.graph_quadform_margin > 0.03


def test_empty_boundary_set_rejected():
    samples = hwp.sample_domain("unit-square", 16)
    broken = DomainSamples(
        name="broken",
        interior=samples.interior,
        boundary_points=samples.boundary_points,
        boundary_normals=samples.boundary_normals,
        boundary_tags=np.full(len(samples.boundary_tags), "OnGammaW"),
    )
    with pytest.raises(GeometryCheckError):
        hwp.check_conditions(hwp.translate((0.0, 0.0)), broken)


def test_boundary_sign_table_shape():
    samples = hwp.sample_domain("triangle", 16)
    report = hwp.check_conditions(hwp.translate((0.0, 0.0)), samples)
    columns = boundary_sign_table(report, samples)
    assert len(columns) == 6
    assert all(len(c) == len(samples.boundary_points) for c in columns)
    # slant edge rows carry ~zero b.n
    tags, b_dot_n = columns[4], columns[5]
    assert max(abs(b_dot_n[tags == "OnGammaW"])) < 1e-12


# ---------------------------------------------------------------------------
# interface Poincare Rayleigh quotient
# ---------------------------------------------------------------------------

def test_poincare_graph_vertical_positive():
    grid = hwp.build_stacked_rectangles(1.0, 1.0, 1.0, 17, 17, 3)
    rep = hwp.check_poincare(hwp.graph_vertical(2.0), grid)
    assert rep.converged
    assert rep.rayleigh_min > 0
    assert np.isfinite(rep.poincare_constant)


def test_poincare_zero_field_reports_zero():
    grid = hwp.build_stacked_rectangles(1.0, 1.0, 1.0, 17, 17, 3)
    rep = hwp.check_poincare(hwp.VectorFieldSpec("zero"), grid)
    assert abs(rep.rayleigh_min) < 1e-6


_INERTIA_FIELDS = ["graph-vertical:2", "spiral:0.2", "horn:-1", "horn:0.5", "translate:0,0",
                   "zero"]


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("field", _INERTIA_FIELDS)
def test_poincare_inertia_matches_dense_pencil(field, n):
    # the negative pivots of the symmetric factor count the negative
    # eigenvalues of (A, M) (Sylvester); the iteration converges to the
    # eigenvalue nearest the small shift, which is the smallest one only
    # when that count is 0 (spiral:0.2 at 17^2 reports 1.69 while the
    # pencil goes down to -5.4e4)
    spec = hwp.parse_field(field)
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, n, n, 3)
    rep = hwp.check_poincare(spec, grid)
    a, mass, _ = _poincare_form(spec, grid)
    eig = scipy.linalg.eigh(a.toarray(), np.diag(mass), eigvals_only=True)
    scale = np.max(np.abs(eig))
    assert rep.negative_eigenvalues == np.count_nonzero(eig < -1e-9 * scale)
    if rep.negative_eigenvalues == 0:
        assert rep.rayleigh_min == pytest.approx(eig[0], rel=1e-8, abs=1e-9 * scale)
    else:
        assert rep.rayleigh_min > eig[0] and rep.poincare_constant == np.inf
        assert np.min(np.abs(eig - rep.rayleigh_min)) <= 1e-8 * abs(rep.rayleigh_min)


def test_poincare_solve_held_to_its_residual_contract(monkeypatch):
    # a factor of a slightly different matrix solves every system to about
    # 1e-6 only; the first solve fails the 1e-9 contract, by name
    splu = geometry.spla.splu
    monkeypatch.setattr(geometry.spla, "splu",
                        lambda a, **kwargs: splu(a * (1.0 + 1e-6), **kwargs))
    grid = hwp.build_stacked_rectangles(1.0, 1.0, 1.0, 17, 17, 3)
    with pytest.raises(SolverError, match="^Poincare solve 1 missed its residual contract") as err:
        hwp.check_poincare(hwp.graph_vertical(2.0), grid)
    assert 1e-9 < err.value.residual < 1e-5


@pytest.mark.parametrize("lx,n,steps", [(np.pi, 129, 1), (np.pi, 193, 1), (1.0, 65, 2)],
                         ids=["pi-129^2", "pi-193^2", "unit-65^2"])
def test_poincare_refines_the_solves_of_an_indefinite_form(lx, n, steps, monkeypatch):
    # the unpivoted factor of the indefinite horn:-1 form misses the 1e-9
    # contract at its first or second solve (4.5e-9 to 8.6e-6); `steps`
    # refinement steps meet it, and the quotient is the eigenvalue nearest
    # -sigma, as a pivoted shift-invert Lanczos finds it
    spec = hwp.parse_field("horn:-1")
    grid = hwp.build_stacked_rectangles(lx, 1.0, 1.0, n, n, 3)
    monkeypatch.setattr(geometry, "_REFINE_STEPS", steps - 1)
    with pytest.raises(SolverError, match="missed its residual contract"):
        hwp.check_poincare(spec, grid)
    monkeypatch.undo()
    rep = hwp.check_poincare(spec, grid)
    assert rep.converged and rep.negative_eigenvalues > 0 and rep.poincare_constant == np.inf
    a, mass, _ = _poincare_form(spec, grid)
    sigma = geometry._mass_shift(a.data, mass)
    (nearest,) = scipy.sparse.linalg.eigsh(a.tocsc(), k=1, M=sp.diags(mass).tocsc(),
                                           sigma=-sigma, return_eigenvectors=False)
    assert rep.rayleigh_min == pytest.approx(nearest, rel=1e-6, abs=1e-10)


def test_poincare_nearly_singular_indefinite_form_still_fails_its_contract():
    # horn:-1 on the unit square at 193^2 has an eigenvalue of about -3e-11;
    # two refinement steps leave a solve above the contract, which raises
    # with its residual
    grid = hwp.build_stacked_rectangles(1.0, 1.0, 1.0, 193, 193, 3)
    with pytest.raises(SolverError, match="missed its residual contract") as err:
        hwp.check_poincare(hwp.parse_field("horn:-1"), grid)
    assert err.value.residual > 1e-9


def test_poincare_refinement_stability():
    coarse = hwp.build_stacked_rectangles(1.0, 1.0, 1.0, 9, 9, 3)
    fine = hwp.build_stacked_rectangles(1.0, 1.0, 1.0, 17, 17, 3)
    a = hwp.check_poincare(hwp.graph_vertical(2.0), coarse).rayleigh_min
    b = hwp.check_poincare(hwp.graph_vertical(2.0), fine).rayleigh_min
    assert abs(a - b) / b < 0.10


# ---------------------------------------------------------------------------
# trapezoid counting identity
# ---------------------------------------------------------------------------

def test_trapezoid_translate_identity_and_violation():
    rep = hwp.trapezoid_obstruction(hwp.translate((0.0, 0.0)), 64)
    # div contributions integrate to area(Omega) + area(Omega_l) = 2
    assert rep.interior_integral == pytest.approx(2.0, abs=0.02)
    assert rep.boundary_integral == pytest.approx(rep.interior_integral, abs=0.02)
    # slanted edge has b.n = 1/sqrt(2) > 0 everywhere
    slant = [v for v in rep.sign_violations if abs(v[0] - 1 - v[1]) < 1e-9]
    assert slant
    assert all(v[2] == pytest.approx(1 / np.sqrt(2), abs=1e-12) for v in slant)


def test_trapezoid_graph_vertical_fails_contractivity_first():
    rep = hwp.trapezoid_obstruction(hwp.graph_vertical(2.0), 32)
    assert rep.contractivity_margin == pytest.approx(0.0, abs=1e-12)


def test_trapezoid_horn_positive_interior_with_violations():
    rep = hwp.trapezoid_obstruction(hwp.horn(1.0), 64)
    assert rep.interior_integral > 0
    assert len(rep.sign_violations) >= 1
    # quadrature oracle at 10x resolution
    fine = hwp.trapezoid_obstruction(hwp.horn(1.0), 640)
    assert rep.interior_integral == pytest.approx(fine.interior_integral, rel=0.01)
    assert fine.mismatch < 0.01 * abs(fine.interior_integral)


@pytest.mark.parametrize("spec", [
    hwp.translate((0.5, 0.5)),
    hwp.spiral(0.2),
    hwp.horn(0.7),
    hwp.graph_vertical(2.0),
])
def test_trapezoid_counting_identity_for_every_field(spec):
    # discrete divergence-theorem consistency at the sampling level
    rep = hwp.trapezoid_obstruction(spec, 128)
    scale = max(abs(rep.interior_integral), abs(rep.boundary_integral), 0.1)
    assert rep.mismatch <= 0.02 * scale


# ---------------------------------------------------------------------------
# array-built forms against the loops they replaced
# ---------------------------------------------------------------------------

def _loop_gradient_form(ny, nx, hx, hy, s11, s12, s22):
    """Reference: the cell-by-cell rank-one assembly, as a dense matrix."""
    area = hx * hy
    a = np.zeros((ny * nx, ny * nx))

    def rank_one(coef, idx, coeffs):
        for p, vp in zip(idx, coeffs):
            for q, vq in zip(idx, coeffs):
                a[p, q] += coef * vp * vq

    for j in range(ny - 1):
        for i in range(nx - 1):
            n00, n01 = j * nx + i, j * nx + i + 1
            n10, n11 = n00 + nx, n01 + nx
            rank_one(0.5 * area * s11[j, i], [n01, n00], [1 / hx, -1 / hx])
            rank_one(0.5 * area * s11[j, i], [n11, n10], [1 / hx, -1 / hx])
            rank_one(0.5 * area * s22[j, i], [n10, n00], [1 / hy, -1 / hy])
            rank_one(0.5 * area * s22[j, i], [n11, n01], [1 / hy, -1 / hy])
            gx = [(n01, 0.5 / hx), (n00, -0.5 / hx), (n11, 0.5 / hx), (n10, -0.5 / hx)]
            gy = [(n10, 0.5 / hy), (n00, -0.5 / hy), (n11, 0.5 / hy), (n01, -0.5 / hy)]
            for p, vp in gx:
                for q, vq in gy:
                    a[p, q] += area * s12[j, i] * vp * vq
                    a[q, p] += area * s12[j, i] * vp * vq
    return a


def _rel_diff(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


def _kron_gradient_form(ny, nx, hx, hy, s11, s12, s22):
    """Reference: the gradient form of _poincare_form by sparse Kronecker
    products on the full node set (j*nx + i); the products store no exact
    zeros."""
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


def _kron_poincare_form(spec, grid):
    """Reference: A of _poincare_form from the Kronecker gradient form, the
    interface mass and the wall rank-one terms as sparse products on the
    full node set, restricted to the free nodes and symmetrized."""
    ny, nx, hx, hy = grid.ny_w, grid.nx, grid.hx, grid.hy_w
    xc, yc = quad.cell_centers(grid.x, grid.y_w)
    grad = per_point(jet_batch(spec, np.stack([xc.ravel(), yc.ravel()], axis=1)))["grad"]
    sym = 0.5 * (grad + np.swapaxes(grad, 1, 2))
    a = _kron_gradient_form(ny, nx, hx, hy, *(sym[:, p, q].reshape(xc.shape)
                                              for p, q in ((0, 0), (0, 1), (1, 1))))
    wx = quad.trap_weights_1d(nx, hx)
    interface = np.zeros(ny * nx)
    interface[1:nx - 1] = wx[1:nx - 1]
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
    a = a + sp.diags(interface) + d.T @ sp.diags(coef) @ d
    free = np.arange(ny * nx).reshape(ny, nx)[:-1, 1:-1].ravel()
    a = a.tocsr()[free][:, free]
    return (0.5 * (a + a.T)).tocsr()


@pytest.mark.parametrize("ny,nx", [(7, 9), (17, 17)])
def test_anisotropic_gradient_form_matches_cell_loop(ny, nx):
    rng = np.random.default_rng(ny * nx)
    hx, hy = np.pi / (nx - 1), 0.7 / (ny - 1)
    s11, s12, s22 = (np.where(rng.random((ny - 1, nx - 1)) < 0.3, 0.0,
                              rng.standard_normal((ny - 1, nx - 1)))
                     for _ in range(3))
    form = _kron_gradient_form(ny, nx, hx, hy, s11, s12, s22).toarray()
    assert _rel_diff(form, _loop_gradient_form(ny, nx, hx, hy, s11, s12, s22)) <= 1e-14


def _loop_poincare_form(spec, grid):
    """Reference: loop-built gradient form plus per-node interface mass and
    per-wall-sample rank-one normal-derivative terms."""
    ny, nx, hx, hy = grid.ny_w, grid.nx, grid.hx, grid.hy_w
    xc, yc = quad.cell_centers(grid.x, grid.y_w)
    grad = per_point(jet_batch(spec, np.stack([xc.ravel(), yc.ravel()], axis=1)))["grad"]
    sym = 0.5 * (grad + np.swapaxes(grad, 1, 2))
    a = _loop_gradient_form(ny, nx, hx, hy, *(sym[:, p, q].reshape(xc.shape)
                                              for p, q in ((0, 0), (0, 1), (1, 1))))
    wx = quad.trap_weights_1d(nx, hx)
    wy = quad.trap_weights_1d(ny, hy)
    for i in range(1, nx - 1):
        a[i, i] += wx[i]

    def rank_one(coef, cols, vals):
        for c1, v1 in zip(cols, vals):
            for c2, v2 in zip(cols, vals):
                a[c1, c2] += coef * v1 * v2

    b_top = jet_batch(spec, np.stack([grid.x, np.full(nx, grid.ly_w)], axis=1))["b"]
    b_left = jet_batch(spec, np.stack([np.zeros(ny), grid.y_w], axis=1))["b"]
    b_right = jet_batch(spec, np.stack([np.full(ny, grid.lx), grid.y_w], axis=1))["b"]
    for i in range(nx):
        rank_one(-b_top[i, 1] * wx[i], [(ny - 2) * nx + i, (ny - 3) * nx + i],
                 [-4.0 / (2 * hy), 1.0 / (2 * hy)])
    for j in range(ny):
        rank_one(b_left[j, 0] * wy[j], [j * nx + 1, j * nx + 2],
                 [4.0 / (2 * hx), -1.0 / (2 * hx)])
        rank_one(-b_right[j, 0] * wy[j], [j * nx + nx - 2, j * nx + nx - 3],
                 [-4.0 / (2 * hx), 1.0 / (2 * hx)])
    free = np.zeros((ny, nx), dtype=bool)
    free[:ny - 1, 1:nx - 1] = True
    free = free.ravel()
    a = a[free][:, free]
    return 0.5 * (a + a.T), quad.trap_mass(ny, nx, hx, hy).ravel()[free]


def _poincare_field(name, monkeypatch):
    """The field of name; "<field>+cross" adds a smooth non-symmetric
    gradient at every point (no built-in field has sym(grad b) off the
    diagonal on a rectangle), patched into geometry and into the oracles
    of this module."""
    base, _, cross = name.partition("+")
    if cross:
        plain = jet_batch

        def jets(spec, points):
            out = plain(spec, points)
            x, y = points[:, 0], points[:, 1]
            out["grad"] = out["grad"] + np.stack(
                [np.stack([0.3 * np.sin(3 * x), x * np.cos(2 * y)], axis=-1),
                 np.stack([y - x, 0.2 * np.cos(x)], axis=-1)], axis=-2)
            return out

        monkeypatch.setattr(geometry, "jet_batch", jets)
        monkeypatch.setitem(globals(), "jet_batch", jets)
    return hwp.parse_field(base)


_POINCARE_FIELDS = ["graph-vertical:2", "spiral:0.2", "horn:0.5", "spiral:0.2+cross"]


@pytest.mark.parametrize("field", _POINCARE_FIELDS)
def test_poincare_form_matches_loop_assembly(field, monkeypatch):
    spec = _poincare_field(field, monkeypatch)
    grid = hwp.build_stacked_rectangles(1.3, 0.8, 1.0, 11, 9, 3)
    a, mass, _ = _poincare_form(spec, grid)
    ref_a, ref_m = _loop_poincare_form(spec, grid)
    assert _rel_diff(a.toarray(), ref_a) <= 1e-14
    np.testing.assert_array_equal(mass, ref_m)


@pytest.mark.parametrize("field", _POINCARE_FIELDS)
@pytest.mark.parametrize("dims", [(np.pi, 33, 33), (1.3, 11, 9), (1.0, 4, 5), (1.0, 3, 3)],
                         ids=["33^2", "11x9", "4x5", "3^2"])
def test_poincare_form_structure_matches_kron_builder(field, dims, monkeypatch):
    # the diagonal build stores what the sparse products store: for
    # graph-vertical (s11 = s12 = 0) no east or diagonal couplings at all;
    # storing those zeros made the LU of check_poincare several-fold slower
    lx, nx, ny = dims
    spec = _poincare_field(field, monkeypatch)
    grid = hwp.build_stacked_rectangles(lx, 1.0, 1.0, nx, ny, 3)
    a, _, _ = _poincare_form(spec, grid)
    ref = _kron_poincare_form(spec, grid)
    assert a.nnz == ref.nnz
    assert (a != a.T).nnz == 0
    assert abs(a - ref).max() <= 1e-14 * abs(ref).max()


def _diags_poincare_form(spec, grid):
    """Reference: (A, M) of _poincare_form as sp.diags assembled them, from
    all cell gradients in one batch and the nine diagonals of the free
    nodes, converted to CSR (which drops exact zeros)."""
    ny, nx = grid.ny_w, grid.nx
    hx, hy = grid.hx, grid.hy_w
    xc, yc = quad.cell_centers(grid.x, grid.y_w)
    grad = per_point(jet_batch(spec, np.stack([xc.ravel(), yc.ravel()], axis=1)))["grad"]
    sx = (0.5 * hy / hx) * grad[:, 0, 0].reshape(xc.shape)
    sy = (0.5 * hx / hy) * grad[:, 1, 1].reshape(xc.shape)
    sxy = (0.25 * (grad[:, 0, 1] + grad[:, 1, 0])).reshape(xc.shape)
    diag, east, north, north_east, north_west = np.zeros((5, ny, nx))
    diag[:-1, :-1] += sx + sy + sxy
    diag[:-1, 1:] += sx + sy - sxy
    diag[1:, :-1] += sx + sy - sxy
    diag[1:, 1:] += sx + sy + sxy
    east[:-1, :-1] -= sx
    east[1:, :-1] -= sx
    north[:-1, :-1] -= sy
    north[:-1, 1:] -= sy
    north_east[:-1, :-1] -= sxy
    north_west[:-1, 1:] += sxy
    wx = quad.trap_weights_1d(nx, hx)
    diag[0, 1:-1] += wx[1:-1]
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
    m = nx - 2
    n = (ny - 1) * m
    east[:, -2] = north_east[:, -2] = north_west[:, 1] = 0.0
    bands = {0: diag}
    for d, band in ((1, east), (m - 1, north_west), (m, north), (m + 1, north_east)):
        bands[d] = bands.get(d, 0.0) + band
    offsets = [d for d in sorted(bands) if d < n]
    upper = [bands[d][:-1, 1:-1].ravel()[:n - d] for d in offsets]
    a = sp.diags(upper + upper[1:], offsets + [-d for d in offsets[1:]],
                 shape=(n, n), format="csr")
    mass = quad.trap_mass(ny, nx, hx, hy)[:-1, 1:-1].ravel()
    return a, sp.diags(mass, format="csr")


@pytest.mark.parametrize("field", _POINCARE_FIELDS)
@pytest.mark.parametrize("dims", [(np.pi, 33, 33), (1.3, 11, 9), (1.0, 4, 5), (1.0, 3, 3),
                                  (np.pi, 193, 193)],
                         ids=["33^2", "11x9", "4x5", "3^2", "193^2"])
def test_poincare_form_is_bitwise_the_diagonal_assembly(field, dims, monkeypatch):
    # the CSR arrays built from the diagonals, the shift and the shifted
    # matrix SuperLU factors are those of sp.diags, bit for bit (193^2
    # evaluates the gradients in more than one strip)
    lx, nx, ny = dims
    spec = _poincare_field(field, monkeypatch)
    grid = hwp.build_stacked_rectangles(lx, 1.0, 1.0, nx, ny, 3)
    a, mass, at_diagonal = _poincare_form(spec, grid)
    ref, ref_m = _diags_poincare_form(spec, grid)
    assert a.data.tobytes() == ref.data.tobytes()
    np.testing.assert_array_equal(a.indices, ref.indices)
    np.testing.assert_array_equal(a.indptr, ref.indptr)
    assert mass.tobytes() == ref_m.diagonal().tobytes()
    np.testing.assert_array_equal(a.indices[at_diagonal], np.arange(a.shape[0]))
    sigma = geometry._mass_shift(a.data, mass)
    assert sigma == 1e-6 * max(abs(ref).sum() / max(abs(ref_m).sum(), 1e-300), 1e-12)
    a.data[at_diagonal] += sigma * mass
    shifted = ref + sigma * ref_m
    assert a.data.tobytes() == shifted.data.tobytes()
    np.testing.assert_array_equal(a.indices, shifted.indices)
    np.testing.assert_array_equal(a.indptr, shifted.indptr)


@pytest.mark.parametrize("chunk", [1, 30, 41])
def test_poincare_form_does_not_depend_on_the_strips(chunk, monkeypatch):
    # strips of one, two and three node rows (11 x 9 nodes, 10 cells a row)
    # give the one-strip bits
    spec = _poincare_field("spiral:0.2+cross", monkeypatch)
    grid = hwp.build_stacked_rectangles(1.3, 1.0, 1.0, 11, 9, 3)
    ref, _ = _diags_poincare_form(spec, grid)
    monkeypatch.setattr(geometry, "_JET_CHUNK", chunk)
    a, _, _ = _poincare_form(spec, grid)
    assert a.data.tobytes() == ref.data.tobytes()
    np.testing.assert_array_equal(a.indices, ref.indices)


@pytest.mark.parametrize("field", ["graph-vertical:2", "spiral:0.2"])
def test_poincare_form_memory_is_bounded(field):
    # the form holds the five nodal diagonal arrays, one strip of jets and
    # about twice its output (the values and column indices of the kept
    # diagonals, row by row, then their stored entries): 5.8 and 7.5 MiB at
    # 193^2, against 13.8 and 12.9 MiB through sp.diags and its CSR copies
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 193, 193, 3)
    peak, (a, mass, at_diagonal) = traced_peak(
        lambda: _poincare_form(hwp.parse_field(field), grid))
    output = sum(x.nbytes for x in (a.data, a.indices, a.indptr, mass, at_diagonal))
    nodal = 5 * grid.ny_w * grid.nx * 8
    assert peak <= 3 * output + nodal, (peak, output, nodal)


_RECT_CONFIG = ("domain = rectangle\nfield = graph-vertical:2\npoincare = true\n"
                "poincare.nx = 193\npoincare.ny = 193\nname = rect\n")


def _child_maxrss_kib(code, tmp_path):
    """ru_maxrss (KiB) of one fresh interpreter running code: a launcher
    runs it as its only child and reads RUSAGE_CHILDREN."""
    launcher = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", code],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1])


def test_geometry_check_poincare_rss_rise_is_bounded(tmp_path):
    # SuperLU allocates in C, out of tracemalloc's sight, so the rect
    # geometry-check of the verify benchmark is measured as a process: its
    # high-water mark above a process that only imports hwp: 9.2-10.3 MB
    # with the direct CSR arrays and panel width 2, 20.6-21.1 MB through
    # sp.diags, the A + sigma M copy and SuperLU's default panel (24 fresh
    # processes each)
    run = ("import hwp.cli as cli; cli.run_scenario(cli.parse_scenario("
           f"{_RECT_CONFIG!r}, 'geometry-check', {str(tmp_path)!r}))")
    rise = (_child_maxrss_kib(run, tmp_path)
            - _child_maxrss_kib("import hwp.cli", tmp_path)) / 1024
    assert rise <= 15.0, rise


def test_trapezoid_integrals_match_column_loop(monkeypatch):
    spec, res = hwp.spiral(0.2), 64
    evaluated = []

    def recording_jet_batch(spec, points):
        evaluated.append(points)
        return jet_batch(spec, points)

    monkeypatch.setattr(geometry, "jet_batch", recording_jet_batch)
    rep = hwp.trapezoid_obstruction(spec, res)
    # reference: the trapezoid samples plus the triangle x in (1, 1+y),
    # built row by row
    s = hwp.sample_domain("trapezoid", res)
    interior = float(np.sum(jet_batch(spec, s.interior_points)["grad"][:, 0, 0]
                            * s.interior_weights))
    ys, hy = np.linspace(0, 1, res, endpoint=False) + 0.5 / res, 1.0 / res
    pts, wts = [], []
    for y in ys:
        nx = max(1, int(np.ceil(y * res)))
        hx = y / nx
        for i in range(nx):
            pts.append((1.0 + (i + 0.5) * hx, y))
            wts.append(hx * hy)
    interior += float(np.sum(jet_batch(spec, np.array(pts))["grad"][:, 1, 1]
                             * np.array(wts)))
    assert rep.interior_integral == interior
    # the built-in fields have constant gradients there, so check the points too
    np.testing.assert_array_equal(evaluated[1], np.array(pts))


# ---------------------------------------------------------------------------
# exact graph quadratic-form margin against the sampled one it replaced
# ---------------------------------------------------------------------------

def _sampled_quadform_margin(jets, tol=1e-10, n_directions=64):
    """Reference: min of xi^T sym(grad b) xi / (xi.b)^2 over 64 unit
    directions per point. It can only overestimate the true minimum."""
    b, grad = jets["b"], jets["grad"]
    thetas = np.arange(n_directions) * np.pi / n_directions
    xi = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)  # (d, 2)
    sym = 0.5 * (grad + np.swapaxes(grad, 1, 2))
    num = np.einsum("da,pab,db->pd", xi, sym, xi)
    den = np.einsum("da,pa->pd", xi, b) ** 2
    bscale = np.maximum(np.sum(b * b, axis=1), 1.0)[:, None]
    active = den > 1e-14 * bscale
    if np.any(~active & (num < -tol)):
        return -np.inf
    if not np.any(active):
        return np.inf
    return float(np.min(num[active] / den[active]))


# every demo domain with the fields demo 02 pairs it with (the rectangle
# with the field of the benchmark's Poincare check)
_DEMO_PAIRS = [
    ("triangle", "translate"), ("horn", "horn:0.5"),
    ("unit-square", "graph-vertical:2"), ("rectangle", "graph-vertical:2"),
    ("shell", "spiral:0.2"), ("spiral", "spiral:0.2"), ("arc", "arc"),
    ("trapezoid", "translate"), ("trapezoid", "horn:1"), ("trapezoid", "spiral:0.2"),
]


@pytest.mark.parametrize("domain,field", _DEMO_PAIRS)
def test_sampled_margin_bounds_exact_margin(domain, field):
    jets = per_point(jet_batch(hwp.parse_field(field),
                               hwp.sample_domain(domain, 32).interior_points))
    exact = geometry._quadform_margin(jets, 1e-10)
    sampled = _sampled_quadform_margin(jets)
    assert np.isfinite(exact) and exact > 0
    # the arc field's sym(grad b) is rank one, but its off-diagonal is the
    # sum of -theta - xy/r^2 and theta - xy/r^2, so it carries round-off of
    # about eps*theta; the sampled form divides that by (xi.b)^2 down to
    # sin^2(pi/128) |b|^2, about 1.7e3 times smaller, and reads ~2e-12 low
    rtol = 1e-11 if field == "arc" else 1e-12
    assert sampled >= exact - rtol * exact


def test_exact_margin_equals_sampled_when_ratio_is_direction_free():
    # graph-vertical: xi^T S xi = xi_2^2 and (xi.b)^2 = (y-2)^2 xi_2^2
    jets = per_point(jet_batch(hwp.graph_vertical(2.0),
                               hwp.sample_domain("unit-square", 32).interior_points))
    exact = geometry._quadform_margin(jets, 1e-10)
    assert exact == pytest.approx(_sampled_quadform_margin(jets), rel=1e-14)
    assert exact == pytest.approx(1.0 / np.max((jets["b"][:, 1]) ** 2), rel=1e-14)


def test_exact_margin_on_arc_matches_closed_form():
    # sym(grad b) = v v^T / r^2 with v = (y, -x) parallel to b = theta (-y, x),
    # so p = q = 0 and the ratio is 1 / (theta r)^2 in every direction
    pts = hwp.sample_domain("arc", 32).interior_points
    exact = geometry._quadform_margin(jet_batch(hwp.arc_renormalized(), pts), 1e-10)
    theta, r2 = np.arctan2(pts[:, 1], pts[:, 0]), np.sum(pts * pts, axis=1)
    assert exact == pytest.approx(np.min(1.0 / (theta**2 * r2)), rel=1e-14)


def test_sampling_overestimates_the_margin():
    jets = per_point(jet_batch(hwp.horn(0.5), hwp.sample_domain("trapezoid", 64).interior_points))
    exact = geometry._quadform_margin(jets, 1e-10)
    sampled = _sampled_quadform_margin(jets)
    assert exact == pytest.approx(0.3385964, abs=1e-7)
    assert sampled == pytest.approx(0.3388244, abs=1e-7)
    # a direction search never lands on the exact minimiser here
    assert sampled - exact > 2e-4
    assert _sampled_quadform_margin(jets, n_directions=1024) >= exact


def _jets(b, grad):
    return {"b": np.array(b, dtype=float), "grad": np.array(grad, dtype=float)}


@pytest.mark.parametrize("b,grad,expected", [
    # p > 0: S = diag(1, 2), b = (1, 0): p = 2, det S / p = 1
    ([[1.0, 0.0]], [[[1.0, 0.0], [0.0, 2.0]]], 1.0),
    # p > 0 off the axes, S = [[2, 1], [1, 3]], b = (1, 1): p = 3, det S = 5
    ([[1.0, 1.0]], [[[2.0, 0.5], [1.5, 3.0]]], 5.0 / 3.0),
    # p < 0: S = diag(1, -1), b = (1, 0): the form is negative across b
    ([[1.0, 0.0]], [[[1.0, 0.0], [0.0, -1.0]]], -np.inf),
    # p = 0, q != 0: S = [[1, 1], [1, 0]], b = (1, 0): p = 0, q = 1
    ([[1.0, 0.0]], [[[1.0, 1.0], [1.0, 0.0]]], -np.inf),
    # p = q = 0: S = diag(0, 3), b = (0, 2): b^T S b / |b|^4 = 12 / 16
    ([[0.0, 2.0]], [[[0.0, 0.0], [0.0, 3.0]]], 0.75),
    # b = 0 with S PSD bounds nothing; the other point sets the margin
    ([[0.0, 0.0], [1.0, 0.0]], [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]]], 1.0),
    # b = 0 everywhere with S PSD: no constraint at all
    ([[0.0, 0.0]], [[[1.0, 0.0], [0.0, 0.0]]], np.inf),
    # b = 0 with S indefinite: no C exists
    ([[0.0, 0.0], [1.0, 0.0]], [[[1.0, 0.0], [0.0, -1e-3]], [[1.0, 0.0], [0.0, 2.0]]],
     -np.inf),
], ids=["p-pos", "p-pos-general", "p-neg", "p-zero-q-nonzero", "p-q-zero",
        "b-zero-psd", "b-zero-only", "b-zero-indefinite"])
def test_exact_margin_branches(b, grad, expected):
    jets = _jets(b, grad)
    assert geometry._quadform_margin(jets, 1e-10) == pytest.approx(expected, rel=1e-15)
    sampled = _sampled_quadform_margin(jets)
    if np.isfinite(expected):
        assert sampled >= expected - 1e-12 * abs(expected)
    elif expected > 0:
        assert sampled == np.inf


def test_exact_margin_scale_invariant_round_off_branches():
    # p < 0 and q != 0 at round-off level relative to |S| |b|^2 count as
    # zero, at any scale of b; read literally, either would give -inf
    for scale in (1e-6, 1.0, 1e6):
        b = scale * np.array([[0.0, 2.0]])
        grad = np.array([[[-1e-17, 1e-17], [0.0, 3.0]]])
        got = geometry._quadform_margin(_jets(b, grad), 1e-10)
        assert got == pytest.approx(0.75 / scale**2, rel=1e-14)


def test_check_conditions_evaluates_interior_jets_once(monkeypatch):
    samples = hwp.sample_domain("spiral", 16)
    counts = []

    def counting_jet_batch(spec, points):
        counts.append(len(points))
        return jet_batch(spec, points)

    monkeypatch.setattr(geometry, "jet_batch", counting_jet_batch)
    hwp.check_conditions(hwp.spiral(0.2), samples)
    assert sorted(counts) == sorted([len(samples.interior_points),
                                     len(samples.boundary_points)])


# ---------------------------------------------------------------------------
# chunked interior reductions against the single batch they replaced
# ---------------------------------------------------------------------------

def _single_batch_conditions(spec, samples, tol=1e-10):
    """Reference: check_conditions with every interior jet in one batch."""
    if samples.interior_points.size == 0:
        raise GeometryCheckError("empty interior sample set")
    gamma_w, gamma = samples.gamma_w_mask(), samples.gamma_mask()
    interior = geometry.jet_batch(spec, samples.interior_points)
    contractivity = float(np.min(sym_min_eig(interior["grad"])))
    bilap_max = float(np.max(interior["lap_div"]))
    bnd = geometry.jet_batch(spec, samples.boundary_points)
    b_dot_n = np.sum(bnd["b"] * samples.boundary_normals, axis=1)
    gammaW_sign_max = float(np.max(b_dot_n[gamma_w]))
    interface_sign_min = float(np.min(b_dot_n[gamma]))
    margin = geometry._quadform_margin(interior, tol)
    verdicts = {
        "contractive": contractivity > tol,
        "generalized_optics": (contractivity > tol and gammaW_sign_max <= tol
                               and bilap_max <= tol),
        "interface_sign": interface_sign_min >= -tol,
        "graph_quadratic_form": (margin > tol and gammaW_sign_max <= tol
                                 and bilap_max <= tol),
    }
    return geometry.GeometryReport(
        field=spec.describe(), domain=samples.name, tol=tol,
        contractivity_margin=contractivity, gammaW_sign_max=gammaW_sign_max,
        interface_sign_min=interface_sign_min, bilap_max=bilap_max,
        graph_quadform_margin=margin, area=_chunk_area(samples), verdicts=verdicts,
        b_dot_n=b_dot_n)


def _chunk_area(samples):
    """Reference: the area as the samples summed it, chunk by chunk."""
    return float(sum(np.sum(w) for _, w in samples.interior.chunks()))


def _outcome(check, spec, samples):
    """repr of the report dict and b.n (repr tells -0.0 from 0.0 and shows
    NaN), or the error raised."""
    try:
        rep = check(spec, samples)
    except FieldDomainError as exc:
        return f"FieldDomainError: {exc}"
    return repr(rep.as_dict()), rep.b_dot_n.tobytes()


_SAMPLES = {}


def _demo_samples(domain, resolution):
    key = (domain, resolution)
    if key not in _SAMPLES:
        _SAMPLES[key] = hwp.sample_domain(domain, resolution)
    return _SAMPLES[key]


@pytest.mark.parametrize("resolution", [48, 96])
@pytest.mark.parametrize("field", ["translate:0,0", "horn:0.5", "spiral:0.2", "arc",
                                   "graph-vertical:2"])
@pytest.mark.parametrize("domain", hwp.DEMO_DOMAINS)
def test_chunked_conditions_equal_single_batch(domain, field, resolution):
    spec, samples = hwp.parse_field(field), _demo_samples(domain, resolution)
    assert (_outcome(hwp.check_conditions, spec, samples)
            == _outcome(_single_batch_conditions, spec, samples))


_DOMAIN_FIELDS = {"arc": "arc", "horn": "horn:0.5", "rectangle": "graph-vertical:2",
                  "shell": "spiral:0.2", "spiral": "spiral:0.2",
                  "trapezoid": "translate:0,0", "triangle": "translate:0,0",
                  "unit-square": "graph-vertical:2"}


@pytest.mark.parametrize("resolution", [16, 48, 96])
@pytest.mark.parametrize("domain", hwp.DEMO_DOMAINS)
def test_check_conditions_area_is_the_chunked_weight_sum(domain, resolution, monkeypatch):
    # the margins' pass sums the weights: bitwise the sum chunk by chunk,
    # and no chunk is built a second time
    samples = _demo_samples(domain, resolution)
    ref = _chunk_area(samples)
    built = []
    chunks = type(samples.interior).chunks
    monkeypatch.setattr(type(samples.interior), "chunks",
                        lambda self: built.append(1) or chunks(self))
    rep = hwp.check_conditions(hwp.parse_field(_DOMAIN_FIELDS[domain]), samples)
    assert rep.area == ref and rep.as_dict()["area"] == ref
    assert len(built) == 1


@pytest.mark.parametrize("blocked", [False, True], ids=["finite", "minus-inf"])
def test_chunked_conditions_carry_nan_of_a_middle_chunk(blocked, monkeypatch):
    # NaN gradients (b finite) in chunk 3 of 7 make contractivity, bilap_max
    # and the margin NaN; a negative-definite gradient in chunk 0 makes the
    # single batch's margin -inf, which must win over that NaN
    samples = _demo_samples("spiral", 48)
    chunk = hwp.fields._JET_CHUNK
    assert len(samples.interior_points) > 6 * chunk
    nan_at = samples.interior_points[[3 * chunk + 5, 3 * chunk + 700]]
    neg_at = samples.interior_points[[11]] if blocked else np.empty((0, 2))

    def jets(spec, points):
        out = per_point(jet_batch(spec, points))
        for targets, grad, lap in ((nan_at, np.nan, np.nan), (neg_at, -np.eye(2), 0.0)):
            hit = (points[:, None, :] == targets[None]).all(axis=2).any(axis=1)
            out["grad"][hit] = grad
            out["lap_div"][hit] = lap
        return out

    monkeypatch.setattr(geometry, "jet_batch", jets)
    spec = hwp.spiral(0.2)
    got = hwp.check_conditions(spec, samples)
    ref = _single_batch_conditions(spec, samples)
    assert repr(got.as_dict()) == repr(ref.as_dict())
    assert np.isnan(got.contractivity_margin) and np.isnan(got.bilap_max)
    assert got.graph_quadform_margin == -np.inf if blocked else np.isnan(
        got.graph_quadform_margin)


def test_check_conditions_chunks_partition_the_interior(monkeypatch):
    samples = _demo_samples("spiral", 48)
    counts = []

    def counting_jet_batch(spec, points):
        counts.append(len(points))
        return jet_batch(spec, points)

    monkeypatch.setattr(geometry, "jet_batch", counting_jet_batch)
    hwp.check_conditions(hwp.spiral(0.2), samples)
    # the interior chunks, then the boundary in one batch
    *chunks, boundary = counts
    chunk = hwp.fields._JET_CHUNK
    assert boundary == len(samples.boundary_points)
    assert len(chunks) >= 3 and sum(chunks) == len(samples.interior_points)
    assert max(chunks) <= chunk and 0 < chunks[-1] < chunk


def test_check_conditions_memory_is_bounded():
    samples = _demo_samples("spiral", 96)
    peak, _ = traced_peak(lambda: hwp.check_conditions(hwp.spiral(0.2), samples))
    assert peak < 8e6


def test_spiral_geometry_check_memory_does_not_grow_with_resolution():
    # sampling and checking hold the columns and one chunk of whole columns:
    # 3.9 and 4.2 MiB at resolutions 96 and 192 (410,069 and 1,640,276
    # samples); holding the samples took 21.9 MiB at 96
    peaks = {res: traced_peak(lambda: hwp.check_conditions(
        hwp.spiral(0.2), hwp.sample_domain("spiral", res)))[0] for res in (96, 192)}
    assert peaks[96] <= 6 * 2**20, peaks
    assert peaks[192] - peaks[96] <= 2**20, peaks


def _positive_jets(n, seed):
    """Jets with b != 0 and a positive definite sym(grad b) everywhere, so
    every sample moves and none is flat."""
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((n, 2, 2))
    grad = root @ np.swapaxes(root, 1, 2) + 0.1 * np.eye(2) + 0.3 * np.array([[0, 1], [-1, 0]])
    return _jets(rng.standard_normal((n, 2)) + 0.1, grad)


def test_quadform_margin_fast_paths_are_the_compacted_bits():
    # all samples moving and none flat skips the compactions; a resting
    # sample (b = 0, S = I) forces the moving compaction, a flat one with a
    # large bound (b = (1, 0), S = diag(1e6, 0)) the flat one, and neither
    # changes the margin's bits
    jets = _positive_jets(5000, 7)
    fast = geometry._quadform_margin(jets, 1e-10)
    assert np.isfinite(fast)
    for b, grad in (([0.0, 0.0], np.eye(2)), ([1.0, 0.0], np.diag([1e6, 0.0]))):
        more = _jets(np.vstack([jets["b"], [b]]), np.concatenate([jets["grad"], [grad]]))
        assert geometry._quadform_margin(more, 1e-10) == fast
