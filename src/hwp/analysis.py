"""Verification of integral identities, a priori estimate ratios, and
time-regularity profiles on computed or analytic periodic fields.

Conventions: all space-time integrals are time-exact (Parseval pairing of
truncated Fourier series, equivalently a uniform trapezoid rule with enough
samples); spatial integrals use trapezoid masses, cell-centered gradients,
and 3-point one-sided normal derivatives on boundaries. The time-average
normalization of FourierField makes every "L2 in time" quantity a time
average; ratios and convergence orders are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConfigurationError
from .fields import _JET_CHUNK, VectorFieldSpec, graph_vertical, jet_batch, on_grid
from .mesh import Grid
from . import closedform
from . import operators as ops
from . import quadrature as quad
from .periodic import SolveReport
from .timefourier import (HEAT, INTERFACE, WAVE, FourierField, ModeSource, mean_decompose,
                          parseval_weights)


def _subdomain_dims(grid: Grid, domain: str) -> tuple[int, int, float, float]:
    if domain == WAVE:
        return grid.ny_w, grid.nx, grid.hx, grid.hy_w
    if domain == HEAT:
        return grid.ny_h, grid.nx, grid.hx, grid.hy_h
    raise AnalysisError(f"field domain {domain!r} has no area mass")


def _spatial_norm_sq(field_: FourierField | ModeSource | None, grid: Grid,
                     flavor: str) -> np.ndarray:
    """Per-mode squared spatial norms ||c_k||^2, k = 0..N, one mode at a time
    (none for an absent field); flavor "dual" is the heat box's Dirichlet dual."""
    if field_ is None:
        return np.zeros(0)
    if field_.domain == INTERFACE:
        if flavor != "l2":
            raise AnalysisError("interface fields only carry the L2 flavor")
        wx = quad.trap_weights_1d(grid.nx, grid.hx)
        return np.sum(wx[None, :] * np.abs(field_.coeffs) ** 2, axis=1)
    ny, nx, hx, hy = _subdomain_dims(grid, field_.domain)
    modes = (field_.mode(k) for k in range(field_.n_modes + 1))
    if flavor == "l2":
        mass = quad.trap_mass(ny, nx, hx, hy)
        return np.array([np.sum(mass * np.abs(c) ** 2) for c in modes])
    if flavor == "h1":
        return np.array([quad.gradient_energy(c, hx, hy) for c in modes])
    if flavor == "dual" and field_.domain == HEAT:
        return np.array([ops.heat_dual_norm_sq(grid, c) for c in modes])
    raise AnalysisError(f"unknown spatial flavor {flavor!r}; use 'l2', 'h1' or "
                        f"(on the heat box) 'dual'")


def sobolev_time_norm(field_: FourierField, s: float, grid: Grid,
                      spatial_flavor: str = "l2") -> float:
    """Sobolev-in-time norm by Plancherel weighting:

        value^2 = sum_{k=-N..N} (1 + (w k)^2)^s ||c_k||^2_flavor,

    summed over the stored modes k >= 0 with the weights 1 and 2.
    """
    if not -8.0 <= s <= 8.0:
        raise AnalysisError(f"time exponent s={s} outside [-8, 8]")
    if not np.all(np.isfinite(field_.coeffs)):
        raise AnalysisError("sobolev_time_norm: field has non-finite coefficients")
    return plancherel_norm(_spatial_norm_sq(field_, grid, spatial_flavor), s, field_.omega)


def plancherel_norm(norm_sq: np.ndarray, s: float, omega: float) -> float:
    """The value of sobolev_time_norm from the squared spatial norms
    ||c_k||^2 of the modes k = 0..N, in the same arithmetic, so a caller
    that gathers them one mode at a time gets the same bits."""
    ks = np.arange(len(norm_sq)).astype(float)
    weights = parseval_weights(ks) * (1.0 + (omega * ks) ** 2) ** s
    return float(np.sqrt(np.sum(weights * norm_sq)))


# ---------------------------------------------------------------------------
# Flow-multiplier identity
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    lhs_value: float
    rhs_value: float
    residual: float
    terms: dict[str, float]
    hx: float
    hy: float

    def as_dict(self) -> dict:
        return {"lhs_value": self.lhs_value, "rhs_value": self.rhs_value,
                "residual": self.residual, "hx": self.hx, "hy": self.hy,
                "terms": dict(self.terms)}


def _parseval_modes(period: float, fields: dict[str, FourierField | ModeSource | None]):
    """Time integrals of real bilinear forms as Parseval sums, one mode at a time.

    For real periodic fields a, b with modes a_k, b_k and any real bilinear
    form B on space,

        int_0^T B(a(t), b(t)) dt = sum_{k >= 0} weight_k Re B(a_k, conj(b_k)),

    weight_k = T for k = 0 and 2T for k > 0. Yields (k, weight_k, modes) for
    each mode k >= 0 at which any given field has a non-zero coefficient,
    modes holding each field's c_k (None stays None). A FourierField is read
    through mode(k); a ModeSource is built once per mode, and a mode it
    builds as None (or past its own modes) is zero without being built or
    scanned, so a k where every field is absent or such a zero is skipped at
    once. Each modes dict is emptied before the next mode is built, so one
    mode of each field is held at a time.
    """
    n = max(f.n_modes for f in fields.values() if f is not None)
    for k in range(n + 1):
        modes = {name: _built_mode(f, k) for name, f in fields.items()}
        if any(np.any(c) for c in modes.values() if c is not None):
            for name, f in fields.items():
                if f is not None and modes[name] is None:
                    modes[name] = np.zeros(f.spatial_shape, dtype=complex)
            yield k, period * parseval_weights(k), modes
        modes.clear()


def _built_mode(field_: FourierField | ModeSource | None, k: int) -> np.ndarray | None:
    """c_k of field_ (k >= 0), or None where it is zero by construction: an
    absent field, a mode past its own, or a ModeSource mode built as None."""
    if field_ is None or k > field_.n_modes:
        return None
    if isinstance(field_, ModeSource):
        c = field_.build(k)
        return None if c is None else np.asarray(c, complex)
    return field_.mode(k)


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a conj(b)) pointwise."""
    return a.real * b.real + a.imag * b.imag


def _area_sums(spec: VectorFieldSpec, x: np.ndarray, y: np.ndarray,
               wk: np.ndarray, gk: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Sums over the cells between the node rows y of the four area densities
    of the identity: (grad w)^T sym(grad b) grad w, g (grad w . b), g w div b
    and |w|^2 Lap(div b), each paired as Re(a conj(b)); shape (4,) for one
    mode's w and g of shape (len(y), len(x))."""
    xc, yc = quad.cell_centers(x, y)
    jets = jet_batch(spec, np.stack([xc.ravel(), yc.ravel()], axis=1))
    gsym = 0.5 * (jets["grad"] + np.swapaxes(jets["grad"], 1, 2))
    bx, by, g11, g12, g22, divb, lapdiv = (
        on_grid(a, xc.shape) for a in (jets["b"][:, 0], jets["b"][:, 1], gsym[:, 0, 0],
                                       gsym[:, 0, 1], gsym[:, 1, 1], jets["div"],
                                       jets["lap_div"]))
    fx, fy = quad.cell_gradient(wk, hx, hy)
    gc, wc = quad.cell_average(gk), quad.cell_average(wk)
    densities = (g11 * _pair(fx, fx) + 2 * g12 * _pair(fx, fy) + g22 * _pair(fy, fy),
                 _pair(gc, bx * fx + by * fy),
                 _pair(gc, wc) * divb,
                 _pair(wc, wc) * lapdiv)
    return np.array([np.sum(d) for d in densities])


def multiplier_identity_residual(w: FourierField | ModeSource, g: FourierField | ModeSource,
                                 h: FourierField | None,
                                 big_h: FourierField | None,
                                 spec: VectorFieldSpec, grid: Grid,
                                 ) -> IdentityReport:
    """Evaluate both sides of the flow-multiplier identity on the wave box.

    With b the multiplier field, d = grad(div b), and n the outward normal,
    the identity for a periodic w solving w_tt - Lap w = g with w = 0 on the
    outer wall, dn w = 0 and trace data (h, H) on the interface reads

        int int (grad w)^T grad(b) grad w
          + 1/2 int int_Gamma |grad_tan H|^2 (b.n)
          - 1/2 int int_wall |dn w|^2 (b.n)
        = int int [ g (grad w . b) + 1/2 g w div b + |w|^2/4 Lap(div b) ]
          + int int_Gamma [ 1/2 |h|^2 (b.n) - 1/4 |H|^2 (dn div b) ],

    all boundary terms on the left reduced through the boundary conditions.
    Every time integral is an exact Parseval sum over the modes k >= 0 that
    carry data (see _parseval_modes). Requires mean-free g, h and H.

    The fields are read one mode at a time through mode(k) (a FourierField
    or a ModeSource), and each mode's four area terms are summed over strips
    of cell rows of about ``fields._JET_CHUNK`` cells each (see _area_sums),
    with the field's jets evaluated per strip, so the working set is one
    mode plus one strip's arrays, whatever the number of modes. Every
    per-cell value is that of one pass; once the box takes more than one
    strip (more than _JET_CHUNK cells) the summation order differs, and the
    area terms may move in their last digits.
    """
    ny, nx, hx, hy = grid.ny_w, grid.nx, grid.hx, grid.hy_w
    # interface row geometry (outward normal (0, -1))
    wx = quad.trap_weights_1d(nx, hx)
    iface_jets = jet_batch(spec, np.stack([grid.x, np.zeros(nx)], axis=1))
    iface_b_dot_n = -iface_jets["b"][:, 1]
    iface_dn_divb = -iface_jets["grad_div"][:, 1]

    # outer wall geometry: top edge and the two sides
    wy = quad.trap_weights_1d(ny, hy)
    top_b = jet_batch(spec, np.stack([grid.x, np.full(nx, grid.ly_w)], axis=1))["b"]
    left_b = jet_batch(spec, np.stack([np.zeros(ny), grid.y_w], axis=1))["b"]
    right_b = jet_batch(spec, np.stack([np.full(ny, grid.lx), grid.y_w], axis=1))["b"]

    # per mode that carries data: the four area sums over strips of cell rows
    # r0..r1-1, each reading node rows r0..r1, then the interface and wall
    # sums; the largest |c_k| and |c_0| of g, h and H for the mean-free check
    rows = max(1, _JET_CHUNK // (nx - 1))
    weight, sums = [], []
    largest = {name: 0.0 for name, f in (("g", g), ("h", h), ("H", big_h)) if f is not None}
    mean = dict(largest)
    for k, weight_k, c in _parseval_modes(w.period, {"w": w, "g": g, "h": h, "H": big_h}):
        for name in largest:
            size = float(np.max(np.abs(c[name])))
            largest[name] = max(largest[name], size)
            if k == 0:
                mean[name] = size
        wk, gk, hk, Hk = c["w"], c["g"], c["h"], c["H"]
        area_sums = np.zeros(4)
        for r0 in range(0, ny - 1, rows):
            nodes = slice(r0, min(r0 + rows, ny - 1) + 1)
            area_sums += _area_sums(spec, grid.x, grid.y_w[nodes], wk[nodes], gk[nodes],
                                    hx, hy)
        # interface terms; absent h or H contribute nothing
        h2 = dH2 = H2 = np.zeros(nx)
        if hk is not None:
            h2 = _pair(hk, hk)
        if Hk is not None:
            dH = np.empty_like(Hk)
            dH[1:-1] = (Hk[2:] - Hk[:-2]) / (2 * hx)
            dH[0] = quad.one_sided_deriv_low(Hk, hx)
            dH[-1] = quad.one_sided_deriv_high(Hk, hx)
            dH2, H2 = _pair(dH, dH), _pair(Hk, Hk)
        # wall terms: -1/2 |dn w|^2 (b.n) per edge, 3-point one-sided stencils
        dn_top = quad.one_sided_deriv_high(wk, hy, axis=0)
        dn_left = -quad.one_sided_deriv_low(wk, hx, axis=1)
        dn_right = quad.one_sided_deriv_high(wk, hx, axis=1)
        weight.append(weight_k)
        sums.append([*area_sums,
                     np.sum(wx * dH2 * iface_b_dot_n),
                     np.sum(wx * _pair(dn_top, dn_top) * top_b[:, 1]),
                     np.sum(wy * _pair(dn_left, dn_left) * (-left_b[:, 0])),
                     np.sum(wy * _pair(dn_right, dn_right) * right_b[:, 0]),
                     np.sum(wx * h2 * iface_b_dot_n),
                     np.sum(wx * H2 * iface_dn_divb)])
    for name in largest:
        if mean[name] > 1e-10 * max(largest[name], 1e-300):
            raise AnalysisError(f"{name} must be mean-free for the identity")

    # one contiguous row per sum: a dot product over a strided row may add
    # in another order
    weight, sums = np.array(weight), np.array(sums).reshape(-1, 10).T.copy()

    def integral(i: int) -> float:
        """Time integral of the per-mode sums i."""
        return float(weight @ sums[i])

    area = hx * hy
    terms = {
        "lhs_contractivity": area * integral(0),
        "lhs_interface_tangential": 0.5 * integral(4),
        "lhs_wall_normal": -0.5 * (integral(5) + integral(6) + integral(7)),
        "rhs_g_flow": area * integral(1),
        "rhs_g_w_div": 0.5 * area * integral(2),
        "rhs_w2_lapdiv": 0.25 * area * integral(3),
        "rhs_h2_sign": 0.5 * integral(8),
        "rhs_H2_flux": -0.25 * integral(9),
    }

    # a zero term times a negative factor is -0.0; report it as 0.0
    terms = {name: value + 0.0 for name, value in terms.items()}
    lhs = (terms["lhs_contractivity"] + terms["lhs_interface_tangential"]
           + terms["lhs_wall_normal"])
    rhs = (terms["rhs_g_flow"] + terms["rhs_g_w_div"] + terms["rhs_w2_lapdiv"]
           + terms["rhs_h2_sign"] + terms["rhs_H2_flux"])
    return IdentityReport(lhs_value=lhs, rhs_value=rhs, residual=abs(lhs - rhs),
                          terms=terms, hx=hx, hy=hy)


def equipartition_residual(w: FourierField | ModeSource, g: FourierField | ModeSource,
                           grid: Grid) -> float:
    """|int int (|grad w|^2 - |w_t|^2) - int int g w| on the wave box.

    Valid for w vanishing on the outer wall with zero discrete interface
    Neumann data; uses the edge Dirichlet form and interior mass so the
    identity is exact (to round-off) when g is manufactured from the
    discrete operators. The time integrals are one Parseval sum over the
    modes that carry data (see _parseval_modes), read one mode at a time.
    """
    mass = quad.interior_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    ks, weight, sums = [], [], []
    for k, weight_k, c in _parseval_modes(w.period, {"w": w, "g": g}):
        wk, gk = c["w"], c["g"]
        ks.append(k)
        weight.append(weight_k)
        sums.append((np.real(ops.wave_edge_form(grid, wk, wk)),
                     np.sum(mass * _pair(wk, wk)), np.sum(mass * _pair(gk, wk))))
    grad, l2, rhs = np.array(sums).reshape(-1, 3).T
    omega = 2.0 * np.pi / w.period
    lhs = grad - (omega * np.array(ks)) ** 2 * l2
    return abs(float(np.array(weight) @ (lhs - rhs)))


# ---------------------------------------------------------------------------
# Weak-form residual of a computed solution
# ---------------------------------------------------------------------------

_TEST_MODES = 2  # temporal modes k = 0..2 of every random test pair


def _edge_scatter(v: np.ndarray) -> np.ndarray:
    """D^T D v along the last axis, D the edge difference (sbp_apply in 1-D)."""
    return -np.diff(np.diff(v, prepend=v[..., :1], append=v[..., -1:]))


def _test_factors(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin(m x), m = 1, 2, 3, and the wave and heat Y_t(y): field 3 t + m - 1
    of a side, Y_t sin(m x), spans the random test modes with the trace part
    Y_0 = (1-y)^2 | (1+y)^2 and Y_1 = sin(pi y) | sin(pi (1+y)), zero on the
    interface (wave | heat box, y scaled to the box height)."""
    yw, yh = grid.y_w / grid.ly_w, grid.y_h / grid.ly_h
    return (np.sin(np.arange(1, 4)[:, None] * grid.x),
            np.stack([(1.0 - yw) ** 2, np.sin(np.pi * yw)]),
            np.stack([(1.0 + yh) ** 2, np.sin(np.pi * (1.0 + yh))]))


def _test_coefficients(rng: np.random.Generator,
                       n_tests: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of n_tests random test pairs in the fields of
    ``_test_factors``, shape (n_tests, _TEST_MODES+1, 6), rows k = 0..2.

    Per mode k >= 0 the draws are c, m, cw, ch, mw: psi_k = c sin(m x)(1-y)^2
    + cw sin(mw x) sin(pi y) and phi_k = c sin(m x)(1+y)^2 + ch sin(mw x)
    sin(pi (1+y)), so psi and phi share their interface trace; the
    coefficients are real at k = 0 (mode -k is the conjugate of mode k).
    """
    def draw(k):
        return rng.standard_normal() + (1j * rng.standard_normal() if k else 0)

    a = np.zeros((n_tests, _TEST_MODES + 1, 6), dtype=complex)
    b = np.zeros_like(a)
    for t in range(n_tests):
        for k in range(_TEST_MODES + 1):
            c, m = draw(k), rng.integers(1, 4)
            cw, ch, mw = draw(k), draw(k), rng.integers(1, 4)
            a[t, k, [m - 1, mw + 2]] = c, cw
            b[t, k, [m - 1, mw + 2]] = c, ch
    return a, b


def _gram(sines: np.ndarray, profiles: np.ndarray, hx: float,
          hy: float) -> tuple[np.ndarray, np.ndarray]:
    """L2 (trapezoid mass) and H1 (cell-gradient energy) Gram matrices of the
    fields Y_t(y) sin(m x) from 1-D sums: the trapezoid mass is a product,
    and the cell gradient of Y X is (mean_y Y d_x X, d_y Y mean_x X)."""
    wx = quad.trap_weights_1d(sines.shape[1], hx)
    wy = quad.trap_weights_1d(profiles.shape[1], hy)
    (dx, mx), (dy, my) = ((np.diff(v) / h, 0.5 * (v[:, :-1] + v[:, 1:]))
                          for v, h in ((sines, hx), (profiles, hy)))
    l2 = np.kron((profiles * wy) @ profiles.T, (sines * wx) @ sines.T)
    return l2, (np.kron(my @ my.T, dx @ dx.T) + np.kron(dy @ dy.T, mx @ mx.T)) * (hx * hy)


class WeakCheck:
    """Max normalized weak-form defect over random smooth test pairs, mode by mode.

    For each pair (psi on the wave box, phi on the heat box) with matching
    interface traces the defect per temporal mode k is

        a_W(w_k, psi_k) - (w k)^2 (w_k, psi_k)
      + a_H(u_k, phi_k) + i w k (u_k, phi_k)
      + sum_interface hx tau * [dy w_k - dy u_k]    (one-sided differences)
      - (g_k, psi_k) - (f_k, phi_k),

    summed over modes with the Parseval weight (mode -k is the conjugate of
    mode k, so this is the real part of the sum over k >= 0 with the weights
    1 and 2). The bilinear forms are the edge Dirichlet forms paired exactly
    (summation by parts) with the
    five-point interior equations, so the defect measures genuine equation
    violation rather than quadrature disagreement: it sits at round-off for
    a converged harmonic solve and grows immediately under perturbation.
    The interface term is the discrete flux-transmission defect, which the
    continuum coupling condition annihilates. Normalized by the test norm
    sqrt(|psi|^2_{H1(L2)} + |psi|^2_{L2(H1)} + the same for phi).

    Every test mode is a combination of the 6 fixed fields Y_t(y) sin(m x)
    of ``_test_factors`` per side, so the defect is linear and the squared
    norm quadratic in its coefficients. The forms factor: each solution mode
    is summed over x against sin(m x) and its edge-scatter second difference
    (real products on its real and imaginary parts), then over y against Y_t
    and its scatter, and the Grams are 1-D sums: O(grid) time and O(grid
    lines) extra memory per mode. ``add`` keeps only the 12 projections of a
    mode k <= _TEST_MODES onto the 6 fields per side; the test
    coefficients and Grams do not depend on the solution, so ``residual``
    costs per test a 6-coefficient dot product and a 6x6 Gram form per mode.
    Only the modes the test and the solution share enter the defect; all
    enter the norm. n_tests < 1 raises AnalysisError.
    """

    def __init__(self, grid: Grid, period: float, n_tests: int = 10, seed: int = 2024):
        if n_tests < 1:
            raise AnalysisError(f"weak residual needs n_tests >= 1, got {n_tests}")
        self.grid, self.period, self.omega = grid, period, 2.0 * np.pi / period
        self.a, self.b = _test_coefficients(np.random.default_rng(seed), n_tests)
        self.sines, self.y_w, self.y_h = _test_factors(grid)
        self.x_factors = np.concatenate([self.sines, _edge_scatter(self.sines)]).T
        self.x_factors[[0, -1], :3] = 0.0  # the masses weigh interior nodes only
        self.proj = np.zeros((2, _TEST_MODES + 1, 6), dtype=complex)  # wave, heat side
        self.n_shared = 0  # the highest mode added

    def _pairings(self, c: np.ndarray, y: np.ndarray, hy: float):
        """The interior-mass and sbp_apply pairings of one mode c with the 6 fields,
        each (6,), and the real and imaginary parts of its x sums against sin(m x)."""
        hx = self.grid.hx
        xs = np.stack([c.real @ self.x_factors, c.imag @ self.x_factors])
        inner = np.einsum("ty,rym->rtm", y[:, 1:-1], xs[:, 1:-1])
        edge = np.einsum("ty,rym->rtm", _edge_scatter(y), xs[..., :3])
        mass = hx * hy * inner[..., :3]
        stiff = hy / hx * inner[..., 3:] + hx / hy * edge
        return ((mass[0] + 1j * mass[1]).reshape(6),
                (stiff[0] + 1j * stiff[1]).reshape(6), xs[..., :3])

    def add(self, k: int, w_k: np.ndarray, u_k: np.ndarray,
            f: FourierField | ModeSource | None, g: FourierField | ModeSource | None) -> None:
        """Pair mode k of the solution, w_k and u_k, and mode k of the heat
        forcing f and the wave forcing g (read through mode(k) here) with the
        tests; a no-op past _TEST_MODES, where no test has a mode."""
        if k > _TEST_MODES:
            return
        grid, omega = self.grid, self.omega
        mass_w, stiff_w, sums_w = self._pairings(w_k, self.y_w, grid.hy_w)
        mass_h, stiff_h, sums_h = self._pairings(u_k, self.y_h, grid.hy_h)
        proj_w = stiff_w - (omega * k) ** 2 * mass_w
        proj_h = stiff_h + 1j * omega * k * mass_h
        if g is not None:
            proj_w -= self._pairings(g.mode(k), self.y_w, grid.hy_w)[0]
        if f is not None:
            proj_h -= self._pairings(f.mode(k), self.y_h, grid.hy_h)[0]
        # interface flux defect on row 0 of the wave box (the x sums skip the walls)
        flux = ((sums_w[:, 1] - sums_w[:, 0]) / grid.hy_w
                - (sums_h[:, -1] - sums_h[:, -2]) / grid.hy_h)
        proj_w += grid.hx * np.kron(self.y_w[:, 0], flux[0] + 1j * flux[1])
        self.proj[:, k] = proj_w, proj_h
        self.n_shared = max(self.n_shared, k)

    def residual(self) -> float:
        """The largest normalized defect over the tests, from the modes added."""
        grid, n, a, b = self.grid, self.n_shared, self.a, self.b
        l2_w, h1_w = _gram(self.sines, self.y_w, grid.hx, grid.hy_w)
        l2_h, h1_h = _gram(self.sines, self.y_h, grid.hx, grid.hy_h)
        weight = parseval_weights(np.arange(_TEST_MODES + 1))
        shared = weight[:n + 1, None]
        proj_w, proj_h = self.proj[:, :n + 1]
        defect = self.period * (
            np.einsum("tkj,kj->t", np.conj(a[:, :n + 1]), shared * proj_w)
            + np.einsum("tkj,kj->t", np.conj(b[:, :n + 1]), shared * proj_h))
        time_weight = 1.0 + (self.omega * np.arange(_TEST_MODES + 1)) ** 2

        def quad_form(c, gram):
            return np.einsum("tki,ij,tkj->tk", np.conj(c), gram, c).real

        scale_sq = (weight * (time_weight * (quad_form(a, l2_w) + quad_form(b, l2_h))
                              + quad_form(a, h1_w) + quad_form(b, h1_h))).sum(axis=1)
        return float(np.max(np.abs(defect.real) / np.maximum(np.sqrt(scale_sq), 1e-300)))


def weak_residual(report: SolveReport, f: FourierField | None,
                  g: FourierField | None, grid: Grid, n_tests: int = 10,
                  seed: int = 2024) -> float:
    """The WeakCheck residual of report's w and u, the heat forcing f and the wave forcing
    g, fed modes k = 0..N (zero past a field's own). Non-finite coefficients in
    w, u, f or g and n_tests < 1 raise AnalysisError before any mode is paired."""
    check = WeakCheck(grid, report.period, n_tests, seed)
    fields_ = {"w": report.w, "u": report.u, "f": f, "g": g}
    for name, field_ in fields_.items():
        if field_ is not None and not np.all(np.isfinite(field_.coeffs)):
            raise AnalysisError(f"weak residual: field {name!r} has non-finite coefficients")
    for k in range(max(x.n_modes for x in fields_.values() if x is not None) + 1):
        check.add(k, report.w.mode(k), report.u.mode(k), f, g)
    return check.residual()


# ---------------------------------------------------------------------------
# Estimate-ratio checks
# ---------------------------------------------------------------------------

def _sup_time_norm(field_: FourierField, grid: Grid, flavor: str) -> float:
    """Max over 128 uniform times of the spatial norm, sampled N+1 times at
    a time, so the samples never outgrow one mode stack."""
    n_samples, chunk = 128, field_.n_modes + 1
    ny, nx, hx, hy = _subdomain_dims(grid, field_.domain)
    mass = quad.trap_mass(ny, nx, hx, hy)
    best = 0.0
    for start in range(0, n_samples, chunk):
        times = np.arange(start, min(start + chunk, n_samples)) * field_.period / n_samples
        for sample in field_.sample_real(times):
            if flavor == "l2":
                val = quad.norm_sq(mass, sample)
            else:
                val = quad.gradient_energy(sample, hx, hy)
            best = max(best, val)
    return float(np.sqrt(best))


def damped_energy(eps: float, omega: float, u_h1: np.ndarray, u_l2: np.ndarray,
                  w_l2: np.ndarray, f_dual: np.ndarray, g_l2: np.ndarray) -> dict:
    """The damped-energy estimate of estimate_check from the squared norms of the
    modes k = 0..N of the solution and the forcing (_spatial_norm_sq), weighted by
    Parseval: lhs = sum |u_k|^2_H1 + eps |u_k|^2 + eps (w k)^2 |w_k|^2 and rhs =
    sum |f_k|^2_dual + |g_k|^2 / eps. Norms gathered mode by mode give the same bits."""
    ks = np.arange(len(u_h1))
    weight = parseval_weights(ks)
    lhs = (float(np.sum(weight * u_h1)) + eps * float(np.sum(weight * u_l2))
           + eps * float(np.sum(weight * (omega * ks) ** 2 * w_l2)))
    rhs = (float(parseval_weights(np.arange(len(f_dual))) @ f_dual)
           + float(parseval_weights(np.arange(len(g_l2))) @ g_l2) / eps)
    return _rated({"variant": "damped-energy", "lhs": lhs, "rhs": rhs, "eps": eps})


def _rated(out: dict) -> dict:
    """out with the ratio lhs / rhs, and whether rhs = 0 < lhs (a violation)."""
    lhs, rhs = float(out["lhs"]), float(out["rhs"])
    return {**out, "violation": bool(rhs == 0.0 and lhs > 0.0),
            "ratio": 0.0 if lhs == rhs == 0.0 else np.inf if rhs == 0.0 else lhs / rhs}


def estimate_check(report: SolveReport, f: FourierField | None,
                   g: FourierField | None, variant: str) -> dict:
    """Evaluate lhs/rhs of one of the a priori estimates and report the ratio.

    Variants:
      "existence-strong":  H^3-in-time data norms against the energy of the
                           solution (contractive-field setting);
      "existence-graph":   H^4/H^8 data norms (graph-field setting);
      "damped-energy":     the eps-uniform energy balance of the damped
                           construction (requires an epsilon report; damped_energy);
      "interface-sign":    L2 data plus interface-primitive control of the
                           wave energy (graph case of the boundary-reduced
                           estimate, with the field graph_vertical(2.0)).
    Ratios, not verdicts: the continuum constants are not explicit.
    """
    grid = report.grid
    u, w = report.u, report.w
    out: dict[str, float | str | bool] = {"variant": variant}
    if variant in ("existence-strong", "existence-graph"):
        s_f, s_g = (3.0, 6.0) if variant == "existence-strong" else (4.0, 8.0)
        u_norm = sobolev_time_norm(u, s_f, grid, "h1")
        _, u_free = mean_decompose(u)
        u_norm_meanfree = sobolev_time_norm(u_free, s_f, grid, "h1")
        lhs = (u_norm
               + _sup_time_norm(w, grid, "h1")
               + _sup_time_norm(w.derivative(), grid, "l2"))
        rhs = 0.0 if f is None else plancherel_norm(ops.heat_dual_norm_sq(grid, f.coeffs),
                                                    s_f, f.omega)
        if g is not None:
            rhs += sobolev_time_norm(g, s_g, grid, "l2")
        out.update(lhs=lhs, rhs=rhs, u_norm=u_norm,
                   u_norm_meanfree=u_norm_meanfree)
    elif variant == "damped-energy":
        if report.method != "epsilon" or not report.params.get("eps", 0) > 0:
            raise AnalysisError("damped-energy estimate needs an epsilon report "
                                "with a positive damping shift")
        return damped_energy(float(report.params["eps"]), u.omega,
                             *(_spatial_norm_sq(x, grid, flavor) for x, flavor in (
                                 (u, "h1"), (u, "l2"), (w, "l2"), (f, "dual"), (g, "l2"))))
    elif variant == "interface-sign":
        spec = graph_vertical(2.0)
        _, w_free = mean_decompose(w)
        dbw_sq = 0.0
        xc, yc = quad.cell_centers(grid.x, grid.y_w)
        b = jet_batch(spec, np.stack([xc.ravel(), yc.ravel()], axis=1))["b"]
        bx = b[:, 0].reshape(xc.shape)
        by = b[:, 1].reshape(xc.shape)
        for weight, c in zip(parseval_weights(w_free.wavenumbers()), w_free.coeffs):
            fx, fy = quad.cell_gradient(c, grid.hx, grid.hy_w)
            dbw_sq += weight * float(np.sum(np.abs(bx * fx + by * fy) ** 2)) * grid.hx * grid.hy_w
        lhs = (sobolev_time_norm(w_free, 0, grid, "l2")
               + float(np.sqrt(dbw_sq)))
        g_free = mean_decompose(g)[1] if g is not None else None
        rhs = sobolev_time_norm(g_free, 0, grid, "l2") if g_free is not None else 0.0
        rhs += sobolev_time_norm(report.trace_primitive, 1, grid, "l2")
        out.update(lhs=lhs, rhs=rhs, field=spec.describe())
    else:
        raise AnalysisError(f"unknown estimate variant {variant!r}")
    return _rated(out)


# ---------------------------------------------------------------------------
# Regularity scan over truncated forcing series
# ---------------------------------------------------------------------------

def regularity_scan(rule, truncations, grid: Grid) -> dict:
    """Time-Sobolev norms of the analytic solution superposition as the
    forcing series is truncated at increasing N.

    Each scan row holds (N, s=0 norm, s=1 norm, spatial-gradient norm) of
    the exact solution for the truncated forcing (closedform.series_sources,
    quartic bump); the verdicts summarize whether the finite-energy norm
    stays bounded or grows with N. The separated closed form is used
    directly: near the spatial Nyquist limit a grid solve of the high modes
    would be dominated by dispersion error, so the scan is an exact-solution
    diagnostic, cross-checked against the solver at low N in the test suite.
    Mode n does not depend on N, so one source at the largest N is read one
    mode at a time, and each row reduces a prefix of its squared norms.
    """
    truncs = list(truncations)
    if any(b <= a for a, b in zip(truncs, truncs[1:])):
        raise ConfigurationError("truncations must be strictly increasing")
    _, w_ref = closedform.series_sources(rule, truncs[-1], grid)
    l2, h1 = (_spatial_norm_sq(w_ref, grid, flavor) for flavor in ("l2", "h1"))
    omega = 2.0 * np.pi / w_ref.period
    s0, s1, grad = ([plancherel_norm(sq[:n + 1], s, omega) for n in truncs]
                    for sq, s in ((l2, 0.0), (l2, 1.0), (h1, 0.0)))
    verdicts = {
        "s0_stable": max(s0) <= min(s0) * 1.05,
        "s1_increasing": all(b > a for a, b in zip(s1, s1[1:])),
        "s1_ratio": s1[-1] / s1[0],
        "s0_ratio": s0[-1] / s0[0],
    }
    return {"rule": rule.tag, "rows": list(zip(truncs, s0, s1, grad)), "verdicts": verdicts}
