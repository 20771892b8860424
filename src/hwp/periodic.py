"""Periodic solution computation.

Two routes to T-periodic solutions of the coupled system:

* solve_periodic_harmonic: spectral in time. Mode 0 is the stationary
  mean-value pair; every mode k >= 1 is one complex coupled solve; negative
  modes follow by conjugation, so reconstructions are real to round-off.
  With a damping shift eps and a step count n_steps it computes the damped
  construction below directly, one frequency solve per mode.

* epsilon_march: the damped construction by marching. A small shift
  eps > 0 adds 2 eps w_t + eps^2 w to the wave equation and eps u to the
  heat equation, which makes the period map a contraction; a one-step
  implicit scheme (trapezoidal / Crank-Nicolson) marches the first-order
  system from rest until successive period snapshots agree, then the last
  period is transformed back to Fourier coefficients. The state lives in
  the row blocks of the new-level step's ModeOperator. It is kept as an
  independent check of the frequency route.

The march has an exact discrete periodic orbit. On a uniform period grid
with m steps of size dt, a periodic sequence y_n = sum_k Y_k z^n with
z = exp(i w k dt) turns the trapezoidal step
    y_{n+1} - y_n = dt/2 (K y_{n+1} + K y_n + g_{n+1} + g_n)
into (z - 1) Y_k = dt (z + 1)/2 (K Y_k + G_k). The factor (z + 1)/2 of the
trapezoidal forcing average multiplies both sides, so it cancels, and
mode k solves s Y_k = K Y_k + G_k with the trapezoidal symbol
s = (2/dt)(z - 1)/(z + 1) = (2i/dt) tan(w k dt/2) in place of i w k
(Hairer & Wanner, Solving ODEs II, 1996). The flux row holds at every time
level, so it holds in every mode. G_k is the discrete Fourier coefficient
of the m samples g(n dt), that is the sum of the forcing coefficients
k + j m over all j, and only modes |k| <= (m - 1)/2 are distinct. So
solve_periodic_harmonic(..., eps, n_steps) is the orbit the march
converges to, at the cost of one coupled solve per mode instead of
hundreds of steps per period.

The trapezoidal step is A-stable but not L-stable, so it damps the stiffest
wave modes less than the continuous system does: a wave mode of Laplacian
eigenvalue mu contracts per period by about exp(-eps T / (1 + mu dt^2 / 4)),
not exp(-eps T). The bound exp(-eps T) holds only while mu_max dt^2 is
small. At 65^2 with 256 steps, eps = 0.2 and wave forcing mode 2 the
measured median contraction is 0.619, against exp(-eps T) = 0.285.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverError
from .mesh import Grid
from . import operators as ops
from . import quadrature as quad
from .timefourier import HEAT, INTERFACE, WAVE, FourierField, time_transform


@dataclass
class SolveReport:
    """Solution fields plus diagnostics from one periodic solve."""

    grid: Grid
    u: FourierField             # heat subgrid incl. derived interface trace
    w: FourierField             # wave subgrid
    trace_h: FourierField       # u restricted to the interface row
    trace_primitive: FourierField  # its mean-free primitive (equals w trace)
    mode_residuals: dict[int, float]
    timings: dict[str, float]
    method: str
    params: dict = field(default_factory=dict)

    @property
    def period(self) -> float:
        return self.u.period

    def max_residual(self) -> float:
        return max(self.mode_residuals.values(), default=0.0)


def _trace_fields(grid: Grid, w: FourierField) -> tuple[FourierField, FourierField]:
    """Interface velocity trace h = i w k * (w on the interface row) and its
    mean-free primitive (which is the interface trace of w itself)."""
    n = w.n_modes
    ks = w.wavenumbers().reshape(-1, 1)
    w_trace = w.coeffs[:, 0, :]
    h = FourierField(w.period, 1j * w.omega * ks * w_trace, INTERFACE)
    big_h = FourierField(w.period, w_trace.copy(), INTERFACE)
    big_h.coeffs[n] = 0.0  # primitive is mean-free by construction
    return h, big_h


def _aliased_mode(x: FourierField, k: int, n_steps: int | None) -> np.ndarray:
    """Mode k of x as n_steps uniform samples per period see it: the sum of
    the coefficients k + j n_steps (the plain coefficient when n_steps is
    None)."""
    if n_steps is None:
        return x.mode(k)
    return x.coeffs[(x.wavenumbers() - k) % n_steps == 0].sum(axis=0)


def solve_periodic_harmonic(grid: Grid, f: FourierField | None,
                            g: FourierField | None, n_modes: int,
                            tol: float = 1e-10, eps: float = 0.0,
                            n_steps: int | None = None) -> SolveReport:
    """Mode-by-mode periodic solve with n_modes temporal frequencies.

    eps > 0 adds the damping shift of the damped construction. With
    n_steps set, the result is the discrete periodic orbit of the
    trapezoidal march with n_steps steps per period (see the module
    docstring): the trapezoidal symbol replaces i w k, the forcing is folded
    onto its aliases mod n_steps, and the mode count is capped at
    (n_steps - 1) // 2. A damped or stepped solve reports method "epsilon"
    with params eps, dt and n_steps (dt and n_steps None when continuous in
    time); the plain one reports method "harmonic".
    """
    if n_modes < 0:
        raise ConfigurationError("mode count must be non-negative")
    if not (np.isfinite(eps) and eps >= 0):
        raise ConfigurationError(f"damping shift eps must be non-negative, got {eps}")
    if n_steps is not None and n_steps < 4:
        raise ConfigurationError("need at least 4 steps per period")
    periods = {x.period for x in (f, g) if x is not None}
    if len(periods) > 1:
        raise ConfigurationError("forcing fields disagree on the period")
    period = periods.pop() if periods else 2.0 * np.pi
    dt = None
    if n_steps is not None:
        dt = period / n_steps
        n_modes = min(n_modes, (n_steps - 1) // 2)

    t0 = time.perf_counter()
    shape_w = (grid.ny_w, grid.nx)
    shape_h = (grid.ny_h, grid.nx)
    u_out = FourierField.zeros(period, n_modes, shape_h, HEAT)
    w_out = FourierField.zeros(period, n_modes, shape_w, WAVE)
    residuals: dict[int, float] = {}

    mean_f = _aliased_mode(f, 0, n_steps).real if f is not None else None
    mean_g = _aliased_mode(g, 0, n_steps).real if g is not None else None
    pair = ops.solve_mean_pair(grid, mean_f, mean_g, tol=tol, eps=eps)
    u_out.coeffs[n_modes] = pair.mean_u
    w_out.coeffs[n_modes] = pair.mean_w
    residuals[0] = max(pair.residual_heat, pair.residual_wave)
    t_mean = time.perf_counter()

    for k in range(1, n_modes + 1):
        f_k = _aliased_mode(f, k, n_steps) if f is not None else None
        g_k = _aliased_mode(g, k, n_steps) if g is not None else None
        op = ops.assemble_coupled_mode(grid, k, period, eps=eps, dt=dt)
        x = ops.solve_linear(op, ops.mode_rhs(op, f_k, g_k), tol=tol)
        w_k, u_k = ops.split_mode_solution(op, x)
        w_out.coeffs[k + n_modes] = w_k
        w_out.coeffs[-k + n_modes] = np.conj(w_k)
        u_out.coeffs[k + n_modes] = u_k
        u_out.coeffs[-k + n_modes] = np.conj(u_k)
        residuals[k] = op.residual
    t_modes = time.perf_counter()

    h, big_h = _trace_fields(grid, w_out)
    if n_steps is None and eps == 0:
        method, params = "harmonic", {"n_modes": n_modes, "tol": tol}
    else:
        method, params = "epsilon", {"eps": eps, "dt": dt, "n_steps": n_steps}
    return SolveReport(
        grid=grid, u=u_out, w=w_out, trace_h=h, trace_primitive=big_h,
        mode_residuals=residuals,
        timings={"mean": t_mean - t0, "modes": t_modes - t_mean},
        method=method, params=params)


# ---------------------------------------------------------------------------
# Damped periodic march
# ---------------------------------------------------------------------------

@dataclass
class EpsilonParams:
    """Parameters of the damped construction.

    eps > 0 is the damping shift; n_steps is the number of time steps per
    period (the step divides the period exactly by construction);
    period_tol > 0 is the relative energy-norm threshold on consecutive period
    snapshots; n_report_modes caps the Fourier content of the returned
    fields.
    """

    eps: float
    n_steps: int = 256
    period_tol: float = 1e-7
    max_periods: int = 400
    n_report_modes: int = 16

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ConfigurationError(
                f"damping shift eps must be positive and finite, got {self.eps}")
        if not (np.isfinite(self.period_tol) and self.period_tol > 0):
            raise ConfigurationError(f"period_tol must be > 0 and finite, got {self.period_tol}")
        if self.n_steps < 4:
            raise ConfigurationError("need at least 4 steps per period")
        if self.max_periods < 1:
            raise ConfigurationError(f"max_periods must be >= 1, got {self.max_periods}")


class _MarchOperator:
    """Trapezoidal step for the damped first-order system.

    State y = (w, v, u) with w, v on wave unknowns (interface included) and
    u on heat interior unknowns, each in the row blocks of self.op, the
    new-level step. ODE rows:
        w' = v
        v' = Lap w - 2 eps v - eps^2 w + g     (wave interior)
        u' = Lap u - eps u + f                 (heat interior)
    The heat interface trace is v, and the flux balance holds at the new
    time level. With s = 2/dt the trapezoidal rule on w' = v gives
    v_new = s (w_new - w) - v; eliminating v_new leaves the coupled stencil
    at ((s+eps)^2, s+eps, s) for (w_new, u_new). The old level enters as
    minus the interior rows of the stencil at (-(s^2 + 2 eps s - eps^2),
    -(s - eps), -s), plus 2 s v on wave interior rows and
    -3 (s w + v) / (2 hy_h) on interface rows.
    """

    def __init__(self, grid: Grid, eps: float, dt: float):
        self.grid = grid
        self.eps = eps
        self.dt = dt
        self.s = s = 2.0 / dt
        # the new-level step; its row blocks are the layout of w, v and u
        self.op = ops.ModeOperator(0, 0.0, grid, ((s + eps) ** 2, s + eps, s))
        nw, nh = self.op.n_wave, self.op.n_heat
        self.nw, self.n = nw, 2 * nw + nh
        hx, hyw, hyh = grid.hx, grid.hy_w, grid.hy_h

        iface = np.arange(nw) < grid.nx - 2  # the first row block
        interior_rows = sp.diags(np.concatenate((~iface, np.ones(nh, bool))).astype(float))
        old = -(interior_rows @ ops.coupled_matrix(
            grid, -(s * s + 2 * eps * s - eps**2), -(s - eps), -s)).tocsc()
        c = 3.0 / (2 * hyh)
        self.rhs_mat = sp.hstack([
            old[:, :nw] + sp.diags(np.where(iface, -c * s, 0.0), shape=(nw + nh, nw)),
            sp.diags(np.where(iface, -c, 2 * s), shape=(nw + nh, nw)),
            old[:, nw:]]).tocsr()
        self.lu = spla.splu(self.op.matrix.tocsc())

        # energy mass: |grad w|^2 (edge form) + |v|^2 + |u|^2
        self.energy_form = ops._sbp_form(grid.ny_w, grid.nx, hx, hyw)
        self.mass_w = quad.trap_mass(grid.ny_w, grid.nx, hx, hyw)
        self.mass_h = quad.trap_mass(grid.ny_h, grid.nx, hx, hyh)

    def scatter(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grid, nw, m = self.grid, self.nw, self.grid.nx - 2
        w = np.zeros((grid.ny_w, grid.nx))
        v = np.zeros((grid.ny_w, grid.nx))
        u = np.zeros((grid.ny_h, grid.nx))
        w[:-1, 1:-1] = y[:nw].reshape(-1, m)
        v[:-1, 1:-1] = y[nw:2 * nw].reshape(-1, m)
        u[1:-1, 1:-1] = y[2 * nw:].reshape(-1, m)
        u[-1, :] = v[0, :]  # heat interface trace is the wave velocity
        return w, v, u

    def energy(self, y: np.ndarray) -> float:
        w, v, u = self.scatter(y)
        grad = float(np.real(w.ravel() @ (self.energy_form @ w.ravel())))
        return grad + quad.norm_sq(self.mass_w, v) + quad.norm_sq(self.mass_h, u)

    def forcing_vector(self, g_t: np.ndarray | None, f_t: np.ndarray | None) -> np.ndarray:
        """Step forcing: 2 g on wave interior rows, 2 f on heat rows."""
        return 2.0 * ops.mode_rhs(self.op, f_t, g_t)

    def step(self, y: np.ndarray, force_mid: np.ndarray) -> np.ndarray:
        x = self.lu.solve(self.rhs_mat @ y + force_mid)
        w_new = x[:self.nw]
        v_new = self.s * (w_new - y[:self.nw]) - y[self.nw:2 * self.nw]
        return np.concatenate((w_new, v_new, x[self.nw:]))


def epsilon_march(grid: Grid, f: FourierField | None, g: FourierField | None,
                  params: EpsilonParams, period: float | None = None) -> SolveReport:
    """March the damped system from rest until the period map contracts.

    Returns the last period as Fourier fields. The scheme is trapezoidal
    (one-step, second order); the flux-balance constraint is enforced at
    the new time level.
    """
    periods = {x.period for x in (f, g) if x is not None}
    if len(periods) > 1:
        raise ConfigurationError("forcing fields disagree on the period")
    if period is None:
        if not periods:
            raise ConfigurationError("need a period when no forcing is given")
        period = periods.pop()
    t0 = time.perf_counter()
    m = params.n_steps
    dt = period / m
    march = _MarchOperator(grid, params.eps, dt)

    times = np.arange(m + 1) * dt
    g_samp = g.sample_real(times) if g is not None else None
    f_samp = f.sample_real(times) if f is not None else None

    def force_mid(step_index: int) -> np.ndarray:
        # trapezoidal average of the forcing at both step ends
        g_t = None if g_samp is None else 0.5 * (g_samp[step_index] + g_samp[step_index + 1])
        f_t = None if f_samp is None else 0.5 * (f_samp[step_index] + f_samp[step_index + 1])
        return march.forcing_vector(g_t, f_t)

    forces = [force_mid(i) for i in range(m)]
    t_setup = time.perf_counter()

    y = np.zeros(march.n)
    snapshot = y.copy()
    contraction: list[float] = []
    diffs: list[float] = []
    converged = False
    n_periods = 0
    for n_periods in range(1, params.max_periods + 1):
        for i in range(m):
            y = march.step(y, forces[i])
        diff = np.sqrt(march.energy(y - snapshot))
        scale = max(np.sqrt(march.energy(y)), 1e-300)
        diffs.append(diff / scale)
        if len(diffs) >= 2 and diffs[-2] > 0:
            contraction.append(diffs[-1] / diffs[-2])
        snapshot = y.copy()
        if diffs[-1] <= params.period_tol:
            converged = True
            break
    if not converged:
        raise SolverError(
            f"period map did not contract below {params.period_tol:.1e} within "
            f"{params.max_periods} periods (last diff {diffs[-1]:.3e})",
            history=diffs)
    t_march = time.perf_counter()

    # one more period, recording the state at every step start
    n_rep = min(params.n_report_modes, (m - 1) // 2)
    w_hist = np.empty((m, grid.ny_w, grid.nx))
    u_hist = np.empty((m, grid.ny_h, grid.nx))
    for i in range(m):
        w_arr, v_arr, u_arr = march.scatter(y)
        w_hist[i] = w_arr
        u_hist[i] = u_arr
        y = march.step(y, forces[i])
    w_field = time_transform(w_hist, "forward", period=period, n_modes=n_rep,
                             domain=WAVE)
    u_field = time_transform(u_hist, "forward", period=period, n_modes=n_rep,
                             domain=HEAT)
    t_record = time.perf_counter()

    h, big_h = _trace_fields(grid, w_field)
    residuals = {0: diffs[-1]}
    return SolveReport(
        grid=grid, u=u_field, w=w_field, trace_h=h, trace_primitive=big_h,
        mode_residuals=residuals,
        timings={"setup": t_setup - t0, "march": t_march - t_setup,
                 "record": t_record - t_march},
        method="epsilon",
        params={"eps": params.eps, "dt": dt, "n_steps": m,
                "periods": n_periods, "period_tol": params.period_tol,
                "contraction": contraction, "period_diffs": diffs})
