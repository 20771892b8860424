"""Periodic solution computation.

Two routes to T-periodic solutions of the coupled system:

* ModeStream: spectral in time, one mode at a time. Mode 0 is the
  stationary mean-value pair; every mode k >= 1 is one complex coupled
  solve. The stream yields (k, w_k, u_k, residual) for k = 0..N in order
  and asks the forcing for its mode k only when mode k's solve starts, so
  what a consumer holds is up to it: solve_periodic_harmonic collects the
  stream into a SolveReport (fields storing modes k >= 0 only, real by
  construction), while the commands keep per-mode norms and drop each mode
  after use: solve with snapshot sums and the modes its weak check reads,
  epsilon-sweep zipping the undamped stream with one damped one per eps.
  With a damping shift eps and a step count n_steps it computes the damped
  construction below directly, one frequency solve per mode.

* epsilon_march: the damped construction by marching. A small shift
  eps > 0 adds 2 eps w_t + eps^2 w to the wave equation and eps u to the
  heat equation, which makes the period map a contraction; a one-step
  implicit scheme (trapezoidal / Crank-Nicolson) marches the first-order
  system from rest until successive period snapshots agree, then the last
  period is transformed back to Fourier coefficients. In the sine basis
  in x the step splits into one dense map per x-frequency, formed once by
  banded solves of the coupled stencil. It is kept as an independent
  check of the frequency route.

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

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError
from .mesh import Grid
from . import operators as ops
from . import quadrature as quad
from .timefourier import (HEAT, INTERFACE, WAVE, FourierField, ModeSource, mean_decompose,
                          time_transform)


@dataclass
class SolveReport:
    """Solution fields plus diagnostics from one periodic solve."""

    grid: Grid
    u: FourierField             # heat subgrid incl. derived interface trace
    w: FourierField             # wave subgrid
    trace_h: FourierField       # u restricted to the interface row
    trace_primitive: FourierField  # its mean-free primitive (equals w trace)
    mode_residuals: dict[int, float]
    method: str
    params: dict = field(default_factory=dict)

    @property
    def period(self) -> float:
        return self.u.period

    def max_residual(self) -> float:
        return max(self.mode_residuals.values(), default=0.0)


def _trace_fields(w: FourierField) -> tuple[FourierField, FourierField]:
    """Interface velocity trace h = i w k * (w on the interface row), the time
    derivative of that row, and its mean-free primitive, the row's mean-free part."""
    trace = FourierField(w.period, w.coeffs[:, 0, :], INTERFACE)
    return trace.derivative(), mean_decompose(trace)[1]


def _aliased_mode(x: FourierField | ModeSource, k: int, n_steps: int | None) -> np.ndarray:
    """Mode k of x as n_steps uniform samples per period see it: the sum of
    the coefficients k + j n_steps, j in order, over the modes -N..N of x
    (the plain coefficient when n_steps is None)."""
    if n_steps is None:
        return x.mode(k)
    return sum((x.mode(j) for j in range(-x.n_modes, x.n_modes + 1)
                if (j - k) % n_steps == 0), np.zeros(x.spatial_shape, dtype=complex))


class ModeStream:
    """The mode-by-mode periodic solve as a stream of per-mode results.

    Iterating yields (k, w_k, u_k, residual) for k = 0..n_modes in order:
    the complex wave and heat coefficients of mode k (u_k with its derived
    interface trace) and the relative residual of its solve. Mode 0 is the
    stationary mean-value pair; every mode k >= 1 is one complex coupled
    solve that reads mode k of the forcing f (heat) and g (wave), each a
    FourierField or a ModeSource, only when it starts. So a consumer that
    keeps what it needs of each mode and drops the rest holds one mode of
    the solution at a time. Every input is checked when the stream is built.

    eps > 0 adds the damping shift of the damped construction. With
    n_steps set, the stream is the discrete periodic orbit of the
    trapezoidal march with n_steps steps per period (see the module
    docstring): the trapezoidal symbol replaces i w k, the forcing is folded
    onto its aliases mod n_steps, and the mode count is capped at
    (n_steps - 1) // 2.
    """

    def __init__(self, grid: Grid, f: FourierField | ModeSource | None,
                 g: FourierField | ModeSource | None, n_modes: int,
                 tol: float = 1e-10, eps: float = 0.0, n_steps: int | None = None):
        if n_modes < 0:
            raise ConfigurationError("mode count must be non-negative")
        if not (np.isfinite(eps) and eps >= 0):
            raise ConfigurationError(f"damping shift eps must be non-negative, got {eps}")
        if n_steps is not None and n_steps < 4:
            raise ConfigurationError("need at least 4 steps per period")
        periods = {x.period for x in (f, g) if x is not None}
        if len(periods) > 1:
            raise ConfigurationError("forcing fields disagree on the period")
        self.period = periods.pop() if periods else 2.0 * np.pi
        self.dt = None if n_steps is None else self.period / n_steps
        self.n_modes = n_modes if n_steps is None else min(n_modes, (n_steps - 1) // 2)
        self.grid, self.f, self.g = grid, f, g
        self.tol, self.eps, self.n_steps = tol, eps, n_steps

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, float]]:
        for k in range(self.n_modes + 1):
            yield (k, *self._solve(k))  # keeps no reference to the mode once yielded

    def _solve(self, k: int) -> tuple[np.ndarray, np.ndarray, float]:
        """w_k, u_k and the residual of mode k."""
        f_k, g_k = (None if x is None else _aliased_mode(x, k, self.n_steps)
                    for x in (self.f, self.g))
        if k == 0:
            pair = ops.solve_mean_pair(self.grid, *(None if c is None else c.real
                                                    for c in (f_k, g_k)),
                                       tol=self.tol, eps=self.eps)
            return pair.mean_w.astype(complex), pair.mean_u.astype(complex), pair.residual
        op = ops.assemble_coupled_mode(self.grid, k, self.period, eps=self.eps, dt=self.dt)
        x = ops.solve_linear(op, ops.mode_rhs(op, f_k, g_k), tol=self.tol)
        return (*ops.split_mode_solution(op, x), op.residual)

    def report(self, w: np.ndarray, u: np.ndarray,
               residuals: dict[int, float]) -> SolveReport:
        """The SolveReport of the stacks w and u of modes 0..K collected from
        this stream (K = n_modes for the whole solution). A damped or stepped
        stream reports method "epsilon" with params eps, dt and n_steps (dt
        and n_steps None when continuous in time); the plain one reports
        method "harmonic"."""
        w_field = FourierField(self.period, w, WAVE)
        h, big_h = _trace_fields(w_field)
        if self.n_steps is None and self.eps == 0:
            method, params = "harmonic", {"n_modes": self.n_modes, "tol": self.tol}
        else:
            method, params = "epsilon", {"eps": self.eps, "dt": self.dt,
                                         "n_steps": self.n_steps}
        return SolveReport(
            grid=self.grid, u=FourierField(self.period, u, HEAT), w=w_field, trace_h=h,
            trace_primitive=big_h, mode_residuals=dict(residuals), method=method,
            params=params)


def solve_periodic_harmonic(grid: Grid, f: FourierField | ModeSource | None,
                            g: FourierField | ModeSource | None, n_modes: int,
                            tol: float = 1e-10, eps: float = 0.0,
                            n_steps: int | None = None) -> SolveReport:
    """Mode-by-mode periodic solve with n_modes temporal frequencies: the
    ModeStream of these arguments, collected into one SolveReport."""
    stream = ModeStream(grid, f, g, n_modes, tol=tol, eps=eps, n_steps=n_steps)
    w = np.zeros((stream.n_modes + 1, grid.ny_w, grid.nx), dtype=complex)
    u = np.zeros((stream.n_modes + 1, grid.ny_h, grid.nx), dtype=complex)
    residuals: dict[int, float] = {}
    for k, w_k, u_k, residual in stream:
        w[k], u[k], residuals[k] = w_k, u_k, residual
    return stream.report(w, u, residuals)


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


# Bound on the march's step, S plus the step forcings: 8 (nx-2) N (N + n_steps)
# bytes, N = (ny_h-2) + 2 (ny_w-1); 129^2 at 256 steps (~250 MB) fits, 257^2 not.
MAX_MARCH_BYTES = 2**28


class _SineMarch:
    """Trapezoidal step for the damped first-order system.

    State (w, v, u) with w, v on wave unknowns (interface included) and u
    on heat interior unknowns. ODE rows:
        w' = v
        v' = Lap w - 2 eps v - eps^2 w + g     (wave interior)
        u' = Lap u - eps u + f                 (heat interior)
    The heat interface trace is v, and the flux balance holds at the new
    time level. With s = 2/dt the trapezoidal rule on w' = v gives
    v_new = s (w_new - w) - v; eliminating v_new leaves the coupled stencil
    at ((s+eps)^2, s+eps, s) for (w_new, u_new). The old level enters as
    minus the interior rows of the stencil at (-(s^2 + 2 eps s - eps^2),
    -(s - eps), -s), plus 2 s v on wave interior rows and
    -3 (s w + v) / (2 hy_h) on interface rows, the forcing as its sum at
    both step ends. In the sine basis in x the step splits by x-frequency j:
    row j of the state holds the column in band order (_column_band), then
    v on its wave rows, and step i is y[j] <- S[j] y[j] + c[j, :, i].
    """

    def __init__(self, grid: Grid, eps: float, dt: float, n_steps: int,
                 g: FourierField | None, f: FourierField | None):
        m, nh, n = grid.nx - 2, grid.ny_h - 2, grid.ny_h - 2 + 2 * (grid.ny_w - 1)
        need = 8 * m * n * (n + n_steps)
        if need > MAX_MARCH_BYTES:
            raise ConfigurationError(
                f"damped march: {grid.nx}x{grid.ny_w}+{grid.ny_h} grid, {n_steps} steps "
                f"need {need} bytes for the step, above MAX_MARCH_BYTES = {MAX_MARCH_BYTES}")
        self.grid, self.shape = grid, (m, n)  # the shape of the state
        s = 2.0 / dt
        band, interior = ops._column_band(grid, (s + eps) ** 2, s + eps, s)
        old, _ = ops._column_band(grid, -(s * s + 2 * eps * s - eps**2), -(s - eps), -s)
        self.nb = nb = band.shape[1]
        wr, vr = np.arange(nh, nb), np.arange(nb, n)  # w rows and their v rows
        # stored transposed: S[j] and every c[j, :, i] then lie in contiguous rows
        z = np.zeros((m, n + n_steps, n)).transpose(0, 2, 1)
        for d in range(-2, 3):  # old-level entries (r, r + d)
            r = np.arange(max(0, -d), nb - max(0, d))
            z[:, r, r + d] = -old[4 - d, r + d]
        r = np.flatnonzero(interior)
        z[:, r, r] -= ops._x_eigenvalues(m, grid.hx)[:, None]
        z[:, nh, :nb] = 0.0
        z[:, nh, [nh, nb]] = -3.0 / (2 * grid.hy_h) * np.array([s, 1.0])
        z[:, wr[1:], vr[1:]] = 2 * s
        force = np.zeros((n_steps, nb, m))
        for rows, x in ((slice(0, nh), f), (slice(nh + 1, nb), g)):
            if x is not None:
                x = x.sample_real(np.arange(n_steps + 1) * dt)[:, 1:-1, 1:-1]
                force[:, rows] = x[:-1] + x[1:]
        z[:, :nb, n:] = np.transpose(force @ ops._sine_basis(m))
        ops._frequency_solves(band, interior, grid.hx, z[:, :nb], "march step")
        z[:, nb:] = s * z[:, nh:nb]
        z[:, vr, wr] -= s
        z[:, vr, vr] -= 1.0
        self.S, self.c = z[:, :, :n], z[:, :, n:]

        # energy mass: |grad w|^2 (edge form) + |v|^2 + |u|^2
        self.mass_w = quad.trap_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
        self.mass_h = quad.trap_mass(grid.ny_h, grid.nx, grid.hx, grid.hy_h)

    def fields(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grid, nh, nb = self.grid, self.grid.ny_h - 2, self.nb
        x = (ops._sine_basis(grid.nx - 2) @ y).T
        w, v = np.zeros((2, grid.ny_w, grid.nx))
        u = np.zeros((grid.ny_h, grid.nx))
        u[1:-1, 1:-1], w[:-1, 1:-1], v[:-1, 1:-1] = x[:nh], x[nh:nb], x[nb:]
        u[-1, :] = v[0, :]  # heat interface trace is the wave velocity
        return w, v, u

    def energy(self, y: np.ndarray) -> float:
        w, v, u = self.fields(y)
        grad = float(np.real(ops.wave_edge_form(self.grid, w, w)))
        return grad + quad.norm_sq(self.mass_w, v) + quad.norm_sq(self.mass_h, u)

    def step(self, y: np.ndarray, i: int) -> np.ndarray:
        return np.matmul(self.S, y[:, :, None])[:, :, 0] + self.c[:, :, i]


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
    m = params.n_steps
    dt = period / m
    march = _SineMarch(grid, params.eps, dt, m, g, f)

    y = np.zeros(march.shape)
    snapshot = y.copy()
    contraction: list[float] = []
    diffs: list[float] = []
    for n_periods in range(1, params.max_periods + 1):
        for i in range(m):
            y = march.step(y, i)
        diff = np.sqrt(march.energy(y - snapshot))
        scale = max(np.sqrt(march.energy(y)), 1e-300)
        diffs.append(diff / scale)
        if len(diffs) >= 2 and diffs[-2] > 0:
            contraction.append(diffs[-1] / diffs[-2])
        snapshot = y.copy()
        if diffs[-1] <= params.period_tol:
            break
    else:
        raise SolverError(
            f"period map did not contract below {params.period_tol:.1e} within "
            f"{params.max_periods} periods (last diff {diffs[-1]:.3e})",
            history=diffs)

    # one more period, recording the state at every step start
    n_rep = min(params.n_report_modes, (m - 1) // 2)
    w_hist = np.empty((m, grid.ny_w, grid.nx))
    u_hist = np.empty((m, grid.ny_h, grid.nx))
    for i in range(m):
        w_hist[i], _, u_hist[i] = march.fields(y)
        y = march.step(y, i)
    w_field = time_transform(w_hist, period=period, n_modes=n_rep, domain=WAVE)
    u_field = time_transform(u_hist, period=period, n_modes=n_rep, domain=HEAT)

    h, big_h = _trace_fields(w_field)
    return SolveReport(
        grid=grid, u=u_field, w=w_field, trace_h=h, trace_primitive=big_h,
        mode_residuals={0: diffs[-1]}, method="epsilon",
        params={"eps": params.eps, "dt": dt, "n_steps": m,
                "periods": n_periods, "period_tol": params.period_tol,
                "contraction": contraction, "period_diffs": diffs})
