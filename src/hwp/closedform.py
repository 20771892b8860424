"""Closed-form separable forcing/solution families on the reference geometry.

On the wave rectangle (0, pi) x (0, 1) with period 2*pi, the family

    w_n(t, x, y) = sin(n t) sin(n x) phi(y),
    g_n(t, x, y) = -sin(n t) sin(n x) phi''(y),

with a C^2 bump phi vanishing to first order at y = 0 and y = 1, solves the
coupled system exactly with zero heat component: the interface trace and
normal derivative of w_n both vanish. Weighted superpositions of (g_n, w_n)
are the ground truth for the solver and for the regularity scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ClosedFormError
from .mesh import Grid
from .timefourier import WAVE, FourierField

REFERENCE_PERIOD = 2.0 * np.pi


@dataclass(frozen=True)
class BumpProfile:
    """C^2 bump on [0, 1] with phi(0)=phi(1)=phi'(0)=phi'(1)=0."""

    kind: str
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    d2phi: Callable[[np.ndarray], np.ndarray]


def _poly_eval(coeffs: np.ndarray, deriv: int) -> Callable[[np.ndarray], np.ndarray]:
    p = np.polynomial.Polynomial(coeffs)
    if deriv:
        p = p.deriv(deriv)
    return lambda y: p(np.asarray(y, dtype=float))


def bump_profile(kind: str = "poly", coeffs=None) -> BumpProfile:
    """Built-in quartic bump y^2 (1-y)^2, or a custom polynomial.

    Custom coefficients are in increasing-power order, finite, and must
    satisfy the endpoint conditions exactly (checked to 1e-12).
    """
    if kind == "poly":
        coeffs = np.array([0.0, 0.0, 1.0, -2.0, 1.0])  # y^2 - 2 y^3 + y^4
    elif kind == "custom":
        if coeffs is None:
            raise ClosedFormError("custom bump needs polynomial coefficients")
        coeffs = np.asarray(coeffs, dtype=float)
        if not np.all(np.isfinite(coeffs)):
            raise ClosedFormError(f"custom bump coefficients must be finite, got {coeffs}")
    else:
        raise ClosedFormError(f"unknown bump kind {kind!r}")
    phi = _poly_eval(coeffs, 0)
    dphi = _poly_eval(coeffs, 1)
    for point in (0.0, 1.0):
        if not (abs(phi(point)) <= 1e-12 and abs(dphi(point)) <= 1e-12):
            raise ClosedFormError(
                f"bump must vanish to first order at y={point:g}; got "
                f"phi={phi(point):.3e}, phi'={dphi(point):.3e}")
    return BumpProfile(kind=kind, phi=phi, dphi=dphi, d2phi=_poly_eval(coeffs, 2))


def _check_reference_geometry(grid: Grid) -> None:
    if abs(grid.lx - np.pi) > 1e-12 or abs(grid.ly_w - 1.0) > 1e-12:
        raise ClosedFormError(
            "analytic families are defined on the reference geometry "
            f"(0, pi) x (0, 1); got Lx={grid.lx:g}, Ly_w={grid.ly_w:g}")


def mode_amplitudes(n: int, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Nodal amplitudes (A_g, A_w) on the wave subgrid of g_n = sin(n t) A_g
    and w_n = sin(n t) A_w, with the quartic bump phi of bump_profile()."""
    if n < 1:
        raise ClosedFormError(f"mode index must be >= 1, got {n}")
    _check_reference_geometry(grid)
    profile = bump_profile()
    sx = np.sin(n * grid.x)[None, :]
    return -sx * profile.d2phi(grid.y_w)[:, None], sx * profile.phi(grid.y_w)[:, None]


def analytic_mode(n: int, grid: Grid) -> tuple[FourierField, FourierField]:
    """(g_n, w_n) of mode_amplitudes as Fourier fields on the wave subgrid."""
    # sin(n t) A = -(i/2) A e^{i n t} + (i/2) A e^{-i n t}
    g, w = (FourierField.from_mode_dict(REFERENCE_PERIOD, n, {n: -0.5j * amp}, WAVE)
            for amp in mode_amplitudes(n, grid))
    return g, w


@dataclass(frozen=True)
class SeriesRule:
    """Coefficient rule n -> a_n for the forcing superpositions."""

    tag: str
    coefficient: Callable[[int], float]

    def coefficients(self, n_max: int) -> np.ndarray:
        return np.array([self.coefficient(n) for n in range(1, n_max + 1)])


def series_rule(tag: str) -> SeriesRule:
    """G1: a_n = 1/n (square-summable only); G2: a_n = 1/n^2 (one extra
    derivative summable)."""
    if tag == "G1":
        return SeriesRule("G1", lambda n: 1.0 / n)
    if tag == "G2":
        return SeriesRule("G2", lambda n: 1.0 / n**2)
    raise ClosedFormError(f"unknown series rule {tag!r}")


def series_forcing(rule: SeriesRule, n_terms: int,
                   grid: Grid) -> tuple[FourierField, FourierField]:
    """Truncated superposition g = sum_{n<=N} a_n g_n and the matching
    analytic solution superposition w_ref = sum a_n w_n, both with the
    quartic bump phi of bump_profile()."""
    if n_terms < 1:
        raise ClosedFormError(f"need at least one term, got {n_terms}")
    if 2 * n_terms > grid.nx - 1:
        raise ClosedFormError(
            f"grid with nx={grid.nx} cannot resolve spatial frequency "
            f"{n_terms}; need nx-1 >= {2 * n_terms}")
    _check_reference_geometry(grid)
    profile = bump_profile()
    phi_y = profile.phi(grid.y_w)[:, None]
    d2phi_y = profile.d2phi(grid.y_w)[:, None]
    g = FourierField.zeros(REFERENCE_PERIOD, n_terms, (grid.ny_w, grid.nx), WAVE)
    w = FourierField.zeros(REFERENCE_PERIOD, n_terms, (grid.ny_w, grid.nx), WAVE)
    for n in range(1, n_terms + 1):
        a_n = rule.coefficient(n)
        sx = np.sin(n * grid.x)[None, :]
        g.coeffs[n] = -0.5j * a_n * (-sx * d2phi_y)
        w.coeffs[n] = -0.5j * a_n * (sx * phi_y)
    return g, w
