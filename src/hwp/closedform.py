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
from .timefourier import WAVE, FourierField, ModeSource

REFERENCE_PERIOD = 2.0 * np.pi


@dataclass(frozen=True)
class BumpProfile:
    """C^2 bump on [0, 1] with phi(0)=phi(1)=phi'(0)=phi'(1)=0."""

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    d2phi: Callable[[np.ndarray], np.ndarray]


def _poly_eval(p: np.polynomial.Polynomial) -> Callable[[np.ndarray], np.ndarray]:
    return lambda y: p(np.asarray(y, dtype=float))


def bump_profile() -> BumpProfile:
    """The quartic bump y^2 (1-y)^2 and its first two derivatives."""
    p = np.polynomial.Polynomial([0.0, 0.0, 1.0, -2.0, 1.0])  # y^2 - 2 y^3 + y^4
    return BumpProfile(phi=_poly_eval(p), dphi=_poly_eval(p.deriv(1)),
                       d2phi=_poly_eval(p.deriv(2)))


def on_reference_geometry(lx: float, ly_w: float) -> bool:
    """Whether the wave box (0, lx) x (0, ly_w) is the reference (0, pi) x (0, 1)."""
    return abs(lx - np.pi) <= 1e-12 and abs(ly_w - 1.0) <= 1e-12


def max_terms(nx: int) -> int:
    """The largest n of sin(n x) that nx nodes on (0, pi) resolve: nx - 1 >= 2 n."""
    return (nx - 1) // 2


def _check_reference_geometry(grid: Grid) -> None:
    if not on_reference_geometry(grid.lx, grid.ly_w):
        raise ClosedFormError(
            "analytic families are defined on the reference geometry "
            f"(0, pi) x (0, 1); got Lx={grid.lx:g}, Ly_w={grid.ly_w:g}")


def mode_amplitudes(n: int, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Nodal amplitudes (A_g, A_w) on the wave subgrid of g_n = sin(n t) A_g
    and w_n = sin(n t) A_w, with the quartic bump phi of bump_profile()."""
    if n < 1:
        raise ClosedFormError(f"mode index must be >= 1, got {n}")
    _check_reference_geometry(grid)
    return _amplitude(n, grid, 0), _amplitude(n, grid, 1)


def _amplitude(n: int, grid: Grid, i: int) -> np.ndarray:
    """Entry i of mode_amplitudes(n, grid), A_g (i = 0) or A_w (i = 1),
    built alone."""
    profile = bump_profile()
    sx = np.sin(n * grid.x)[None, :]
    if i == 0:
        return -sx * profile.d2phi(grid.y_w)[:, None]
    return sx * profile.phi(grid.y_w)[:, None]


def _family_sources(n_modes: int, grid: Grid,
                    weight: Callable[[int], complex | None]) -> tuple[ModeSource, ModeSource]:
    """The sources g and w_ref whose mode n is weight(n) times the amplitudes
    (A_g, A_w) of mode_amplitudes(n, grid), built when asked for (weight
    None: a zero mode); each builds only its own amplitude, and nothing is
    held between requests."""
    _check_reference_geometry(grid)

    def part(i: int) -> ModeSource:
        return ModeSource(REFERENCE_PERIOD, n_modes, (grid.ny_w, grid.nx), WAVE,
                          lambda n: None if (a := weight(n)) is None
                          else a * _amplitude(n, grid, i))

    return part(0), part(1)


def analytic_sources(n: int, grid: Grid) -> tuple[ModeSource, ModeSource]:
    """(g_n, w_n) of mode_amplitudes as mode sources on the wave subgrid."""
    if n < 1:
        raise ClosedFormError(f"mode index must be >= 1, got {n}")
    # sin(n t) A = -(i/2) A e^{i n t} + (i/2) A e^{-i n t}
    return _family_sources(n, grid, {n: -0.5j}.get)


def analytic_mode(n: int, grid: Grid) -> tuple[FourierField, FourierField]:
    """(g_n, w_n) of mode_amplitudes as Fourier fields on the wave subgrid."""
    g, w = (source.stored() for source in analytic_sources(n, grid))
    return g, w


@dataclass(frozen=True)
class SeriesRule:
    """Coefficient rule n -> a_n for the forcing superpositions."""

    tag: str
    coefficient: Callable[[int], float]


def series_rule(tag: str) -> SeriesRule:
    """G1: a_n = 1/n (square-summable only); G2: a_n = 1/n^2 (one extra
    derivative summable)."""
    if tag == "G1":
        return SeriesRule("G1", lambda n: 1.0 / n)
    if tag == "G2":
        return SeriesRule("G2", lambda n: 1.0 / n**2)
    raise ClosedFormError(f"unknown series rule {tag!r}")


def series_sources(rule: SeriesRule, n_terms: int,
                   grid: Grid) -> tuple[ModeSource, ModeSource]:
    """Truncated superposition g = sum_{n<=N} a_n g_n and the matching
    analytic solution superposition w_ref = sum a_n w_n, both with the
    quartic bump phi of bump_profile(), as mode sources: mode n is
    -(i/2) a_n times the amplitudes of mode_amplitudes(n, grid), built when
    asked for."""
    if n_terms < 1:
        raise ClosedFormError(f"need at least one term, got {n_terms}")
    if n_terms > max_terms(grid.nx):
        raise ClosedFormError(
            f"grid with nx={grid.nx} cannot resolve spatial frequency "
            f"{n_terms}; need nx-1 >= {2 * n_terms}")
    return _family_sources(n_terms, grid, lambda n: -0.5j * rule.coefficient(n) if n else None)
