"""Discrete geometry: stacked rectangles with a shared flat interface, and
sampled representations of the non-rectangular demo domains used by the
geometric condition checks.

The solver geometry is two axis-aligned rectangles,

    wave subdomain  (0, Lx) x (0, Ly_w),
    heat subdomain  (0, Lx) x (-Ly_h, 0),

glued along the interface row y = 0. The grid holds only node positions
and spacings. Which nodes are unknowns, and in what order, is stated once,
by the column band of the coupled operator (``operators``): interface nodes
carry a single unknown (the wave value), and the heat trace is derived from
it by the per-mode velocity relation. Demo domains are carried as
closed-form region tests plus parameterized boundaries; they are sampled,
never meshed.

Interior samples use ruled midpoint quadrature: the outer coordinate (x,
y or the polar angle) is cut into equal cells, and each outer midpoint t
gets max(1, ceil((hi(t) - lo(t)) * resolution)) equal inner cells between
the domain's bounds lo(t) < s < hi(t); the weight is the product of the two
spacings (times r in polar coordinates). A domain holds its columns only
(RuledColumns) and builds its samples a chunk of whole columns at a time,
so no consumer holds all of them at once. A domain whose sample count would
exceed MAX_INTERIOR_SAMPLES is rejected with ConfigurationError before any
sample is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, MeshError
from .fields import _JET_CHUNK


@dataclass(frozen=True)
class Grid:
    """Structured discretization of the stacked-rectangle geometry.

    Wave nodal arrays have shape (ny_w, nx) with row 0 on the interface
    (y = 0) and row ny_w-1 on the top wall. Heat nodal arrays have shape
    (ny_h, nx) with row 0 on the bottom wall (y = -Ly_h) and row ny_h-1 on
    the interface. The interface row is stored once; heat-side arrays carry
    the derived trace in their last row.
    """

    lx: float
    ly_w: float
    ly_h: float
    nx: int
    ny_w: int
    ny_h: int
    hx: float
    hy_w: float
    hy_h: float
    x: np.ndarray = field(repr=False)
    y_w: np.ndarray = field(repr=False)
    y_h: np.ndarray = field(repr=False)


def build_stacked_rectangles(lx: float, ly_w: float, ly_h: float,
                             nx: int, ny_w: int, ny_h: int) -> Grid:
    """Build the two stacked rectangles sharing the flat interface."""
    if min(nx, ny_w, ny_h) < 3:
        raise ConfigurationError(
            f"node counts must be >= 3 per direction, got ({nx}, {ny_w}, {ny_h})")
    if min(lx, ly_w, ly_h) <= 0:
        raise ConfigurationError(
            f"side lengths must be positive, got ({lx}, {ly_w}, {ly_h})")
    hx = lx / (nx - 1)
    hy_w = ly_w / (ny_w - 1)
    hy_h = ly_h / (ny_h - 1)
    return Grid(
        lx=lx, ly_w=ly_w, ly_h=ly_h, nx=nx, ny_w=ny_w, ny_h=ny_h,
        hx=hx, hy_w=hy_w, hy_h=hy_h,
        x=np.linspace(0.0, lx, nx),
        y_w=np.linspace(0.0, ly_w, ny_w),
        y_h=np.linspace(-ly_h, 0.0, ny_h),
    )


# ---------------------------------------------------------------------------
# Demo domains for the geometric checks
# ---------------------------------------------------------------------------

ON_GAMMA = "OnGamma"
ON_GAMMA_W = "OnGammaW"
MAX_INTERIOR_SAMPLES = 2**21


@dataclass(frozen=True)
class RuledColumns:
    """Ruled midpoint samples of the region { (t, s) : lo(t) < s < hi(t) },
    kept as their columns and built a chunk of whole columns at a time.

    Column c sits at the outer midpoint t[c] (outer spacing h_t) and holds
    the n[c] inner midpoints lo[c] + (k + 1/2) h[c], k < n[c]. The chart
    maps (t, s) to the plane: "xy" is (x, y) = (t, s), "yx" is (s, t), and
    "polar" reads t as the angle and s as the radius; a sample's weight is
    h_t h[c] (times the radius in polar coordinates).
    """

    t: np.ndarray
    h_t: float
    lo: np.ndarray
    h: np.ndarray
    n: np.ndarray
    chart: str

    @property
    def size(self) -> int:
        return int(self.n.sum())

    def midpoints(self, cols: slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The repeated t, the inner midpoints s and their spacing h_s of
        the columns cols, sample by sample."""
        n = self.n[cols]
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        h_s = np.repeat(self.h[cols], n)
        return np.repeat(self.t[cols], n), np.repeat(self.lo[cols], n) + (k + 0.5) * h_s, h_s

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Points (m, 2) and weights (m,) of consecutive runs of whole
        columns, m <= fields._JET_CHUNK unless one column alone holds more.
        The polar chart takes cos and sin once per column."""
        ends = np.cumsum(self.n)
        c0 = 0
        while c0 < len(ends):
            start = ends[c0] - self.n[c0]
            c1 = max(c0 + 1, int(np.searchsorted(ends, start + _JET_CHUNK, side="right")))
            cols = slice(c0, c1)
            t, s, h_s = self.midpoints(cols)
            if self.chart == "polar":
                n = self.n[cols]
                yield (np.stack([s * np.repeat(np.cos(self.t[cols]), n),
                                 s * np.repeat(np.sin(self.t[cols]), n)], axis=1),
                       s * h_s * self.h_t)
            elif self.chart == "xy":
                yield np.stack([t, s], axis=1), self.h_t * h_s
            else:
                yield np.stack([s, t], axis=1), h_s * self.h_t
            c0 = c1


@dataclass
class DomainSamples:
    """Quadrature and boundary samples of one demo domain.

    The interior is held as its ruled columns (RuledColumns) and read in
    chunks of at most ``fields._JET_CHUNK`` samples, whose positive
    midpoint-rule weights sum to the domain area (to sampling accuracy);
    boundary samples carry unit outward normals and a tag telling whether
    the sample lies on the interface portion or on the homogeneous wall.
    """

    name: str
    interior: RuledColumns
    boundary_points: np.ndarray   # (m, 2)
    boundary_normals: np.ndarray  # (m, 2)
    boundary_tags: np.ndarray     # (m,) str, ON_GAMMA or ON_GAMMA_W

    @property
    def interior_points(self) -> np.ndarray:
        """Every interior point, (n, 2): the chunks in one array."""
        return np.concatenate([p for p, _ in self.interior.chunks()] or [np.empty((0, 2))])

    @property
    def interior_weights(self) -> np.ndarray:
        """Every interior weight, (n,): the chunks in one array."""
        return np.concatenate([w for _, w in self.interior.chunks()] or [np.empty(0)])

    def gamma_mask(self) -> np.ndarray:
        return self.boundary_tags == ON_GAMMA

    def gamma_w_mask(self) -> np.ndarray:
        return self.boundary_tags == ON_GAMMA_W


def _midpoints(a: float, b: float, n: int) -> tuple[np.ndarray, float]:
    h = (b - a) / n
    return a + (np.arange(n) + 0.5) * h, h


def _ruled_columns(ts: np.ndarray, h_t: float, lo: np.ndarray, hi: np.ndarray, res: int,
                   chart: str = "xy") -> RuledColumns:
    """The columns of the region { (t, s) : lo(t) < s < hi(t) }.

    ts are the outer midpoints (spacing h_t) and lo, hi the inner bounds
    there. Column t gets n = max(1, ceil((hi-lo)*res)) midpoints; columns
    with hi <= lo get none. No sample is built.
    """
    keep = hi > lo
    ts, lo, hi = ts[keep], lo[keep], hi[keep]
    n = np.maximum(1, np.ceil((hi - lo) * res)).astype(np.int64)
    return RuledColumns(ts, h_t, lo, (hi - lo) / n, n, chart)


def _segment_boundary(p0, p1, normal, tag: str, res: int):
    """Midpoint samples along a straight boundary segment."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    n = max(2, int(np.ceil(length * res)))
    ts, _ = _midpoints(0.0, 1.0, n)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    nrm = np.asarray(normal, dtype=float)
    nrm = nrm / np.linalg.norm(nrm)
    return pts, np.tile(nrm, (n, 1)), np.full(n, tag)


def _curve_boundary(param, t0: float, t1: float, outward, tag: str, res: int,
                    length_scale: float):
    """Midpoint samples along a parameterized curve with analytic normals.

    `param(ts)` and `outward(ts)` take an array of parameters and return the
    (x, y) components of the points and of the (not necessarily unit) outward
    normals; a scalar component is broadcast.
    """
    n = max(2, int(np.ceil(length_scale * res)))
    ts, _ = _midpoints(t0, t1, n)
    xy = lambda f, t: np.stack(np.broadcast_arrays(*f(t)), axis=1)  # (n, 2)
    nrms = xy(outward, ts)
    nrms /= np.linalg.norm(nrms, axis=1)[:, None]
    return xy(param, ts), nrms, np.full(n, tag)


def _column_samples(t0: float, t1: float, lo, hi, res: int) -> RuledColumns:
    """The columns of the region t0 < x < t1, lo(x) < y < hi(x)."""
    nt = max(1, int(np.ceil((t1 - t0) * res)))
    ts, ht = _midpoints(t0, t1, nt)
    return _ruled_columns(ts, ht, lo(ts), hi(ts), res)


# each builder returns a domain's interior columns and its boundary parts
def _rectangle_samples(lx: float, ly: float, res: int) -> tuple[RuledColumns, list]:
    cols = _column_samples(0.0, lx, np.zeros_like, lambda t: np.full_like(t, ly), res)
    parts = [
        _segment_boundary((0, 0), (lx, 0), (0, -1), ON_GAMMA, res),
        _segment_boundary((lx, 0), (lx, ly), (1, 0), ON_GAMMA_W, res),
        _segment_boundary((lx, ly), (0, ly), (0, 1), ON_GAMMA_W, res),
        _segment_boundary((0, ly), (0, 0), (-1, 0), ON_GAMMA_W, res),
    ]
    return cols, parts


def _triangle_samples(res: int) -> tuple[RuledColumns, list]:
    # apex at the origin, opening left; vertical far side is the interface
    # vertices (0,0), (-1, 1/2), (-1, -1/2)
    cols = _column_samples(-1.0, 0.0, lambda t: 0.5 * t, lambda t: -0.5 * t, res)
    parts = [
        _segment_boundary((-1, -0.5), (-1, 0.5), (-1, 0), ON_GAMMA, res),
        # upper slanted edge y = -x/2, outward normal (1/2, 1)
        _segment_boundary((-1, 0.5), (0, 0), (0.5, 1), ON_GAMMA_W, res),
        # lower slanted edge y = x/2, outward normal (1/2, -1)
        _segment_boundary((0, 0), (-1, -0.5), (0.5, -1), ON_GAMMA_W, res),
    ]
    return cols, parts


def _horn_samples(res: int) -> tuple[RuledColumns, list]:
    # cusp at the origin, opening left; walls are integral curves of the
    # anisotropic radial flow (x/2, y): y = c x^2, x in (-1, 0), c = 1/2, 3/2
    c_lo, c_hi = 0.5, 1.5

    def wall(c):
        return lambda t: c * (-t) ** 2.0

    cols = _column_samples(-1.0, 0.0, wall(c_lo), wall(c_hi), res)

    def curve(c):
        return lambda t: (t, c * (-t) ** 2.0)

    def outward_hi(t):
        # F = y - c x^2, grad F = (-2 c x, 1) points up/right
        return (c_hi * 2.0 * -t, 1.0)

    def outward_lo(t):
        return (-c_lo * 2.0 * -t, -1.0)

    t_in = -1e-3  # keep strictly away from the cusp where normals degenerate
    parts = [
        _segment_boundary((-1, c_lo), (-1, c_hi), (-1, 0), ON_GAMMA, res),
        _curve_boundary(curve(c_hi), -1.0, t_in, outward_hi, ON_GAMMA_W, res, 2.5),
        _curve_boundary(curve(c_lo), -1.0, t_in, outward_lo, ON_GAMMA_W, res, 1.5),
    ]
    return cols, parts


def _trapezoid_samples(res: int) -> tuple[RuledColumns, list]:
    # vertices (0,0), (1,0), (2,1), (0,1); interface is the bottom edge
    ys, hy = _midpoints(0.0, 1.0, res)
    cols = _ruled_columns(ys, hy, np.zeros_like(ys), 1.0 + ys, res, "yx")
    parts = [
        _segment_boundary((0, 0), (1, 0), (0, -1), ON_GAMMA, res),
        _segment_boundary((1, 0), (2, 1), (1, -1), ON_GAMMA_W, res),
        _segment_boundary((2, 1), (0, 1), (0, 1), ON_GAMMA_W, res),
        _segment_boundary((0, 1), (0, 0), (-1, 0), ON_GAMMA_W, res),
    ]
    return cols, parts


_SPIRAL_ALPHA = 0.2  # growth rate of the spiral and shell arcs


def _spiral_band(res: int, r0: float, r1_factor: float) -> tuple[RuledColumns, list]:
    """Region between two logarithmic-spiral arcs, capped by radial segments.

    Arcs r = c * exp(alpha * theta) are integral curves of the rotational
    flow (-y, x) + alpha (x, y), so the flow is exactly tangent to them. The
    cap at theta_max = 3 pi/2 is the interface (the flow exits there); the
    start cap and both arcs form the homogeneous wall.
    """
    alpha, theta_max = _SPIRAL_ALPHA, 1.5 * np.pi
    r_in = lambda th: r0 * np.exp(alpha * th)
    r_out = lambda th: r1_factor * r0 * np.exp(alpha * th)
    n_th = max(8, int(np.ceil(theta_max * r1_factor * r0 * np.exp(alpha * theta_max) * res)))
    ths, hth = _midpoints(0.0, theta_max, n_th)
    cols = _ruled_columns(ths, hth, r_in(ths), r_out(ths), res, "polar")

    def arc(curve_r):
        return lambda th: (curve_r(th) * np.cos(th), curve_r(th) * np.sin(th))

    def arc_outward(curve_r, sign):
        # curve (r(th) cos, r(th) sin); tangent T = r' e_r + r e_th;
        # normal direction = (r' e_th - r e_r) rotated to point outward.
        def nrm(th):
            r = curve_r(th)
            dr = alpha * r
            er = np.array([np.cos(th), np.sin(th)])
            et = np.array([-np.sin(th), np.cos(th)])
            v = dr * et - r * er
            return sign * v

        return nrm

    def cap_normal(th, sign):
        return sign * np.array([-np.sin(th), np.cos(th)])

    arc_len = theta_max * (1 + r1_factor) * 0.5 * r0 * np.exp(alpha * theta_max)
    parts = [
        # end cap at theta_max: interface, outward normal +e_theta
        _segment_boundary(arc(r_in)(theta_max), arc(r_out)(theta_max),
                          cap_normal(theta_max, +1), ON_GAMMA, res),
        # start cap at 0: wall, outward normal -e_theta
        _segment_boundary(arc(r_in)(0.0), arc(r_out)(0.0),
                          cap_normal(0.0, -1), ON_GAMMA_W, res),
        _curve_boundary(arc(r_out), 0.0, theta_max, arc_outward(r_out, -1),
                        ON_GAMMA_W, res, arc_len),
        _curve_boundary(arc(r_in), 0.0, theta_max, arc_outward(r_in, +1),
                        ON_GAMMA_W, res, arc_len),
    ]
    return cols, parts


def _arc_samples(res: int) -> tuple[RuledColumns, list]:
    """Annular sector 1 < r < 2, pi/6 < theta < 5 pi/6; interface is the far
    radial cap."""
    r_in, r_out, th0, th1 = 1.0, 2.0, np.pi / 6, 5 * np.pi / 6
    n_th = max(8, int(np.ceil((th1 - th0) * r_out * res)))
    ths, hth = _midpoints(th0, th1, n_th)
    cols = _ruled_columns(ths, hth, np.full(n_th, r_in), np.full(n_th, r_out), res, "polar")

    def circle(r, sign):
        def param(th):
            return (r * np.cos(th), r * np.sin(th))

        def outward(th):
            return sign * np.array([np.cos(th), np.sin(th)])

        return param, outward

    po, no = circle(r_out, +1)
    pi_, ni = circle(r_in, -1)
    e_th = lambda th, s: s * np.array([-np.sin(th), np.cos(th)])
    parts = [
        _segment_boundary(pi_(th1), po(th1), e_th(th1, +1), ON_GAMMA, res),
        _segment_boundary(pi_(th0), po(th0), e_th(th0, -1), ON_GAMMA_W, res),
        _curve_boundary(po, th0, th1, no, ON_GAMMA_W, res, (th1 - th0) * r_out),
        _curve_boundary(pi_, th0, th1, ni, ON_GAMMA_W, res, (th1 - th0) * r_in),
    ]
    return cols, parts


_DOMAIN_BUILDERS = {
    "unit-square": lambda res: _rectangle_samples(1.0, 1.0, res),
    "rectangle": lambda res: _rectangle_samples(np.pi, 1.0, res),
    "triangle": _triangle_samples,
    "horn": _horn_samples,
    "trapezoid": _trapezoid_samples,
    # the spiral's outer arc is its inner arc one turn on
    "spiral": lambda res: _spiral_band(res, 0.5, np.exp(2 * np.pi * _SPIRAL_ALPHA)),
    "shell": lambda res: _spiral_band(res, 0.6, 5.0 / 3.0),
    "arc": _arc_samples,
}

DEMO_DOMAINS = tuple(sorted(_DOMAIN_BUILDERS))


def sample_domain(descriptor: str, resolution: int) -> DomainSamples:
    """Sample one of the built-in demo domains, each of one fixed shape
    (e.g. the rectangle is (0, pi) x (0, 1)).

    resolution is the approximate number of sample points per unit length;
    values below 8 are rejected as too coarse to certify anything; a domain
    of more than MAX_INTERIOR_SAMPLES samples is rejected before any is built.
    """
    if descriptor not in _DOMAIN_BUILDERS:
        raise MeshError(f"unknown domain descriptor {descriptor!r}; "
                        f"available: {', '.join(DEMO_DOMAINS)}")
    if resolution < 8:
        raise ConfigurationError(f"resolution must be >= 8, got {resolution}")
    cols, parts = _DOMAIN_BUILDERS[descriptor](resolution)
    if cols.size > MAX_INTERIOR_SAMPLES:
        raise ConfigurationError(
            f"domain {descriptor!r} at resolution {resolution} needs {cols.size} interior "
            f"samples, above the bound of {MAX_INTERIOR_SAMPLES}")
    # a column's weights are h_t h[c] (times the radius, which grows along
    # the column from lo[c] + h[c]/2), so the spacings and the innermost
    # radii bound them all from below; NaN fails the test too
    inner = cols.lo + 0.5 * cols.h if cols.chart == "polar" else cols.h
    if not (cols.h_t > 0 and np.all(cols.h > 0) and np.all(inner > 0)):
        raise MeshError(f"non-positive quadrature weight in domain {descriptor!r}")
    pts, nrm, tags = zip(*parts)
    return DomainSamples(descriptor, cols, np.vstack(pts), np.vstack(nrm), np.concatenate(tags))
