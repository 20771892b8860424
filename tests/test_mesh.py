import numpy as np
import pytest

import hwp
from hwp import mesh
from hwp.errors import ConfigurationError, MeshError
from hwp.fields import _JET_CHUNK


def _interface_unknowns(op):
    """The interface nodes that carry an unknown of the mode operator."""
    w, _ = hwp.split_mode_solution(op, np.ones(op.dimension, dtype=complex))
    return np.count_nonzero(w[0])


def test_tag_counts_5x5x5():
    # 3 interface nodes, 3x3 interior nodes on each side, counted as the
    # unknowns of a mode operator
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 5, 5, 5)
    op = hwp.assemble_coupled_mode(grid, 1, 2 * np.pi)
    assert _interface_unknowns(op) == 3
    assert op.n_wave - _interface_unknowns(op) == 9
    assert op.n_heat == 9


def test_smallest_grid_has_one_interface_node():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 3, 3, 3)
    assert _interface_unknowns(hwp.assemble_coupled_mode(grid, 1, 2 * np.pi)) == 1


def test_spacing_definition():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 65, 65, 65)
    assert grid.hx == pytest.approx(np.pi / 64, abs=0)
    assert grid.hy_w == pytest.approx(1.0 / 64)


def test_interface_row_shared_and_on_axis():
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 7, 5)
    assert np.all(grid.y_w[0] == 0.0)
    assert np.all(grid.y_h[-1] == 0.0)


def test_corner_nodes_are_dirichlet():
    # the two interface-row corners belong to the side walls: a scattered
    # solution vector with no zero entry is still zero there
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 5, 5, 5)
    op = hwp.assemble_coupled_mode(grid, 1, 2 * np.pi)
    w, u = hwp.operators.split_mode_solution(op, np.ones(op.dimension, dtype=complex))
    assert w[0, 0] == w[0, -1] == 0
    assert u[-1, 0] == u[-1, -1] == 0
    assert np.all(w[0, 1:-1] != 0)


def test_degenerate_sizes_rejected():
    with pytest.raises(ConfigurationError):
        hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 2, 5, 5)
    with pytest.raises(ConfigurationError):
        hwp.build_stacked_rectangles(0.0, 1.0, 1.0, 5, 5, 5)


# ---------------------------------------------------------------------------
# demo domain sampling
# ---------------------------------------------------------------------------

def _weight_sum(samples):
    """The sum of the interior weights, chunk by chunk."""
    return float(sum(np.sum(w) for _, w in samples.interior.chunks()))


def test_unit_square_area():
    s = hwp.sample_domain("unit-square", 16)
    assert _weight_sum(s) == pytest.approx(1.0, abs=0.01)


def test_trapezoid_area():
    # exact area of {0 <= x <= 1+y, 0 <= y <= 1} is 3/2
    s = hwp.sample_domain("trapezoid", 32)
    assert _weight_sum(s) == pytest.approx(1.5, abs=0.01)


def test_triangle_vertical_side_normals():
    s = hwp.sample_domain("triangle", 32)
    on_gamma = s.gamma_mask()
    assert np.any(on_gamma)
    normals = s.boundary_normals[on_gamma]
    assert np.allclose(normals, [-1.0, 0.0])


def test_normals_unit_length():
    for name in hwp.DEMO_DOMAINS:
        s = hwp.sample_domain(name, 16)
        lengths = np.linalg.norm(s.boundary_normals, axis=1)
        assert np.max(np.abs(lengths - 1.0)) < 1e-12, name


def test_weights_positive_and_tags_partition():
    for name in hwp.DEMO_DOMAINS:
        s = hwp.sample_domain(name, 16)
        assert np.all(s.interior_weights > 0)
        assert np.all(s.gamma_mask() | s.gamma_w_mask())


@pytest.mark.parametrize("name,exact", [
    ("unit-square", 1.0),
    ("trapezoid", 1.5),
    ("triangle", 0.5),
    ("horn", 1.0 / 3.0),
    ("arc", 1.5 * (2 * np.pi / 3)),
])
def test_area_refinement(name, exact):
    err16 = abs(_weight_sum(hwp.sample_domain(name, 16)) - exact)
    err32 = abs(_weight_sum(hwp.sample_domain(name, 32)) - exact)
    assert err32 <= err16 + 1e-12
    assert err32 <= 0.01 * exact


def test_unknown_descriptor_rejected():
    with pytest.raises(MeshError):
        hwp.sample_domain("pentagon", 16)


def test_coarse_resolution_rejected():
    with pytest.raises(ConfigurationError):
        hwp.sample_domain("unit-square", 4)


# ---------------------------------------------------------------------------
# vectorized sampler against the column-by-column loop it replaced
# ---------------------------------------------------------------------------

def _loop_midpoints(a, b, n):
    h = (b - a) / n
    return a + (np.arange(n) + 0.5) * h, h


def _loop_samples(t0, t1, nt, lo, hi, res, layout):
    """Reference: one Python loop per outer column, scalar bounds."""
    ts, ht = _loop_midpoints(t0, t1, nt)
    pts, wts = [], []
    for t in ts:
        a, b = lo(t), hi(t)
        if b <= a:
            continue
        ss, hs = _loop_midpoints(a, b, max(1, int(np.ceil((b - a) * res))))
        for s in ss:
            if layout == "polar":
                pts.append((s * np.cos(t), s * np.sin(t)))
                wts.append(s * hs * ht)
            elif layout == "xy":
                pts.append((t, s))
                wts.append(ht * hs)
            else:  # outer coordinate is y
                pts.append((s, t))
                wts.append(hs * ht)
    return np.array(pts), np.array(wts)


def _loop_reference(name, res):
    alpha, theta_max = 0.2, 1.5 * np.pi

    def band(r0, r1_factor):
        n_th = max(8, int(np.ceil(theta_max * r1_factor * r0
                                  * np.exp(alpha * theta_max) * res)))
        return (0.0, theta_max, n_th, lambda th: r0 * np.exp(alpha * th),
                lambda th: r1_factor * r0 * np.exp(alpha * th), "polar")

    table = {
        "unit-square": (0.0, 1.0, res, lambda t: 0.0, lambda t: 1.0, "xy"),
        "rectangle": (0.0, np.pi, int(np.ceil(np.pi * res)),
                      lambda t: 0.0, lambda t: 1.0, "xy"),
        "triangle": (-1.0, 0.0, res, lambda t: 0.5 * t, lambda t: -0.5 * t, "xy"),
        "horn": (-1.0, 0.0, res, lambda t: 0.5 * (-t) ** 2.0,
                 lambda t: 1.5 * (-t) ** 2.0, "xy"),
        "trapezoid": (0.0, 1.0, res, lambda t: 0.0, lambda t: 1.0 + t, "yx"),
        "spiral": band(0.5, np.exp(2 * np.pi * alpha)),
        "shell": band(0.6, 5.0 / 3.0),
        "arc": (np.pi / 6, 5 * np.pi / 6,
                max(8, int(np.ceil((5 * np.pi / 6 - np.pi / 6) * 2.0 * res))),
                lambda th: 1.0, lambda th: 2.0, "polar"),
    }
    assert sorted(table) == sorted(hwp.DEMO_DOMAINS)
    t0, t1, nt, lo, hi, layout = table[name]
    return _loop_samples(t0, t1, nt, lo, hi, res, layout)


@pytest.mark.parametrize("res", [16, 32])
@pytest.mark.parametrize("name", hwp.DEMO_DOMAINS)
def test_interior_samples_match_column_loop(name, res):
    pts, wts = _loop_reference(name, res)
    s = hwp.sample_domain(name, res)
    assert s.name == name
    np.testing.assert_array_equal(s.interior_points, pts)
    np.testing.assert_array_equal(s.interior_weights, wts)


@pytest.mark.parametrize("name", hwp.DEMO_DOMAINS)
def test_interior_chunks_are_runs_of_whole_columns(name):
    # each chunk takes as many whole columns as fit in fields._JET_CHUNK
    # samples, and together the chunks hold every sample once
    cols = hwp.sample_domain(name, 96).interior
    sizes = np.array([len(w) for _, w in cols.chunks()])
    ends, col_ends = np.cumsum(sizes), np.cumsum(cols.n)
    assert ends[-1] == cols.size and np.all(sizes <= _JET_CHUNK)
    assert np.all(np.isin(ends, col_ends))
    after = np.searchsorted(col_ends, ends[:-1]) + 1  # the column after each chunk
    assert np.all(sizes[:-1] + cols.n[after] > _JET_CHUNK)


@pytest.mark.parametrize("size", [1, 100, 5000, 10**6])
def test_interior_chunks_of_any_size_are_the_same_samples(size, monkeypatch):
    # a column longer than the chunk size is a chunk of its own
    s = hwp.sample_domain("spiral", 16)
    monkeypatch.setattr(mesh, "_JET_CHUNK", size)
    chunks = list(s.interior.chunks())
    np.testing.assert_array_equal(np.concatenate([p for p, _ in chunks]), s.interior_points)
    np.testing.assert_array_equal(np.concatenate([w for _, w in chunks]), s.interior_weights)
    if size == 1:
        assert len(chunks) == len(s.interior.n)


def test_sample_count_bounded_before_sampling(monkeypatch):
    monkeypatch.setattr(mesh, "MAX_INTERIOR_SAMPLES", 1000)
    with pytest.raises(ConfigurationError) as err:
        hwp.sample_domain("unit-square", 64)
    msg = str(err.value)
    assert all(part in msg for part in ("'unit-square'", "64", "4096", "1000"))
    monkeypatch.setattr(mesh, "MAX_INTERIOR_SAMPLES", 1024)
    assert len(hwp.sample_domain("unit-square", 32).interior_weights) == 1024


# ---------------------------------------------------------------------------
# vectorized curve sampler against the per-sample loop it replaced
# ---------------------------------------------------------------------------

def _loop_curve_boundary(param, t0, t1, outward, tag, res, length_scale):
    """Reference: param and outward called per sample."""
    n = max(2, int(np.ceil(length_scale * res)))
    ts, _ = _loop_midpoints(t0, t1, n)
    pts = np.array([param(t) for t in ts])
    nrms = np.array([outward(t) for t in ts], dtype=float)
    nrms /= np.linalg.norm(nrms, axis=1)[:, None]
    return pts, nrms, np.full(len(ts), tag)


@pytest.mark.parametrize("res", [16, 96])
@pytest.mark.parametrize("name", ["spiral", "shell", "arc", "horn"])
def test_curve_samples_match_per_sample_loop(monkeypatch, name, res):
    calls = []
    curve_boundary = mesh._curve_boundary

    def recording(*args):
        calls.append((curve_boundary(*args), _loop_curve_boundary(*args)))
        return calls[-1][0]

    monkeypatch.setattr(mesh, "_curve_boundary", recording)
    hwp.sample_domain(name, res)
    assert len(calls) == 2
    for got, expected in calls:
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", hwp.DEMO_DOMAINS)
def test_every_demo_domain_passes_the_column_weight_check(name):
    # the check reads the columns; at a few resolutions every built weight
    # is positive too
    for res in range(8, 97):
        cols = hwp.sample_domain(name, res).interior
        if res in (8, 17, 96):
            assert all(np.all(w > 0) for _, w in cols.chunks())


@pytest.mark.parametrize("chart,h_t,lo,h", [
    ("xy", 0.1, [0.0, 0.0], [0.1, 0.0]),        # a zero inner spacing
    ("yx", 0.1, [0.0, 0.0], [0.1, -0.1]),       # a negative one
    ("xy", -0.1, [0.0], [0.1]),                 # a negative outer spacing
    ("polar", 0.1, [1.0, -0.05], [0.1, 0.1]),   # an innermost radius of 0
    ("polar", 0.1, [1.0, -0.3], [0.1, 0.1]),    # a negative one, with positive radii above
    ("xy", 0.1, [0.0], [np.nan]),               # NaN
], ids=["zero-h", "negative-h", "negative-h_t", "zero-radius", "negative-radius", "nan"])
def test_non_positive_column_weight_rejected(chart, h_t, lo, h, monkeypatch):
    n = len(lo)
    cols = mesh.RuledColumns(np.linspace(0.1, 0.2, n), h_t, np.array(lo), np.array(h),
                             np.full(n, 4), chart)
    parts = mesh._rectangle_samples(1.0, 1.0, 8)[1]
    monkeypatch.setitem(mesh._DOMAIN_BUILDERS, "unit-square", lambda res: (cols, parts))
    with pytest.raises(MeshError, match="non-positive quadrature weight"):
        hwp.sample_domain("unit-square", 8)
    # the same columns with every spacing and radius positive pass
    monkeypatch.setitem(mesh._DOMAIN_BUILDERS, "unit-square", lambda res: (
        mesh.RuledColumns(cols.t, 0.1, np.ones(n), np.full(n, 0.1), cols.n, chart), parts))
    hwp.sample_domain("unit-square", 8)
