"""Per-point field jets, the oracle of the broadcasting ``fields.jet_batch``.

``jet_batch`` gives b one row per point and every other entry a single
row where it does not vary over the points. ``per_point_jets`` is the
evaluation it replaced: every entry with one row per point, each built-in
field written out at every point.
"""

import numpy as np

from hwp.errors import FieldDomainError


def per_point_jets(spec, points):
    """b (n,2), grad (n,2,2), div (n,), grad_div (n,2), lap_div (n,) at the
    n points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    b = np.zeros((n, 2))
    grad = np.zeros((n, 2, 2))
    div = np.zeros(n)
    grad_div = np.zeros((n, 2))
    lap_div = np.zeros(n)

    kind = spec.kind
    if kind == "translate":
        x0, y0 = spec.params
        b[:, 0] = x - x0
        b[:, 1] = y - y0
        grad[:, 0, 0] = 1.0
        grad[:, 1, 1] = 1.0
        div[:] = 2.0
    elif kind == "horn":
        (beta,) = spec.params
        b[:, 0] = beta * x
        b[:, 1] = y
        grad[:, 0, 0] = beta
        grad[:, 1, 1] = 1.0
        div[:] = beta + 1.0
    elif kind == "spiral":
        (alpha,) = spec.params
        b[:, 0] = -y + alpha * x
        b[:, 1] = x + alpha * y
        grad[:, 0, 0] = alpha
        grad[:, 0, 1] = -1.0
        grad[:, 1, 0] = 1.0
        grad[:, 1, 1] = alpha
        div[:] = 2.0 * alpha
    elif kind == "graph-vertical":
        (c0,) = spec.params
        b[:, 1] = y - c0
        grad[:, 1, 1] = 1.0
        div[:] = 1.0
    elif kind == "arc":
        if np.any(y <= 0):
            bad = pts[y <= 0][0]
            raise FieldDomainError(
                f"arc-renormalized field requires y > 0, got point ({bad[0]:g}, {bad[1]:g})")
        r2 = x * x + y * y
        theta = np.arctan2(y, x)
        b[:, 0] = -y * theta
        b[:, 1] = x * theta
        grad[:, 0, 0] = y * y / r2
        grad[:, 0, 1] = -theta - x * y / r2
        grad[:, 1, 0] = theta - x * y / r2
        grad[:, 1, 1] = x * x / r2
        div[:] = 1.0
    return {"b": b, "grad": grad, "div": div, "grad_div": grad_div,
            "lap_div": lap_div}
