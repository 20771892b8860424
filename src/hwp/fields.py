"""Multiplier vector fields with closed-form derivatives.

Each built-in field carries exact expressions for its gradient, divergence,
the gradient of the divergence, and the Laplacian of the divergence, all
evaluated at once on an array of points by ``jet_batch``; these feed the
geometric condition checks and the flow-multiplier identity. The available
variants, built by the constructors below or parsed from text by
``parse_field``:

* translate(x0):      b = x - x0
* horn(beta):         b = (beta*x, y)
* spiral(alpha):      b = (-y, x) + alpha*(x, y)
* arc_renormalized(): b = Phi * (-y, x),  Phi = arccos(x / sqrt(x^2+y^2)),
                      only evaluable for y > 0
* graph_vertical(c0): b = (0, y - c0)
* "zero" (text only): b = 0 (the trivial case of the Rayleigh-quotient check)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FieldDomainError

# each field kind with the defaults of its text-form arguments, one per
# argument it takes
_FIELD_ARGS = {"translate": (0.0, 0.0), "horn": (1.0,), "spiral": (0.2,),
               "arc": (), "graph-vertical": (2.0,), "zero": ()}
_KINDS = tuple(_FIELD_ARGS)

# points per jet evaluation of the chunked reductions (the interior margins
# of geometry.check_conditions, the cell-row strips of the multiplier
# identity): about 1.3 MB of jets, so a chunk's arrays stay in cache
_JET_CHUNK = 1 << 14


@dataclass(frozen=True)
class VectorFieldSpec:
    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown field kind {self.kind!r}; available: {', '.join(_KINDS)}")

    def describe(self) -> str:
        if self.params:
            return f"{self.kind}({', '.join(f'{p:g}' for p in self.params)})"
        return self.kind


def translate(x0: tuple[float, float] = (0.0, 0.0)) -> VectorFieldSpec:
    return VectorFieldSpec("translate", (float(x0[0]), float(x0[1])))


def horn(beta: float) -> VectorFieldSpec:
    return VectorFieldSpec("horn", (float(beta),))


def spiral(alpha: float) -> VectorFieldSpec:
    return VectorFieldSpec("spiral", (float(alpha),))


def arc_renormalized() -> VectorFieldSpec:
    return VectorFieldSpec("arc")


def graph_vertical(c0: float) -> VectorFieldSpec:
    return VectorFieldSpec("graph-vertical", (float(c0),))


def jet_batch(spec: VectorFieldSpec, points: np.ndarray) -> dict[str, np.ndarray]:
    """Evaluate the full jet at an array of points, shape (n, 2).

    Returns arrays b (n,2), grad (n,2,2), div (n,), grad_div (n,2),
    lap_div (n,).
    """
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
        theta = np.arctan2(y, x)  # equals arccos(x/r) for y > 0
        b[:, 0] = -y * theta
        b[:, 1] = x * theta
        # grad theta = (-y, x) / r^2
        grad[:, 0, 0] = y * y / r2
        grad[:, 0, 1] = -theta - x * y / r2
        grad[:, 1, 0] = theta - x * y / r2
        grad[:, 1, 1] = x * x / r2
        div[:] = 1.0  # renormalization makes div(Phi b) = 1 identically
    elif kind == "zero":
        pass
    return {"b": b, "grad": grad, "div": div, "grad_div": grad_div,
            "lap_div": lap_div}


def sym_min_eig(grad: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetric part of each 2x2 gradient."""
    a = grad[:, 0, 0]
    d = grad[:, 1, 1]
    off = 0.5 * (grad[:, 0, 1] + grad[:, 1, 0])
    mean = 0.5 * (a + d)
    rad = np.sqrt((0.5 * (a - d)) ** 2 + off**2)
    return mean - rad


def parse_field(text: str) -> VectorFieldSpec:
    """Parse a field description like 'translate:0,0' or 'horn:0.5'.

    Missing trailing arguments take their defaults (``_FIELD_ARGS``). An
    unknown name, an argument that is empty or not a finite number, or
    more arguments than the field takes raises ConfigurationError naming
    the text.
    """
    name, _, argstr = text.partition(":")
    name = name.strip().lower()
    if name not in _FIELD_ARGS:
        raise ConfigurationError(f"unknown field {name!r} in {text!r}")
    defaults = _FIELD_ARGS[name]
    try:
        args = [float(a) for a in argstr.split(",")] if argstr.strip() else []
    except ValueError as exc:
        raise ConfigurationError(f"bad field arguments in {text!r}: {exc}") from exc
    if len(args) > len(defaults):
        raise ConfigurationError(
            f"bad field arguments in {text!r}: {name} takes at most "
            f"{len(defaults)}, got {len(args)}")
    if not np.all(np.isfinite(args)):
        raise ConfigurationError(f"bad field arguments in {text!r}: not finite")
    return VectorFieldSpec(name, tuple(args) + defaults[len(args):])
