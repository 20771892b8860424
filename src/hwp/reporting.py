"""Deterministic CSV/JSON writers.

Floats are rendered with %.17g and newlines are always '\\n', so repeated
runs with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

import numpy as np


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def write_grid_csv(path: str, array: np.ndarray) -> None:
    """Matrix-layout CSV of one real nodal field (rows bottom-to-top), in
    the bytes write_csv gives for the same values."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    header = ",".join(f"c{i}" for i in range(array.shape[1]))
    with open(path, "w", newline="\n") as f:
        np.savetxt(f, array, fmt="%.17g", delimiter=",", newline="\n",
                   header=header, comments="")
