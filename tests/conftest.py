"""Helpers shared by the test modules (import them with ``from conftest import ...``)."""

import tracemalloc

import numpy as np


def traced_peak(fn):
    """(peak, result) of fn(): the peak of the memory tracemalloc traces
    (numpy arrays included) while fn runs, above what is traced when it
    starts, in bytes, and what fn returned."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def per_point(jets):
    """A jet_batch dict with every entry as n rows, one per point (n the rows
    of b): an entry of one row is repeated, as writable arrays."""
    n = len(jets["b"])
    return {name: np.broadcast_to(v, (n, *v.shape[1:])).copy() for name, v in jets.items()}
