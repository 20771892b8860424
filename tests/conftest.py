"""Helpers shared by the test modules (import them with ``from conftest import ...``)."""

import tracemalloc


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
