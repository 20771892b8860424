"""Two-sided Fourier stacks, the oracle of the one-sided FourierField.

A FourierField stores the modes k = 0..N of a real field; mode -k is the
conjugate of mode k. These helpers read and build the full stacks
c_-N..c_N (index k + N) through ``mode(k)``, and redo on them the
two-sided arithmetic that the fields did while they stored both halves.
"""

import numpy as np

from hwp.timefourier import FourierField


def two_sided(field, n=None):
    """The stack c_-n..c_n of field, shape (2n+1, *spatial); n defaults to
    its N, and the modes past N are zero."""
    n = field.n_modes if n is None else n
    return np.stack([field.mode(k) for k in range(-n, n + 1)])


def truncated(field, n_modes):
    """field cut to modes 0..n_modes, or padded with zero modes up to it."""
    c = field.coeffs[:n_modes + 1]
    pad = [(0, n_modes + 1 - len(c))] + [(0, 0)] * (c.ndim - 1)
    return FourierField(field.period, np.pad(c, pad), field.domain)


def random_real_field(rng, period, n, shape, domain="wave"):
    """A field with random complex modes 1..n and a random real mean."""
    size = (n + 1,) + tuple(shape)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    c[0] = c[0].real
    return FourierField(period, c, domain)


def wavenumbers(n):
    return np.arange(-n, n + 1)


def sample(stack, period, times):
    """sum_{k=-n..n} c_k e^{i w k t}: complex samples of a two-sided stack."""
    n = (len(stack) - 1) // 2
    phases = np.exp(2j * np.pi / period * np.outer(times, wavenumbers(n)))
    return (phases @ stack.reshape(len(stack), -1)).reshape((len(times),) + stack.shape[1:])


def derivative(stack, period, order=1):
    """(i w k)^order c_k over k = -n..n."""
    n = (len(stack) - 1) // 2
    ks = wavenumbers(n).reshape((-1,) + (1,) * (stack.ndim - 1))
    return (2j * np.pi / period * ks) ** order * stack


def padded(stack, n):
    """A two-sided stack padded with zero modes up to -n..n."""
    pad = n - (len(stack) - 1) // 2
    return np.pad(stack, [(pad, pad)] + [(0, 0)] * (stack.ndim - 1))


def sobolev_sq(stack, period, s, spatial_norm_sq):
    """sum_{k=-n..n} (1 + (w k)^2)^s ||c_k||^2 with the given spatial norm."""
    n = (len(stack) - 1) // 2
    weights = (1.0 + (2 * np.pi / period * wavenumbers(n)) ** 2) ** s
    return float(sum(w * spatial_norm_sq(c) for w, c in zip(weights, stack)))


def forward(samples, n):
    """Modes -n..n of M uniform samples per period by the full FFT."""
    m = samples.shape[0]
    return (np.fft.fft(samples, axis=0) / m)[wavenumbers(n) % m]
