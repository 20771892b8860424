"""Periodic fields as truncated Fourier series in time.

A FourierField is a real field. It stores per-node complex coefficients
c_k for k = 0..N only, as numpy's rfft does, with the normalization

    c_k = (1/T) int_0^T f(t) e^{-i w k t} dt,   w = 2 pi / T.

The modes k = -N..-1 are implied, c_{-k} = conj(c_k), so the mean c_0 is
real and f(t) = Re(c_0 + 2 sum_{k>=1} c_k e^{i w k t}). Sums over all modes
-N..N become sums over k >= 0 with the weights of ``parseval_weights`` (1
for k = 0, 2 for k > 0); sum_k weight_k ||c_k||^2 is the time average of
||f(t)||^2 (Parseval).

Samples become coefficients one way only, by ``time_transform`` (uniform
samples over a period, through rfft); coefficients become samples by
``add_mode_samples``, one mode at a time, which ``FourierField.sample_real``
sums over the stored modes. A mean c_0 that is not real is rejected when
the field is built and again when it is sampled.

A ``ModeSource`` is a real field that stores no modes: it builds mode k when
asked for it, and ``stored`` builds its modes into a FourierField. Every
forcing a command builds is a ModeSource. A solve reads its forcing through
``period``, ``n_modes``, ``spatial_shape`` and ``mode(k)`` only, which both
classes provide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import AliasingError, AnalysisError

WAVE = "wave"
HEAT = "heat"
INTERFACE = "interface"

# Bound on the imaginary part of a mean c_0, relative to the largest
# coefficient: 2 max |Im c_0| / max |c| is the Hermitian defect of mode 0.
MEAN_IMAG_TOL = 1e-9


@dataclass
class FourierField:
    period: float
    coeffs: np.ndarray  # complex, shape (N+1, *spatial), index k = 0..N
    domain: str

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim == 0 or len(self.coeffs) == 0:
            raise AnalysisError("coefficient array must cover modes 0..N")
        self._check_real_mean()

    def _check_real_mean(self) -> None:
        """Reject a mean c_0 whose Hermitian defect exceeds MEAN_IMAG_TOL; O(grid)
        unless c_0 has an imaginary part."""
        imag = self.coeffs[0].imag
        if np.any(imag):  # NaN passes here; the consumers reject it by name
            defect = (2 * float(np.max(np.abs(imag)))
                      / max(float(np.max(np.abs(self.coeffs))), 1e-300))
            if defect > MEAN_IMAG_TOL:
                raise AnalysisError(f"the mean c_0 of a real field must be real: relative "
                                    f"Hermitian defect {defect:.3e} > {MEAN_IMAG_TOL:.0e}")

    @property
    def n_modes(self) -> int:
        return len(self.coeffs) - 1

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.period

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[1:]

    def mode(self, k: int) -> np.ndarray:
        """c_k for any integer k: conj(c_-k) for k < 0, zero past N."""
        if abs(k) > self.n_modes:
            return np.zeros(self.spatial_shape, dtype=complex)
        return self.coeffs[k] if k >= 0 else np.conj(self.coeffs[-k])

    def wavenumbers(self) -> np.ndarray:
        return np.arange(self.n_modes + 1)

    def sample_real(self, times: np.ndarray) -> np.ndarray:
        """Samples Re(c_0 + 2 sum_{k>=1} c_k e^{i w k t}) at the given times,
        shape (len(times), *spatial): add_mode_samples summed over the stored
        modes; non-finite coefficients, or a mean c_0 made non-real after
        construction, raise AnalysisError."""
        if not np.all(np.isfinite(self.coeffs)):
            raise AnalysisError("sample_real: field has non-finite coefficients")
        self._check_real_mean()
        t = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.zeros((len(t),) + self.spatial_shape)
        for k, c_k in enumerate(self.coeffs):
            add_mode_samples(out, t, self.period, k, c_k)
        return out

    def derivative(self, order: int = 1) -> "FourierField":
        ks = self.wavenumbers().reshape((-1,) + (1,) * len(self.spatial_shape))
        factor = (1j * self.omega * ks) ** order
        return FourierField(self.period, factor * self.coeffs, self.domain)

    def __sub__(self, other: "FourierField") -> "FourierField":
        """self - other into one new array padded with zero modes; a mismatch
        raises AnalysisError before allocating."""
        for name in ("period", "domain", "spatial_shape"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise AnalysisError(f"cannot subtract fields of mismatched {name}: "
                                    f"{mine!r} and {theirs!r}")
        out = np.zeros((max(self.n_modes, other.n_modes) + 1,) + self.spatial_shape,
                       dtype=complex)
        out[:len(self.coeffs)] = self.coeffs
        part = out[:len(other.coeffs)]
        np.subtract(part, other.coeffs, out=part)
        return FourierField(self.period, out, self.domain)

    @classmethod
    def zeros(cls, period: float, n_modes: int, spatial_shape: tuple[int, ...],
              domain: str) -> "FourierField":
        return cls(period, np.zeros((n_modes + 1,) + spatial_shape, dtype=complex), domain)


def parseval_weights(ks: int | np.ndarray) -> float | np.ndarray:
    """How often each mode k >= 0 (an int or an integer-valued array) counts
    in a sum over k = -N..N: 1 for k = 0, 2 for k > 0 (mode -k is the
    conjugate of mode k). Cheap for one int, as the per-mode sampler needs."""
    return 2.0 - (ks == 0)


@dataclass(frozen=True)
class ModeSource:
    """A real field whose modes are built on demand, none stored.

    build(k) returns c_k for 0 <= k <= n_modes, or None for a zero mode;
    ``mode(k)`` reads like ``FourierField.mode``. A consumer that asks for
    one mode at a time holds one mode of the field, whatever n_modes is.
    """

    period: float
    n_modes: int
    spatial_shape: tuple[int, ...]
    domain: str
    build: Callable[[int], np.ndarray | None]

    def mode(self, k: int) -> np.ndarray:
        """c_k for any integer k: conj(c_-k) for k < 0, zero past N; the bits
        of FourierField.mode on the stored field, signed zeros included."""
        if abs(k) > self.n_modes:
            return np.zeros(self.spatial_shape, dtype=complex)
        c = self.build(abs(k))
        c = np.zeros(self.spatial_shape, dtype=complex) if c is None else np.asarray(c, complex)
        return c if k >= 0 else np.conj(c)

    def scaled(self, factor: float) -> "ModeSource":
        """factor times the field, applied to each mode as it is built (zero
        modes too, so a negative factor gives them signed zeros); a non-real
        factor would make the field complex and raises AnalysisError."""
        if np.imag(factor) != 0:
            raise AnalysisError(f"cannot scale a real field by the non-real factor {factor!r}")
        build, shape = self.build, self.spatial_shape
        return replace(self, build=lambda k: factor * (np.zeros(shape, dtype=complex)
                                                       if (c := build(k)) is None else c))

    def stored(self, n_modes: int | None = None) -> FourierField:
        """Modes 0..min(n_modes, N) (all by default) built into a FourierField."""
        n = self.n_modes if n_modes is None else min(n_modes, self.n_modes)
        out = FourierField.zeros(self.period, n, self.spatial_shape, self.domain)
        for k in range(n + 1):
            if (c := self.build(k)) is not None:
                out.coeffs[k] = c
        out._check_real_mean()
        return out


def add_mode_samples(samples: np.ndarray, times: np.ndarray, period: float, k: int,
                     c_k: np.ndarray) -> None:
    """Add mode k's share weight_k Re(c_k e^{i w k t}) of
    ``FourierField.sample_real`` at the given times to samples, shape
    (len(times), *spatial) C-contiguous, in place.

    One BLAS product over the real and imaginary parts of c_k (a view, no
    copy) accumulates into samples; sample_real is this summed over
    k = 0..N.
    """
    c_k = np.ascontiguousarray(c_k, dtype=complex).reshape(-1)
    phase = parseval_weights(k) * np.exp(1j * (2.0 * np.pi / period) * (times * k))
    # samples^T (points x times) += [Re c, Im c] (points x 2) @ [Re p; -Im p] (2 x times)
    out = dgemm(1.0, c_k.view(float).reshape(-1, 2).T, np.stack([phase.real, -phase.imag]),
                beta=1.0, c=samples.reshape(len(times), -1).T, trans_a=1, overwrite_c=1)
    if not np.shares_memory(out, samples):
        raise AnalysisError("add_mode_samples: samples must be a C-contiguous float array")


def hermitian_defect(coeffs: np.ndarray) -> float:
    """max |c_-k - conj(c_k)| / max |c| of a two-sided stack c_-N..c_N
    (index k + N), as coefficient files list it, read pair by pair: 0 when
    every pair is conjugate, nan for non-finite coefficients."""
    n = (len(coeffs) - 1) // 2
    scale = np.max([np.max(np.abs(c)) for c in coeffs], initial=0.0)
    defect = np.max([np.max(np.abs(coeffs[n - k] - np.conj(coeffs[n + k])))
                     for k in range(n + 1)], initial=0.0)
    return float(defect) / max(float(scale), 1e-300)


def time_transform(samples, *, period: float, n_modes: int | None = None,
                   domain: str = WAVE) -> FourierField:
    """Forward discrete Fourier series on a uniform period grid.

    `samples` holds M real samples on t_m = m T / M (axis 0); returns a
    FourierField with N = n_modes (default (M-1)//2), from numpy's rfft.
    Requires M >= 2N+1, otherwise the high modes alias and AliasingError is
    raised; complex samples raise AnalysisError. The way back is
    ``FourierField.sample_real`` at the same times.
    """
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        raise AnalysisError("forward transform: samples of a real field must be real")
    m = samples.shape[0]
    n = (m - 1) // 2 if n_modes is None else int(n_modes)
    if m < 2 * n + 1:
        raise AliasingError(
            f"{m} samples cannot resolve modes -{n}..{n}; need >= {2 * n + 1}")
    return FourierField(float(period), np.fft.rfft(samples, axis=0)[:n + 1] / m, domain)


def mean_decompose(field: FourierField) -> tuple[np.ndarray, FourierField]:
    """Split into the time average (a spatial array) and the mean-free part."""
    mean = field.mode(0).copy()
    rest = FourierField(field.period, field.coeffs.copy(), field.domain)
    rest.coeffs[0] = 0.0
    return mean, rest


def periodic_antiderivative(field: FourierField, order: int = 1) -> FourierField:
    """Mean-free m-th primitive: c_k -> c_k / (i w k)^m for k != 0.

    Only mean-free fields have periodic primitives; a nonzero mean is
    rejected rather than silently subtracted, and so is a non-finite field.
    """
    if not np.all(np.isfinite(field.coeffs)):
        raise AnalysisError("periodic primitive: field has non-finite coefficients")
    scale = max(float(np.max(np.abs(field.coeffs))), 1e-300)
    mean_size = float(np.max(np.abs(field.mode(0))))
    if not mean_size <= 1e-12 * scale:
        raise AnalysisError(
            f"periodic primitive requires a mean-free field; relative mean "
            f"{mean_size / scale:.3e}")
    ks = field.wavenumbers().astype(float)
    ks[0] = 1.0  # avoid 0/0; the mean slot is zeroed below
    factor = (1j * field.omega * ks) ** (-order)
    shaped = factor.reshape((-1,) + (1,) * len(field.spatial_shape))
    coeffs = field.coeffs * shaped
    coeffs[0] = 0.0
    return FourierField(field.period, coeffs, field.domain)
