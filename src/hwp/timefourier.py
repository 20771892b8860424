"""Periodic fields as truncated Fourier series in time.

A FourierField is a real field. It stores per-node complex coefficients
c_k for k = 0..N only, as numpy's rfft does, with the normalization

    c_k = (1/T) int_0^T f(t) e^{-i w k t} dt,   w = 2 pi / T.

The modes k = -N..-1 are implied, c_{-k} = conj(c_k), so the mean c_0 is
real and f(t) = Re(c_0 + 2 sum_{k>=1} c_k e^{i w k t}). Sums over all modes
-N..N become sums over k >= 0 with the weights of ``mode_weights`` (1 for
k = 0, 2 for k > 0); in particular sum_k weight_k ||c_k||^2 equals the time
average of ||f(t)||^2 (Parseval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def mode_weights(self) -> np.ndarray:
        """How often each stored mode counts in a sum over k = -N..N: 1 for
        k = 0, 2 for k > 0."""
        return np.where(self.wavenumbers() == 0, 1.0, 2.0)

    def sample_real(self, times: np.ndarray) -> np.ndarray:
        """Samples Re(c_0 + 2 sum_{k>=1} c_k e^{i w k t}) at the given times,
        shape (len(times), *spatial), in one matrix product; non-finite
        coefficients raise AnalysisError."""
        if not np.all(np.isfinite(self.coeffs)):
            raise AnalysisError("sample_real: field has non-finite coefficients")
        t = np.atleast_1d(np.asarray(times, dtype=float))
        phases = self.mode_weights() * np.exp(1j * self.omega * np.outer(t, self.wavenumbers()))
        out = phases @ self.coeffs.reshape(len(self.coeffs), -1)
        return out.real.reshape((len(t),) + self.spatial_shape)

    def derivative(self, order: int = 1) -> "FourierField":
        ks = self.wavenumbers().reshape((-1,) + (1,) * len(self.spatial_shape))
        factor = (1j * self.omega * ks) ** order
        return FourierField(self.period, factor * self.coeffs, self.domain)

    def scaled(self, factor: float) -> "FourierField":
        """factor times the field; a non-real factor would make it complex
        and raises AnalysisError."""
        if np.imag(factor) != 0:
            raise AnalysisError(f"cannot scale a real field by the non-real factor {factor!r}")
        return FourierField(self.period, factor * self.coeffs, self.domain)

    def _combine(self, other: "FourierField", op, what: str) -> "FourierField":
        """op(self, other), op np.add or np.subtract, into one new array padded
        with zero modes; a mismatch raises AnalysisError before allocating."""
        for name in ("period", "domain", "spatial_shape"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise AnalysisError(f"cannot {what} fields of mismatched {name}: "
                                    f"{mine!r} and {theirs!r}")
        out = np.zeros((max(self.n_modes, other.n_modes) + 1,) + self.spatial_shape,
                       dtype=complex)
        out[:len(self.coeffs)] = self.coeffs
        part = out[:len(other.coeffs)]
        op(part, other.coeffs, out=part)
        return FourierField(self.period, out, self.domain)

    def __add__(self, other: "FourierField") -> "FourierField":
        return self._combine(other, np.add, "add")

    def __sub__(self, other: "FourierField") -> "FourierField":
        return self._combine(other, np.subtract, "subtract")

    @classmethod
    def zeros(cls, period: float, n_modes: int, spatial_shape: tuple[int, ...],
              domain: str) -> "FourierField":
        return cls(period, np.zeros((n_modes + 1,) + spatial_shape, dtype=complex), domain)

    @classmethod
    def from_mode_dict(cls, period: float, n_modes: int, modes: dict[int, np.ndarray],
                       domain: str) -> "FourierField":
        """Build a field from {k: coefficient array}, k = 0..n_modes; mode
        -k is the conjugate of mode k, and a k outside 0..n_modes raises
        AnalysisError."""
        shape = next(iter(modes.values())).shape if modes else ()
        coeffs = np.zeros((n_modes + 1,) + shape, dtype=complex)
        for k, c in modes.items():
            if not 0 <= k <= n_modes:
                raise AnalysisError(f"mode {k} is outside 0..{n_modes}; a real field "
                                    f"stores k >= 0 only")
            coeffs[k] = c
        return cls(period, coeffs, domain)


def hermitian_defect(coeffs: np.ndarray) -> float:
    """max |c_-k - conj(c_k)| / max |c| of a two-sided stack c_-N..c_N
    (index k + N), as coefficient files list it, read pair by pair: 0 when
    every pair is conjugate, nan for non-finite coefficients."""
    n = (len(coeffs) - 1) // 2
    scale = np.max([np.max(np.abs(c)) for c in coeffs], initial=0.0)
    defect = np.max([np.max(np.abs(coeffs[n - k] - np.conj(coeffs[n + k])))
                     for k in range(n + 1)], initial=0.0)
    return float(defect) / max(float(scale), 1e-300)


def time_transform(data, direction: str, *, period: float | None = None,
                   n_modes: int | None = None, domain: str = WAVE,
                   n_samples: int | None = None):
    """Discrete Fourier series on a uniform period grid.

    direction="forward": `data` holds M real samples on t_m = m T / M
    (axis 0); returns a FourierField with N = n_modes (default (M-1)//2),
    from numpy's rfft. Requires M >= 2N+1, otherwise the high modes alias
    and an error is raised; complex samples raise AnalysisError.

    direction="inverse": `data` is a FourierField; returns M real samples
    (M = n_samples, default 2N+1).
    """
    if direction == "forward":
        samples = np.asarray(data)
        if period is None:
            raise AnalysisError("forward transform needs the period")
        if np.iscomplexobj(samples):
            raise AnalysisError("forward transform: samples of a real field must be real")
        m = samples.shape[0]
        n = (m - 1) // 2 if n_modes is None else int(n_modes)
        if m < 2 * n + 1:
            raise AliasingError(
                f"{m} samples cannot resolve modes -{n}..{n}; need >= {2 * n + 1}")
        return FourierField(float(period), np.fft.rfft(samples, axis=0)[:n + 1] / m, domain)
    if direction == "inverse":
        f: FourierField = data
        m = 2 * f.n_modes + 1 if n_samples is None else int(n_samples)
        if m < 2 * f.n_modes + 1:
            raise AliasingError(
                f"{m} samples cannot represent modes up to {f.n_modes}")
        return f.sample_real(np.arange(m) * f.period / m)
    raise AnalysisError(f"unknown transform direction {direction!r}")


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
