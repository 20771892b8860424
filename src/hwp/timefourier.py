"""Periodic fields as truncated Fourier series in time.

A FourierField stores per-node complex coefficients c_k for k = -N..N with
the normalization

    c_k = (1/T) int_0^T f(t) e^{-i w k t} dt,   w = 2 pi / T,

so that sum_k ||c_k||^2 equals the time average of ||f(t)||^2 (Parseval).
Real fields are Hermitian-symmetric: c_{-k} = conj(c_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, AnalysisError

WAVE = "wave"
HEAT = "heat"
INTERFACE = "interface"


@dataclass
class FourierField:
    period: float
    coeffs: np.ndarray  # complex, shape (2N+1, *spatial), index k+N
    domain: str

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape[0] % 2 != 1:
            raise AnalysisError("coefficient array must cover modes -N..N")

    @property
    def n_modes(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.period

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[1:]

    def mode(self, k: int) -> np.ndarray:
        n = self.n_modes
        if abs(k) > n:
            return np.zeros(self.spatial_shape, dtype=complex)
        return self.coeffs[k + n]

    def wavenumbers(self) -> np.ndarray:
        n = self.n_modes
        return np.arange(-n, n + 1)

    def hermitian_defect(self) -> float:
        """max |c_-k - conj(c_k)| / max |c|, read pair by pair: a pair of
        all-zero modes has no defect and sets no scale (non-finite
        coefficients give nan)."""
        n, c = self.n_modes, self.coeffs
        live = [bool(np.any(x)) for x in c]
        scale = np.max([np.max(np.abs(x)) for x, on in zip(c, live) if on], initial=0.0)
        defect = np.max([np.max(np.abs(c[n - k] - np.conj(c[n + k])))
                         for k in range(n + 1) if live[n - k] or live[n + k]], initial=0.0)
        return float(defect) / max(float(scale), 1e-300)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate the series at arbitrary times; complex result."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        ks = self.wavenumbers()
        phases = np.exp(1j * self.omega * np.outer(t, ks))  # (nt, 2N+1)
        flat = self.coeffs.reshape(self.coeffs.shape[0], -1)
        out = phases @ flat
        return out.reshape((len(t),) + self.spatial_shape)

    def sample_real(self, times: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Real samples; non-finite coefficients, or an imaginary part above
        tol relative to the largest sample, raise AnalysisError."""
        if not np.all(np.isfinite(self.coeffs)):
            raise AnalysisError("sample_real: field has non-finite coefficients")
        s = self.sample(times)
        scale = max(float(np.max(np.abs(s))), 1e-300)
        imag = float(np.max(np.abs(s.imag))) / scale
        if not imag <= tol:
            raise AnalysisError(
                f"reconstruction is not real: relative imaginary part {imag:.3e}")
        return s.real

    def derivative(self, order: int = 1) -> "FourierField":
        ks = self.wavenumbers().reshape((-1,) + (1,) * len(self.spatial_shape))
        factor = (1j * self.omega * ks) ** order
        return FourierField(self.period, factor * self.coeffs, self.domain)

    def truncated(self, n_modes: int) -> "FourierField":
        n = self.n_modes
        if n_modes >= n:
            pad = n_modes - n
            coeffs = np.pad(self.coeffs, [(pad, pad)] + [(0, 0)] * len(self.spatial_shape))
            return FourierField(self.period, coeffs, self.domain)
        sl = slice(n - n_modes, n + n_modes + 1)
        return FourierField(self.period, self.coeffs[sl].copy(), self.domain)

    def scaled(self, factor: complex) -> "FourierField":
        return FourierField(self.period, factor * self.coeffs, self.domain)

    def _combine(self, other: "FourierField", op, what: str) -> "FourierField":
        """op(self, other), op np.add or np.subtract, into one new array padded
        with zero modes; a mismatch raises AnalysisError before allocating."""
        for name in ("period", "domain", "spatial_shape"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise AnalysisError(f"cannot {what} fields of mismatched {name}: "
                                    f"{mine!r} and {theirs!r}")
        n = max(self.n_modes, other.n_modes)
        out = np.zeros((2 * n + 1,) + self.spatial_shape, dtype=complex)
        out[n - self.n_modes:n + self.n_modes + 1] = self.coeffs
        part = out[n - other.n_modes:n + other.n_modes + 1]
        op(part, other.coeffs, out=part)
        return FourierField(self.period, out, self.domain)

    def __add__(self, other: "FourierField") -> "FourierField":
        return self._combine(other, np.add, "add")

    def __sub__(self, other: "FourierField") -> "FourierField":
        return self._combine(other, np.subtract, "subtract")

    @classmethod
    def zeros(cls, period: float, n_modes: int, spatial_shape: tuple[int, ...],
              domain: str) -> "FourierField":
        return cls(period, np.zeros((2 * n_modes + 1,) + spatial_shape, dtype=complex),
                   domain)

    @classmethod
    def from_mode_dict(cls, period: float, n_modes: int, modes: dict[int, np.ndarray],
                       domain: str) -> "FourierField":
        """Build a field from {k: coefficient array}; a mode -k not given
        explicitly is filled with the conjugate of mode k."""
        shape = next(iter(modes.values())).shape if modes else ()
        f = cls.zeros(period, n_modes, shape, domain)
        for k, c in modes.items():
            f.coeffs[k + n_modes] = c
            if -k + n_modes < f.coeffs.shape[0] and (-k) not in modes:
                f.coeffs[-k + n_modes] = np.conj(c)
        return f


def time_transform(data, direction: str, *, period: float | None = None,
                   n_modes: int | None = None, domain: str = WAVE,
                   n_samples: int | None = None):
    """Discrete Fourier series on a uniform period grid.

    direction="forward": `data` holds M samples on t_m = m T / M (axis 0);
    returns a FourierField with N = n_modes (default (M-1)//2). Requires
    M >= 2N+1, otherwise the high modes alias and an error is raised.

    direction="inverse": `data` is a FourierField; returns M real samples
    (M = n_samples, default 2N+1).
    """
    if direction == "forward":
        samples = np.asarray(data)
        if period is None:
            raise AnalysisError("forward transform needs the period")
        m = samples.shape[0]
        n = (m - 1) // 2 if n_modes is None else int(n_modes)
        if m < 2 * n + 1:
            raise AliasingError(
                f"{m} samples cannot resolve modes -{n}..{n}; need >= {2 * n + 1}")
        spectrum = np.fft.fft(samples, axis=0) / m
        return FourierField(float(period), spectrum[np.arange(-n, n + 1) % m], domain)
    if direction == "inverse":
        f: FourierField = data
        m = 2 * f.n_modes + 1 if n_samples is None else int(n_samples)
        if m < 2 * f.n_modes + 1:
            raise AliasingError(
                f"{m} samples cannot represent modes up to {f.n_modes}")
        t = np.arange(m) * f.period / m
        return f.sample_real(t, tol=1e-8)
    raise AnalysisError(f"unknown transform direction {direction!r}")


def mean_decompose(field: FourierField) -> tuple[np.ndarray, FourierField]:
    """Split into the time average (a spatial array) and the mean-free part."""
    mean = field.mode(0).copy()
    rest = FourierField(field.period, field.coeffs.copy(), field.domain)
    rest.coeffs[field.n_modes] = 0.0
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
    ks[field.n_modes] = 1.0  # avoid 0/0; the mean slot is zeroed below
    factor = (1j * field.omega * ks) ** (-order)
    shaped = factor.reshape((-1,) + (1,) * len(field.spatial_shape))
    coeffs = field.coeffs * shaped
    coeffs[field.n_modes] = 0.0
    return FourierField(field.period, coeffs, field.domain)
