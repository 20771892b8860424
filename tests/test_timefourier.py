import operator
import tracemalloc
import warnings

import numpy as np
import pytest

import hwp
from hwp import analysis
from hwp.errors import AliasingError, AnalysisError
from hwp.timefourier import FourierField, ModeSource, hermitian_defect

import fourier_oracle as oracle
from conftest import traced_peak

T = 2 * np.pi


def test_round_trip_identity():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((11, 3, 2))
    field = hwp.time_transform(samples, period=T)
    back = field.sample_real(np.arange(11) * T / 11)
    assert np.max(np.abs(back - samples)) < 1e-12


def test_sin3t_coefficients():
    ts = np.arange(32) * T / 32
    field = hwp.time_transform(np.sin(3 * ts), period=T, n_modes=5)
    assert field.mode(3) == pytest.approx(-0.5j, abs=1e-14)
    assert field.mode(-3) == pytest.approx(0.5j, abs=1e-14)
    others = [field.mode(k) for k in range(-5, 6) if abs(k) != 3]
    assert np.max(np.abs(others)) < 1e-14


def test_parseval_normalization():
    ts = np.arange(32) * T / 32
    field = hwp.time_transform(np.sin(3 * ts), period=T, n_modes=5)
    # sum |c_k|^2 over k = -N..N equals the time average of f^2, which is 1/2
    total = sum(np.abs(field.mode(k)) ** 2 for k in range(-5, 6))
    assert total == pytest.approx(0.5, abs=1e-14)


def test_aliasing_guard():
    samples = np.zeros(6)
    with pytest.raises(AliasingError):
        hwp.time_transform(samples, period=T, n_modes=4)


def test_mean_decompose_cases():
    shape = (2,)
    const = oracle.from_modes(T, 2, {0: np.full(shape, 3.5)}, "wave")
    mean, rest = hwp.mean_decompose(const)
    assert np.all(mean == 3.5)
    assert np.max(np.abs(oracle.two_sided(rest))) == 0.0

    sin_t = oracle.from_modes(T, 2, {1: np.full(shape, -0.5j)}, "wave")
    mean, rest = hwp.mean_decompose(sin_t)
    assert np.max(np.abs(mean)) == 0.0
    assert np.max(np.abs(oracle.two_sided(rest) - oracle.two_sided(sin_t))) == 0.0

    both = oracle.from_modes(T, 2, {0: np.ones(shape), 1: np.full(shape, -0.5j)}, "wave")
    mean, rest = hwp.mean_decompose(both)
    recomposed = oracle.two_sided(rest)
    recomposed[2] += mean
    assert np.max(np.abs(recomposed - oracle.two_sided(both))) == 0.0


def test_periodic_antiderivative_closed_form():
    # primitive of sin(k t) is -cos(k t)/k, the mean-free choice
    for k in (1, 3):
        f = oracle.from_modes(T, 4, {k: np.array(-0.5j)}, "wave")
        prim = hwp.periodic_antiderivative(f, 1)
        # -cos(kt)/k has coefficients -1/(2k) at +-k
        assert prim.mode(k) == pytest.approx(-0.5 / k, abs=1e-14)
        assert prim.mode(-k) == pytest.approx(-0.5 / k, abs=1e-14)


def test_antiderivative_then_derivative_is_identity():
    rng = np.random.default_rng(4)
    f = FourierField.zeros(T, 5, (3,), "wave")
    for k in range(1, 6):
        f.coeffs[k] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for order in (1, 2):
        prim = hwp.periodic_antiderivative(f, order)
        back = prim.derivative(order)
        assert np.max(np.abs(oracle.two_sided(back) - oracle.two_sided(f))) < 1e-12


def test_constant_field_has_no_periodic_primitive():
    f = FourierField.zeros(T, 2, (), "wave")
    f.coeffs[0] = 1.0
    with pytest.raises(AnalysisError):
        hwp.periodic_antiderivative(f, 1)


def test_hermitian_defect_detects_non_real_fields():
    # a two-sided stack, as a coefficient file lists it
    c = np.zeros(3, dtype=complex)
    c[2] = 1.0  # mode +1 only
    assert hermitian_defect(c) > 0.5
    c[0] = 1.0
    assert hermitian_defect(c) < 1e-15


@pytest.mark.parametrize("live", [(0, 1, 2, 3), (2,), (), (1, -3)])
def test_hermitian_defect_matches_full_formula(live):
    # the pair-by-pair reading against max |c - conj(c reversed)| / max |c|
    rng = np.random.default_rng(len(live))
    c = np.zeros((7, 4, 5), dtype=complex)
    for k in live:
        c[3 + k] = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        c[3 - k] = np.conj(c[3 + k]) * (1.0 + 1e-7 * (k == 1))
    ref = np.max(np.abs(c - np.conj(c[::-1]))) / max(np.max(np.abs(c)), 1e-300)
    assert hermitian_defect(c) == ref
    c[3 + (live[0] if live else 0), 1, 2] = np.nan
    assert np.isnan(hermitian_defect(c))


def test_sample_real_rejects_complex_reconstruction():
    # a non-real mean is the one complex reconstruction the storage can
    # hold; the field refuses it by name when it is built, and a source
    # refuses a non-real scale factor the same way
    with pytest.raises(AnalysisError, match="^the mean c_0 of a real field must be real"):
        FourierField(T, np.array([1.0 + 1e-6j, 0.5]), "wave")
    f = FourierField(T, np.array([1.0 + 1e-12j, 0.5]), "wave")  # round-off passes
    assert f.sample_real(np.array([0.0]))[0] == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(AnalysisError, match="^cannot scale a real field by the non-real"):
        ModeSource(T, f.n_modes, f.spatial_shape, f.domain, f.mode).scaled(1j)


def test_sample_real_rejects_a_mean_made_non_real_after_construction():
    # the coefficients stay writable after the check at construction; a
    # non-real mean written then used to be dropped by the real part
    f = FourierField(T, np.array([1.0, 0.5]), "wave")
    f.coeffs[0] = 1j
    with pytest.raises(AnalysisError, match="^the mean c_0 of a real field must be real"):
        f.sample_real(np.array([0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sample_real_rejects_non_finite_coefficients(bad):
    # an infinite coefficient used to reach the matrix product (a warning and
    # NaN snapshots); it is now refused by name before any arithmetic
    f = FourierField.zeros(T, 1, (3,), "wave")
    f.coeffs[0, 1], f.coeffs[1, 1] = 1.0, bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnalysisError, match="^sample_real: .*non-finite"):
            f.sample_real(np.array([0.1, 0.7]))


def test_periodic_antiderivative_rejects_a_non_finite_mean():
    # a NaN mean used to pass the mean-free test, be zeroed and leave a
    # finite primitive
    f = FourierField.zeros(T, 1, (2,), "wave")
    f.coeffs[1] = 1.0
    f.coeffs[0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnalysisError, match="^periodic primitive: .*non-finite"):
            hwp.periodic_antiderivative(f, 1)


def _arithmetic_operands(n_a, n_b, shape=(3, 4)):
    rng = np.random.default_rng(n_a + 4 * n_b)

    return (oracle.random_real_field(rng, T, n_a, shape),
            oracle.random_real_field(rng, T, n_b, shape))


@pytest.mark.parametrize("modes", [(2, 2), (1, 3), (3, 0)])
def test_field_arithmetic_matches_padded_sums(modes):
    # bitwise the sums of the zero-padded stacks, a - b being a + (-1) b
    a, b = _arithmetic_operands(*modes)
    n = max(modes)
    pa, pb = oracle.two_sided(a, n), oracle.two_sided(b, n)
    assert np.array_equal(oracle.two_sided(a - b), pa + (-1.0) * pb)
    assert (a - b).n_modes == n and (a - b).domain == "wave"


@pytest.mark.parametrize("op, word", [(operator.sub, "subtract")])
@pytest.mark.parametrize("change, what", [
    ({"coeffs": np.zeros((3, 1, 4))}, r"spatial_shape: \(3, 4\) and \(1, 4\)"),
    ({"coeffs": np.zeros((3, 3, 5))}, r"spatial_shape: \(3, 4\) and \(3, 5\)"),
    ({"period": 2 * T}, "period"),
    ({"domain": "heat"}, "domain: 'wave' and 'heat'")],
    ids=["broadcastable", "other-grid", "period", "domain"])
def test_field_arithmetic_rejects_mismatched_operands(op, word, change, what):
    a = _arithmetic_operands(2, 2)[0]
    b = FourierField(**{"period": T, "coeffs": np.zeros((3, 3, 4)), "domain": "wave",
                        **change})
    with pytest.raises(AnalysisError, match=f"^cannot {word} fields of mismatched {what}"):
        op(a, b)


def test_field_arithmetic_refuses_before_allocating():
    a = FourierField.zeros(T, 2, (200, 200), "wave")
    b = FourierField.zeros(T, 2, (1, 200), "wave")
    tracemalloc.start()
    try:
        with pytest.raises(AnalysisError):
            a - b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the result would be 3.2 MB


def test_field_difference_allocates_only_its_result():
    # the difference of two 3 x 161^2 stacks holds one stack, not the
    # padded and negated copies (about four stacks)
    a, b = _arithmetic_operands(2, 2, (161, 161))
    stack = a.coeffs.nbytes
    peak, _ = traced_peak(lambda: a - b)
    assert peak <= 1.1 * stack


def time_product_integral(a, b, weights):
    """int_0^T sum_nodes w a(t) b(t) dt of real fields by the Parseval
    pairing T sum_{k=-n..n} <a_k, conj(b_k)>."""
    n = max(a.n_modes, b.n_modes)
    val = np.sum(weights * oracle.two_sided(a, n) * np.conj(oracle.two_sided(b, n)))
    return float(a.period * val.real)


def test_time_product_integral_matches_quadrature():
    rng = np.random.default_rng(9)
    a = FourierField.zeros(T, 3, (2,), "wave")
    b = FourierField.zeros(T, 3, (2,), "wave")
    for field in (a, b):
        for k in range(0, 4):
            field.coeffs[k] = rng.standard_normal(2) + (1j * rng.standard_normal(2) if k else 0)
    weights = np.array([0.7, 1.3])
    exact = time_product_integral(a, b, weights)
    ts = np.arange(64) * T / 64
    sa = a.sample_real(ts)
    sb = b.sample_real(ts)
    quad = np.sum(weights[None, :] * sa * sb) * (T / 64)
    assert exact == pytest.approx(quad, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_one_sided_fields_match_two_sided_oracle(n):
    # every operation on the stored modes k >= 0 against the two-sided
    # arithmetic over k = -N..N that the fields did before
    from hwp import quadrature as quad
    grid = hwp.build_stacked_rectangles(np.pi, 1.0, 1.0, 9, 7, 5)
    shape = (grid.ny_w, grid.nx)
    rng = np.random.default_rng(10 + n)
    a = oracle.random_real_field(rng, T, n, shape)
    b = oracle.random_real_field(rng, T, n + 1, shape)
    sa, sb = oracle.two_sided(a), oracle.two_sided(b)

    def close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1e-300)

    times = np.linspace(0.0, T, 2 * n + 4, endpoint=False) + 0.3
    ref = oracle.sample(sa, T, times)
    assert np.max(np.abs(ref.imag)) <= 1e-13 * np.max(np.abs(ref))
    close(a.sample_real(times), ref.real)
    for order in (1, 2):
        close(oracle.two_sided(a.derivative(order)), oracle.derivative(sa, T, order))
    close(oracle.two_sided(b - a), sb - oracle.padded(sa, n + 1))

    mass = quad.trap_mass(grid.ny_w, grid.nx, grid.hx, grid.hy_w)
    norms = {"l2": lambda c: np.sum(mass * np.abs(c) ** 2),
             "h1": lambda c: quad.gradient_energy(c, grid.hx, grid.hy_w)}
    for flavor, norm_sq in norms.items():
        for s in (0.0, 1.0, -0.5):
            got = analysis.sobolev_time_norm(a, s, grid, flavor)
            assert got == pytest.approx(np.sqrt(oracle.sobolev_sq(sa, T, s, norm_sq)),
                                        rel=1e-13, abs=0)

    m = 2 * n + 3
    samples = a.sample_real(np.arange(m) * T / m)
    close(oracle.two_sided(hwp.time_transform(samples, period=T, n_modes=n)),
          oracle.forward(samples, n))
    close(samples, oracle.sample(sa, T, np.arange(m) * T / m).real)

    # Parseval: int_0^T sum_nodes mass a(t) b(t) dt = T sum_{k=-N..N} <a_k, conj(b_k)>
    ks, got = [], 0.0
    for k, weight_k, c in analysis._parseval_modes(T, {"a": a, "b": b}):
        ks.append(k)
        got += weight_k * np.sum(mass * analysis._pair(c["a"], c["b"]))
    ref = T * np.sum(mass * oracle.padded(sa, n + 1) * np.conj(sb)).real
    assert got == pytest.approx(ref, rel=1e-13, abs=0)
    assert ks == list(range(n + 2))  # the modes either field carries


def test_forward_transform_refuses_complex_samples():
    with pytest.raises(AnalysisError, match="samples of a real field must be real"):
        hwp.time_transform(np.ones(5, dtype=complex), period=T)
