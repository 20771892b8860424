import operator
import tracemalloc
import warnings

import numpy as np
import pytest

import hwp
from hwp.errors import AliasingError, AnalysisError
from hwp.timefourier import FourierField

T = 2 * np.pi


def test_round_trip_identity():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((11, 3, 2))
    field = hwp.time_transform(samples, "forward", period=T)
    back = hwp.time_transform(field, "inverse", n_samples=11)
    assert np.max(np.abs(back - samples)) < 1e-12


def test_sin3t_coefficients():
    ts = np.arange(32) * T / 32
    field = hwp.time_transform(np.sin(3 * ts), "forward", period=T, n_modes=5)
    assert field.mode(3) == pytest.approx(-0.5j, abs=1e-14)
    assert field.mode(-3) == pytest.approx(0.5j, abs=1e-14)
    others = [field.mode(k) for k in range(-5, 6) if abs(k) != 3]
    assert np.max(np.abs(others)) < 1e-14


def test_parseval_normalization():
    ts = np.arange(32) * T / 32
    field = hwp.time_transform(np.sin(3 * ts), "forward", period=T, n_modes=5)
    # sum |c_k|^2 equals the time average of f^2, which is 1/2
    assert np.sum(np.abs(field.coeffs) ** 2) == pytest.approx(0.5, abs=1e-14)


def test_aliasing_guard():
    samples = np.zeros(6)
    with pytest.raises(AliasingError):
        hwp.time_transform(samples, "forward", period=T, n_modes=4)
    field = FourierField.zeros(T, 4, (), "wave")
    with pytest.raises(AliasingError):
        hwp.time_transform(field, "inverse", n_samples=5)


def test_mean_decompose_cases():
    shape = (2,)
    const = FourierField.zeros(T, 2, shape, "wave")
    const.coeffs[2] = 3.5
    mean, rest = hwp.mean_decompose(const)
    assert np.all(mean == 3.5)
    assert np.max(np.abs(rest.coeffs)) == 0.0

    sin_t = FourierField.from_mode_dict(T, 2, {1: np.full(shape, -0.5j)}, "wave")
    mean, rest = hwp.mean_decompose(sin_t)
    assert np.max(np.abs(mean)) == 0.0
    assert np.max(np.abs(rest.coeffs - sin_t.coeffs)) == 0.0

    both = FourierField.from_mode_dict(T, 2, {0: np.ones(shape),
                                              1: np.full(shape, -0.5j)}, "wave")
    mean, rest = hwp.mean_decompose(both)
    recomposed = rest.coeffs.copy()
    recomposed[2] += mean
    assert np.max(np.abs(recomposed - both.coeffs)) == 0.0


def test_periodic_antiderivative_closed_form():
    # primitive of sin(k t) is -cos(k t)/k, the mean-free choice
    for k in (1, 3):
        f = FourierField.from_mode_dict(T, 4, {k: np.array(-0.5j)}, "wave")
        prim = hwp.periodic_antiderivative(f, 1)
        # -cos(kt)/k has coefficients -1/(2k) at +-k
        assert prim.mode(k) == pytest.approx(-0.5 / k, abs=1e-14)
        assert prim.mode(-k) == pytest.approx(-0.5 / k, abs=1e-14)


def test_antiderivative_then_derivative_is_identity():
    rng = np.random.default_rng(4)
    f = FourierField.zeros(T, 5, (3,), "wave")
    for k in range(1, 6):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f.coeffs[k + 5] = c
        f.coeffs[-k + 5] = np.conj(c)
    for order in (1, 2):
        prim = hwp.periodic_antiderivative(f, order)
        back = prim.derivative(order)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


def test_constant_field_has_no_periodic_primitive():
    f = FourierField.zeros(T, 2, (), "wave")
    f.coeffs[2] = 1.0
    with pytest.raises(AnalysisError):
        hwp.periodic_antiderivative(f, 1)


def test_hermitian_defect_detects_non_real_fields():
    f = FourierField.zeros(T, 1, (), "wave")
    f.coeffs[2] = 1.0  # mode +1 only
    assert f.hermitian_defect() > 0.5
    f.coeffs[0] = 1.0
    assert f.hermitian_defect() < 1e-15


@pytest.mark.parametrize("live", [(0, 1, 2, 3), (2,), (), (1, -3)])
def test_hermitian_defect_matches_full_formula(live):
    # the pair-by-pair reading against max |c - conj(c reversed)| / max |c|
    rng = np.random.default_rng(len(live))
    f = FourierField.zeros(T, 3, (4, 5), "wave")
    for k in live:
        f.coeffs[3 + k] = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        f.coeffs[3 - k] = np.conj(f.coeffs[3 + k]) * (1.0 + 1e-7 * (k == 1))
    c = f.coeffs
    ref = np.max(np.abs(c - np.conj(c[::-1]))) / max(np.max(np.abs(c)), 1e-300)
    assert f.hermitian_defect() == ref
    f.coeffs[3 + (live[0] if live else 0), 1, 2] = np.nan
    assert np.isnan(f.hermitian_defect())


def test_sample_real_rejects_complex_reconstruction():
    f = FourierField.zeros(T, 1, (), "wave")
    f.coeffs[2] = 1.0
    with pytest.raises(AnalysisError):
        f.sample_real(np.array([0.1, 0.7]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sample_real_rejects_non_finite_coefficients(bad):
    # an infinite coefficient used to reach the matrix product (a warning and
    # NaN snapshots); it is now refused by name before any arithmetic
    f = FourierField.zeros(T, 1, (3,), "wave")
    f.coeffs[0, 1], f.coeffs[2, 1] = 1.0, bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnalysisError, match="^sample_real: .*non-finite"):
            f.sample_real(np.array([0.1, 0.7]))


def test_periodic_antiderivative_rejects_a_non_finite_mean():
    # a NaN mean used to pass the mean-free test, be zeroed and leave a
    # finite primitive
    f = FourierField.zeros(T, 1, (2,), "wave")
    f.coeffs[0] = f.coeffs[2] = 1.0
    f.coeffs[1, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnalysisError, match="^periodic primitive: .*non-finite"):
            hwp.periodic_antiderivative(f, 1)


def _arithmetic_operands(n_a, n_b, shape=(3, 4)):
    rng = np.random.default_rng(n_a + 4 * n_b)

    def field(n):
        size = (2 * n + 1,) + shape
        return FourierField(T, rng.standard_normal(size) + 1j * rng.standard_normal(size),
                            "wave")
    return field(n_a), field(n_b)


@pytest.mark.parametrize("modes", [(2, 2), (1, 3), (3, 0)])
def test_field_arithmetic_matches_padded_sums(modes):
    # bitwise the sums of the zero-padded stacks, a - b being a + (-1) b
    a, b = _arithmetic_operands(*modes)
    n = max(modes)
    pa, pb = a.truncated(n).coeffs, b.truncated(n).coeffs
    assert np.array_equal((a + b).coeffs, pa + pb)
    assert np.array_equal((a - b).coeffs, pa + (-1.0) * pb)
    assert (a - b).n_modes == n and (a - b).domain == "wave"


@pytest.mark.parametrize("op, word", [(operator.add, "add"), (operator.sub, "subtract")])
@pytest.mark.parametrize("change, what", [
    ({"coeffs": np.zeros((5, 1, 4))}, r"spatial_shape: \(3, 4\) and \(1, 4\)"),
    ({"coeffs": np.zeros((5, 3, 5))}, r"spatial_shape: \(3, 4\) and \(3, 5\)"),
    ({"period": 2 * T}, "period"),
    ({"domain": "heat"}, "domain: 'wave' and 'heat'")],
    ids=["broadcastable", "other-grid", "period", "domain"])
def test_field_arithmetic_rejects_mismatched_operands(op, word, change, what):
    a = _arithmetic_operands(2, 2)[0]
    b = FourierField(**{"period": T, "coeffs": np.zeros((5, 3, 4)), "domain": "wave",
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
    # the difference of two 5 x 161^2 stacks holds one stack, not the
    # padded and negated copies (about four stacks)
    a, b = _arithmetic_operands(2, 2, (161, 161))
    stack = a.coeffs.nbytes
    tracemalloc.start()
    try:
        a - b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * stack


def time_product_integral(a, b, weights):
    """int_0^T sum_nodes w a(t) b(t) dt of real fields by the Parseval
    pairing T sum_k <a_k, conj(b_k)>."""
    n = max(a.n_modes, b.n_modes)
    val = np.sum(weights * a.truncated(n).coeffs * np.conj(b.truncated(n).coeffs))
    return float(a.period * val.real)


def test_time_product_integral_matches_quadrature():
    rng = np.random.default_rng(9)
    a = FourierField.zeros(T, 3, (2,), "wave")
    b = FourierField.zeros(T, 3, (2,), "wave")
    for field in (a, b):
        for k in range(0, 4):
            c = rng.standard_normal(2) + (1j * rng.standard_normal(2) if k else 0)
            field.coeffs[k + 3] = c
            field.coeffs[-k + 3] = np.conj(c)
    weights = np.array([0.7, 1.3])
    exact = time_product_integral(a, b, weights)
    ts = np.arange(64) * T / 64
    sa = a.sample_real(ts)
    sb = b.sample_real(ts)
    quad = np.sum(weights[None, :] * sa * sb) * (T / 64)
    assert exact == pytest.approx(quad, rel=1e-12)
