"""Kernel evaluation: limits, identities, and the derivative oracle."""

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpe_bounds.dirichlet import (
    cis,
    dirichlet,
    dirichlet_derivative,
    register_chunks,
    squared_derivative_sum,
    squared_kernel_grid,
    squared_kernel_sum,
)

# the package re-exports the function dirichlet under the module's name
kernel = importlib.import_module("qpe_bounds.dirichlet")


def test_limit_at_zero_equals_m():
    for M in (1, 2, 4, 7, 1024):
        assert dirichlet(M, 0.0) == pytest.approx(M, rel=1e-12)


def test_simple_values():
    assert dirichlet(2, np.pi / 2) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert dirichlet(2, np.pi) == pytest.approx(0.0, abs=1e-12)
    assert dirichlet(4, 0.0) == pytest.approx(4.0)


def test_sign_at_period_points():
    # D_M(2 pi k) = M (-1)^{(M-1) k}: even M alternates, odd M never does
    for M, k, want in [(4, 1, -4.0), (4, 2, 4.0), (5, 1, 5.0), (5, 3, 5.0)]:
        assert dirichlet(M, 2.0 * np.pi * k) == pytest.approx(want, rel=1e-10)


def test_continuity_across_singular_points():
    # approach 2 pi k from both sides; the analytic limit must match
    for M in (3, 8, 1024):
        for k in (0, 1, -2):
            x0 = 2.0 * np.pi * k
            eps = 1e-9
            lim = dirichlet(M, x0)
            assert dirichlet(M, x0 + eps) == pytest.approx(lim, rel=1e-6)
            assert dirichlet(M, x0 - eps) == pytest.approx(lim, rel=1e-6)


def test_even_symmetry_and_bound():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-10, 10, 200)
    for M in (1, 2, 16, 129):
        v = dirichlet(M, xs)
        assert np.allclose(v, dirichlet(M, -xs), rtol=1e-12, atol=1e-12)
        assert np.all(np.abs(v) <= M + 1e-9)


def test_csc_bound_away_from_singularities():
    rng = np.random.default_rng(4)
    xs = rng.uniform(0.1, 2.0 * np.pi - 0.1, 300)
    for M in (2, 8, 64):
        assert np.all(dirichlet(M, xs) ** 2 <= 1.0 / np.sin(xs / 2) ** 2 + 1e-9)


def test_vectorized_matches_scalar():
    xs = np.array([-0.3, 0.0, 0.7, np.pi, 2.0 * np.pi])
    v = dirichlet(8, xs)
    for x, got in zip(xs, v):
        assert got == pytest.approx(dirichlet(8, float(x)), rel=1e-14, abs=1e-14)
    assert isinstance(dirichlet(8, 0.3), float)


def test_derivative_zero_at_symmetry_points():
    for M in (1, 2, 4, 32):
        assert dirichlet_derivative(M, 0.0) == 0.0
        assert dirichlet_derivative(M, 2.0 * np.pi) == pytest.approx(0.0, abs=1e-9)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for M in (2, 8, 64, 1024):
        xs = rng.uniform(-6.0, 6.0, 50)
        xs = xs[np.abs(np.sin(xs / 2)) > 1e-3]  # keep the oracle itself stable
        fd = (dirichlet(M, xs + h) - dirichlet(M, xs - h)) / (2 * h)
        got = dirichlet_derivative(M, xs)
        assert np.allclose(got, fd, rtol=1e-5, atol=1e-5 * M**2)


def test_derivative_series_region_is_smooth():
    # walk x through the guarded neighbourhood of a singular point: the
    # derivative must interpolate linearly (slope from the kernel's
    # curvature), with no jump at the series/quotient hand-off
    for M in (16, 1024):
        x0 = 2.0 * np.pi
        offsets = np.linspace(-5e-3 / M, 5e-3 / M, 41)
        vals = dirichlet_derivative(M, x0 + offsets)
        slope = M * (M**2 - 1) / 12.0 * np.abs(offsets)
        mask = np.abs(offsets) > 1e-5 / M
        rel = np.abs(np.abs(vals[mask]) - slope[mask]) / slope[mask]
        assert np.max(rel) < 1e-3


def test_squared_kernel_sum_identity():
    rng = np.random.default_rng(6)
    for M in (1, 2, 4, 16, 256, 1024):
        for th in rng.uniform(-np.pi, np.pi, 5):
            got = squared_kernel_sum(M, th)
            assert got == pytest.approx(M**2, rel=1e-10)


def test_squared_derivative_sum_identity():
    rng = np.random.default_rng(7)
    for M in (2, 4, 16, 256, 1024):
        want = M**2 * (M**2 - 1) / 12.0
        for th in rng.uniform(-np.pi, np.pi, 5):
            got = squared_derivative_sum(M, th)
            assert got == pytest.approx(want, rel=1e-9)


def test_squared_derivative_sum_m1_is_zero():
    assert squared_derivative_sum(1, 0.37) == pytest.approx(0.0, abs=1e-12)


# The oracle's argument theta - 2 pi y / M rounded in double is off by up to
# ~1e-15, which the kernel's slope (~M/4) turns into ~1e-11 of K at n = 16;
# reducing it into [-pi, pi] in extended precision first leaves the oracle
# with its own rounding only.
_PI_LD = np.longdouble("3.14159265358979323846264338327950288")
_EXTENDED = np.finfo(np.longdouble).nmant >= 63


def _grid_oracle(M, theta):
    y = np.arange(M, dtype=np.longdouble)
    x = np.longdouble(theta) - 2 * _PI_LD * y / M
    x = (x - 2 * _PI_LD * np.rint(x / (2 * _PI_LD))).astype(float)
    D = dirichlet(M, x)
    return D**2 / M**2, 2.0 * D * dirichlet_derivative(M, x) / M**2


@st.composite
def _grid_case(draw):
    n = draw(st.integers(1, 16))
    M = 2**n
    kind = draw(st.sampled_from(["random", "bin", "pi"]))
    if kind == "random":
        theta = draw(st.floats(-np.pi, np.pi))
    elif kind == "bin":
        b = draw(st.integers(-M // 2, M // 2))
        theta = 2.0 * np.pi * b / M + draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-9, -1e-9]))
    else:
        theta = draw(st.sampled_from([np.pi, -np.pi]))
    return M, theta


@pytest.mark.skipif(not _EXTENDED, reason="the oracle needs extended-precision arguments")
@settings(max_examples=300, deadline=None)
@given(_grid_case())
def test_squared_kernel_grid_matches_oracle(case):
    M, theta = case
    K, dK = squared_kernel_grid(M, theta, derivative=True)
    want_K, want_dK = _grid_oracle(M, theta)
    assert np.max(np.abs(K - want_K)) <= 1e-12
    assert np.max(np.abs(dK - want_dK)) <= 1e-12 * M
    assert abs(K.sum() - 1.0) <= 1e-12
    assert np.array_equal(squared_kernel_grid(M, theta), K)


def test_squared_kernel_grid_rows_and_slices(monkeypatch):
    M = 1024
    thetas = np.array([[-0.95, 0.0], [2.0 * np.pi * 17 / M, 3.1]])
    K, dK = squared_kernel_grid(M, thetas, derivative=True)
    assert K.shape == dK.shape == (2, 2, M)
    for idx in np.ndindex(thetas.shape):
        row = squared_kernel_grid(M, thetas[idx], derivative=True)
        assert np.array_equal(K[idx], row[0]) and np.array_equal(dK[idx], row[1])
    # the slices come from the one slicer, register_chunks: at a chunk of
    # 128 bins its eight chunks join into the whole grid, bit for bit
    monkeypatch.setattr(kernel, "_CHUNK", 128)
    monkeypatch.setattr(kernel, "_DERIVATIVE_CHUNK", 128)
    parts = [part.copy() for part in register_chunks(10, thetas)]
    assert len(parts) == 8 and np.array_equal(np.concatenate(parts, axis=-1), K)
    pairs = [(k.copy(), d.copy()) for k, d in register_chunks(10, thetas, derivative=True)]
    assert np.array_equal(np.concatenate([k for k, _ in pairs], axis=-1), K)
    assert np.array_equal(np.concatenate([d for _, d in pairs], axis=-1), dK)


def test_squared_kernel_grid_without_the_table(monkeypatch):
    # grids whose doubled table would pass the cap build their angles per
    # call, with the same arithmetic, and never enter the cache
    for M in (256, 1024, 16384):
        cached = squared_kernel_grid(M, [0.3, -2.2], derivative=True)
        kernel._half_angle_table.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_TABLE_BINS", 2 * M - 1)
            uncached = squared_kernel_grid(M, [0.3, -2.2], derivative=True)
        assert kernel._half_angle_table.cache_info().currsize == 0
        assert all(np.array_equal(a, b) for a, b in zip(cached, uncached))


def test_squared_kernel_grid_cache_is_bounded():
    info = kernel._half_angle_table.cache_info()
    assert info.maxsize == 2 and kernel._TABLE_BINS == 1 << 20
    assert kernel._CHUNK == 1 << 15
    kernel._half_angle_table.cache_clear()
    # bins 50062..50069 of a 2^20-bin register lie in its second chunk
    walk = register_chunks(20, [0.3])
    next(walk)
    got = next(walk)[0, 50062 - (1 << 15):50070 - (1 << 15)]
    assert kernel._half_angle_table.cache_info().currsize == 0
    M = 1 << 20
    y = np.arange(50062, 50070)
    want = dirichlet(M, 0.3 - 2.0 * np.pi * y / M) ** 2 / M**2
    assert np.allclose(got, want, rtol=1e-6, atol=1e-15)


def test_half_angle_table_holds_two_alternating_grid_sizes():
    # a uniform diag or gi sweep alternates its QFT rows between T = 1023
    # and 16383 per alpha: each size is built once, not once per switch
    kernel._half_angle_table.cache_clear()
    want = {M: squared_kernel_grid(M, 0.3, derivative=True) for M in (1024, 16384)}
    kernel._half_angle_table.cache_clear()
    for M in (1024, 16384) * 4:
        got = squared_kernel_grid(M, 0.3, derivative=True)
        assert all(np.array_equal(a, b) for a, b in zip(got, want[M]))
    info = kernel._half_angle_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 6, 2)


def _cis_cases():
    rng = np.random.default_rng(19)
    k = np.arange(-200_000, 200_001) * (0.5 * np.pi)
    return {
        "random |x| <= 1e4": rng.uniform(-1e4, 1e4, 1_000_000),
        "float neighbours of k pi/2": np.concatenate(
            [np.nextafter(k, -np.inf), k, np.nextafter(k, np.inf)]
        ),
        "random |x| <= 1e7": rng.uniform(-1e7, 1e7, 1_000_000),
        "|x| from 1e4 to 1e7": np.geomspace(1e4, 1e7, 200_000) * np.tile([1.0, -1.0], 100_000),
    }


@pytest.mark.parametrize("case", list(_cis_cases()))
def test_cis_matches_libm_and_stays_on_the_unit_circle(case):
    x = _cis_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cos, sin = cis(x)
    assert np.max(np.abs(cos - np.cos(x))) <= 2.3e-16
    assert np.max(np.abs(sin - np.sin(x))) <= 2.3e-16
    assert np.max(np.abs(cos)) <= 1.0 and np.max(np.abs(sin)) <= 1.0


def test_cis_sine_keeps_relative_precision_near_zero():
    x = np.geomspace(1e-300, 1e-3, 100_000)
    x = np.concatenate([-x, x])
    cos, sin = cis(x)
    assert np.max(np.abs(sin / np.sin(x) - 1.0)) <= 5e-16
    assert np.max(np.abs(cos - np.cos(x))) <= 1.2e-16


def test_cis_passes_nan_through():
    cos, sin = cis(np.array([np.nan, 0.0, 1.0, np.nan]))
    assert np.array_equal(np.isnan(cos), [True, False, False, True])
    assert np.array_equal(np.isnan(sin), [True, False, False, True])
    assert cos[1] == 1.0 and sin[1] == 0.0
