import math

import numpy as np
import pytest

from vaecomm import ConfigError, DomainError, ShapeMismatchError, Tensor
from vaecomm.channels import ChannelModel, noise_variance
from vaecomm.seeding import derive_seed


def ks_statistic(samples, cdf):
    x = np.sort(samples)
    n = x.size
    c = cdf(x)
    d_plus = np.max(np.arange(1, n + 1) / n - c)
    d_minus = np.max(c - np.arange(0, n) / n)
    return max(d_plus, d_minus)


# -- noise variance ------------------------------------------------------------


def test_noise_variance_reference_points():
    assert noise_variance(0.0, 0.5) == 1.0
    assert noise_variance(10.0, 1.0) == 0.05
    np.testing.assert_allclose(noise_variance(6.0, 2.0), 1.0 / (4.0 * 10.0**0.6), rtol=1e-15)
    np.testing.assert_allclose(noise_variance(6.0, 2.0), 0.06280, rtol=1e-4)


def test_noise_variance_decreases_with_ebno():
    values = [noise_variance(db, 2.0) for db in range(-5, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_noise_variance_rejects_bad_rate():
    with pytest.raises(DomainError):
        noise_variance(10.0, 0.0)
    with pytest.raises(DomainError):
        noise_variance(10.0, -1.0)


@pytest.mark.parametrize("ebno_db", [math.nan, -math.inf])
def test_nan_and_minus_inf_ebno_are_rejected(ebno_db):
    with pytest.raises(DomainError, match="Eb/N0"):
        noise_variance(ebno_db, 2.0)
    with pytest.raises(DomainError, match="Eb/N0"):
        ChannelModel("awgn", ebno_db, 2.0, rng_seed=0)


# -- AWGN ------------------------------------------------------------------------


def test_awgn_noiseless_limit_is_identity():
    ch = ChannelModel("awgn", math.inf, 2.0, rng_seed=0)
    x = np.random.default_rng(0).normal(size=(4, 6, 2))
    out = ch.apply(Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_awgn_empirical_variance_matches_formula():
    ch = ChannelModel("awgn", 6.0, 2.0, rng_seed=1)
    x = Tensor(np.zeros((1000, 100, 10)))  # 1e6 noise entries
    out = ch.apply(x).data
    target = noise_variance(6.0, 2.0)
    assert abs(out.var() / target - 1.0) < 0.01
    assert abs(out.mean()) < 3.0 * math.sqrt(target / out.size)


def test_awgn_gradient_is_identity():
    ch = ChannelModel("awgn", 6.0, 2.0, rng_seed=2)
    x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4)), requires_grad=True)
    y = ch.apply(x)
    (y * Tensor(np.full(y.shape, 2.0))).sum().backward()
    np.testing.assert_array_equal(x.grad, np.full(x.shape, 2.0))


def test_awgn_same_seed_same_noise():
    x = Tensor(np.zeros((2, 5, 4)))
    a = ChannelModel("awgn", 6.0, 2.0, rng_seed=33).apply(x).data
    b = ChannelModel("awgn", 6.0, 2.0, rng_seed=33).apply(x).data
    np.testing.assert_array_equal(a, b)
    c = ChannelModel("awgn", 6.0, 2.0, rng_seed=34).apply(x).data
    assert not np.array_equal(a, c)


def test_awgn_consecutive_calls_draw_fresh_noise():
    ch = ChannelModel("awgn", 6.0, 2.0, rng_seed=3)
    x = Tensor(np.zeros((2, 5, 4)))
    assert not np.array_equal(ch.apply(x).data, ch.apply(x).data)


# -- Rayleigh ----------------------------------------------------------------------


def test_rayleigh_injected_unit_h_noiseless_is_identity():
    ch = ChannelModel("rayleigh", math.inf, 2.0, rng_seed=4)
    x = np.random.default_rng(4).normal(size=(3, 5, 4))
    h = np.zeros((3, 1, 1, 2))
    h[..., 0] = 1.0  # h = 1 + 0j
    out = ch.apply_rayleigh(Tensor(x), h=h)
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_rayleigh_injected_j_rotates_pairs():
    ch = ChannelModel("rayleigh", math.inf, 2.0, rng_seed=5)
    x = np.random.default_rng(5).normal(size=(2, 4, 6))
    h = np.zeros((2, 1, 1, 2))
    h[..., 1] = 1.0  # h = j: (xr + j xi) * j = -xi + j xr
    out = ch.apply_rayleigh(Tensor(x), h=h).data
    np.testing.assert_allclose(out[..., 0::2], -x[..., 1::2], atol=1e-15)
    np.testing.assert_allclose(out[..., 1::2], x[..., 0::2], atol=1e-15)


def test_rayleigh_mean_power_gain_is_unity():
    # E[|h|^2] = 1 with h_re, h_im ~ N(0, 1/2)
    rng = np.random.default_rng(6)
    h = rng.standard_normal((1_000_000, 2)) * math.sqrt(0.5)
    gain = (h**2).sum(axis=1)
    assert abs(gain.mean() - 1.0) < 0.01


def test_rayleigh_magnitude_distribution_ks():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((100_000, 2)) * math.sqrt(0.5)
    mag = np.hypot(h[:, 0], h[:, 1])
    # |h| ~ Rayleigh(scale = 1/sqrt(2)): CDF 1 - exp(-x^2)
    d = ks_statistic(mag, lambda x: 1.0 - np.exp(-(x**2)))
    assert d < 0.01, d


def test_rayleigh_gradient_applies_transposed_fading():
    ch = ChannelModel("rayleigh", math.inf, 2.0, rng_seed=8)
    x = Tensor(np.random.default_rng(8).normal(size=(1, 2, 2)), requires_grad=True)
    h = np.zeros((1, 1, 1, 2))
    h[..., 0], h[..., 1] = 0.6, -0.8
    y = ch.apply_rayleigh(x, h=h)
    g = np.array([[[1.0, 2.0], [3.0, 5.0]]])
    (y * Tensor(g)).sum().backward()
    # d yr/d xr = h_re, d yi/d xr = h_im; d yr/d xi = -h_im, d yi/d xi = h_re
    expect = np.empty_like(g)
    expect[..., 0::2] = 0.6 * g[..., 0::2] + (-0.8) * g[..., 1::2]
    expect[..., 1::2] = 0.8 * g[..., 0::2] + 0.6 * g[..., 1::2]
    np.testing.assert_allclose(x.grad, expect, rtol=1e-12)


def test_rayleigh_block_fading_constant_within_block():
    ch = ChannelModel("rayleigh", math.inf, 2.0, rng_seed=9)
    x = np.ones((4, 8, 2))
    out = ch.apply(Tensor(x)).data
    # noiseless, h constant per block: every position in a block identical
    for b in range(4):
        np.testing.assert_allclose(out[b], np.broadcast_to(out[b, 0], out[b].shape), atol=1e-15)


def test_rayleigh_per_symbol_fading_varies_within_block():
    ch = ChannelModel("rayleigh", math.inf, 2.0, rng_seed=10, per_symbol_fading=True)
    out = ch.apply(Tensor(np.ones((2, 16, 2)))).data
    assert np.ptp(out[0, :, 0]) > 1e-3


def test_rayleigh_rejects_odd_dim():
    ch = ChannelModel("rayleigh", 10.0, 2.0, rng_seed=11)
    with pytest.raises(ShapeMismatchError):
        ch.apply(Tensor(np.zeros((2, 4, 3))))


def test_rayleigh_same_seed_reproducible():
    x = Tensor(np.ones((3, 4, 4)))
    a = ChannelModel("rayleigh", 10.0, 2.0, rng_seed=12).apply(x).data
    b = ChannelModel("rayleigh", 10.0, 2.0, rng_seed=12).apply(x).data
    np.testing.assert_array_equal(a, b)


# -- dispatch and seeds --------------------------------------------------------------


def test_unknown_channel_kind_rejected():
    with pytest.raises(ConfigError):
        ChannelModel("bsc", 10.0, 2.0)


def test_dispatch_matches_direct_call():
    x = Tensor(np.zeros((2, 3, 4)))
    a = ChannelModel("awgn", 6.0, 2.0, rng_seed=13).apply(x).data
    b = ChannelModel("awgn", 6.0, 2.0, rng_seed=13).apply_awgn(x).data
    np.testing.assert_array_equal(a, b)


def test_derived_seeds_are_stable_and_distinct():
    base = 42
    seeds = [derive_seed(base, i) for i in range(100)]
    assert seeds == [derive_seed(base, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert derive_seed(base, 1, 2) != derive_seed(base, 2, 1)


def test_derive_seed_takes_numpy_integers_as_python_ints():
    # np.int64(3) & (2**64 - 1) raised OverflowError
    assert derive_seed(np.int64(3), np.int32(1)) == derive_seed(3, 1)
    assert derive_seed(np.uint64(2**64 - 1), 5) == derive_seed(-1, 5)


def test_derived_streams_do_not_collide():
    a = np.random.default_rng(derive_seed(7, 0)).standard_normal(8)
    b = np.random.default_rng(derive_seed(7, 1)).standard_normal(8)
    assert not np.array_equal(a, b)
