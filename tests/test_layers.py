import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vaecomm import DegenerateSignalError, DomainError, ShapeMismatchError, Tensor, finite_difference_check
from vaecomm.layers import (
    BN_EPSILON,
    BN_MOMENTUM,
    BatchNorm1D,
    Conv1D,
    GaussianSampling,
    PowerNormalization,
    elu,
    softmax,
)


# |a - b| <= F32_TOL * max(1, |b|): a float32 result against its formula
F32_TOL = 8 * np.finfo(np.float32).eps


def assert_close_f32(a, b):
    assert np.all(np.abs(a - b) <= F32_TOL * np.maximum(1.0, np.abs(b)))


def _linear_probe(rng, shape):
    # fixed random functional so gradients are nondegenerate
    return Tensor(rng.normal(size=shape))


# -- Conv1D ------------------------------------------------------------------


def test_conv_needs_a_generator_for_its_weights():
    with pytest.raises(TypeError, match="rng"):
        Conv1D(3, 2)


def test_conv_kernel1_is_positionwise_affine():
    conv = Conv1D(3, 2, rng=np.random.default_rng(0))
    conv.weight.data[:] = 0.0
    conv.weight.data[0, 1, 0] = 1.0  # out0 = in1
    conv.weight.data[1, 2, 0] = 2.0  # out1 = 2*in2
    conv.bias.data[:] = [0.5, -0.5]
    x = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
    out = conv(Tensor(x))
    np.testing.assert_allclose(out.data[..., 0], x[..., 1] + 0.5)
    np.testing.assert_allclose(out.data[..., 1], 2.0 * x[..., 2] - 0.5)


def test_conv_output_shape_and_seeded_init():
    a = Conv1D(4, 8, rng=np.random.default_rng(42))
    b = Conv1D(4, 8, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(a.weight.data, b.weight.data)
    assert a.weight.shape == (8, 4, 1)
    assert a.bias.shape == (8,)
    assert np.all(a.bias.data == 0.0)
    out = a(Tensor(np.zeros((5, 7, 4))))
    assert out.shape == (5, 7, 8)


def test_conv_kernel1_commutes_with_position_permutation():
    rng = np.random.default_rng(1)
    conv = Conv1D(3, 5, rng=rng)
    x = rng.normal(size=(2, 6, 3))
    perm = rng.permutation(6)
    out = conv(Tensor(x)).data
    out_perm = conv(Tensor(x[:, perm, :])).data
    np.testing.assert_array_equal(out[:, perm, :], out_perm)


def test_conv_channel_mismatch_names_counts():
    conv = Conv1D(3, 2, rng=np.random.default_rng(0))
    with pytest.raises(ShapeMismatchError) as err:
        conv(Tensor(np.zeros((1, 4, 5))))
    assert "5" in str(err.value) and "3" in str(err.value)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    conv = Conv1D(3, 4, rng=rng)
    x = rng.normal(size=(2, 6, 3))
    probe = _linear_probe(rng, (2, 6, 4))

    report = finite_difference_check(lambda t: (conv(t) * probe).sum(), Tensor(x))
    assert report.passed, ("input", report.max_rel_err)

    xc = Tensor(x)

    def f_weight(w):
        conv.weight = w
        return (conv(xc) * probe).sum()

    report = finite_difference_check(f_weight, Tensor(conv.weight.data.copy()))
    assert report.passed, ("weight", report.max_rel_err)

    def f_bias(b):
        conv.bias = b
        return (conv(xc) * probe).sum()

    report = finite_difference_check(f_bias, Tensor(conv.bias.data.copy()))
    assert report.passed, ("bias", report.max_rel_err)


def test_conv_returns_no_input_gradient_for_a_constant_input():
    rng = np.random.default_rng(12)
    conv = Conv1D(3, 4, rng=rng)
    g = rng.normal(size=(2, 5, 4))
    gx, gw, gb = conv(Tensor(rng.normal(size=(2, 5, 3))))._grad_fn(g)
    assert gx is None
    assert gw.shape == (4, 3, 1) and gb.shape == (4,)
    gx, _, _ = conv(Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True))._grad_fn(g)
    assert gx.shape == (2, 5, 3)


# -- BatchNorm1D ---------------------------------------------------------------


def test_batchnorm_train_normalizes_channels():
    rng = np.random.default_rng(2)
    bn = BatchNorm1D(3)
    x = rng.normal(loc=5.0, scale=3.0, size=(8, 10, 3))
    out = bn(Tensor(x)).data
    var = x.var(axis=(0, 1))
    np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.var(axis=(0, 1)), var / (var + BN_EPSILON), atol=1e-6)


def test_batchnorm_running_stats_update_rule():
    bn = BatchNorm1D(2)
    x = np.random.default_rng(3).normal(loc=4.0, size=(16, 5, 2)).astype(np.float32)
    bn(Tensor(x))
    x = x.astype(np.float64)
    expect_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=(0, 1))
    expect_var = 0.99 * 1.0 + 0.01 * x.var(axis=(0, 1))
    assert bn.running_mean.dtype == bn.running_var.dtype == np.float32
    assert_close_f32(bn.running_mean, expect_mean)
    assert_close_f32(bn.running_var, expect_var)
    assert np.all(bn.running_var > 0.0)


def test_batchnorm_eval_with_unit_stats_is_identity_up_to_epsilon():
    bn = BatchNorm1D(4)
    bn.training = False
    x = np.random.default_rng(4).normal(size=(3, 6, 4)).astype(np.float32)
    out = bn(Tensor(x)).data
    np.testing.assert_allclose(out, x, rtol=1e-3, atol=1e-6)
    # and the affine form (x - 0) / sqrt(1 + eps), to float32 rounding
    assert_close_f32(out, x.astype(np.float64) / np.sqrt(1.0 + BN_EPSILON))


def test_batchnorm_eval_is_deterministic():
    bn = BatchNorm1D(2)
    bn.training = False
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 2)))
    np.testing.assert_array_equal(bn(x).data, bn(x).data)


def test_batchnorm_batch_of_one_raises_in_train_mode():
    bn = BatchNorm1D(2)
    with pytest.raises(DomainError):
        bn(Tensor(np.zeros((1, 5, 2))))
    bn.training = False
    bn(Tensor(np.zeros((1, 5, 2))))  # fine in eval mode


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_gradients_match_finite_differences(training):
    rng = np.random.default_rng(6)
    bn = BatchNorm1D(3)
    bn.training = training
    bn.gamma.data[:] = rng.normal(size=3)
    bn.shift.data[:] = rng.normal(size=3)
    bn.running_mean = rng.normal(size=3)
    bn.running_var = rng.uniform(0.5, 2.0, size=3)
    x = rng.normal(size=(4, 5, 3))
    probe = _linear_probe(rng, (4, 5, 3))
    xc = Tensor(x)

    report = finite_difference_check(lambda t: (bn(t) * probe).sum(), Tensor(x))
    assert report.passed, ("input", report.max_rel_err)

    def f_gamma(g):
        bn.gamma = g
        return (bn(xc) * probe).sum()

    report = finite_difference_check(f_gamma, Tensor(bn.gamma.data.copy()))
    assert report.passed, ("gamma", report.max_rel_err)

    def f_shift(s):
        bn.shift = s
        return (bn(xc) * probe).sum()

    report = finite_difference_check(f_shift, Tensor(bn.shift.data.copy()))
    assert report.passed, ("shift", report.max_rel_err)


def _batchnorm_composed(x, gamma, shift, running_mean, running_var, g, *,
                        training, momentum, epsilon):
    """The textbook formulas BatchNorm1D replaced: its bit-for-bit oracle.

    Returns (out, running_mean, running_var, gx, ggamma, gshift).
    """
    if training:
        mean = x.mean(axis=(0, 1))
        var = x.var(axis=(0, 1))
        running_mean = momentum * running_mean + (1.0 - momentum) * mean
        running_var = momentum * running_var + (1.0 - momentum) * var
    else:
        mean, var = running_mean, running_var
    inv = 1.0 / np.sqrt(var + epsilon)
    x_hat = (x - mean) * inv
    out = gamma * x_hat + shift
    n = x.shape[0] * x.shape[1]
    ggamma = (g * x_hat).sum(axis=(0, 1))
    gshift = g.sum(axis=(0, 1))
    if training:
        gx = (gamma * inv) * (g - g.mean(axis=(0, 1)) - x_hat * (g * x_hat).sum(axis=(0, 1)) / n)
    else:
        gx = g * (gamma * inv)
    return out, running_mean, running_var, gx, ggamma, gshift


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(2, 9), length=st.integers(1, 12), channels=st.integers(1, 40),
       training=st.booleans(), seed=st.integers(0, 2**16),
       dtype=st.sampled_from([np.float32, np.float64]))
@example(batch=64, length=10, channels=256, training=True, seed=0, dtype=np.float32)
@example(batch=64, length=10, channels=256, training=True, seed=0, dtype=np.float64)
def test_batchnorm_matches_the_composed_formulas_bit_for_bit(batch, length, channels,
                                                             training, seed, dtype):
    rng = np.random.default_rng(seed)
    bn = BatchNorm1D(channels)
    bn.training = training
    bn.gamma.data = rng.normal(size=channels).astype(dtype)
    bn.shift.data = rng.normal(size=channels).astype(dtype)
    bn.running_mean = rng.normal(size=channels).astype(dtype)
    bn.running_var = rng.uniform(0.1, 3.0, size=channels).astype(dtype)
    x = rng.normal(loc=rng.normal(size=channels) * 4.0, size=(batch, length, channels)) * 2.0
    x = x.astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    want = _batchnorm_composed(x, bn.gamma.data, bn.shift.data, bn.running_mean,
                               bn.running_var, g, training=training,
                               momentum=BN_MOMENTUM, epsilon=BN_EPSILON)

    xt = Tensor(x, requires_grad=True)
    out = bn(xt)
    (out * Tensor(g)).sum().backward()
    got = (out.data, bn.running_mean, bn.running_var, xt.grad, bn.gamma.grad, bn.shift.grad)
    for name, a, b in zip(("out", "running_mean", "running_var", "gx", "ggamma", "gshift"),
                          got, want):
        assert np.array_equal(a, b), name


# -- GaussianSampling ----------------------------------------------------------


def test_sampling_eval_mode_returns_mu():
    layer = GaussianSampling(4, seed=0)
    layer.training = False
    mu = Tensor(np.random.default_rng(7).normal(size=(2, 3, 4)))
    out = layer(mu, Tensor(np.zeros((2, 3, 4))))
    np.testing.assert_array_equal(out.data, mu.data)
    out2 = layer(mu, Tensor(np.zeros((2, 3, 4))))
    np.testing.assert_array_equal(out.data, out2.data)


def test_sampling_same_seed_same_draws():
    mu = Tensor(np.zeros((2, 3, 4)))
    lv = Tensor(np.zeros((2, 3, 4)))
    a = GaussianSampling(4, seed=123)(mu, lv).data
    b = GaussianSampling(4, seed=123)(mu, lv).data
    np.testing.assert_array_equal(a, b)
    c = GaussianSampling(4, seed=124)(mu, lv).data
    assert not np.array_equal(a, c)


def test_sampling_injected_eps_formula():
    layer = GaussianSampling(2, seed=0)
    mu = Tensor(np.array([[[1.0, -1.0]]]))
    lv = Tensor(np.array([[[0.0, np.log(4.0)]]]))
    eps = np.array([[[0.5, 2.0]]])
    out = layer(mu, lv, eps=eps)
    np.testing.assert_allclose(out.data, [[[1.5, 3.0]]], rtol=1e-12)


def test_sampling_moments_against_target_distribution():
    # 1e6 draws through h = mu + sigma * eps
    layer = GaussianSampling(1, seed=99)
    n = 1_000_000
    mu = Tensor(np.full((n, 1, 1), 0.3))
    lv = Tensor(np.full((n, 1, 1), np.log(2.0)))  # sigma^2 = 2
    h = layer(mu, lv).data.ravel()
    assert abs(h.mean() - 0.3) < 0.004
    assert abs(h.var() / 2.0 - 1.0) < 0.01


def test_sampling_shape_mismatch():
    layer = GaussianSampling(4, seed=0)
    with pytest.raises(ShapeMismatchError):
        layer(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 3, 4))))
    with pytest.raises(ShapeMismatchError):
        layer(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 3))))


def test_sampling_gradients_with_fixed_eps():
    rng = np.random.default_rng(8)
    layer = GaussianSampling(3, seed=0)
    eps = rng.normal(size=(2, 4, 3))
    lv = Tensor(rng.normal(size=(2, 4, 3)))
    mu = Tensor(rng.normal(size=(2, 4, 3)))
    probe = _linear_probe(rng, (2, 4, 3))

    report = finite_difference_check(lambda t: (layer(t, lv, eps=eps) * probe).sum(), mu)
    assert report.passed, ("mu", report.max_rel_err)
    report = finite_difference_check(lambda t: (layer(mu, t, eps=eps) * probe).sum(), lv)
    assert report.passed, ("logvar", report.max_rel_err)


# -- PowerNormalization ----------------------------------------------------------


def test_power_norm_unit_mean_square():
    rng = np.random.default_rng(9)
    norm = PowerNormalization()
    x = rng.normal(scale=4.0, size=(6, 10, 4))
    out = norm(Tensor(x)).data
    per_block = (out ** 2).mean(axis=(1, 2))
    np.testing.assert_allclose(per_block, 1.0, atol=1e-9)


def test_power_norm_is_idempotent():
    rng = np.random.default_rng(10)
    norm = PowerNormalization()
    once = norm(Tensor(rng.normal(size=(3, 5, 2)))).data
    twice = norm(Tensor(once)).data
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_power_norm_scale_invariance():
    rng = np.random.default_rng(11)
    norm = PowerNormalization()
    x = rng.normal(size=(2, 4, 3))
    a = norm(Tensor(x)).data
    b = norm(Tensor(1000.0 * x)).data
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_power_norm_rejects_zero_signal():
    with pytest.raises(DegenerateSignalError):
        PowerNormalization()(Tensor(np.zeros((2, 3, 4))))


def test_power_norm_per_position_mode():
    rng = np.random.default_rng(12)
    norm = PowerNormalization(per_position=True)
    x = rng.normal(scale=3.0, size=(2, 5, 4))
    out = norm(Tensor(x)).data
    np.testing.assert_allclose((out ** 2).mean(axis=2), 1.0, atol=1e-9)


@pytest.mark.parametrize("per_position", [False, True])
def test_power_norm_gradients_match_finite_differences(per_position):
    rng = np.random.default_rng(14)
    norm = PowerNormalization(per_position=per_position)
    x = rng.normal(size=(2, 4, 3)) + 0.5
    probe = _linear_probe(rng, (2, 4, 3))
    report = finite_difference_check(lambda t: (norm(t) * probe).sum(), Tensor(x))
    assert report.passed, report.max_rel_err


@pytest.mark.parametrize("per_position", [False, True])
def test_power_norm_rescales_a_block_whose_mean_square_overflows(per_position):
    # entries near 1e21 square past float32's range; block 0 is ordinary
    rng = np.random.default_rng(15)
    axes = (2,) if per_position else (1, 2)
    x = (rng.normal(size=(3, 4, 2)) * 1e21).astype(np.float32)
    x[0] = rng.normal(size=(4, 2))
    probe = rng.normal(size=x.shape).astype(np.float32)
    norm = PowerNormalization(per_position=per_position)

    def forward_backward(data):
        t = Tensor(data, requires_grad=True)
        out = norm(t)
        (out * Tensor(probe[: len(data)])).sum().backward()
        return out.data, t.grad

    out, grad = forward_backward(x)
    assert out.dtype == grad.dtype == np.float32
    x64, g64 = x.astype(np.float64), probe.astype(np.float64)
    mean_sq = (x64 ** 2).mean(axis=axes, keepdims=True)
    assert_close_f32(out, x64 / np.sqrt(mean_sq))
    n = np.prod([x.shape[a] for a in axes])
    expected = (g64 - x64 * (g64 * x64).sum(axis=axes, keepdims=True) / (n * mean_sq))
    expected /= np.sqrt(mean_sq)
    # the float32 backward cancels as much on either path; bound each block by its largest entry
    peak = np.abs(expected).max(axis=axes, keepdims=True)
    assert np.all(np.abs(grad - expected) <= 1e-5 * peak)
    ordinary_out, ordinary_grad = forward_backward(x[:1])  # normalized on its own
    np.testing.assert_array_equal(out[:1], ordinary_out)
    np.testing.assert_array_equal(grad[:1], ordinary_grad)


def test_power_norm_backward_stays_finite_on_a_block_near_the_overflow_edge():
    # the mean square, 1.06e38, is finite, but the backward's product of the
    # last entry and the dot product is not in float32 unless the block is scaled
    x = np.array([7.6e18, -3.2e18, 1.58e19], dtype=np.float32).reshape(1, 1, 3)
    g = np.array([0.41, 1.78, -1.70], dtype=np.float32).reshape(1, 1, 3)
    t = Tensor(x, requires_grad=True)
    (PowerNormalization(per_position=True)(t) * Tensor(g)).sum().backward()
    assert t.grad.dtype == np.float32 and np.isfinite(t.grad).all()
    x64, g64 = x.astype(np.float64), g.astype(np.float64)
    mean_sq = (x64 ** 2).mean()
    expected = (g64 - x64 * (g64 * x64).sum() / (3 * mean_sq)) / np.sqrt(mean_sq)
    assert np.all(np.abs(t.grad - expected) <= 1e-5 * np.abs(expected).max())


def test_power_norm_normalizes_a_float64_block_past_the_float64_square_range():
    x = np.array([[[3e200, -4e200], [1e200, 2.0]]])
    out = PowerNormalization()(Tensor(x)).data
    # mean square (9 + 16 + 1) / 4 * 1e400, past float64's range
    np.testing.assert_allclose(out, x / 1e200 / np.sqrt(6.5), rtol=1e-15)


def test_power_norm_passes_a_non_finite_entry_through():
    x = np.ones((2, 3, 2), dtype=np.float32)
    x[1, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        out = PowerNormalization()(Tensor(x)).data
    np.testing.assert_array_equal(out[0], np.ones((3, 2), dtype=np.float32))
    assert not np.isfinite(out[1]).all()


# -- activations and softmax ---------------------------------------------------


def test_elu_values():
    out = elu(Tensor(np.array([-700.0, -1.0, 0.0, 2.0])))
    np.testing.assert_allclose(out.data[0], -1.0, atol=1e-12)
    np.testing.assert_allclose(out.data[1], np.expm1(-1.0), rtol=1e-12)
    assert out.data[2] == 0.0
    assert out.data[3] == 2.0


def _elu_where(d):
    """The np.where formula elu replaced; the oracle for its values and slope."""
    neg = np.exp(np.clip(d, -700.0, 700.0)) - 1.0
    return np.where(d >= 0.0, d, neg), np.where(d >= 0.0, 1.0, neg + 1.0)


def test_elu_matches_the_where_formula_bit_for_bit():
    special = np.array([np.inf, -np.inf, np.nan, -700.5, -1e-300, 0.0, -0.0, 700.5, 1e-300])
    rng = np.random.default_rng(8)
    for d in (special, rng.normal(size=(4, 6, 5)) * 3.0, rng.normal(size=1000) * 300.0):
        x = Tensor(d, requires_grad=True)
        out = elu(x)
        (out * Tensor(np.ones_like(d))).sum().backward()
        want_out, want_slope = _elu_where(d)
        assert np.array_equal(out.data, want_out, equal_nan=True)
        assert np.array_equal(x.grad, want_slope, equal_nan=True)


def test_elu_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    # keep inputs away from 0, where the second derivative jumps
    x = rng.normal(size=(3, 4)) + np.where(rng.normal(size=(3, 4)) > 0, 0.5, -0.5)
    probe = _linear_probe(rng, (3, 4))
    report = finite_difference_check(lambda t: (elu(t) * probe).sum(), Tensor(x))
    assert report.passed, report.max_rel_err


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(16)
    p = softmax(Tensor(rng.normal(size=(4, 6)))).data
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p > 0.0)


def test_softmax_two_to_one_ratio():
    p = softmax(Tensor(np.array([np.log(2.0), 0.0]))).data
    np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)


def test_softmax_translation_invariance():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 5))
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 123.0)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_extreme_inputs_stay_finite():
    p = softmax(Tensor(np.array([[1e4, -1e4, 0.0]]))).data
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(3, 5))
    probe = _linear_probe(rng, (3, 5))
    report = finite_difference_check(lambda t: (softmax(t) * probe).sum(), Tensor(x))
    assert report.passed, report.max_rel_err


def test_softmax_matches_the_out_of_place_formula_bit_for_bit():
    rng = np.random.default_rng(19)
    for d in (rng.normal(size=(4, 6, 9)) * 30.0, np.array([[1e4, -1e4, 0.0], [0.0, 0.0, 0.0]])):
        g = rng.normal(size=d.shape)
        x = Tensor(d, requires_grad=True)
        out = softmax(x)
        (out * Tensor(g)).sum().backward()
        e = np.exp(d - d.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        want_grad = want * (g - (g * want).sum(axis=-1, keepdims=True))
        assert np.array_equal(out.data, want)
        assert np.array_equal(x.grad, want_grad)
