import numpy as np
import pytest

from vaecomm import DegenerateSignalError, DomainError, ShapeMismatchError, Tensor, finite_difference_check
from vaecomm.layers import (
    BatchNorm1D,
    Conv1D,
    GaussianSampling,
    PowerNormalization,
    elu,
    softmax,
)


def _linear_probe(rng, shape):
    # fixed random functional so gradients are nondegenerate
    return Tensor(rng.normal(size=shape))


# -- Conv1D ------------------------------------------------------------------


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


# -- BatchNorm1D ---------------------------------------------------------------


def test_batchnorm_train_normalizes_channels():
    rng = np.random.default_rng(2)
    bn = BatchNorm1D(3, epsilon=1e-12)
    x = rng.normal(loc=5.0, scale=3.0, size=(8, 10, 3))
    out = bn(Tensor(x)).data
    np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.var(axis=(0, 1)), 1.0, atol=1e-6)


def test_batchnorm_running_stats_update_rule():
    bn = BatchNorm1D(2, momentum=0.99)
    x = np.random.default_rng(3).normal(loc=4.0, size=(16, 5, 2))
    bn(Tensor(x))
    expect_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=(0, 1))
    expect_var = 0.99 * 1.0 + 0.01 * x.var(axis=(0, 1))
    np.testing.assert_allclose(bn.running_mean, expect_mean, rtol=1e-12)
    np.testing.assert_allclose(bn.running_var, expect_var, rtol=1e-12)
    assert np.all(bn.running_var > 0.0)


def test_batchnorm_eval_with_unit_stats_is_identity_up_to_epsilon():
    bn = BatchNorm1D(4)
    bn.training = False
    x = np.random.default_rng(4).normal(size=(3, 6, 4))
    out = bn(Tensor(x)).data
    np.testing.assert_allclose(out, x, rtol=1e-3, atol=1e-6)
    # and exactly the affine form (x - 0) / sqrt(1 + eps)
    np.testing.assert_allclose(out, x / np.sqrt(1.0 + bn.epsilon), rtol=1e-15)


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
