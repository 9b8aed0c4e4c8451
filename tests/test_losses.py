import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import monte_carlo_expectation
from vaecomm import DomainError, ShapeMismatchError, Tensor, finite_difference_check
from vaecomm.losses import (
    PRED_CLIP,
    LossBreakdown,
    beta_vae_loss,
    kl_standard_normal,
    softmax_binary_cross_entropy,
)
from vaecomm.layers import softmax
from vaecomm.tensor import from_op


# -- KL divergence -------------------------------------------------------------


def test_kl_is_zero_for_standard_normal():
    kl = kl_standard_normal(Tensor([0.0]), Tensor([0.0]))
    assert abs(kl.item()) < 1e-12


def test_kl_unit_mean_example():
    # mu=1, sigma=1: KL = mu^2/2 = 0.5
    kl = kl_standard_normal(Tensor([1.0]), Tensor([0.0]))
    np.testing.assert_allclose(kl.item(), 0.5, rtol=1e-12)


def test_kl_wide_variance_example():
    # mu=0, sigma^2=e: KL = (e - 2) / 2
    kl = kl_standard_normal(Tensor([0.0]), Tensor([1.0]))
    np.testing.assert_allclose(kl.item(), (math.e - 2.0) / 2.0, rtol=1e-12)


def test_kl_sums_over_dims_and_averages_over_batch():
    mu = Tensor(np.array([[1.0, 1.0], [0.0, 0.0]]))
    lv = Tensor(np.zeros((2, 2)))
    # rows give KL of 1.0 and 0.0, batch mean 0.5
    np.testing.assert_allclose(kl_standard_normal(mu, lv).item(), 0.5, rtol=1e-12)


def test_kl_never_negative_over_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        mu = rng.uniform(-2.0, 2.0, size=3)
        lv = np.log(rng.uniform(0.5, 2.0, size=3) ** 2)
        assert kl_standard_normal(Tensor(mu), Tensor(lv)).item() >= 0.0


def test_kl_matches_monte_carlo_oracle():
    # E_q[log q - log p] estimated by sampling, vs the closed form
    rng = np.random.default_rng(1)
    for trial in range(5):
        mu = rng.uniform(-2.0, 2.0, size=8)
        sigma = rng.uniform(0.5, 2.0, size=8)
        lv = np.log(sigma**2)

        def log_ratio(h):
            logq = -0.5 * ((h - mu) ** 2) / sigma**2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)
            logp = -0.5 * h**2 - 0.5 * np.log(2 * np.pi)
            return (logq - logp).sum(axis=-1)

        est = monte_carlo_expectation(log_ratio, mu, lv, n_samples=1_000_000, seed=100 + trial)
        closed = kl_standard_normal(Tensor(mu), Tensor(lv)).item()
        assert abs(est - closed) / closed < 0.01, (trial, est, closed)


def test_kl_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        kl_standard_normal(Tensor([0.0, 0.0]), Tensor([0.0]))


def test_kl_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    mu = Tensor(rng.normal(size=(3, 4)))
    lv = Tensor(rng.normal(size=(3, 4)) * 0.5)
    report = finite_difference_check(lambda t: kl_standard_normal(t, lv), mu)
    assert report.passed, ("mu", report.max_rel_err)
    report = finite_difference_check(lambda t: kl_standard_normal(mu, t), lv)
    assert report.passed, ("logvar", report.max_rel_err)


# -- softmax binary cross entropy ---------------------------------------------


def test_bce_perfect_prediction_is_zero():
    for dtype in (np.float64, np.float32):
        logits = Tensor(np.array([40.0, 0.0, 0.0], dtype=dtype))
        target = Tensor(np.array([1.0, 0.0, 0.0], dtype=dtype))
        # clipping keeps log finite, loss collapses to ~0
        assert softmax_binary_cross_entropy(logits, target).item() < 1e-10


def test_bce_uniform_two_way_example():
    loss = softmax_binary_cross_entropy(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))
    np.testing.assert_allclose(loss.item(), 2.0 * math.log(2.0), rtol=1e-12)


def test_bce_clipping_keeps_confident_mistakes_finite():
    for dtype in (np.float64, np.float32):
        logits = Tensor(np.array([-100.0, 100.0], dtype=dtype))
        loss = softmax_binary_cross_entropy(logits, Tensor([1.0, 0.0]))
        assert np.isfinite(loss.item())
        np.testing.assert_allclose(loss.item(), -2.0 * math.log(1e-12), rtol=1e-6)


def test_bce_rejects_soft_targets():
    with pytest.raises(DomainError):
        softmax_binary_cross_entropy(Tensor([0.0, 0.0]), Tensor([0.7, 0.3]))


def test_bce_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        softmax_binary_cross_entropy(Tensor([0.0]), Tensor([1.0, 0.0]))


def test_bce_averages_over_leading_axes():
    logits = Tensor(np.zeros((4, 7, 2)))
    target_rows = np.zeros((4, 7, 2))
    target_rows[..., 0] = 1.0
    loss = softmax_binary_cross_entropy(logits, Tensor(target_rows))
    np.testing.assert_allclose(loss.item(), 2.0 * math.log(2.0), rtol=1e-12)


def test_bce_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.uniform(-3.0, 3.0, size=(3, 5)))
    target = np.zeros((3, 5))
    target[np.arange(3), rng.integers(0, 5, size=3)] = 1.0
    report = finite_difference_check(
        lambda t: softmax_binary_cross_entropy(t, Tensor(target)), logits)
    assert report.passed, report.max_rel_err


def _clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; the gradient passes through the unclipped region."""
    d = x.data
    mask = (d >= lo) & (d <= hi)
    return from_op(np.clip(d, lo, hi), (x,), lambda g: (g * mask,))


def _floored_log(x: Tensor) -> Tensor:
    """log(max(x, PRED_CLIP)); no gradient below the floor."""
    d = x.data
    safe = np.maximum(d, PRED_CLIP)
    mask = d >= PRED_CLIP
    return from_op(np.log(safe), (x,), lambda g: (g / safe * mask,))


def test_clip_and_floored_log_gradients_match_finite_differences():
    # entries kept away from the clip edges and the floor, where the derivative jumps
    x0 = np.random.default_rng(11).uniform(0.1, 0.9, size=(3, 4))
    def f(x):
        return (_floored_log(_clip(x, 0.05, 0.95)) + _floored_log(x * 0.5 + 1.0)).mean()
    report = finite_difference_check(f, Tensor(x0))
    assert report.passed, report.max_rel_err


def _bce_of_probabilities(pred: Tensor, target: Tensor) -> Tensor:
    """The probability-input BCE the logits node replaced, composed from
    Tensor ops: clip p to [1e-12, 1 - 1e-12], floored logs, sum, mean.
    1 - a is written a * -1.0 + 1.0 and -a as a * -1.0: the same bits."""
    p = _clip(pred, PRED_CLIP, 1.0 - PRED_CLIP)
    term = target * _floored_log(p) + (target * -1.0 + 1.0) * _floored_log(p * -1.0 + 1.0)
    return term.sum(axis=-1).mean() * -1.0


def _value_and_grad(loss_fn, logits, target, upstream):
    x = Tensor(logits, requires_grad=True)
    loss = loss_fn(x, target)
    (loss * upstream).backward()
    return loss.data, x.grad


def _oracle(x, target):
    return _bce_of_probabilities(softmax(x), target)


@settings(max_examples=60, deadline=None)
@given(lead=st.lists(st.integers(1, 6), min_size=0, max_size=2).map(tuple),
       width=st.integers(2, 9), upstream=st.sampled_from([1.0, -2.5, 1e-3, 3e5]),
       seed=st.integers(0, 2**16))
def test_softmax_bce_matches_the_probability_oracle(lead, width, upstream, seed):
    # logits within +-3 keep p at least 1e-3 from 0 and 1: away from the
    # clip, and where 1 - p costs the oracle no more than 1e-13 relative
    rng = np.random.default_rng(seed)
    shape = lead + (width,)
    logits = rng.uniform(-3.0, 3.0, size=shape)
    target = Tensor((rng.random(shape) < 0.3).astype(float))
    value, grad = _value_and_grad(softmax_binary_cross_entropy, logits, target, upstream)
    want_value, want_grad = _value_and_grad(_oracle, logits, target, upstream)
    assert abs(value - want_value) <= 1e-12 * abs(want_value)
    assert np.all(np.abs(grad - want_grad) <= 1e-12 * np.abs(want_grad).max())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_softmax_bce_gradient_is_zero_outside_the_clip(dtype):
    # row 0: every p is outside [1e-12, 1 - 1e-12]; row 1: none is
    logits = np.array([[45.0, 0.0, -3.0, 1.0], [0.5, -0.2, 1.0, 0.0]], dtype=dtype)
    target = Tensor(np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))
    value, grad = _value_and_grad(softmax_binary_cross_entropy, logits, target, 1.0)
    assert grad.dtype == dtype
    assert np.all(grad[0] == 0.0)
    assert np.all(grad[1] != 0.0)
    if dtype == np.float64:
        want_value, want_grad = _value_and_grad(_oracle, logits, target, 1.0)
        assert np.array_equal(want_grad[0], grad[0])
        np.testing.assert_allclose(value, want_value, rtol=1e-12)


def test_softmax_bce_sums_the_others_of_the_largest_entry():
    # 1 - p of the top entry is 1e-9: S - e_max would lose it in float32
    logits = np.array([[np.log(1e9), 0.0, -np.inf]])
    target = Tensor(np.array([[1.0, 0.0, 0.0]], dtype=np.float32))
    loss = softmax_binary_cross_entropy(Tensor(logits.astype(np.float32)), target)
    # -log p_top and -log(1 - p_other), each about 1e-9, and -log(1 - 0),
    # which the clip of p to 1e-12 makes -log1p(-1e-12)
    np.testing.assert_allclose(loss.item(), 2.001e-9, rtol=1e-5)


@settings(max_examples=30, deadline=None)
@given(width=st.integers(2, 300), seed=st.integers(0, 2**16))
def test_softmax_bce_float32_follows_float64(width, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(5, width)) * 4.0
    target = np.zeros((5, width))
    target[np.arange(5), rng.integers(0, width, size=5)] = 1.0
    v64, g64 = _value_and_grad(softmax_binary_cross_entropy, logits, Tensor(target), 1.0)
    v32, g32 = _value_and_grad(softmax_binary_cross_entropy, logits.astype(np.float32),
                               Tensor(target.astype(np.float32)), 1.0)
    assert v32.dtype == g32.dtype == np.float32
    np.testing.assert_allclose(v32, v64, rtol=1e-5)
    assert np.all(np.abs(g32 - g64) <= 1e-5 * np.abs(g64).max())


def test_softmax_bce_float32_gradient_of_a_confident_mistake():
    # 1 - p of the top entry is 2.3e-7 and the target is elsewhere: a - p * sum(a)
    # would subtract two terms 4e6 times the result at the top entry
    logits = np.array([[16.0, 0.0, 0.0], [0.0, 16.0, 1.0]])
    target = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    _, g64 = _value_and_grad(softmax_binary_cross_entropy, logits, Tensor(target), 1.0)
    _, g32 = _value_and_grad(softmax_binary_cross_entropy, logits.astype(np.float32),
                             Tensor(target.astype(np.float32)), 1.0)
    np.testing.assert_allclose(g32, g64, rtol=1e-5)


def test_bce_gradient_is_for_pred_only():
    logits = Tensor(np.array([[0.2, 0.8]]), requires_grad=True)
    target = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
    softmax_binary_cross_entropy(logits, target).backward()
    assert logits.grad is not None
    assert target.grad is None


# -- combined loss ----------------------------------------------------------------


def test_beta_vae_loss_combination():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.uniform(-2.0, 2.0, size=(2, 3, 4)))
    target = np.zeros((2, 3, 4))
    target[..., 0] = 1.0
    mu = Tensor(rng.normal(size=(2, 3, 4)))
    lv = Tensor(rng.normal(size=(2, 3, 4)))
    total, bd = beta_vae_loss(logits, Tensor(target), mu, lv, beta=1e-4)
    assert isinstance(bd, LossBreakdown)
    np.testing.assert_allclose(bd.total, 1e-4 * bd.kl_term + bd.reconstruction_term, rtol=1e-12)
    np.testing.assert_allclose(total.item(), bd.total, rtol=1e-15)
    assert bd.beta == 1e-4


def test_beta_zero_reduces_to_reconstruction():
    logits = Tensor([0.0, 0.0])
    target = Tensor([1.0, 0.0])
    total, bd = beta_vae_loss(logits, target, Tensor([1.0]), Tensor([0.5]), beta=0.0)
    np.testing.assert_allclose(total.item(), bd.reconstruction_term, rtol=1e-15)


def test_loss_increases_with_beta_when_kl_positive():
    logits = Tensor([0.0, 0.0])
    target = Tensor([1.0, 0.0])
    mu, lv = Tensor([1.0]), Tensor([0.0])
    prev = -1.0
    for beta in (0.0, 1e-4, 1e-2, 1.0):
        total, _ = beta_vae_loss(logits, target, mu, lv, beta=beta)
        assert total.item() > prev
        prev = total.item()


def test_negative_beta_rejected():
    for beta in (-0.1, float("nan"), float("inf")):  # a NaN beta is not below 0
        with pytest.raises(DomainError, match="beta"):
            beta_vae_loss(Tensor([0.5]), Tensor([1.0]), Tensor([0.0]), Tensor([0.0]), beta=beta)


def test_beta_vae_gradients_reach_all_inputs():
    rng = np.random.default_rng(5)
    pred_data = rng.uniform(-2.0, 2.0, size=(2, 4))
    target = np.zeros((2, 4))
    target[:, 1] = 1.0
    mu_data = rng.normal(size=(2, 4))
    lv_data = rng.normal(size=(2, 4)) * 0.3

    def f_pred(t):
        return beta_vae_loss(t, Tensor(target), Tensor(mu_data), Tensor(lv_data), beta=0.5)[0]

    def f_mu(t):
        return beta_vae_loss(Tensor(pred_data), Tensor(target), t, Tensor(lv_data), beta=0.5)[0]

    def f_lv(t):
        return beta_vae_loss(Tensor(pred_data), Tensor(target), Tensor(mu_data), t, beta=0.5)[0]

    for name, f, x in [("pred", f_pred, pred_data), ("mu", f_mu, mu_data), ("logvar", f_lv, lv_data)]:
        report = finite_difference_check(f, Tensor(x))
        assert report.passed, (name, report.max_rel_err)


# -- Monte Carlo expectation -------------------------------------------------------


def test_mc_identity_recovers_mean():
    est = monte_carlo_expectation(lambda h: h, np.array([3.0]), np.array([1.0]),
                                  n_samples=1_000_000, seed=0)
    assert abs(est - 3.0) < 0.01


def test_mc_square_recovers_second_moment():
    # E[h^2] = mu^2 + sigma^2 = 4 + 2
    est = monte_carlo_expectation(lambda h: h**2, np.array([2.0]), np.array([np.log(2.0)]),
                                  n_samples=1_000_000, seed=1)
    np.testing.assert_allclose(est, 6.0, rtol=0.01)


def test_mc_seeded_reproducibility():
    a = monte_carlo_expectation(lambda h: h, np.array([0.5]), np.array([0.0]), 1000, seed=7)
    b = monte_carlo_expectation(lambda h: h, np.array([0.5]), np.array([0.0]), 1000, seed=7)
    assert a == b


def test_mc_rejects_empty_sample_count():
    with pytest.raises(DomainError):
        monte_carlo_expectation(lambda h: h, np.array([0.0]), np.array([0.0]), 0, seed=0)
