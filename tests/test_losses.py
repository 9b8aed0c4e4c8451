import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaecomm import DomainError, ShapeMismatchError, Tensor, finite_difference_check
from vaecomm.losses import (
    PRED_CLIP,
    LossBreakdown,
    beta_vae_loss,
    binary_cross_entropy,
    kl_standard_normal,
    monte_carlo_expectation,
)


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


# -- binary cross entropy --------------------------------------------------------


def test_bce_perfect_prediction_is_zero():
    pred = Tensor(np.array([1.0, 0.0, 0.0]))
    target = Tensor(np.array([1.0, 0.0, 0.0]))
    # clipping keeps log finite, loss collapses to ~0
    assert binary_cross_entropy(pred, target).item() < 1e-10


def test_bce_uniform_two_way_example():
    loss = binary_cross_entropy(Tensor([0.5, 0.5]), Tensor([1.0, 0.0]))
    np.testing.assert_allclose(loss.item(), 2.0 * math.log(2.0), rtol=1e-12)


def test_bce_clipping_keeps_confident_mistakes_finite():
    loss = binary_cross_entropy(Tensor([0.0, 1.0]), Tensor([1.0, 0.0]))
    assert np.isfinite(loss.item())
    np.testing.assert_allclose(loss.item(), -2.0 * math.log(1e-12), rtol=1e-6)


def test_bce_rejects_soft_targets():
    with pytest.raises(DomainError):
        binary_cross_entropy(Tensor([0.5, 0.5]), Tensor([0.7, 0.3]))


def test_bce_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        binary_cross_entropy(Tensor([0.5]), Tensor([1.0, 0.0]))


def test_bce_averages_over_leading_axes():
    pred = Tensor(np.full((4, 7, 2), 0.5))
    target_rows = np.zeros((4, 7, 2))
    target_rows[..., 0] = 1.0
    loss = binary_cross_entropy(pred, Tensor(target_rows))
    np.testing.assert_allclose(loss.item(), 2.0 * math.log(2.0), rtol=1e-12)


def test_bce_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    pred = Tensor(rng.uniform(0.1, 0.9, size=(3, 5)))
    target = np.zeros((3, 5))
    target[np.arange(3), rng.integers(0, 5, size=3)] = 1.0
    report = finite_difference_check(lambda t: binary_cross_entropy(t, Tensor(target)), pred)
    assert report.passed, report.max_rel_err


def _bce_composed(pred: Tensor, target: Tensor) -> Tensor:
    """The Tensor-op graph binary_cross_entropy replaced: its bit-for-bit oracle."""
    p = pred.clip(PRED_CLIP, 1.0 - PRED_CLIP)
    term = target * p.log() + (1.0 - target) * (1.0 - p).log()
    return -(term.sum(axis=-1).mean())


# the clip bounds, each side of them, the ends of [0, 1], outside it, and NaN
_BCE_EDGES = np.array([
    0.0, 1.0, PRED_CLIP, 1.0 - PRED_CLIP,
    np.nextafter(PRED_CLIP, 1.0), np.nextafter(1.0 - PRED_CLIP, 0.0),
    np.nextafter(PRED_CLIP, 0.0), np.nextafter(1.0 - PRED_CLIP, 1.0),
    -0.5, 1.5, np.nan,
])


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
       upstream=st.sampled_from([1.0, -2.5, 1e-3, 3e5]), seed=st.integers(0, 2**16))
def test_bce_matches_the_composed_graph_bit_for_bit(shape, upstream, seed):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.0, 1.0, size=shape)
    edge = rng.random(shape) < 0.5
    pred[edge] = rng.choice(_BCE_EDGES, size=int(edge.sum()))
    target = Tensor((rng.random(shape) < 0.3).astype(float))

    values, grads = [], []
    for loss_fn in (binary_cross_entropy, _bce_composed):
        x = Tensor(pred, requires_grad=True)
        loss = loss_fn(x, target)
        (loss * upstream).backward()
        values.append(loss.data)
        grads.append(x.grad)
    assert np.array_equal(values[0], values[1], equal_nan=True)
    assert np.array_equal(grads[0], grads[1], equal_nan=True)


def test_bce_gradient_is_for_pred_only():
    pred = Tensor(np.array([[0.2, 0.8]]), requires_grad=True)
    target = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
    binary_cross_entropy(pred, target).backward()
    assert pred.grad is not None
    assert target.grad is None


# -- combined loss ----------------------------------------------------------------


def test_beta_vae_loss_combination():
    rng = np.random.default_rng(4)
    pred = Tensor(rng.uniform(0.1, 0.9, size=(2, 3, 4)))
    target = np.zeros((2, 3, 4))
    target[..., 0] = 1.0
    mu = Tensor(rng.normal(size=(2, 3, 4)))
    lv = Tensor(rng.normal(size=(2, 3, 4)))
    total, bd = beta_vae_loss(pred, Tensor(target), mu, lv, beta=1e-4)
    assert isinstance(bd, LossBreakdown)
    np.testing.assert_allclose(bd.total, 1e-4 * bd.kl_term + bd.reconstruction_term, rtol=1e-12)
    np.testing.assert_allclose(total.item(), bd.total, rtol=1e-15)
    assert bd.beta == 1e-4


def test_beta_zero_reduces_to_reconstruction():
    pred = Tensor([0.5, 0.5])
    target = Tensor([1.0, 0.0])
    total, bd = beta_vae_loss(pred, target, Tensor([1.0]), Tensor([0.5]), beta=0.0)
    np.testing.assert_allclose(total.item(), bd.reconstruction_term, rtol=1e-15)


def test_loss_increases_with_beta_when_kl_positive():
    pred = Tensor([0.5, 0.5])
    target = Tensor([1.0, 0.0])
    mu, lv = Tensor([1.0]), Tensor([0.0])
    prev = -1.0
    for beta in (0.0, 1e-4, 1e-2, 1.0):
        total, _ = beta_vae_loss(pred, target, mu, lv, beta=beta)
        assert total.item() > prev
        prev = total.item()


def test_negative_beta_rejected():
    with pytest.raises(DomainError):
        beta_vae_loss(Tensor([0.5]), Tensor([1.0]), Tensor([0.0]), Tensor([0.0]), beta=-0.1)


def test_beta_vae_gradients_reach_all_inputs():
    rng = np.random.default_rng(5)
    pred_data = rng.uniform(0.2, 0.8, size=(2, 4))
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
