import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vaecomm
from vaecomm import (
    DomainError,
    NonDeterministicFunctionError,
    ShapeMismatchError,
    Tensor,
    finite_difference_check,
    no_grad,
)


def test_add_elementwise():
    out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_mul_scalar_broadcast():
    out = Tensor([1.0, 2.0, 3.0]) * 2.0
    np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])


def test_sub_and_neg():
    out = Tensor([5.0, 1.0]) - Tensor([2.0, 4.0])
    np.testing.assert_array_equal(out.data, [3.0, -3.0])
    np.testing.assert_array_equal((Tensor([1.0, -2.0]) * -1.0).data, [-1.0, 2.0])


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatchError) as err:
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)


def test_exp_huge_argument_clipped():
    out = Tensor([1000.0]).exp()
    assert np.isfinite(out.data).all()
    assert out.data[0] == math.exp(700.0)


def test_square_values():
    np.testing.assert_array_equal(Tensor([3.0, -2.0]).square().data, [9.0, 4.0])


def test_reductions():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert x.sum().item() == 10.0
    assert x.mean().item() == 2.5
    np.testing.assert_array_equal(x.sum(axis=0).data, [4.0, 6.0])
    np.testing.assert_array_equal(x.mean(axis=-1).data, [1.5, 3.5])


def test_reduce_axis_out_of_range():
    with pytest.raises(DomainError):
        Tensor([[1.0]]).sum(axis=2)


def test_mean_single_element_is_identity():
    assert Tensor([7.0]).mean().item() == 7.0


def test_backward_square():
    # d/dx x^2 = 2x at x = 3
    x = Tensor([3.0], requires_grad=True)
    y = x.square().sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, [6.0])


def test_backward_chain_matches_product_rule():
    x = Tensor([2.0], requires_grad=True)
    y = (x * x * x).sum()  # x^3, grad 3x^2 = 12
    y.backward()
    np.testing.assert_allclose(x.grad, [12.0], rtol=1e-12)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(DomainError):
        (x * 2.0).backward()


def test_backward_accumulates_without_reset():
    x = Tensor([3.0], requires_grad=True)
    y = x.square().sum()
    y.backward()
    y.backward()
    np.testing.assert_array_equal(x.grad, [12.0])


def test_disconnected_tensor_gets_no_gradient():
    x = Tensor([1.0], requires_grad=True)
    other = Tensor([5.0], requires_grad=True)
    x.square().sum().backward()
    assert other.grad is None


def test_gradient_flows_through_scalar_broadcast():
    s = Tensor([2.0], requires_grad=True)
    x = Tensor([1.0, 2.0, 3.0])
    (s * x).sum().backward()
    np.testing.assert_array_equal(s.grad, [6.0])


def test_mul_returns_no_gradient_for_a_constant_operand():
    w = Tensor([2.0, -1.0], requires_grad=True)
    c = Tensor([3.0, 5.0])
    g = np.array([1.0, 4.0])
    gw, gc = (w * c)._grad_fn(g)
    np.testing.assert_array_equal(gw, [3.0, 20.0])
    assert gc is None
    gc, gw = (c * w)._grad_fn(g)
    assert gc is None
    np.testing.assert_array_equal(gw, [3.0, 20.0])


def test_no_grad_builds_no_graph():
    w = Tensor([2.0], requires_grad=True)
    with no_grad():
        y = (w * 3.0).sum()
    assert not y.requires_grad
    y2 = (w * 3.0).sum()
    assert y2.requires_grad


def test_forward_stays_finite_on_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=(4, 5)) * 100.0
        outs = [
            Tensor(x).exp(),
            Tensor(x).square(),
            (Tensor(x) * Tensor(x)).sum(),
        ]
        for o in outs:
            assert np.isfinite(o.data).all()


def test_elementwise_commutes_for_add_mul():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=5), rng.normal(size=5)
    np.testing.assert_array_equal((Tensor(a) + Tensor(b)).data, (Tensor(b) + Tensor(a)).data)
    np.testing.assert_array_equal((Tensor(a) * Tensor(b)).data, (Tensor(b) * Tensor(a)).data)


def test_same_seed_same_results():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        loss = (x * w).square().mean()
        loss.backward()
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run(11)
    l2, gx2, gw2 = run(11)
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


# -- finite-difference checker itself --------------------------------------


def test_fd_check_passes_on_mul_reduce():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(2, 4))

    def f(x):
        return (x * Tensor(w)).square().sum(axis=1).mean()

    report = finite_difference_check(f, Tensor(rng.normal(size=(2, 4))))
    assert report.passed, report.max_rel_err
    assert report.max_rel_err < 1e-4


def test_fd_check_catches_broken_gradient():
    from vaecomm.tensor import from_op

    def bad_square(x):
        d = x.data
        return from_op(d * d, (x,), lambda g: (3.0 * d * g,))  # wrong factor

    def f(x):
        return bad_square(x).sum()

    report = finite_difference_check(f, Tensor(np.array([1.0, 2.0])))
    assert not report.passed
    assert report.max_rel_err > 1e-2


def test_fd_check_tolerates_rounding_of_a_large_constant():
    # the gradient is exactly w; the 1e6 offset rounds each f(x +- step) by
    # up to 6e-11, which a fixed 1e-8 floor read as an error of order 1 on
    # the tiny and zero entries of w
    w = np.array([1.0, -0.5, 1e-7, 0.0, 2e-9, 3.0])

    def f(x):
        return (x * Tensor(w)).sum() + 1e6

    report = finite_difference_check(f, Tensor(np.random.default_rng(3).normal(size=6)))
    assert report.passed, report.max_rel_err


def test_fd_check_detects_nondeterministic_function():
    rng = np.random.default_rng(5)

    def f(x):
        return (x * float(rng.normal())).sum()

    with pytest.raises(NonDeterministicFunctionError):
        finite_difference_check(f, Tensor([1.0, 2.0]))


def test_fd_check_over_seeded_configs():
    # composite expressions over every primitive, many random shapes
    for seed in range(25):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        w = rng.normal(size=(m, n))
        c = rng.normal(size=(m, n))

        def f(x, w=w, c=c):
            h = x * Tensor(w) - x.square() * 0.3
            h = (h * Tensor(c) + h.square() * 0.5 - h.mean()).exp()
            return (h.sum(axis=0) * 2.0).sum() + (h - 1.0).square().mean()

        x = Tensor(rng.normal(size=(m, n)) * 0.5)
        report = finite_difference_check(f, x)
        assert report.passed, (seed, report.max_rel_err)


def _is_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Two 1,280-message train() calls at the desk config from fresh weights; prints
# the minor page faults the second call took.
_SECOND_TRAIN_FAULTS = """
import resource
from vaecomm import CommSystem, SystemConfig, generate_dataset, train
config = SystemConfig(k=4, n=2, latent_multiplier=2, hidden_filters=256, block_length=10)
data = generate_dataset(4, 10, 1280, seed=0, num_test=0)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(CommSystem(config), data, epochs=1, batch_size=64)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _is_glibc(), reason="the malloc thresholds are set on glibc only")
def test_a_repeated_train_call_reuses_freed_heap_pages():
    # Without the thresholds set at import, each step's float32 temporaries are
    # mapped and zero-filled anew: about 50,000 faults for this call.
    src = str(Path(vaecomm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SECOND_TRAIN_FAULTS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 1000
