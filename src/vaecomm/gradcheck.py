"""Finite-difference verification for every differentiable component.

Each registry entry builds a fresh, randomly configured instance of one layer
or loss and a scalar-valued closure over a single input tensor. run_all drives
many seeded trials per component and reports the worst relative error seen, so
a broken backward anywhere in the stack surfaces with its component named.
Every builder works in float64, parameters included: the trained system's
float32 would drown the central differences in rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_integer
from .layers import (
    BatchNorm1D,
    Conv1D,
    GaussianSampling,
    PowerNormalization,
    elu,
    softmax,
)
from .losses import beta_vae_loss, kl_standard_normal, softmax_binary_cross_entropy
from .seeding import derive_seed
from .tensor import Tensor, finite_difference_check


@dataclass(frozen=True)
class ComponentReport:
    name: str
    trials: int
    max_rel_err: float
    passed: bool


def _probe(rng, shape):
    # a fixed random linear readout turns any output into a scalar
    w = rng.normal(size=shape)
    return lambda t: (t * Tensor(w)).sum()


def _elementwise_chain(rng):
    x0 = rng.uniform(0.5, 2.0, size=(3, 4))
    shift = Tensor(rng.normal(size=(3, 4)))
    def f(x):
        y = (x * 0.7 + shift) * x
        return (y.square() + y.exp() * 0.1).sum()
    return f, x0


def _reductions(rng):
    x0 = rng.normal(size=(2, 3, 4))
    def f(x):
        return x.sum(axis=2).mean(axis=1).sum() + x.mean() * 0.5
    return f, x0


def _conv(rng):
    batch, length = 2, 6
    c_in = int(rng.integers(2, 5))
    c_out = int(rng.integers(2, 5))
    conv = Conv1D(c_in, c_out, rng=np.random.default_rng(rng.integers(2**32)))
    conv.weight.data = rng.normal(size=conv.weight.shape) * 0.5
    conv.bias.data = rng.normal(size=conv.bias.shape) * 0.1
    x0 = rng.normal(size=(batch, length, c_in))
    probe = _probe(rng, (batch, length, c_out))
    return conv, probe, x0


def _conv_input(rng):
    conv, probe, x0 = _conv(rng)
    return lambda x: probe(conv(x)), x0


def _conv_weight(rng):
    conv, probe, x0 = _conv(rng)
    xc = Tensor(x0)
    def f(w):
        conv.weight = w
        return probe(conv(xc))
    return f, conv.weight.data.copy()


def _batchnorm(rng, training):
    channels = int(rng.integers(2, 5))
    bn = BatchNorm1D(channels)
    bn.training = training
    bn.gamma.data = rng.uniform(0.5, 1.5, size=channels)
    bn.shift.data = rng.normal(size=channels) * 0.3
    if not training:
        bn.running_mean = rng.normal(size=channels) * 0.2
        bn.running_var = rng.uniform(0.5, 2.0, size=channels)
    x0 = rng.normal(size=(3, 4, channels))
    probe = _probe(rng, (3, 4, channels))
    return lambda x: probe(bn(x)), x0


def _batchnorm_train(rng):
    return _batchnorm(rng, training=True)


def _batchnorm_eval(rng):
    return _batchnorm(rng, training=False)


def _sampling(rng):
    dim = int(rng.integers(2, 5))
    layer = GaussianSampling(dim)
    eps = rng.normal(size=(2, 3, dim))
    logvar = Tensor(rng.normal(size=(2, 3, dim)) * 0.5)
    probe = _probe(rng, (2, 3, dim))
    def f(mu):
        return probe(layer(mu, logvar, eps=eps))
    return f, rng.normal(size=(2, 3, dim))


def _sampling_logvar(rng):
    dim = int(rng.integers(2, 5))
    layer = GaussianSampling(dim)
    eps = rng.normal(size=(2, 3, dim))
    mu = Tensor(rng.normal(size=(2, 3, dim)))
    probe = _probe(rng, (2, 3, dim))
    def f(logvar):
        return probe(layer(mu, logvar, eps=eps))
    return f, rng.normal(size=(2, 3, dim)) * 0.5


def _power_norm(rng):
    layer = PowerNormalization()
    x0 = rng.normal(size=(2, 3, 4)) + 0.1
    probe = _probe(rng, (2, 3, 4))
    return lambda x: probe(layer(x)), x0


def _power_norm_per_position(rng):
    layer = PowerNormalization(per_position=True)
    x0 = rng.normal(size=(2, 3, 4)) + 0.1
    probe = _probe(rng, (2, 3, 4))
    return lambda x: probe(layer(x)), x0


def _elu(rng):
    x0 = rng.normal(size=(3, 5))
    probe = _probe(rng, (3, 5))
    return lambda x: probe(elu(x)), x0


def _softmax(rng):
    x0 = rng.normal(size=(2, 3, 4))
    probe = _probe(rng, (2, 3, 4))
    return lambda x: probe(softmax(x)), x0


def _kl_mu(rng):
    logvar = Tensor(rng.normal(size=(3, 2, 4)) * 0.5)
    return lambda mu: kl_standard_normal(mu, logvar), rng.normal(size=(3, 2, 4))


def _kl_logvar(rng):
    mu = Tensor(rng.normal(size=(3, 2, 4)))
    return lambda lv: kl_standard_normal(mu, lv), rng.normal(size=(3, 2, 4)) * 0.5


def _bce(rng):
    target = np.zeros((2, 3, 4))
    target[..., 0] = 1.0
    tgt = Tensor(target)
    # logits within +-3: every softmax probability is above 3e-4 and below
    # 1 - 3e-4, well inside the clip to [1e-12, 1 - 1e-12]
    x0 = rng.uniform(-3.0, 3.0, size=(2, 3, 4))
    return lambda logits: softmax_binary_cross_entropy(logits, tgt), x0


def _beta_vae(rng):
    target = np.zeros((2, 3, 4))
    target[..., 1] = 1.0
    tgt = Tensor(target)
    logits = Tensor(rng.uniform(-3.0, 3.0, size=(2, 3, 4)))
    logvar = Tensor(rng.normal(size=(2, 3, 4)) * 0.5)
    def f(mu):
        total, _ = beta_vae_loss(logits, tgt, mu, logvar, beta=1e-2)
        return total
    # |mu| kept away from 0: there the gradient, beta * mu / 6, falls below the
    # rounding error of differencing the constant BCE term, about 2e-11
    mu0 = rng.uniform(0.2, 2.0, size=(2, 3, 4)) * rng.choice([-1.0, 1.0], size=(2, 3, 4))
    return f, mu0


REGISTRY = (
    ("elementwise_chain", _elementwise_chain),
    ("reductions", _reductions),
    ("conv1d_k1_input", _conv_input),
    ("conv1d_weight", _conv_weight),
    ("batchnorm_train", _batchnorm_train),
    ("batchnorm_eval", _batchnorm_eval),
    ("gaussian_sampling_mu", _sampling),
    ("gaussian_sampling_logvar", _sampling_logvar),
    ("power_norm", _power_norm),
    ("power_norm_per_position", _power_norm_per_position),
    ("elu", _elu),
    ("softmax", _softmax),
    ("kl_mu", _kl_mu),
    ("kl_logvar", _kl_logvar),
    ("softmax_binary_cross_entropy", _bce),
    ("beta_vae_loss", _beta_vae),
)


def _stream(index: int) -> int:
    """The random stream of the component at ``index`` in REGISTRY. Streams 1
    and 2 belonged to two removed components, checks of a log and a clip
    op; skipping them keeps every other component's trials as they were."""
    return index if index == 0 else index + 2


def component_names() -> list[str]:
    return [name for name, _ in REGISTRY]


def run_component(name: str, trials: int = 100, rel_tol: float = 1e-4,
                  seed: int = 0) -> ComponentReport:
    builders = dict(REGISTRY)
    if name not in builders:
        raise KeyError(f"unknown component {name!r}; known: {component_names()}")
    trials = check_integer("trials", trials)
    stream = _stream(component_names().index(name))
    worst = 0.0
    ok = True
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(seed, stream, trial))
        f, x0 = builders[name](rng)
        report = finite_difference_check(f, Tensor(np.asarray(x0, dtype=np.float64)),
                                         rel_tol=rel_tol)
        worst = max(worst, report.max_rel_err)
        ok = ok and report.passed
    return ComponentReport(name=name, trials=trials, max_rel_err=worst, passed=ok)


def run_all(trials: int = 100, rel_tol: float = 1e-4, seed: int = 0) -> list[ComponentReport]:
    return [run_component(name, trials=trials, rel_tol=rel_tol, seed=seed)
            for name, _ in REGISTRY]
