"""Transceiver assembly: the stage chain from one-hot messages to logits.

The transmitter maps one-hot messages to a power-constrained latent signal;
the receiver maps the channel output back to one score (logit) per message.
The chain is written once, as the TRANSMITTER and RECEIVER stage tuples:
construction, forward passes, the stage records, mode switching, parameter
naming and the checkpoint's batch-norm list all iterate them. Every
convolution is position-wise (kernel size 1), so a trained system can be
applied to any block length.

Everything the system holds and computes is float32: parameters, batch-norm
running statistics, activations, gradients, the codebook and the decoder.
Inputs of another dtype are cast where they enter (``_check_onehot``,
``receive``, ``decide``).

``transmit``/``receive`` run the whole chain and are the reference path;
``receive`` applies a softmax to the logits, so it returns probabilities.
``end_to_end`` runs the same stages, stops at the logits (the loss applies
the softmax itself) and keeps every stage's output. Evaluation runs the same
tuples in pieces instead: ``codebook`` precomputes each message's
pre-normalization latent once, ``encode`` gathers from it and
power-normalizes, and ``decide`` runs the receiver on blocks of
``_DECIDE_ROWS`` positions and keeps only each position's argmax, so no
full-chunk activation is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .channels import CHANNEL_KINDS, ChannelModel
from .errors import ConfigError, DomainError
from .layers import (
    BatchNorm1D,
    Conv1D,
    GaussianSampling,
    PowerNormalization,
    elu,
    softmax,
)
from .losses import LossBreakdown, beta_vae_loss
from .seeding import derive_seed
from .tensor import SYSTEM_DTYPE, Tensor, cast, no_grad

VALID_LATENT_MULTIPLIERS = (2, 4)

_INIT_STREAM = 0
_SAMPLING_STREAM = 1


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one transceiver."""

    k: int
    n: int
    latent_multiplier: int = 2
    hidden_filters: int = 256
    beta: float = 1e-4
    channel_kind: str = "awgn"
    block_length: int = 100
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if not 1 <= self.k <= 16:
            raise ConfigError(f"k must be in [1, 16], got {self.k}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.latent_multiplier not in VALID_LATENT_MULTIPLIERS:
            raise ConfigError(
                f"latent_multiplier must be one of {VALID_LATENT_MULTIPLIERS}, got {self.latent_multiplier}"
            )
        if self.hidden_filters < 1:
            raise ConfigError(f"hidden_filters must be >= 1, got {self.hidden_filters}")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be non-negative, got {self.beta}")
        if self.channel_kind not in CHANNEL_KINDS:
            raise ConfigError(f"channel_kind must be one of {CHANNEL_KINDS}, got {self.channel_kind!r}")
        if self.block_length < 1:
            raise ConfigError(f"block_length must be >= 1, got {self.block_length}")

    @property
    def M(self) -> int:
        """Message alphabet size, 2^k."""
        return 1 << self.k

    @property
    def code_rate(self) -> float:
        """Bits per channel use, k/n."""
        return self.k / self.n

    @property
    def latent_dim(self) -> int:
        return self.latent_multiplier * self.n


class Stage(NamedTuple):
    """One step of the chain: the layer ``CommSystem.<name>`` maps the env
    entries named by ``inputs`` to the entry named ``output``. ``build``
    makes the layer from (config, init generator, name)."""

    name: str
    inputs: tuple[str, ...]
    output: str
    build: Callable


def _conv(fan_in: str, fan_out: str):
    """Kernel-1 conv between two widths named by SystemConfig attributes."""
    return lambda cfg, rng, name: Conv1D(getattr(cfg, fan_in), getattr(cfg, fan_out),
                                         rng=rng, name=name)


def _fixed(fn):
    """A stateless stage: the same function for every config."""
    return lambda cfg, rng, name: fn


def _batchnorm(cfg, rng, name):
    return BatchNorm1D(cfg.hidden_filters, name=name)


def _sampling(cfg, rng, name):
    return GaussianSampling(cfg.latent_dim, seed=derive_seed(cfg.seed, _SAMPLING_STREAM))


def _power_norm(cfg, rng, name):
    return PowerNormalization()


# The convolutions draw their initial weights from one generator in this
# order, so reordering stages changes the initial weights of every seed.
TRANSMITTER = (
    Stage("tx_conv1", ("x",), "h", _conv("M", "hidden_filters")),
    Stage("tx_act1", ("h",), "h", _fixed(elu)),
    Stage("tx_conv2", ("h",), "h", _conv("hidden_filters", "hidden_filters")),
    Stage("tx_act2", ("h",), "h", _fixed(elu)),
    Stage("tx_bn", ("h",), "h", _batchnorm),
    Stage("mu_head", ("h",), "mu", _conv("hidden_filters", "latent_dim")),
    Stage("logvar_head", ("h",), "logvar", _conv("hidden_filters", "latent_dim")),
    Stage("sampling", ("mu", "logvar"), "latent", _sampling),
    Stage("power_norm", ("latent",), "signal", _power_norm),
)
RECEIVER = (
    Stage("rx_conv1", ("y",), "h", _conv("latent_dim", "hidden_filters")),
    Stage("rx_act1", ("h",), "h", _fixed(elu)),
    Stage("rx_bn", ("h",), "h", _batchnorm),
    Stage("rx_conv2", ("h",), "h", _conv("hidden_filters", "M")),
)
STAGES = TRANSMITTER + RECEIVER

# In eval mode every transmitter stage before the power norm maps each
# position on its own (batch norm uses running stats, sampling returns mu),
# so the codebook runs this prefix once per message.
_ENCODER = TRANSMITTER[:-1]  # one-hot -> pre-normalization latent

# Positions per receiver pass in ``decide``: the widest activation is then
# 512 x hidden_filters floats (512 KiB at 256 filters) for any chunk size.
# In float32, blocks this tall give logits bit-equal to one pass over the
# whole chunk at k = 2, 4 and 8 (25,600 positions); blocks of 256 rows at
# k = 2, and of 64 at k = 4, changed them in the last bits.
_DECIDE_ROWS = 512

# Parameter order: every conv in chain order, then every batch norm. The
# checkpoint's layer list and clip_global_norm's summation follow it.
_PARAMETER_FIELDS = ((Conv1D, ("weight", "bias")), (BatchNorm1D, ("gamma", "shift")))


@dataclass
class EndToEndResult:
    mu: Tensor
    logvar: Tensor
    signal: Tensor
    loss: Tensor
    breakdown: LossBreakdown
    # (stage name, output) in chain order, with the channel output between
    # transmitter and receiver as "channel"
    stages: list[tuple[str, np.ndarray]]


class CommSystem:
    """End-to-end learned transceiver built from a :class:`SystemConfig`.

    Each stage's layer is the attribute named after the stage.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.training = True
        rng = np.random.default_rng(derive_seed(config.seed, _INIT_STREAM))
        for stage in STAGES:
            setattr(self, stage.name, stage.build(config, rng, stage.name))

    def layers_of(self, kind: type | tuple[type, ...]) -> list[tuple[str, object]]:
        """(stage name, layer) for every stage whose layer is a ``kind``, in chain order."""
        return [(s.name, getattr(self, s.name)) for s in STAGES
                if isinstance(getattr(self, s.name), kind)]

    # -- mode handling -------------------------------------------------------

    def train_mode(self) -> "CommSystem":
        return self._set_training(True)

    def eval_mode(self) -> "CommSystem":
        return self._set_training(False)

    def _set_training(self, flag: bool) -> "CommSystem":
        self.training = flag
        for _, layer in self.layers_of((BatchNorm1D, GaussianSampling)):
            layer.training = flag
        return self

    # -- parameters ------------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{name}.{fld}", getattr(layer, fld))
                for kind, fields in _PARAMETER_FIELDS
                for name, layer in self.layers_of(kind)
                for fld in fields]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.parameters())

    # -- forward passes -----------------------------------------------------------

    def _run(self, stages, env: dict, record=None) -> dict:
        for name, inputs, output, _ in stages:
            env[output] = getattr(self, name)(*(env[i] for i in inputs))
            if record is not None:
                record.append((name, env[output].data))
        return env

    def transmit(self, onehot) -> tuple[Tensor, Tensor, Tensor]:
        """One-hot messages (batch, L, M) to power-normalized signal, plus
        the posterior mu and logvar the signal was drawn from."""
        env = self._run(TRANSMITTER, {"x": self._check_onehot(onehot)})
        return env["signal"], env["mu"], env["logvar"]

    def receive(self, y: Tensor) -> Tensor:
        """Channel output (batch, L, latent_dim) to per-position probabilities."""
        return softmax(self._run(RECEIVER, {"y": cast(y, SYSTEM_DTYPE)})["h"])

    def end_to_end(self, onehot, channel: ChannelModel) -> EndToEndResult:
        """Forward through the channel and the loss, computed from the logits.
        Every stage's output is kept in ``stages``; in training the graph
        holds them until the result is released anyway."""
        x = self._check_onehot(onehot)
        stages: list[tuple[str, np.ndarray]] = []
        env = self._run(TRANSMITTER, {"x": x}, stages)
        env["y"] = channel.apply(env["signal"])
        stages.append(("channel", env["y"].data))
        env = self._run(RECEIVER, env, stages)
        loss, breakdown = beta_vae_loss(env["h"], x, env["mu"], env["logvar"],
                                        self.config.beta)
        return EndToEndResult(mu=env["mu"], logvar=env["logvar"], signal=env["signal"],
                              loss=loss, breakdown=breakdown, stages=stages)

    # -- eval-mode codebook path --------------------------------------------------

    def codebook(self, max_rows: int) -> np.ndarray:
        """Eval-mode pre-normalization latent of every message, shape (M, latent_dim).

        Runs the transmitter stages before the power norm on one-hot slices of
        at most ``max_rows`` messages, so no M x M identity is allocated.
        """
        if self.training:
            raise ConfigError("codebook requires eval mode; call eval_mode() first")
        if max_rows < 1:
            raise DomainError(f"max_rows must be >= 1, got {max_rows}")
        M = self.config.M
        book = np.empty((M, self.config.latent_dim), dtype=SYSTEM_DTYPE)
        x = np.zeros((1, min(max_rows, M), M), dtype=SYSTEM_DTYPE)  # one slice buffer, reused
        with no_grad():
            for start in range(0, M, max_rows):
                rows = np.arange(min(max_rows, M - start))
                x[0, rows, start + rows] = 1.0
                latent = self._run(_ENCODER, {"x": Tensor(x[:, :rows.size])})["latent"]
                book[start:start + rows.size] = latent.data[0]
                x[0, rows, start + rows] = 0.0
        return book

    def encode(self, codebook: np.ndarray, symbols: np.ndarray) -> Tensor:
        """Integer symbols (batch, L) to the power-normalized signal: a gather
        from ``codebook(...)`` and the power norm, equal to eval-mode transmit.
        A symbol outside [0, M) raises DomainError."""
        lo, hi = symbols.min(initial=0), symbols.max(initial=0)
        if lo < 0 or hi >= self.config.M:
            bad = lo if lo < 0 else hi
            raise DomainError(f"symbols must be in [0, {self.config.M}), got {bad}")
        return self.power_norm(Tensor(codebook[symbols]))

    def decide(self, y: Tensor) -> np.ndarray:
        """Channel output (batch, L, latent_dim) to the decided symbols, int64 (batch, L).

        The argmax of the receiver's logits, computed on
        consecutive blocks of ``_DECIDE_ROWS`` positions. In eval mode every
        receiver stage maps each position on its own, so the blocks do not
        change the decisions; they bound the memory of a pass.
        """
        if self.training:
            raise ConfigError("decide requires eval mode; call eval_mode() first")
        rows = y.data.astype(SYSTEM_DTYPE, copy=False).reshape(1, -1, y.shape[-1])
        decided = np.empty(rows.shape[1], dtype=np.int64)
        with no_grad():
            for start in range(0, rows.shape[1], _DECIDE_ROWS):
                block = Tensor(rows[:, start:start + _DECIDE_ROWS])
                scores = self._run(RECEIVER, {"y": block})["h"].data
                decided[start:start + scores.shape[1]] = scores[0].argmax(axis=1)
        return decided.reshape(y.shape[:-1])

    def _check_onehot(self, onehot) -> Tensor:
        x = cast(onehot if isinstance(onehot, Tensor) else Tensor(onehot), SYSTEM_DTYPE)
        if x.ndim != 3 or x.shape[2] != self.config.M:
            raise DomainError(
                f"expected one-hot input of shape (batch, L, {self.config.M}), got {x.shape}"
            )
        d = x.data
        if not np.all((d == 0.0) | (d == 1.0)) or not np.all(d.sum(axis=2) == 1.0):
            raise DomainError("input rows must be exactly one-hot")
        return x
