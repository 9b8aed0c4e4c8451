"""Transceiver assembly: the stage chain from messages to logits.

The transmitter maps messages, as one-hot rows, to a power-constrained
latent signal; the receiver maps the channel output back to one score
(logit) per message.
The chain is written once, as the TRANSMITTER and RECEIVER stage tuples:
construction, forward passes, the stage records, mode switching, parameter
naming and the checkpoint's batch-norm list all iterate them. Every
convolution is position-wise (kernel size 1), so a trained system can be
applied to any block length.

Everything the system holds and computes is float32: parameters, batch-norm
running statistics, activations, gradients, the codebook and the decoder.
Channel outputs of another dtype are cast where they enter (``decide``).

``end_to_end`` is the one path that runs the whole chain on integer
symbols: transmitter, channel, receiver and the loss, computed from the
logits (the loss applies the softmax itself). It keeps every stage's output,
so the transmitted signal is its ``power_norm`` entry and the logits its
``rx_conv2`` entry; training, validation and the tests' reference for the
codebook path all read it. The ``PER_SYMBOL`` stages before the
transmitter's batch norm see each position's one-hot row alone, so they run
once per distinct symbol, on a table (``_symbol_table``): ``end_to_end``
wraps it in one graph node (``_per_symbol``), whose backward runs on the
table too, from the output gradient summed once per symbol, and ``codebook``
runs it on slices of the alphabet. Evaluation runs the same tuples in pieces:
``codebook`` precomputes each message's pre-normalization latent once,
``encode`` gathers from it and power-normalizes, and ``decide`` runs the
receiver on blocks of ``_DECIDE_ROWS`` positions and keeps only each
position's argmax, so no full-chunk activation is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .channels import CHANNEL_KINDS, ChannelModel
from .data import MAX_K, one_hot
from .errors import ConfigError, DomainError
from .layers import (
    BatchNorm1D,
    Conv1D,
    GaussianSampling,
    PowerNormalization,
    conv1d_grads,
    elu,
    elu_parts,
    elu_slope,
)
from .losses import LossBreakdown, beta_vae_loss
from .seeding import derive_seed
from .tensor import SYSTEM_DTYPE, Tensor, from_op, no_grad

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
        if not 1 <= self.k <= MAX_K:
            raise ConfigError(f"k must be in [1, {MAX_K}], got {self.k}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.latent_multiplier not in VALID_LATENT_MULTIPLIERS:
            raise ConfigError(
                f"latent_multiplier must be one of {VALID_LATENT_MULTIPLIERS}, got {self.latent_multiplier}"
            )
        if self.hidden_filters < 1:
            raise ConfigError(f"hidden_filters must be >= 1, got {self.hidden_filters}")
        if not 0.0 <= self.beta < np.inf:  # also false for NaN
            raise ConfigError(f"beta must be finite and non-negative, got {self.beta}")
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

# Kernel-1 convolutions and ELUs of the one-hot input: each maps a position
# by its symbol alone, in either mode.
PER_SYMBOL = TRANSMITTER[:4]

# The per-symbol table is padded, by repeating rows, to at least
# _TABLE_MIN_ROWS rows and _TABLE_MIN_FLOATS floats (rows x hidden_filters).
# A float32 (rows x H) @ (H x H) product gives rows bit-equal to the product
# over a whole batch only when it is this large: on OpenBLAS's AVX-512 sgemm,
# 4 rows at 256 filters and 37 rows at 32 filters still differ in the last bits.
_TABLE_MIN_ROWS = 8
_TABLE_MIN_FLOATS = 2048

# Positions per receiver pass in ``decide``: the widest activation is then
# 512 x hidden_filters floats (512 KiB at 256 filters) for any chunk size.
# In float32, blocks this tall give logits bit-equal to one pass over the
# whole chunk at k = 2, 4 and 8 (25,600 positions); blocks of 256 rows at
# k = 2, and of 64 at k = 4, changed them in the last bits.
_DECIDE_ROWS = 512

# Messages per ``codebook`` slice, fixed: at k = 8 every smaller slice size
# tried changed some float32 latents, so the codebook depends only on the system.
_CODEBOOK_ROWS = 256

# Parameter order: every conv in chain order, then every batch norm. The
# checkpoint's layer list and clip_global_norm's summation follow it.
_PARAMETER_FIELDS = ((Conv1D, ("weight", "bias")), (BatchNorm1D, ("gamma", "shift")))


@dataclass
class EndToEndResult:
    """The loss of one ``end_to_end`` pass and every stage's output.

    ``stages`` holds (stage name, output) for all 14 stages in chain order,
    with the channel output between transmitter and receiver as "channel".
    A ``PER_SYMBOL`` stage's entry is its output on the table of distinct
    symbols, shape (rows, hidden_filters), not on every position (see
    ``CommSystem._symbol_table``); the other entries are (batch, L, width).
    """

    loss: Tensor
    breakdown: LossBreakdown
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

    def end_to_end(self, symbols, channel: ChannelModel) -> EndToEndResult:
        """Integer symbols (batch, L) forward through the channel and the loss,
        computed from the logits. A symbol outside [0, M), a non-integer dtype
        or another rank raises DomainError. Every stage's output is kept in
        ``stages``; in training the graph holds them until the result is
        released anyway."""
        symbols = self._check_symbols(symbols)
        x = one_hot(symbols, self.config.M)  # the loss target; sums gradients per symbol
        stages: list[tuple[str, np.ndarray]] = []
        h = self._per_symbol(symbols, x, stages)
        env = self._run(TRANSMITTER[len(PER_SYMBOL):], {"h": h}, stages)
        env["y"] = channel.apply(env["signal"])
        stages.append(("channel", env["y"].data))
        env = self._run(RECEIVER, env, stages)
        loss, breakdown = beta_vae_loss(env["h"], x, env["mu"], env["logvar"],
                                        self.config.beta)
        return EndToEndResult(loss=loss, breakdown=breakdown, stages=stages)

    def _symbol_table(self, symbols: np.ndarray):
        """The ``PER_SYMBOL`` stages on a table of the distinct symbols, in
        increasing order and padded by repeating rows (per position if the
        batch is no larger; see ``_TABLE_MIN_FLOATS``); on it, tx_conv1 is a
        row gather of its weight. Returns the symbol of each table row, each
        position's table row, the four stages' table outputs and the two
        ELUs' ``neg`` parts."""
        conv1, conv2 = self.tx_conv1, self.tx_conv2
        flat = symbols.reshape(-1)
        rows = max(_TABLE_MIN_ROWS, -(-_TABLE_MIN_FLOATS // conv2.in_channels))
        if flat.size <= rows:
            table, inverse = flat, np.arange(flat.size)
        else:
            distinct, inverse = np.unique(flat, return_inverse=True)
            table = np.resize(distinct, max(distinct.size, rows))
        h1 = conv1.weight.data[:, :, 0].T[table]
        h1 += conv1.bias.data
        a1, neg1 = elu_parts(h1)
        h2 = a1 @ conv2.weight.data[:, :, 0].T
        h2 += conv2.bias.data
        a2, neg2 = elu_parts(h2)
        return table, inverse, (h1, a1, h2, a2), (neg1, neg2)

    def _per_symbol(self, symbols: np.ndarray, x: Tensor, record: list) -> Tensor:
        """The ``PER_SYMBOL`` stages on every position, as one graph node: the
        rows of ``_symbol_table`` gathered back to positions, each stage's table
        output put in ``record``. The backward runs on the table too: the
        one-hot rows ``x`` sum the output gradient per symbol (``x.T @ g``) onto
        each symbol's first table row (other rows get zero), tx_conv2 and the
        ELUs take their gradients on the table's rows, and tx_conv1's are the
        table gradient's rows, one per present symbol, and its column sum.
        These are the per-stage chain's gradients, summed in another order."""
        conv1, conv2 = self.tx_conv1, self.tx_conv2
        table, inverse, (h1, a1, h2, a2), (neg1, neg2) = self._symbol_table(symbols)
        record.extend(zip((s.name for s in PER_SYMBOL), (h1, a1, h2, a2)))
        w2 = conv2.weight.data[:, :, 0].T

        def grad(g):
            present, first = np.unique(table, return_index=True)
            sums = x.data.reshape(inverse.size, -1).T @ g.reshape(inverse.size, -1)
            g2 = np.zeros_like(a2)
            g2[first] = sums[present]
            gx2, gw2, gb2 = conv1d_grads(a1, elu_slope(neg2, g2), w2)
            g1 = elu_slope(neg1, gx2)
            gw1 = np.zeros_like(sums)
            gw1[present] = g1[first]
            return gw1.T[:, :, None], g1.sum(axis=0), gw2, gb2

        return from_op(a2[inverse].reshape(symbols.shape + a2.shape[1:]),
                       (conv1.weight, conv1.bias, conv2.weight, conv2.bias), grad)

    # -- eval-mode codebook path --------------------------------------------------

    def codebook(self) -> np.ndarray:
        """Eval-mode pre-normalization latent of every message, shape (M, latent_dim).

        Slices of ``_CODEBOOK_ROWS`` messages run through ``end_to_end``'s
        ``_symbol_table`` and the later stages before the power norm. A slice's
        messages are distinct, so it runs per position or is its own unpadded
        table: every product keeps the per-stage chain's shape and bits."""
        if self.training:
            raise ConfigError("codebook requires eval mode; call eval_mode() first")
        M = self.config.M
        book = np.empty((M, self.config.latent_dim), dtype=SYSTEM_DTYPE)
        with no_grad():
            for start in range(0, M, _CODEBOOK_ROWS):
                messages = np.arange(start, min(start + _CODEBOOK_ROWS, M))
                _, inverse, (*_, h), _ = self._symbol_table(messages)
                env = self._run(TRANSMITTER[len(PER_SYMBOL):-1], {"h": Tensor(h[inverse][None])})
                book[messages] = env["latent"].data[0]
        return book

    def encode(self, codebook: np.ndarray, symbols: np.ndarray) -> Tensor:
        """Integer symbols (batch, L) to the power-normalized signal: a gather
        from ``codebook()`` and the power norm, equal to the eval-mode transmitter.
        Symbols that ``end_to_end`` refuses raise DomainError."""
        return self.power_norm(Tensor(codebook[self._check_symbols(symbols)]))

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

    def _check_symbols(self, symbols) -> np.ndarray:
        symbols = np.asarray(symbols)
        if symbols.ndim != 2 or not np.issubdtype(symbols.dtype, np.integer):
            raise DomainError(
                f"expected integer symbols of shape (batch, L), got {symbols.dtype} {symbols.shape}"
            )
        lo, hi = symbols.min(initial=0), symbols.max(initial=0)
        if lo < 0 or hi >= self.config.M:
            bad = lo if lo < 0 else hi
            raise DomainError(f"symbols must be in [0, {self.config.M}), got {bad}")
        return symbols

    def _check_onehot(self, onehot) -> Tensor:
        """One-hot rows (batch, L, M) as a float32 Tensor; the benchmark's
        stage-by-stage trace enters the chain here."""
        x = Tensor(np.asarray(onehot.data if isinstance(onehot, Tensor) else onehot,
                              dtype=SYSTEM_DTYPE))
        if x.ndim != 3 or x.shape[2] != self.config.M:
            raise DomainError(
                f"expected one-hot input of shape (batch, L, {self.config.M}), got {x.shape}"
            )
        d = x.data
        if not np.all((d == 0.0) | (d == 1.0)) or not np.all(d.sum(axis=2) == 1.0):
            raise DomainError("input rows must be exactly one-hot")
        return x
