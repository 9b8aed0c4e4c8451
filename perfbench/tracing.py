"""Traced run: spans around every call into a layer, recorded from this file.

The training step and the evaluation chunk are replayed here stage by stage,
through the CommSystem layer attributes and in the order transmit/receive
chain them, so that each call into a layer gets its own span. Each replay is
checked against the library call it mirrors. Spans stay in memory and are
written out once the run ends.
"""

from __future__ import annotations

import copy
import json
import math
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from vaecomm import (
    ChannelModel,
    CommSystem,
    Constellation,
    Tensor,
    baseline_bler,
    beta_vae_loss,
    block_length_transfer,
    derive_seed,
    evaluate_bler,
    load_checkpoint,
    no_grad,
    noise_variance,
    one_hot,
    save_checkpoint,
)
from vaecomm import evaluation, training
from vaecomm.baselines import demodulate_hard, modulate
from vaecomm.layers import softmax
from vaecomm.optim import Adam

import workloads
from workloads import BATCH, L, TRANSFER_L, TRAIN_EBNO_DB

# (stage, input names, output name), in the order CommSystem chains them
TX_STAGES = (
    ("tx_conv1", ("x",), "h"),
    ("tx_act1", ("h",), "h"),
    ("tx_conv2", ("h",), "h"),
    ("tx_act2", ("h",), "h"),
    ("tx_bn", ("h",), "h"),
    ("mu_head", ("h",), "mu"),
    ("logvar_head", ("h",), "logvar"),
    ("sampling", ("mu", "logvar"), "latent"),
    ("power_norm", ("latent",), "signal"),
)
RX_STAGES = (
    ("rx_conv1", ("y",), "h"),
    ("rx_act1", ("h",), "h"),
    ("rx_bn", ("h",), "h"),
    ("rx_conv2", ("h",), "h"),
    ("softmax", ("h",), "probs"),
)
STAGES = tuple(name for name, _, _ in TX_STAGES + RX_STAGES)

# train()'s defaults, which the workloads use
LR = 0.01
CLIP_NORM = 5.0
VALIDATION_FRACTION = 0.1

TRAIN_STEPS = 24          # traced steps, each paired with one untraced step
EVAL_CHUNKS = {L: 8, TRANSFER_L: 3}
BASELINE_CHUNKS = 6
EVAL_CHUNK_BLOCKS = 256        # evaluate_bler's default chunk
BASELINE_CHUNK_BLOCKS = 4096   # baseline_bler's default chunk
REPLAY_REPEATS = 15
VALIDATION_REPEATS = 3
CHECKPOINT_REPEATS = 3
TRACE_EBNO_DB = 0.0

_NO_SPAN = nullcontext()


def no_span(_name):
    return _NO_SPAN


class Tracer:
    """Spans (name, start, end, parent, step) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.step: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.step]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def durations(self, name: str, phase: str, own: bool = True) -> list[float]:
        times = self.self_times() if own else [e - s for _, s, e, _, _ in self.spans]
        prefix = phase + "/"
        return [t for (n, _, _, _, step), t in zip(self.spans, times)
                if n == name and step is not None and step.startswith(prefix)]

    def median_ms(self, name: str, phase: str, own: bool = True) -> float:
        return 1e3 * statistics.median(self.durations(name, phase, own))

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        own = self.self_times()
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent,
             "step": step, "self": t}
            for (name, start, end, parent, step), t in zip(self.spans, own)
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# -- stage-by-stage replays ------------------------------------------------------

def stage_fn(system: CommSystem, name: str):
    return softmax if name == "softmax" else getattr(system, name)


def run_stages(system, stages, env: dict, span, capture: dict | None = None) -> dict:
    """Call each stage on env's tensors; capture maps stage -> (inputs, output bytes)."""
    for name, inputs, output in stages:
        args = [env[i] for i in inputs]
        with span(f"layers.{name}"):
            env[output] = stage_fn(system, name)(*args)
        if capture is not None:
            capture[name] = ([a.data for a in args], env[output].data.nbytes)
    return env


def transmit(system, x, span, capture=None) -> dict:
    """CommSystem.transmit, one span per stage."""
    with span("model.check_onehot"):
        x = system._check_onehot(x)
    return run_stages(system, TX_STAGES, {"x": x}, span, capture)


def train_step(system, rows, channel, optimizer, span, capture=None):
    """One batch of train()'s inner loop. Returns (loss, gradient norm, one-hot bytes)."""
    cfg = system.config
    with span("step"):
        with span("data.one_hot"):
            x = one_hot(rows, cfg.M)
        with span("model.check_onehot"):  # end_to_end checks, then transmit checks again
            x = system._check_onehot(x)
        env = transmit(system, x, span, capture)
        with span("channels.apply"):
            env["y"] = channel.apply(env["signal"])
        run_stages(system, RX_STAGES, env, span, capture)
        with span("losses.beta_vae_loss"):
            loss, breakdown = beta_vae_loss(env["probs"], x, env["mu"], env["logvar"], cfg.beta)
        with span("optim.zero_grad"):
            optimizer.zero_grad()
        with span("tensor.backward"):
            loss.backward()
        with span("training.clip_global_norm"):
            norm = training.clip_global_norm(system.parameters(), CLIP_NORM)
        with span("optim.adam_step"):
            optimizer.step()
    return breakdown.total, norm, x.data.nbytes


def eval_chunk(system, ebno_db: float, length: int, n_blocks: int, seed: int,
               chunk_idx: int, span):
    """vaecomm.evaluation's per-chunk count at point index 0, one span per call."""
    cfg = system.config
    with span("evaluation.chunk"):
        msg_rng = np.random.default_rng(
            derive_seed(seed, 0, chunk_idx, evaluation._MESSAGE_STREAM))
        channel = ChannelModel(cfg.channel_kind, ebno_db, cfg.code_rate,
                               rng_seed=derive_seed(seed, 0, chunk_idx, evaluation._CHANNEL_STREAM))
        symbols = msg_rng.integers(0, cfg.M, size=(n_blocks, length), dtype=np.int64)
        with no_grad():
            with span("data.one_hot"):
                x = one_hot(symbols, cfg.M)
            with span("model.transmit"):
                signal = transmit(system, x, span)["signal"]
            with span("channels.apply"):
                y = channel.apply(signal)
            with span("model.receive"):
                probs = run_stages(system, RX_STAGES, {"y": y}, span)["probs"]
        with span("evaluation.decide"):
            wrong = np.argmax(probs.data, axis=2) != symbols
            counts = int(wrong.any(axis=1).sum()), int(wrong.sum())
    return counts, x.data.nbytes


def baseline_chunk(c, rng, n_blocks: int, k: int, sigma: float, span):
    """One chunk of baseline_bler's AWGN loop. Returns (block, symbol, bit) errors."""
    with span("baselines.chunk"):
        bits = rng.integers(0, 2, size=n_blocks * k * L)
        with span("baselines.modulate"):
            tx = modulate(c, bits)
        noise = (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape)) * sigma
        rx = tx + noise
        with span("baselines.demodulate_hard"):
            decided = demodulate_hard(c, rx)
        wrong = (decided != bits).reshape(n_blocks, L, k)
        sym_wrong = wrong.any(axis=2)
        return int(sym_wrong.any(axis=1).sum()), int(sym_wrong.sum()), int(wrong.sum())


def replay_backward(system, capture: dict, rng) -> dict:
    """Backward ms per stage: the stage alone on captured inputs, under a scalar probe.

    The probe is sum(output * w) for a fixed random w; its own backward cost,
    measured on a leaf of the output's shape, is subtracted.
    """
    replica = copy.deepcopy(system).train_mode()
    result = {}
    for name in STAGES:
        fn = stage_fn(replica, name)
        inputs = capture[name][0]
        needs_grad = name != "tx_conv1"  # the one-hot input is a constant in training
        weight = None
        with_probe, probe_only = [], []
        for _ in range(REPLAY_REPEATS):
            out = fn(*[Tensor(a, requires_grad=needs_grad) for a in inputs])
            if weight is None:
                weight = Tensor(rng.standard_normal(out.shape))
            probe = (out * weight).sum()
            t0 = time.perf_counter()
            probe.backward()
            with_probe.append(time.perf_counter() - t0)
            leaf_probe = (Tensor(out.data, requires_grad=True) * weight).sum()
            t0 = time.perf_counter()
            leaf_probe.backward()
            probe_only.append(time.perf_counter() - t0)
            for p in replica.parameters():
                p.grad = None
        result[name] = 1e3 * (statistics.median(with_probe) - statistics.median(probe_only))
    return result


# -- the traced run ----------------------------------------------------------------

def trace_training(wl, data, tracer, ops, rng):
    """Alternate traced and untraced steps on a fresh system from the workload's data."""
    system = CommSystem(workloads.system_config(wl)).train_mode()
    cfg = system.config
    channel = ChannelModel(cfg.channel_kind, TRAIN_EBNO_DB, cfg.code_rate,
                           rng_seed=derive_seed(cfg.seed, training._CHANNEL_STREAM))
    optimizer = Adam(system.parameters(), lr=LR)
    rows = data.train
    n_val = max(1, int(rows.shape[0] * VALIDATION_FRACTION))
    train_rows = rows[: rows.shape[0] - n_val]
    steps = min(TRAIN_STEPS, train_rows.shape[0] // (2 * BATCH))
    perm = rng.permutation(train_rows.shape[0])
    capture: dict = {}
    untraced, losses, clipped = [], [], 0
    onehot_bytes = 0
    for i in range(steps):
        batch = train_rows[perm[2 * i * BATCH:(2 * i + 1) * BATCH]]
        tracer.step = f"train/{i}"
        loss, norm, onehot_bytes = train_step(system, batch, channel, optimizer, tracer.span,
                                              capture if i == 0 else None)
        losses.append(loss)
        clipped += norm > CLIP_NORM
        tracer.step = None
        batch = train_rows[perm[(2 * i + 1) * BATCH:(2 * i + 2) * BATCH]]
        t0 = time.perf_counter()
        loss, norm, _ = train_step(system, batch, channel, optimizer, no_span)
        untraced.append(time.perf_counter() - t0)
        losses.append(loss)
        clipped += norm > CLIP_NORM
    ops.check("trace.train_losses_finite",
              None if all(math.isfinite(v) for v in losses) else f"losses {losses}")

    metrics = {f"layers.{name}.bwd_ms": ms
               for name, ms in replay_backward(system, capture, rng).items()}
    for name in ("tensor.backward", "optim.adam_step", "training.clip_global_norm",
                 "losses.beta_vae_loss"):
        metrics[f"{name}_ms"] = tracer.median_ms(name, "train")
    metrics["training.clipped_frac"] = clipped / (2 * steps)

    val_rows = rows[rows.shape[0] - n_val:]
    val_losses = []
    for i in range(VALIDATION_REPEATS):
        tracer.step = f"validation/{i}"
        with tracer.span("training.validation"):
            val_losses.append(training._validation_loss(system, val_rows, cfg, TRAIN_EBNO_DB,
                                                        BATCH))
    tracer.step = None
    ops.check("trace.validation_loss_finite",
              None if all(math.isfinite(v) for v in val_losses) else f"losses {val_losses}")
    metrics["training.validation_ms"] = tracer.median_ms("training.validation", "validation")

    step_ms = tracer.median_ms("step", "train", own=False)
    accounted = sum(tracer.median_ms(f"layers.{s}", "train") for s in STAGES) + sum(
        metrics[f"{n}_ms"] for n in ("tensor.backward", "optim.adam_step", "losses.beta_vae_loss"))
    details = {
        "train_step_ms_traced": step_ms,
        "train_step_ms_untraced": 1e3 * statistics.median(untraced),
        "train_step_accounted_ms": accounted,
        "train_step_accounted_frac": accounted / step_ms,
    }
    return system, metrics, details, onehot_bytes, capture


def trace_eval(system, seed, scale, tracer, ops, primary_eval: bool):
    """Traced chunks at L=10 and L=100, each replay checked against the library."""
    metrics, details = {}, {}
    chunk_blocks = workloads.scaled(EVAL_CHUNK_BLOCKS, scale)
    onehot_bytes = 0
    untraced = []
    for length, n_chunks in EVAL_CHUNKS.items():
        phase = f"eval_L{length}"
        be = se = 0
        for ci in range(n_chunks):
            tracer.step = f"{phase}/{ci}"
            (b, s), nbytes = eval_chunk(system, TRACE_EBNO_DB, length, chunk_blocks, seed, ci,
                                        tracer.span)
            tracer.step = None
            be, se = be + b, se + s
            if length == L:
                onehot_bytes = nbytes
                if primary_eval:
                    t0 = time.perf_counter()
                    eval_chunk(system, TRACE_EBNO_DB, length, chunk_blocks, seed, ci, no_span)
                    untraced.append(time.perf_counter() - t0)
        blocks = n_chunks * chunk_blocks
        ops.run(
            f"trace.eval_replica_L{length}",
            lambda: block_length_transfer(system, [length], TRACE_EBNO_DB, blocks, seed,
                                          chunk_blocks=chunk_blocks),
            check=lambda recs: None if (recs[0].bler, recs[0].ser) == (
                be / blocks, se / (blocks * length)) else
            f"replica counts {(be, se)} differ from the library's {recs[0]}")
        for name in ("model.transmit", "model.receive", "evaluation.decide", "evaluation.chunk"):
            metrics[f"{name}_L{length}_ms"] = tracer.median_ms(name, phase, own=False)
    if primary_eval:
        details["eval_chunk_ms_untraced"] = 1e3 * statistics.median(untraced)
    return metrics, details, onehot_bytes


def pool_speedup(wl, system, seed, scale, ops) -> float:
    """Sweep time at workers=1 over the time at the default worker count."""
    times = {1: [], None: []}
    counts = {}
    for _ in range(2):
        for workers in (1, None):
            curve, dt = ops.run(
                f"trace.sweep_workers_{workers}",
                lambda: evaluate_bler(system, wl.sweep_points,
                                      workloads.scaled(workloads.SWEEP_BLOCKS, scale), seed=seed,
                                      block_length=L, workers=workers))
            times[workers].append(dt)
            if curve is not None:
                counts.setdefault(workers, workloads.curve_counts(curve))
    ops.check("trace.counts_independent_of_workers",
              None if counts.get(1) == counts.get(None) else
              f"workers=1 {counts.get(1)} vs default {counts.get(None)}")
    return statistics.median(times[1]) / statistics.median(times[None])


def trace_baseline(wl, seed, scale, tracer, ops) -> dict:
    c = Constellation.qpsk()
    n_blocks = workloads.scaled(BASELINE_CHUNK_BLOCKS, scale)
    sigma = math.sqrt(noise_variance(TRACE_EBNO_DB, float(c.bits_per_symbol)))
    rng = np.random.default_rng(seed)
    totals = np.zeros(3, dtype=np.int64)
    for ci in range(BASELINE_CHUNKS):
        tracer.step = f"baseline/{ci}"
        totals += baseline_chunk(c, rng, n_blocks, wl.k, sigma, tracer.span)
    tracer.step = None
    ops.run("trace.baseline_replica",
            lambda: baseline_bler(c, TRACE_EBNO_DB, wl.k, L, BASELINE_CHUNKS * n_blocks, seed,
                                  channel="awgn", chunk_blocks=n_blocks),
            check=lambda r: None
            if (r.block_errors, r.symbol_errors, r.bit_errors) == tuple(totals)
            else f"replica counts {tuple(totals)} differ from the library's {r}")
    return {f"baselines.{name}_ms": tracer.median_ms(f"baselines.{name}", "baseline", own=False)
            for name in ("modulate", "demodulate_hard", "chunk")}


def trace_checkpoint(system, tracer, tmp: Path) -> dict:
    path = str(tmp / "trace.json")
    for i in range(CHECKPOINT_REPEATS):
        tracer.step = f"checkpoint/{i}"
        with tracer.span("checkpoint.save"):
            save_checkpoint(system, path)
        with tracer.span("checkpoint.load"):
            load_checkpoint(path)
    tracer.step = None
    return {
        "checkpoint.save_ms": tracer.median_ms("checkpoint.save", "checkpoint"),
        "checkpoint.load_ms": tracer.median_ms("checkpoint.load", "checkpoint"),
        "checkpoint.bytes": float(Path(path).stat().st_size),
    }


def computed_counts(system, capture) -> dict:
    """Forward multiply-adds of the convolutions and float64 activation bytes, per symbol."""
    flops = sum(2 * getattr(system, name).weight.size for name in STAGES
                if hasattr(getattr(system, name, None), "weight"))
    x = capture["tx_conv1"][0][0]
    symbols = x.shape[0] * x.shape[1]
    # the one-hot input plus every stage's output
    activations = x.nbytes + sum(capture[name][1] for name in STAGES)
    return {
        "model.flops_per_symbol": float(flops),
        "model.activation_bytes_per_symbol": activations / symbols,
    }


UNITS = {
    **{f"layers.{s}.fwd_ms": "ms" for s in STAGES},
    **{f"layers.{s}.bwd_ms": "ms" for s in STAGES},
    "tensor.backward_ms": "ms",
    "optim.adam_step_ms": "ms",
    "training.clip_global_norm_ms": "ms",
    "training.clipped_frac": "ratio",
    "data.one_hot_ms": "ms",
    "model.check_onehot_ms": "ms",
    "losses.beta_vae_loss_ms": "ms",
    "data.one_hot_bytes": "B",
    "channels.apply_ms": "ms",
    "training.validation_ms": "ms",
    **{f"{name}_L{length}_ms": "ms" for length in (L, TRANSFER_L)
       for name in ("model.transmit", "model.receive", "evaluation.decide", "evaluation.chunk")},
    "evaluation.pool_speedup": "ratio",
    "baselines.modulate_ms": "ms",
    "baselines.demodulate_hard_ms": "ms",
    "baselines.chunk_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "B",
    "model.flops_per_symbol": "flop/symbol",
    "model.activation_bytes_per_symbol": "B/symbol",
    "trace_overhead_frac": "ratio",
}


def run_traced(wl, seed: int, scale: float, ops, out_dir: Path, spans_path: Path):
    tracer = Tracer()
    rng = np.random.default_rng(derive_seed(seed, workloads.TRACE_STREAM))
    trace_seed = derive_seed(seed, workloads.TRACE_STREAM, 1)
    primary_eval = wl.primary == "eval"
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if primary_eval:
            _, eval_system, _, _, data = workloads.setup_eval_system(
                wl, scale, ops, Path(tmp) / "setup.json")
        else:
            data, _ = workloads.build_train_inputs(wl, seed, scale)
        trained, metrics, details, train_onehot, capture = trace_training(wl, data, tracer, ops,
                                                                          rng)
        if not primary_eval:
            eval_system = trained.eval_mode()
        eval_metrics, eval_details, eval_onehot = trace_eval(eval_system, trace_seed, scale,
                                                             tracer, ops, primary_eval)
        metrics.update(eval_metrics)
        details.update(eval_details)
        metrics["evaluation.pool_speedup"] = pool_speedup(wl, eval_system, trace_seed, scale, ops)
        metrics.update(trace_baseline(wl, trace_seed, scale, tracer, ops))
        metrics.update(trace_checkpoint(eval_system, tracer, Path(tmp)))

    primary = f"eval_L{L}" if primary_eval else "train"
    for s in STAGES:
        metrics[f"layers.{s}.fwd_ms"] = tracer.median_ms(f"layers.{s}", primary)
    for name in ("data.one_hot", "model.check_onehot", "channels.apply"):
        metrics[f"{name}_ms"] = tracer.median_ms(name, primary)
    metrics["data.one_hot_bytes"] = float(eval_onehot if primary_eval else train_onehot)
    metrics.update(computed_counts(trained, capture))
    if primary_eval:
        traced = tracer.median_ms("evaluation.chunk", primary, own=False)
        untraced = details["eval_chunk_ms_untraced"]
    else:
        traced, untraced = details["train_step_ms_traced"], details["train_step_ms_untraced"]
    metrics["trace_overhead_frac"] = (traced - untraced) / untraced

    tracer.write(spans_path)
    details["spans"] = str(spans_path.name)
    return workloads.with_units(metrics, UNITS), details
