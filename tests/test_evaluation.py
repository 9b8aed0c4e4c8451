"""Error-rate measurement: the codebook and row-block path against the
reference path, counting, sharding determinism, worker limits, progress."""

import json
import logging
import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import chain_stages
from vaecomm import evaluation, model
from vaecomm.channels import ChannelModel
from vaecomm.curves import dataclass_table, write_table
from vaecomm.data import generate_dataset, one_hot
from vaecomm.errors import ConfigError, DomainError
from vaecomm.evaluation import (
    THREADS_ENV_VAR,
    TransferRecord,
    block_length_transfer,
    count_chunks,
    default_label,
    evaluate_bler,
    resolve_worker_count,
)
from vaecomm.layers import BatchNorm1D, Conv1D
from vaecomm.model import TRANSMITTER, CommSystem, SystemConfig
from vaecomm.seeding import derive_seed
from vaecomm.tensor import Tensor, no_grad
from vaecomm.training import train


class EchoSystem:
    """Duck-typed stand-in whose codebook is the identity and whose receiver
    decides the largest entry of its input, so the decisions are the
    transmitted symbols.

    With a noiseless channel every decision matches its label, giving exact
    zero error counts for counting tests.
    """

    def __init__(self, k=2, block_length=5):
        self.config = SystemConfig(k=k, n=1, latent_multiplier=2,
                                   hidden_filters=4, block_length=block_length)
        self.training = False

    def codebook(self):
        return np.eye(self.config.M)

    def encode(self, codebook, symbols):
        return Tensor(codebook[symbols])

    def decide(self, y):
        return np.argmax(y.data, axis=2)


class CorruptingSystem(EchoSystem):
    """EchoSystem that flips the first symbol of the first block it sees."""

    def decide(self, y):
        decided = super().decide(y)
        decided[0, 0] = (decided[0, 0] + 1) % self.config.M
        return decided


class ThreadRecordingSystem(EchoSystem):
    """EchoSystem that records the thread every chunk is decided on."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.threads = set()

    def decide(self, y):
        self.threads.add(threading.get_ident())
        return super().decide(y)


def small_system(seed=11, channel_kind="awgn"):
    cfg = SystemConfig(k=2, n=1, latent_multiplier=2, hidden_filters=16,
                       block_length=4, seed=seed, channel_kind=channel_kind)
    return CommSystem(cfg).eval_mode()


# ----------------------------------------- codebook path vs reference path


def chunk_streams(cfg, ebno_db, length, n_blocks, seed):
    """The symbols and channel of chunk 0 at point 0, as _count_chunk draws them."""
    msg_rng = np.random.default_rng(derive_seed(seed, 0, 0, evaluation._MESSAGE_STREAM))
    channel = ChannelModel(cfg.channel_kind, ebno_db, cfg.code_rate,
                           rng_seed=derive_seed(seed, 0, 0, evaluation._CHANNEL_STREAM))
    return msg_rng.integers(0, cfg.M, size=(n_blocks, length), dtype=np.int64), channel


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([1, 2, 4, 8]), n=st.sampled_from([1, 2]), m=st.sampled_from([2, 4]),
       kind=st.sampled_from(["awgn", "rayleigh"]), length=st.sampled_from([1, 3, 10]),
       rows=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_codebook_path_matches_transmit_and_receive(k, n, m, kind, length, rows, seed):
    cfg = SystemConfig(k=k, n=n, latent_multiplier=m, hidden_filters=16, block_length=length,
                       channel_kind=kind, seed=seed)
    system = CommSystem(cfg).eval_mode()
    rng = np.random.default_rng(seed)
    for _, bn in system.layers_of(BatchNorm1D):  # running stats away from (0, 1)
        bn.running_mean = rng.normal(size=bn.channels).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, size=bn.channels).astype(np.float32)
    with mock.patch.object(model, "_CODEBOOK_ROWS", rows):  # slices after the first
        codebook = system.codebook()
    ebno_db, n_blocks = 2.0, 9

    symbols, channel = chunk_streams(cfg, ebno_db, length, n_blocks, seed)
    stages = chain_stages(system, symbols, channel)
    reference, decided = stages["power_norm"], stages["rx_conv2"].argmax(axis=2)
    with no_grad():
        signal = system.encode(codebook, symbols)
    # two float32 paths: |a - b| <= 8 eps(float32) max(1, |b|)
    tol = 8 * np.finfo(np.float32).eps * np.maximum(1.0, np.abs(reference))
    assert np.all(np.abs(signal.data - reference) <= tol)
    _, channel = chunk_streams(cfg, ebno_db, length, n_blocks, seed)
    with no_grad():
        received = channel.apply(signal)
    np.testing.assert_array_equal(system.decide(received), decided)

    wrong = decided != symbols
    assert evaluation._count_chunk(system, codebook, ebno_db, length, n_blocks, seed, 0, 0) == (
        int(wrong.any(axis=1).sum()), int(wrong.sum()))


def test_codebook_builds_in_slices_without_an_identity():
    # a float32 one-hot slice of 256 messages is 4 MiB at k = 12, so the
    # bound leaves no room for one (the per-symbol table peaks at 0.4 MiB)
    system = CommSystem(SystemConfig(k=12, n=2, hidden_filters=32)).eval_mode()
    tracemalloc.start()
    try:
        system.codebook()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_codebook_equals_the_stage_chain_on_one_hot_slices():
    # the transmitter before the power norm, stage by stage, on the one-hot
    # rows of each slice of messages: one pass over every message up to
    # k = 8. At k = 8 a slice of 128 messages, and at k = 9 one pass over all
    # 512, changed some float32 latents, so the slice size is fixed and does
    # not follow a sweep's chunk_blocks
    for k in range(1, 11):
        for filters in (1, 3, 16, 32, 256):
            system = CommSystem(SystemConfig(k=k, n=2, hidden_filters=filters, seed=k))
            rng = np.random.default_rng(k)
            for _, conv in system.layers_of(Conv1D):  # biases away from their initial zeros
                conv.bias.data[:] = rng.normal(scale=0.1, size=conv.out_channels)
            for _, bn in system.layers_of(BatchNorm1D):  # running stats away from (0, 1)
                bn.running_mean = rng.normal(size=bn.channels).astype(np.float32)
                bn.running_var = rng.uniform(0.5, 2.0, size=bn.channels).astype(np.float32)
            system.eval_mode()
            M, rows = system.config.M, model._CODEBOOK_ROWS
            slices = [np.arange(s, min(s + rows, M))[None] for s in range(0, M, rows)]
            with no_grad():
                chain = [system._run(TRANSMITTER[:-1], {"x": one_hot(m, M)})["latent"].data[0]
                         for m in slices]
            np.testing.assert_array_equal(system.codebook(), np.concatenate(chain),
                                          err_msg=f"k={k}, filters={filters}")


def test_codebook_rejects_train_mode():
    system = small_system().train_mode()
    with pytest.raises(ConfigError, match="eval"):
        system.codebook()


@pytest.mark.parametrize("k, n", [(4, 2), (8, 4)])
def test_decide_over_several_row_blocks_matches_the_reference(k, n):
    n_blocks, length = 13, 100  # 1,300 positions: two full row blocks and a remainder
    assert n_blocks * length // model._DECIDE_ROWS == 2
    assert n_blocks * length % model._DECIDE_ROWS
    cfg = SystemConfig(k=k, n=n, block_length=length, seed=5)
    system = CommSystem(cfg).eval_mode()
    symbols, channel = chunk_streams(cfg, 0.0, length, n_blocks, 5)
    stages = chain_stages(system, symbols, channel)
    reference = stages["rx_conv2"].argmax(axis=2)
    decided = system.decide(Tensor(stages["channel"]))
    assert decided.dtype == np.int64 and decided.shape == (n_blocks, length)
    np.testing.assert_array_equal(decided, reference)
    assert len(np.unique(decided)) > 4  # the untrained receiver still tells symbols apart


def test_decide_rejects_train_mode():
    system = small_system()
    received = Tensor(np.zeros((2, 4, system.config.latent_dim)))
    system.train_mode()
    with pytest.raises(ConfigError, match="eval"):
        system.decide(received)


@pytest.mark.parametrize("k, n", [(4, 2), (8, 4)])
def test_chunk_memory_does_not_grow_with_the_chunk(k, n):
    # one L=100 chunk of 256 blocks is 25,600 positions: a whole-chunk
    # activation at 256 filters would be 52 MB on its own
    system = CommSystem(SystemConfig(k=k, n=n, hidden_filters=256)).eval_mode()
    codebook = system.codebook()
    tracemalloc.start()
    try:
        evaluation._count_chunk(system, codebook, 0.0, 100, 256, 1, 0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ------------------------------------------------------------- counting


def test_perfect_predictions_give_zero_rates():
    curve = evaluate_bler(EchoSystem(), [math.inf], blocks_per_point=50, seed=3)
    point = curve.points[0]
    assert point.bler == 0.0
    assert point.ser == 0.0
    assert point.ci_low == 0.0
    assert point.blocks == 50


def test_single_wrong_symbol_counts_once():
    # one corrupted symbol in one of B blocks: bler = 1/B, ser = 1/(B*L)
    B, L = 40, 5
    curve = evaluate_bler(CorruptingSystem(block_length=L), [math.inf],
                          blocks_per_point=B, seed=3, chunk_blocks=B)
    point = curve.points[0]
    assert point.bler == pytest.approx(1 / B)
    assert point.ser == pytest.approx(1 / (B * L))


def test_counts_satisfy_ordering_invariants():
    system = small_system()
    curve = evaluate_bler(system, [0.0, 4.0, 8.0], blocks_per_point=300, seed=9)
    L = system.config.block_length
    for p in curve.points:
        assert 0.0 <= p.ser <= p.bler <= 1.0
        assert p.bler <= L * p.ser + 1e-12
        assert p.ci_low <= p.bler <= p.ci_high


def test_curve_metadata_and_labels():
    system = small_system()
    curve = evaluate_bler(system, [2.0, 6.0], blocks_per_point=32, seed=17)
    assert [p.ebno_db for p in curve.points] == [2.0, 6.0]
    assert all(p.seed == 17 for p in curve.points)
    assert all(p.system_label == "vae_k2n1m2_awgn" for p in curve.points)
    assert all(p.block_length == 4 for p in curve.points)
    assert default_label(system) == "vae_k2n1m2_awgn"


def test_block_length_override():
    system = small_system()
    curve = evaluate_bler(system, [4.0], blocks_per_point=16, seed=5,
                          block_length=9)
    assert curve.points[0].block_length == 9
    # SER denominator reflects the override: counts divide evenly by 16*9
    assert (curve.points[0].ser * 16 * 9) == pytest.approx(
        round(curve.points[0].ser * 16 * 9))


# ------------------------------------------------------- determinism


def test_count_chunks_runs_the_chunks_in_order_and_sums_their_counts():
    # the baseline draws every chunk from one generator, so the order is its draws' order
    calls = []

    def count(chunk_idx, size):
        calls.append((chunk_idx, size))
        return size, 10 * chunk_idx, 1

    assert count_chunks(count, n_blocks=10, chunk_blocks=4) == (10, 30, 3)
    assert calls == [(0, 4), (1, 4), (2, 2)]


def test_same_seed_same_curve_any_worker_count():
    system = small_system()
    kwargs = dict(blocks_per_point=256, seed=7, chunk_blocks=64)
    a = evaluate_bler(system, [3.0, 6.0], workers=1, **kwargs)
    b = evaluate_bler(system, [3.0, 6.0], workers=4, **kwargs)
    c = evaluate_bler(system, [3.0, 6.0], workers=2, **kwargs)
    for pa, pb, pc in zip(a.points, b.points, c.points):
        assert pa == pb == pc


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), chunk_blocks=st.integers(1, 300),
       length=st.sampled_from([1, 7, 100]), workers=st.sampled_from([1, 2, 3]))
@example(seed=7, chunk_blocks=300, length=100, workers=2)  # chunks of 30,000 positions
@example(seed=7, chunk_blocks=1, length=7, workers=3)      # 450 one-block chunks
def test_counts_do_not_depend_on_the_worker_count(seed, chunk_blocks, length, workers):
    system = small_system()
    kwargs = dict(seed=seed, chunk_blocks=chunk_blocks)
    blocks = 450  # at least two chunks for every chunk_blocks drawn
    curve = evaluate_bler(system, [0.0, 4.0], blocks, block_length=length, **kwargs)
    records = block_length_transfer(system, [length], 2.0, blocks, **kwargs)
    assert evaluate_bler(system, [0.0, 4.0], blocks, block_length=length, workers=workers,
                         **kwargs) == curve
    assert block_length_transfer(system, [length], 2.0, blocks, workers=workers,
                                 **kwargs) == records


def test_default_evaluation_runs_on_the_calling_thread():
    system = ThreadRecordingSystem()
    evaluate_bler(system, [math.inf], blocks_per_point=40, seed=1, chunk_blocks=8)
    block_length_transfer(system, [2, 3], math.inf, blocks_per_length=40, seed=1,
                          chunk_blocks=8)
    assert system.threads == {threading.get_ident()}


def test_more_workers_run_chunks_in_a_pool(monkeypatch):
    by_argument = ThreadRecordingSystem()
    evaluate_bler(by_argument, [math.inf], blocks_per_point=40, seed=1, chunk_blocks=8,
                  workers=2)
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    by_env = ThreadRecordingSystem()
    block_length_transfer(by_env, [2], math.inf, blocks_per_length=40, seed=1, chunk_blocks=8)
    for system in (by_argument, by_env):
        assert system.threads and threading.get_ident() not in system.threads


def test_different_seeds_usually_differ():
    system = small_system()
    a = evaluate_bler(system, [4.0], blocks_per_point=400, seed=1)
    b = evaluate_bler(system, [4.0], blocks_per_point=400, seed=2)
    assert (a.points[0].bler, a.points[0].ser) != (b.points[0].bler, b.points[0].ser)


def test_points_use_independent_streams():
    # same point list run twice vs split across calls: per-point results match
    system = small_system()
    both = evaluate_bler(system, [3.0, 6.0], blocks_per_point=128, seed=7)
    first = evaluate_bler(system, [3.0], blocks_per_point=128, seed=7)
    assert both.points[0] == first.points[0]


def test_rayleigh_system_evaluates():
    system = small_system(channel_kind="rayleigh")
    curve = evaluate_bler(system, [10.0], blocks_per_point=64, seed=3)
    p = curve.points[0]
    assert 0.0 <= p.ser <= p.bler <= 1.0
    assert math.isfinite(p.ser)


# ------------------------------------------------------- validation


def test_rejects_training_mode():
    system = small_system()
    system.train_mode()
    with pytest.raises(ConfigError, match="eval"):
        evaluate_bler(system, [5.0], blocks_per_point=10, seed=0)


def test_rejects_bad_sweep_arguments():
    system = small_system()
    with pytest.raises(DomainError):
        evaluate_bler(system, [], blocks_per_point=10, seed=0)
    with pytest.raises(DomainError):
        evaluate_bler(system, [5.0, 5.0], blocks_per_point=10, seed=0)
    with pytest.raises(DomainError):
        evaluate_bler(system, [6.0, 5.0], blocks_per_point=10, seed=0)
    with pytest.raises(DomainError):
        evaluate_bler(system, [5.0], blocks_per_point=0, seed=0)
    with pytest.raises(DomainError):
        evaluate_bler(system, [5.0], blocks_per_point=10, seed=0, chunk_blocks=0)
    for bad in (0, 2.7, True):
        with pytest.raises(DomainError, match="block lengths"):
            evaluate_bler(system, [5.0], blocks_per_point=10, seed=0, block_length=bad)
    for bad in (float("nan"), float("-inf")):
        with pytest.raises(DomainError, match="Eb/N0"):
            evaluate_bler(system, [5.0, bad], blocks_per_point=10, seed=0)


def test_worker_count_resolution(monkeypatch):
    assert resolve_worker_count(3) == 3
    with pytest.raises(DomainError):
        resolve_worker_count(0)
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    assert resolve_worker_count() == 2
    monkeypatch.setenv(THREADS_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigError, match=THREADS_ENV_VAR):
        resolve_worker_count()
    monkeypatch.setenv(THREADS_ENV_VAR, "0")
    with pytest.raises(ConfigError, match=THREADS_ENV_VAR):
        resolve_worker_count()
    monkeypatch.delenv(THREADS_ENV_VAR)
    assert resolve_worker_count() == 1


def test_env_var_caps_evaluation(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "1")
    system = small_system()
    curve = evaluate_bler(system, [4.0], blocks_per_point=64, seed=3)
    assert len(curve.points) == 1


# ------------------------------------------------- block length transfer


def test_transfer_zero_errors_for_echo_system():
    records = block_length_transfer(EchoSystem(), [1, 4, 9], math.inf,
                                    blocks_per_length=30, seed=5)
    assert [r.block_length for r in records] == [1, 4, 9]
    for r in records:
        assert r.ser == 0.0 and r.bler == 0.0
        assert r.blocks == 30


def test_transfer_length_one_runs():
    system = small_system()
    records = block_length_transfer(system, [1], 6.0, blocks_per_length=40, seed=2)
    assert records[0].block_length == 1
    # with L=1 a block is a symbol, so the two rates coincide
    assert records[0].ser == records[0].bler


def test_transfer_rates_and_intervals_consistent():
    system = small_system()
    records = block_length_transfer(system, [2, 8], 5.0,
                                    blocks_per_length=200, seed=8)
    for r in records:
        assert 0.0 <= r.ser <= r.bler <= 1.0
        assert r.ser_ci_low <= r.ser <= r.ser_ci_high
        assert r.bler_ci_low <= r.bler <= r.bler_ci_high
        assert r.system_label == "vae_k2n1m2_awgn"


def test_transfer_at_one_length_is_the_sweep_at_one_point():
    """Both run point index 0, so they draw the same messages and noise."""
    system = small_system()
    [record] = block_length_transfer(system, [7], 3.0, blocks_per_length=96, seed=5,
                                     chunk_blocks=40)
    [point] = evaluate_bler(system, [3.0], 96, 5, block_length=7, chunk_blocks=40).points
    assert 0.0 < record.ser < 1.0
    assert (record.bler, record.ser) == (point.bler, point.ser)


def test_transfer_deterministic_across_workers():
    system = small_system()
    a = block_length_transfer(system, [3, 6], 4.0, blocks_per_length=128,
                              seed=4, chunk_blocks=32, workers=1)
    b = block_length_transfer(system, [3, 6], 4.0, blocks_per_length=128,
                              seed=4, chunk_blocks=32, workers=3)
    assert a == b


def test_transfer_rejects_bad_arguments():
    system = small_system()
    with pytest.raises(DomainError):
        block_length_transfer(system, [], 5.0, blocks_per_length=10, seed=0)
    with pytest.raises(DomainError):
        block_length_transfer(system, [0], 5.0, blocks_per_length=10, seed=0)
    # a float or bool length was truncated: 2.7 ran, and was labelled, as L=2
    for bad in (2.7, True):
        with pytest.raises(DomainError, match="integers"):
            block_length_transfer(system, [5, bad], 5.0, blocks_per_length=10, seed=0)
    with pytest.raises(DomainError):
        block_length_transfer(system, [5], 5.0, blocks_per_length=0, seed=0)
    with pytest.raises(DomainError):
        block_length_transfer(system, [5], 5.0, blocks_per_length=10, seed=0, chunk_blocks=0)
    for bad in (float("nan"), float("-inf")):
        with pytest.raises(DomainError, match="Eb/N0"):
            block_length_transfer(system, [5], bad, blocks_per_length=10, seed=0)
    system.train_mode()
    with pytest.raises(ConfigError):
        block_length_transfer(system, [5], 5.0, blocks_per_length=10, seed=0)


def test_transfer_csv_and_json_output(tmp_path):
    records = block_length_transfer(EchoSystem(), [2, 4], math.inf,
                                    blocks_per_length=10, seed=1)
    csv_path = tmp_path / "transfer.csv"
    write_table(str(csv_path), "csv", *dataclass_table(TransferRecord, records))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("block_length,ser,ser_ci_low,ser_ci_high,"
                        "bler,bler_ci_low,bler_ci_high,blocks,seed,system_label")
    assert lines[1].startswith("2,0.0,0.0,") and lines[1].endswith("10,1,vae_k2n1m2_awgn")
    json_path = tmp_path / "transfer.json"
    write_table(str(json_path), "json", *dataclass_table(TransferRecord, records))
    loaded = json.loads(json_path.read_text())
    assert loaded[0]["block_length"] == 2
    assert loaded[1]["bler"] == 0.0


# each measurement by the name of its block-count argument
MEASUREMENTS = {
    "blocks_per_point": lambda system, **kw: evaluate_bler(system, [math.inf], **kw),
    "blocks_per_length": lambda system, **kw: block_length_transfer(system, [2], math.inf, **kw),
}


@pytest.mark.parametrize("arg, value", [
    ("blocks", 2.5), ("blocks", True), ("blocks", "10"), ("blocks", np.int64(0)),
    ("chunk_blocks", 2.5), ("chunk_blocks", False), ("seed", 3.0), ("seed", True),
])
@pytest.mark.parametrize("blocks_arg", list(MEASUREMENTS))
def test_measurement_rejects_a_non_integer_size_or_seed(blocks_arg, arg, value):
    # True ran one block, and was written as the CSV's blocks and seed
    name = blocks_arg if arg == "blocks" else arg
    kwargs = {blocks_arg: 10, "chunk_blocks": 4, "seed": 1} | {name: value}
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        MEASUREMENTS[blocks_arg](EchoSystem(), **kwargs)


def test_measurement_takes_numpy_integers_and_records_python_ints(tmp_path):
    system = small_system()
    want_curve = evaluate_bler(system, [4.0], 40, 3, block_length=5, chunk_blocks=16)
    want_records = block_length_transfer(system, [5], 4.0, 40, 3, chunk_blocks=16)
    curve = evaluate_bler(system, [4.0], np.int64(40), np.int64(3), block_length=np.int32(5),
                          chunk_blocks=np.uint16(16))
    records = block_length_transfer(system, [np.int64(5)], 4.0, np.int64(40), np.int64(3),
                                    chunk_blocks=np.int64(16))
    assert curve == want_curve and records == want_records
    (point,), (record,) = curve.points, records
    for value in (point.blocks, point.seed, point.block_length,
                  record.blocks, record.seed, record.block_length):
        assert type(value) is int
    path = tmp_path / "transfer.json"
    write_table(str(path), "json", *dataclass_table(TransferRecord, records))
    assert json.loads(path.read_text())[0]["blocks"] == 40


# ------------------------------------------------------------ progress


def test_sweep_and_transfer_log_one_line_per_point(caplog):
    system = small_system()
    with caplog.at_level(logging.INFO, logger="vaecomm.evaluation"):
        curve = evaluate_bler(system, [0.0, 4.0, 8.0], blocks_per_point=32, seed=2)
        records = block_length_transfer(system, [3, 9], 4.0, blocks_per_length=16, seed=2)
    lines = [r.getMessage() for r in caplog.records if r.name == "vaecomm.evaluation"]
    expected = [f"point {i + 1}/3: Eb/N0 {p.ebno_db} dB, 32 blocks, "
                f"{round(p.bler * 32)} block errors, " for i, p in enumerate(curve.points)]
    expected += [f"length {i + 1}/2: L={r.block_length}, 16 blocks, "
                 f"{round(r.bler * 16)} block errors, " for i, r in enumerate(records)]
    assert len(lines) == len(expected)
    for line, start in zip(lines, expected):
        assert line.startswith(start) and line.endswith(" symbols/s")


# ----------------------------------------------- trained system sanity


def test_briefly_trained_system_beats_chance():
    cfg = SystemConfig(k=2, n=1, latent_multiplier=2, hidden_filters=16,
                       block_length=4, seed=31)
    system = CommSystem(cfg)
    dataset = generate_dataset(cfg.k, cfg.block_length, num_messages=512,
                               seed=6, num_test=16)
    train(system, dataset, epochs=8, batch_size=32, train_ebno_db=12.0)
    curve = evaluate_bler(system, [12.0], blocks_per_point=400, seed=13)
    # chance SER for M=4 is 0.75; a few epochs should land well below it
    assert curve.points[0].ser < 0.4
