"""Error-rate measurement: the codebook path against the reference path,
counting, sharding determinism, worker limits."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaecomm import evaluation
from vaecomm.channels import ChannelModel
from vaecomm.data import generate_dataset, one_hot
from vaecomm.errors import ConfigError, DomainError
from vaecomm.evaluation import (
    THREADS_ENV_VAR,
    block_length_transfer,
    default_label,
    evaluate_bler,
    resolve_worker_count,
    transfer_to_csv,
    transfer_to_json,
)
from vaecomm.layers import BatchNorm1D
from vaecomm.model import CommSystem, SystemConfig
from vaecomm.seeding import derive_seed
from vaecomm.tensor import Tensor, no_grad
from vaecomm.training import train


class EchoSystem:
    """Duck-typed stand-in whose codebook is the identity and whose receiver
    returns its input, so the logits are the transmitted one-hot.

    With a noiseless channel every decision matches its label, giving exact
    zero error counts for counting tests.
    """

    def __init__(self, k=2, block_length=5):
        self.config = SystemConfig(k=k, n=1, latent_multiplier=2,
                                   hidden_filters=4, block_length=block_length)
        self.training = False

    def codebook(self, max_rows):
        return np.eye(self.config.M)

    def encode(self, codebook, symbols):
        return Tensor(codebook[symbols])

    def logits(self, y):
        return y


class CorruptingSystem(EchoSystem):
    """EchoSystem that flips the first symbol of the first block it sees."""

    def logits(self, y):
        scores = y.data.copy()
        scores[0, 0] = np.roll(scores[0, 0], 1)
        return Tensor(scores)


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
        bn.running_mean = rng.normal(size=bn.channels)
        bn.running_var = rng.uniform(0.5, 2.0, size=bn.channels)
    codebook = system.codebook(rows)
    ebno_db, n_blocks = 2.0, 9

    symbols, channel = chunk_streams(cfg, ebno_db, length, n_blocks, seed)
    with no_grad():
        reference, _, _ = system.transmit(one_hot(symbols, cfg.M))
        decided = np.argmax(system.receive(channel.apply(reference)).data, axis=2)
        signal = system.encode(codebook, symbols)
    np.testing.assert_allclose(signal.data, reference.data, rtol=0.0, atol=1e-12)
    _, channel = chunk_streams(cfg, ebno_db, length, n_blocks, seed)
    with no_grad():
        fast = np.argmax(system.logits(channel.apply(signal)).data, axis=2)
    np.testing.assert_array_equal(fast, decided)

    wrong = decided != symbols
    assert evaluation._count_chunk(system, codebook, ebno_db, length, n_blocks, seed, 0, 0) == (
        int(wrong.any(axis=1).sum()), int(wrong.sum()))


def test_codebook_builds_in_slices_without_an_identity():
    system = CommSystem(SystemConfig(k=12, n=2, hidden_filters=32)).eval_mode()
    rows = 64
    slice_bytes = rows * system.config.M * 8  # one float64 one-hot slice
    tracemalloc.start()
    try:
        system.codebook(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * slice_bytes  # an M x M identity would be 64 slices


def test_codebook_rejects_train_mode_and_empty_slices():
    system = small_system()
    with pytest.raises(DomainError, match="max_rows"):
        system.codebook(0)
    system.train_mode()
    with pytest.raises(ConfigError, match="eval"):
        system.codebook(4)


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
    named = evaluate_bler(system, [2.0], blocks_per_point=8, seed=17, label="mine")
    assert named.points[0].system_label == "mine"
    assert default_label(system) == "vae_k2n1m2_awgn"


def test_block_length_override():
    system = small_system()
    curve = evaluate_bler(system, [4.0], blocks_per_point=16, seed=5,
                          block_length=9)
    # SER denominator reflects the override: counts divide evenly by 16*9
    assert (curve.points[0].ser * 16 * 9) == pytest.approx(
        round(curve.points[0].ser * 16 * 9))


# ------------------------------------------------------- determinism


def test_same_seed_same_curve_any_worker_count():
    system = small_system()
    kwargs = dict(blocks_per_point=256, seed=7, chunk_blocks=64)
    a = evaluate_bler(system, [3.0, 6.0], workers=1, **kwargs)
    b = evaluate_bler(system, [3.0, 6.0], workers=4, **kwargs)
    c = evaluate_bler(system, [3.0, 6.0], workers=2, **kwargs)
    for pa, pb, pc in zip(a.points, b.points, c.points):
        assert pa == pb == pc


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
    with pytest.raises(DomainError):
        evaluate_bler(system, [5.0], blocks_per_point=10, seed=0, block_length=0)


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
    assert resolve_worker_count() >= 1


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
    with pytest.raises(DomainError):
        block_length_transfer(system, [5], 5.0, blocks_per_length=0, seed=0)
    with pytest.raises(DomainError):
        block_length_transfer(system, [5], 5.0, blocks_per_length=10, seed=0, chunk_blocks=0)
    system.train_mode()
    with pytest.raises(ConfigError):
        block_length_transfer(system, [5], 5.0, blocks_per_length=10, seed=0)


def test_transfer_csv_and_json_output(tmp_path):
    records = block_length_transfer(EchoSystem(), [2, 4], math.inf,
                                    blocks_per_length=10, seed=1, label="echo")
    csv_path = tmp_path / "transfer.csv"
    transfer_to_csv(records, str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("block_length,ser,ser_ci_low,ser_ci_high,"
                        "bler,bler_ci_low,bler_ci_high,blocks,seed,system_label")
    assert lines[1].startswith("2,0.0,0.0,") and lines[1].endswith("10,1,echo")
    json_path = tmp_path / "transfer.json"
    transfer_to_json(records, str(json_path))
    loaded = json.loads(json_path.read_text())
    assert loaded[0]["block_length"] == 2
    assert loaded[1]["bler"] == 0.0


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
