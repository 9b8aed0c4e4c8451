"""Dataset generation, Adam updates, and the training loop."""

import csv
import json
import logging
import math

import numpy as np
import pytest

from vaecomm.data import Dataset, generate_dataset, one_hot
from vaecomm.errors import DomainError, ShapeMismatchError, TrainingDivergedError
from vaecomm.model import CommSystem, SystemConfig
from vaecomm.optim import Adam
from vaecomm.tensor import Tensor
from vaecomm import training
from vaecomm.training import TrainingLog, clip_global_norm, train


def small_config(**overrides):
    base = dict(k=2, n=1, latent_multiplier=2, hidden_filters=16,
                block_length=4, seed=11)
    base.update(overrides)
    return SystemConfig(**base)


# ---------------------------------------------------------------- dataset


def test_dataset_entries_in_range():
    ds = generate_dataset(k=1, L=8, num_messages=200, seed=0, num_test=100)
    assert set(np.unique(ds.train)) <= {0, 1}
    assert set(np.unique(ds.test)) <= {0, 1}


def test_dataset_default_split_sizes():
    ds = generate_dataset(k=2, L=3, seed=5)
    assert ds.train.shape == (12800, 3)
    assert ds.test.shape == (64000, 3)


def test_dataset_same_seed_identical():
    a = generate_dataset(k=3, L=6, num_messages=50, seed=77, num_test=50)
    b = generate_dataset(k=3, L=6, num_messages=50, seed=77, num_test=50)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.test, b.test)


def test_dataset_different_seeds_differ():
    a = generate_dataset(k=4, L=10, num_messages=100, seed=1, num_test=10)
    b = generate_dataset(k=4, L=10, num_messages=100, seed=2, num_test=10)
    assert not np.array_equal(a.train, b.train)


def test_dataset_symbol_frequencies_near_uniform():
    # one million entries, k=4: every symbol within 1% of 1/16
    ds = generate_dataset(k=4, L=100, num_messages=10_000, seed=3, num_test=0)
    counts = np.bincount(ds.train.ravel(), minlength=16)
    freqs = counts / ds.train.size
    assert ds.train.size == 1_000_000
    np.testing.assert_allclose(freqs, 1 / 16, rtol=0.01)


def test_dataset_rejects_bad_arguments():
    with pytest.raises(DomainError):
        generate_dataset(k=0, L=5)
    with pytest.raises(DomainError):
        generate_dataset(k=2, L=0)
    with pytest.raises(DomainError):
        generate_dataset(k=2, L=5, num_messages=0)


def test_one_hot_single_symbol():
    out = one_hot(np.array([[3]]), M=4)
    np.testing.assert_array_equal(out.data, [[[0.0, 0.0, 0.0, 1.0]]])


def test_one_hot_roundtrip_and_row_sums():
    rng = np.random.default_rng(9)
    for _ in range(20):
        M = int(rng.integers(2, 17))
        syms = rng.integers(0, M, size=(5, 7))
        enc = one_hot(syms, M).data
        np.testing.assert_array_equal(np.argmax(enc, axis=2), syms)
        np.testing.assert_array_equal(enc.sum(axis=2), np.ones((5, 7)))


def test_one_hot_rejects_out_of_range():
    with pytest.raises(DomainError, match="outside"):
        one_hot(np.array([[4]]), M=4)
    with pytest.raises(DomainError, match="outside"):
        one_hot(np.array([[-1]]), M=4)


def test_one_hot_rejects_wrong_rank():
    with pytest.raises(DomainError):
        one_hot(np.array([1, 2]), M=4)


# ---------------------------------------------------------------- adam


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(3)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_none_gradient_skips_parameter():
    p = Tensor(np.array([5.0]), requires_grad=True)
    q = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([p, q])
    q.grad = np.array([1.0])
    opt.step()
    np.testing.assert_array_equal(p.data, [5.0])
    assert q.data[0] != 5.0


def test_adam_first_step_is_signed_learning_rate():
    # bias correction makes m_hat=g, v_hat=g^2, so the first update is
    # -lr * g / (|g| + eps) ~= -lr * sign(g)
    for g0 in (3.0, -0.25, 1e-3):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        p.grad = np.array([g0])
        opt.step()
        expected = -0.01 * g0 / (abs(g0) + 1e-8)
        np.testing.assert_allclose(p.data, [expected], rtol=1e-12)
        assert math.copysign(1.0, p.data[0]) == -math.copysign(1.0, g0)


def test_adam_ten_steps_deterministic():
    def run():
        p = Tensor(np.linspace(-1, 1, 6), requires_grad=True)
        opt = Adam([p], lr=0.05)
        rng = np.random.default_rng(123)
        for _ in range(10):
            p.grad = rng.normal(size=6)
            opt.step()
        return p.data
    np.testing.assert_array_equal(run(), run())


def test_adam_step_counter_increases():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p])
    assert opt.t == 0
    for expected in (1, 2, 3):
        p.grad = np.array([0.5])
        opt.step()
        assert opt.t == expected


def test_adam_moment_buffers_match_parameter_shapes():
    shapes = [(3, 2), (4,), (2, 2, 2)]
    params = [Tensor(np.zeros(s), requires_grad=True) for s in shapes]
    opt = Adam(params)
    for p, m, v in zip(params, opt.m, opt.v):
        assert m.shape == p.data.shape
        assert v.shape == p.data.shape


def test_adam_rejects_mismatched_gradient_shape():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(4)
    with pytest.raises(ShapeMismatchError):
        opt.step()


def test_clip_global_norm_scales_large_gradients():
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([0.0, 4.0])
    norm = clip_global_norm([a, b], 1.0)
    assert norm == pytest.approx(5.0)
    joint = math.sqrt(float((a.grad**2).sum() + (b.grad**2).sum()))
    assert joint == pytest.approx(1.0)
    np.testing.assert_allclose(a.grad, [0.6, 0.0])


def test_clip_global_norm_leaves_small_gradients_alone():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([0.3, 0.4])
    norm = clip_global_norm([a], 5.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(a.grad, [0.3, 0.4])


# ---------------------------------------------------------------- training


def tiny_dataset(cfg, num=96, seed=4):
    return generate_dataset(cfg.k, cfg.block_length, num_messages=num,
                            seed=seed, num_test=16)


def test_train_zero_epochs_is_a_no_op():
    cfg = small_config()
    system = CommSystem(cfg)
    before = [p.data.copy() for p in system.parameters()]
    logbook = train(system, tiny_dataset(cfg), epochs=0)
    assert logbook.records == []
    assert not system.training
    for p, b in zip(system.parameters(), before):
        np.testing.assert_array_equal(p.data, b)


def test_train_loss_decreases_on_small_problem():
    cfg = small_config()
    system = CommSystem(cfg)
    logbook = train(system, tiny_dataset(cfg, num=256), epochs=6,
                    batch_size=32, train_ebno_db=10.0)
    assert len(logbook.records) == 6
    assert logbook.records[-1].train_loss < logbook.records[0].train_loss


def test_train_epochs_numbered_from_one():
    cfg = small_config()
    system = CommSystem(cfg)
    logbook = train(system, tiny_dataset(cfg), epochs=3, batch_size=32)
    assert [r.epoch for r in logbook.records] == [1, 2, 3]


def test_train_records_are_finite_and_consistent():
    cfg = small_config()
    system = CommSystem(cfg)
    logbook = train(system, tiny_dataset(cfg), epochs=2, batch_size=32)
    for r in logbook.records:
        for value in (r.train_loss, r.validation_loss, r.kl_term,
                      r.reconstruction_term):
            assert math.isfinite(value)
        assert r.train_loss == pytest.approx(
            cfg.beta * r.kl_term + r.reconstruction_term, rel=1e-9)
        assert r.wall_time >= 0.0


def test_train_is_bitwise_deterministic():
    cfg = small_config(seed=21)
    def run():
        system = CommSystem(cfg)
        logbook = train(system, tiny_dataset(cfg), epochs=3, batch_size=32)
        return logbook, [p.data.copy() for p in system.parameters()]
    log_a, params_a = run()
    log_b, params_b = run()
    for ra, rb in zip(log_a.records, log_b.records):
        assert ra.train_loss == rb.train_loss
        assert ra.validation_loss == rb.validation_loss
        assert ra.kl_term == rb.kl_term
        assert ra.reconstruction_term == rb.reconstruction_term
    for pa, pb in zip(params_a, params_b):
        np.testing.assert_array_equal(pa, pb)


def test_train_logs_clipping_once_per_epoch(caplog):
    cfg = small_config()
    system = CommSystem(cfg)
    # 87 training rows in batches of 32: three batches, all clipped at this norm
    with caplog.at_level(logging.INFO, logger="vaecomm.training"):
        train(system, tiny_dataset(cfg), epochs=2, batch_size=32, clip_norm=1e-6)
    messages = [r.getMessage() for r in caplog.records if r.name == "vaecomm.training"]
    assert len(messages) == 2
    for epoch, message in enumerate(messages, 1):
        assert message.startswith(f"epoch {epoch}: 3 of 3 batches clipped, max norm ")


def test_train_leaves_system_in_eval_mode():
    cfg = small_config()
    system = CommSystem(cfg)
    train(system, tiny_dataset(cfg), epochs=1, batch_size=32)
    assert not system.training


def test_train_diverged_loss_names_a_layer():
    cfg = small_config()
    system = CommSystem(cfg)
    system.tx_conv1.weight.data[:] = np.nan
    with pytest.raises(TrainingDivergedError, match="tx_conv1"):
        train(system, tiny_dataset(cfg), epochs=1, batch_size=32)


def test_divergence_probe_changes_no_state(monkeypatch):
    # the probe replays the failing batch on copies: afterwards the system must
    # be exactly as the failing forward left it, as in a twin run without a probe
    cfg = small_config()

    def diverging_system():
        system = CommSystem(cfg)
        system.rx_conv2.weight.data[:] = np.nan  # batch norms stay finite
        return system

    system = diverging_system()
    with pytest.raises(TrainingDivergedError, match="rx_conv2"):
        train(system, tiny_dataset(cfg), epochs=1, batch_size=32)
    twin = diverging_system()
    monkeypatch.setattr(training, "_first_non_finite_layer", lambda *args: "not probed")
    with pytest.raises(TrainingDivergedError, match="not probed"):
        train(twin, tiny_dataset(cfg), epochs=1, batch_size=32)

    for a, b in ((system.tx_bn, twin.tx_bn), (system.rx_bn, twin.rx_bn)):
        np.testing.assert_array_equal(a.running_mean, b.running_mean)
        np.testing.assert_array_equal(a.running_var, b.running_var)
    assert (system.sampling._rng.bit_generator.state
            == twin.sampling._rng.bit_generator.state)


def test_train_rejects_bad_arguments():
    cfg = small_config()
    system = CommSystem(cfg)
    ds = tiny_dataset(cfg)
    with pytest.raises(DomainError):
        train(system, ds, epochs=-1)
    with pytest.raises(DomainError):
        train(system, ds, epochs=1, batch_size=1)
    with pytest.raises(DomainError):
        train(system, ds, epochs=1, validation_fraction=1.0)


def test_training_log_csv_format(tmp_path):
    logbook = TrainingLog(records=[])
    logbook.records.append(_record(1, 2.5, 2.625, 10.0, 2.0))
    logbook.records.append(_record(2, 1.25, 1.5, 8.0, 1.0))
    path = tmp_path / "log.csv"
    logbook.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,kl,recon"
    assert lines[1] == "1,2.5,2.625,10.0,2.0"
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[1]["val_loss"]) == 1.5


def test_training_log_serialization_excludes_wall_time(tmp_path):
    a = TrainingLog(records=[_record(1, 0.5, 0.75, 1.0, 0.25, wall=1.0)])
    b = TrainingLog(records=[_record(1, 0.5, 0.75, 1.0, 0.25, wall=99.0)])
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(str(pa)); b.to_csv(str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    a.to_json(str(ja)); b.to_json(str(jb))
    assert ja.read_bytes() == jb.read_bytes()
    loaded = json.loads(ja.read_text())
    assert loaded == [{"epoch": 1, "train_loss": 0.5, "val_loss": 0.75,
                       "kl": 1.0, "recon": 0.25}]


def _record(epoch, train_loss, val_loss, kl, recon, wall=0.0):
    from vaecomm.training import EpochRecord
    return EpochRecord(epoch=epoch, train_loss=train_loss,
                       validation_loss=val_loss, kl_term=kl,
                       reconstruction_term=recon, wall_time=wall)
