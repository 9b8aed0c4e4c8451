"""Dataset generation, Adam updates, and the training loop."""

import csv
import json
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaecomm import training
from vaecomm.channels import ChannelModel
from vaecomm.curves import write_table
from vaecomm.data import Dataset, generate_dataset, one_hot
from vaecomm.errors import DomainError, ShapeMismatchError, TrainingDivergedError
from vaecomm.evaluation import evaluate_bler
from vaecomm.layers import BatchNorm1D
from vaecomm.model import CommSystem, SystemConfig
from vaecomm.optim import Adam
from vaecomm.tensor import Tensor, _reverse_order
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
    for bad in (
        dict(k=0), dict(L=0), dict(num_messages=0), dict(num_test=-1),
        dict(k=True),  # drew a k=1 dataset
        dict(L=4.0), dict(num_messages=10.0), dict(num_test=2.0),  # bare TypeErrors
        dict(seed=-1),  # numpy's ValueError
        dict(seed=1.0), dict(seed=False),
    ):
        with pytest.raises(DomainError, match=next(iter(bad))):
            generate_dataset(**(dict(k=2, L=5, num_messages=10, seed=0, num_test=4) | bad))


def test_dataset_takes_numpy_integer_arguments():
    ref = generate_dataset(k=3, L=5, num_messages=10, seed=7, num_test=4)
    ds = generate_dataset(k=np.int64(3), L=np.int32(5), num_messages=np.int64(10),
                          seed=np.uint64(7), num_test=np.int16(4))
    np.testing.assert_array_equal(ds.train, ref.train)
    np.testing.assert_array_equal(ds.test, ref.test)
    assert type(ds.k) is int and type(ds.seed) is int


def test_one_hot_single_symbol():
    out = one_hot(np.array([[3]]), M=4)
    assert out.dtype == np.float32
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


def _adam_composed(params, grad_steps, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """The out-of-place update Adam replaced: its bit-for-bit oracle.

    Returns the parameters and moments after every step in ``grad_steps``.
    """
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, 1):
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for i, g in enumerate(grads):
            if g is None:
                continue
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
            m_hat = m[i] / c1
            v_hat = v[i] / c2
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + epsilon)
    return params, m, v


@settings(max_examples=30, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
                       min_size=1, max_size=4),
       seed=st.integers(0, 2**16))
def test_adam_matches_the_out_of_place_update_bit_for_bit(shapes, seed):
    rng = np.random.default_rng(seed)
    start = [rng.normal(size=s) for s in shapes]
    # ten steps over gradient scales from 1e-6 to 1e6; parameter 0 skips step 4
    grad_steps = [[rng.normal(size=s) * 10.0 ** rng.integers(-6, 7) for s in shapes]
                  for _ in range(10)]
    grad_steps[3][0] = None
    want_params, want_m, want_v = _adam_composed(start, grad_steps, lr=0.01)

    params = [Tensor(p.copy(), requires_grad=True) for p in start]
    opt = Adam(params, lr=0.01)
    for grads in grad_steps:
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
    for p, m, v, wp, wm, wv in zip(params, opt.m, opt.v, want_params, want_m, want_v):
        assert np.array_equal(p.data, wp)
        assert np.array_equal(m, wm)
        assert np.array_equal(v, wv)


def test_adam_accumulates_float32_parameters_in_float64():
    # each update is 1e-4 of an ulp of the float32 weight: lost if applied to
    # the float32 value, kept by the float64 master copy
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    opt = Adam([p], lr=1e-11)
    for _ in range(20000):
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
    assert p.data.dtype == np.float32
    assert opt.master[0].dtype == opt.m[0].dtype == opt.v[0].dtype == np.float64
    np.testing.assert_allclose(opt.master[0], 1.0 - 2e-7, rtol=1e-9)
    assert p.data[0] == np.float32(opt.master[0][0]) < 1.0


def test_adam_restarts_the_master_copy_of_replaced_parameter_data():
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.ones(2, dtype=np.float32)
    opt.step()
    p.data = np.array([5.0, 6.0], dtype=np.float32)  # as a checkpoint load would
    p.grad = np.zeros(2, dtype=np.float32)
    opt.step()
    assert np.all(np.abs(opt.master[0] - [5.0, 6.0]) < 0.1)  # one momentum step from the new data
    np.testing.assert_array_equal(p.data, opt.master[0].astype(np.float32))


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


def test_clip_global_norm_survives_an_overflowing_sum_of_squares():
    # 1e200 squared overflows; the max-scaled norm still reads 1e200
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    a.grad = np.array([1e200, 3.0])
    b.grad = np.array([-4e199])
    norm = clip_global_norm([a, b], 5.0)
    assert norm == pytest.approx(math.hypot(1e200, 4e199), rel=1e-15)
    assert np.all(np.isfinite(a.grad)) and np.all(np.isfinite(b.grad))
    joint = math.hypot(a.grad[0], a.grad[1], b.grad[0])
    assert joint == pytest.approx(5.0, rel=1e-15)
    assert a.grad[1] > 0.0
    # float32 squares overflow from about 1.8e19, the square root of float32's max
    c = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    c.grad = np.full(4, 3e19, dtype=np.float32)
    norm = clip_global_norm([c], 2.5)
    assert norm == pytest.approx(6e19, rel=1e-6)
    assert c.grad.dtype == np.float32
    assert math.hypot(*c.grad.astype(np.float64)) == pytest.approx(2.5, rel=1e-6)


def test_clip_global_norm_is_unchanged_when_nothing_overflows():
    rng = np.random.default_rng(9)
    grads = [rng.normal(size=(4, 3)) * 1e100, rng.normal(size=5) * 1e-3]
    params = [Tensor(np.zeros_like(g), requires_grad=True) for g in grads]
    for p, g in zip(params, grads):
        p.grad = g.copy()
    norm = clip_global_norm(params, 1.0)
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    assert norm == float(np.sqrt(total))
    for p, g in zip(params, grads):
        np.testing.assert_array_equal(p.grad, g * (1.0 / norm))


@pytest.mark.parametrize("k, n, channel", [(4, 2, "awgn"), (8, 4, "rayleigh")])
def test_clip_global_norm_keeps_every_bit_of_a_system_gradient_norm(k, n, channel):
    cfg = SystemConfig(k=k, n=n, latent_multiplier=2, hidden_filters=32, block_length=10,
                       seed=5, channel_kind=channel)
    system = CommSystem(cfg)
    system.train_mode()
    rows = generate_dataset(k, 10, num_messages=64, seed=6, num_test=1).train
    result = system.end_to_end(rows, ChannelModel(channel, 6.0, cfg.code_rate))
    result.loss.backward()
    params = system.parameters()
    grads = [p.grad for p in params]  # clip_global_norm replaces them, leaving these
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    expected = math.sqrt(total)
    max_norm = expected / 3.0
    norm = clip_global_norm(params, max_norm)
    assert norm == expected
    for p, g in zip(params, grads):
        assert p.grad.dtype == g.dtype
        np.testing.assert_array_equal(p.grad, g * (max_norm / expected))


def test_clip_global_norm_returns_inf_past_the_float64_range_without_a_warning():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([1.5e308, 1.5e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = clip_global_norm([a], 5.0)
    assert norm == math.inf
    np.testing.assert_array_equal(a.grad, [1.5e308, 1.5e308])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_clip_global_norm_leaves_non_finite_gradients_alone(bad):
    a = Tensor(np.zeros(3), requires_grad=True)
    a.grad = np.array([bad, 1e200, 3.0])
    norm = clip_global_norm([a], 5.0)
    assert not math.isfinite(norm)
    np.testing.assert_array_equal(a.grad, [bad, 1e200, 3.0])


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
        # each batch's total is rounded to float32, its terms are not
        assert r.train_loss == pytest.approx(
            cfg.beta * r.kl_term + r.reconstruction_term, rel=8 * np.finfo(np.float32).eps)
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


def test_train_logs_clipping_once_per_epoch(caplog, monkeypatch):
    cfg = small_config()
    system = CommSystem(cfg)
    # 87 training rows in batches of 32: three batches, all clipped at this norm
    monkeypatch.setattr(training, "CLIP_NORM", 1e-6)
    with caplog.at_level(logging.INFO, logger="vaecomm.training"):
        train(system, tiny_dataset(cfg), epochs=2, batch_size=32)
    messages = [r.getMessage() for r in caplog.records if r.name == "vaecomm.training"]
    assert len(messages) == 2
    for epoch, message in enumerate(messages, 1):
        assert message.startswith(f"epoch {epoch}: 3 of 3 batches clipped, max norm ")


def test_train_logs_epoch_seconds_and_symbol_rate(caplog):
    cfg = small_config()
    system = CommSystem(cfg)
    with caplog.at_level(logging.INFO, logger="vaecomm.training"):
        logbook = train(system, tiny_dataset(cfg), epochs=2, batch_size=32)
    messages = [r.getMessage() for r in caplog.records if r.name == "vaecomm.training"]
    symbols = 87 * cfg.block_length  # 96 rows less 9 held out for validation
    for record, message in zip(logbook.records, messages, strict=True):
        assert message.endswith(f", {record.wall_time:.2f} s, "
                                f"{symbols / record.wall_time:.0f} symbols/s")


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


def test_train_diverged_loss_names_a_receiver_layer_after_finite_ones():
    cfg = small_config()
    system = CommSystem(cfg)
    system.rx_conv2.weight.data[:] = np.nan  # every stage before it stays finite
    with pytest.raises(TrainingDivergedError, match="layer 'rx_conv2'"):
        train(system, tiny_dataset(cfg), epochs=1, batch_size=32)


def test_train_diverged_loss_with_finite_stages_names_the_loss_term():
    # mu^2 overflows float32 in the KL term while every stage output stays finite
    cfg = small_config(hidden_filters=8, seed=1)
    system = CommSystem(cfg)
    system.mu_head.weight.data[:] = 1e21
    with (pytest.raises(TrainingDivergedError, match="non-finite loss term 'kl_term'"),
          np.errstate(over="ignore")):
        train(system, tiny_dataset(cfg), epochs=1, batch_size=32)


def test_train_raises_on_a_non_finite_gradient_before_the_update(monkeypatch):
    cfg = small_config()
    system = CommSystem(cfg)
    before = [p.data.copy() for p in system.parameters()]
    backward = Tensor.backward

    def poisoned_backward(self):
        backward(self)
        system.rx_conv2.bias.grad[0] = np.nan

    monkeypatch.setattr(Tensor, "backward", poisoned_backward)
    with pytest.raises(TrainingDivergedError, match=r"gradient norm \(nan\) at epoch 1, batch 0"):
        train(system, tiny_dataset(cfg), epochs=1, batch_size=32)
    for p, b in zip(system.parameters(), before):
        np.testing.assert_array_equal(p.data, b)


def test_train_rejects_bad_arguments():
    cfg = small_config()
    system = CommSystem(cfg)
    ds = tiny_dataset(cfg)
    before = [p.data.copy() for p in system.parameters()]
    for bad in (
        dict(epochs=-1), dict(batch_size=1),
        dict(epochs=True),  # trained for 1 epoch
        dict(epochs=1.5), dict(batch_size=8.0),  # bare TypeErrors
        dict(batch_size=True),
    ):
        with pytest.raises(DomainError, match=next(iter(bad))):
            train(system, ds, **(dict(epochs=1) | bad))
    for p, b in zip(system.parameters(), before):
        np.testing.assert_array_equal(p.data, b)


def test_train_takes_numpy_integer_arguments():
    cfg = small_config()
    systems = [CommSystem(cfg), CommSystem(cfg)]
    logs = [train(system, tiny_dataset(cfg), epochs=e, batch_size=b).records
            for system, (e, b) in zip(systems, ((2, 32), (np.int64(2), np.int32(32))))]
    for field in ("train_loss", "validation_loss"):
        assert [getattr(r, field) for r in logs[0]] == [getattr(r, field) for r in logs[1]]
    for a, b in zip(*(system.parameters() for system in systems)):
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("lr", [-0.01, 0.0, math.nan, math.inf])
def test_a_learning_rate_that_is_not_finite_and_positive_is_refused(lr):
    # -0.01 ascended the loss, 0 left every weight as it was, and NaN stopped
    # at the first batch blaming tx_conv1
    cfg = small_config()
    system = CommSystem(cfg)
    with pytest.raises(DomainError, match="lr must be finite and > 0"):
        Adam(system.parameters(), lr=lr)
    for epochs in (0, 1):
        with pytest.raises(DomainError, match="lr must be finite and > 0"):
            train(system, tiny_dataset(cfg), epochs=epochs, lr=lr)


def test_training_log_csv_format(tmp_path):
    logbook = TrainingLog(records=[])
    logbook.records.append(_record(1, 2.5, 2.625, 10.0, 2.0))
    logbook.records.append(_record(2, 1.25, 1.5, 8.0, 1.0))
    path = tmp_path / "log.csv"
    write_table(str(path), "csv", *logbook.table())
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
    write_table(str(pa), "csv", *a.table()); write_table(str(pb), "csv", *b.table())
    assert pa.read_bytes() == pb.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    write_table(str(ja), "json", *a.table()); write_table(str(jb), "json", *b.table())
    assert ja.read_bytes() == jb.read_bytes()
    loaded = json.loads(ja.read_text())
    assert loaded == [{"epoch": 1, "train_loss": 0.5, "val_loss": 0.75,
                       "kl": 1.0, "recon": 0.25}]


def _record(epoch, train_loss, val_loss, kl, recon, wall=0.0):
    from vaecomm.training import EpochRecord
    return EpochRecord(epoch=epoch, train_loss=train_loss,
                       validation_loss=val_loss, kl_term=kl,
                       reconstruction_term=recon, wall_time=wall)


# ---------------------------------------------------------------- float32 and memory


def _one_step(cfg, seed=0, batch=16):
    """One train() step by hand, so the optimizer and the graph stay reachable."""
    system = CommSystem(cfg).train_mode()
    channel = ChannelModel(cfg.channel_kind, 6.0, cfg.code_rate, rng_seed=seed)
    optimizer = Adam(system.parameters())
    rows = np.random.default_rng(seed).integers(0, cfg.M, size=(batch, cfg.block_length))
    result = system.end_to_end(rows, channel)
    optimizer.zero_grad()
    result.loss.backward()
    clip_global_norm(system.parameters(), 5.0)
    optimizer.step()
    return system, optimizer, result


@pytest.mark.parametrize("k, n, kind", [(4, 2, "awgn"), (8, 4, "rayleigh")])
def test_a_train_step_and_a_sweep_stay_float32(k, n, kind, monkeypatch):
    cfg = SystemConfig(k=k, n=n, hidden_filters=32, block_length=6, channel_kind=kind, seed=3)
    system, optimizer, result = _one_step(cfg)
    assert result.loss.dtype == np.float32
    arrays = [(f"stage {name}", out) for name, out in result.stages]
    for name, p in system.named_parameters():
        arrays += [(name, p.data), (f"{name}.grad", p.grad)]
    # the optimizer's master weights and moments are float64 by design
    assert all(a.dtype == np.float64 for a in optimizer.master + optimizer.m + optimizer.v)
    for name, bn in system.layers_of(BatchNorm1D):
        arrays += [(f"{name} mean", bn.running_mean), (f"{name} var", bn.running_var)]

    system.eval_mode()
    run, decide, codebook = system._run, system.decide, system.codebook

    def recording_run(stages, env, record=None):
        env = run(stages, env, record)
        arrays.extend((f"eval {name}", env[out].data) for name, _, out, _ in stages)
        return env

    def recording_decide(y):
        arrays.append(("decide input", y.data))
        return decide(y)

    def recording_codebook():
        book = codebook()
        arrays.append(("codebook", book))
        return book

    monkeypatch.setattr(system, "_run", recording_run)
    monkeypatch.setattr(system, "decide", recording_decide)
    monkeypatch.setattr(system, "codebook", recording_codebook)
    evaluate_bler(system, [4.0, 8.0], blocks_per_point=40, seed=1, chunk_blocks=16)
    names = {name for name, _ in arrays}
    assert {"codebook", "decide input", "eval rx_conv2", "stage rx_conv2"} <= names
    wrong = [name for name, a in arrays if a.dtype != np.float32]
    assert not wrong


def test_backward_leaves_no_gradient_on_intermediates():
    cfg = SystemConfig(k=8, n=4, block_length=10, seed=5)
    system, _, result = _one_step(cfg, batch=64)
    nodes = _reverse_order(result.loss)
    assert len(nodes) > 30
    for node in nodes:
        if node._grad_fn is not None:
            assert node.grad is None
    assert all(p.grad is not None for p in system.parameters())


def _train_peak_bytes(cfg, batches):
    system = CommSystem(cfg)
    # 71 rows hold out 7, and 142 hold out 14: one and two full batches
    data = generate_dataset(cfg.k, cfg.block_length, num_messages=71 * batches, seed=2,
                            num_test=1)
    tracemalloc.start()
    try:
        train(system, data, epochs=1, batch_size=64)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_train_step_does_not_hold_the_previous_steps_graph():
    # holding step 1's graph (and gradients on its intermediates) while step 2
    # runs raised the two-step peak by about that graph's size
    cfg = SystemConfig(k=8, n=4, block_length=10, seed=5)
    one, two = _train_peak_bytes(cfg, 1), _train_peak_bytes(cfg, 2)
    assert two <= 1.1 * one
