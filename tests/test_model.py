import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaecomm import CheckpointError, ConfigError, DomainError, Tensor
from vaecomm.channels import ChannelModel
from vaecomm.checkpoint import load_checkpoint, save_checkpoint
from vaecomm.data import generate_dataset
from vaecomm.layers import BatchNorm1D
from vaecomm.model import RECEIVER, STAGES, TRANSMITTER, CommSystem, EndToEndResult, SystemConfig
from vaecomm.training import train


# |a - b| <= F32_TOL * max(1, |b|): a float32 result against its formula
F32_TOL = 8 * np.finfo(np.float32).eps


def assert_close_f32(a, b):
    assert np.all(np.abs(a - b) <= F32_TOL * np.maximum(1.0, np.abs(b)))


def desk_config(**overrides):
    base = dict(k=4, n=2, latent_multiplier=2, hidden_filters=32,
                beta=1e-4, channel_kind="awgn", block_length=10, seed=0)
    base.update(overrides)
    return SystemConfig(**base)


def onehot_batch(config, rng, batch=8):
    sym = rng.integers(0, config.M, size=(batch, config.block_length))
    x = np.zeros((batch, config.block_length, config.M))
    np.put_along_axis(x, sym[..., None], 1.0, axis=2)
    return x


# -- config --------------------------------------------------------------------


def test_config_properties():
    cfg = SystemConfig(k=4, n=2, latent_multiplier=2)
    assert cfg.M == 16
    assert cfg.code_rate == 2.0
    assert cfg.latent_dim == 4


def test_config_rejects_bad_latent_multiplier():
    with pytest.raises(ConfigError) as err:
        SystemConfig(k=4, n=2, latent_multiplier=3)
    assert "2, 4" in str(err.value).replace("(", "").replace(")", "")


def test_config_rejects_bad_channel_and_sizes():
    with pytest.raises(ConfigError):
        SystemConfig(k=0, n=2)
    with pytest.raises(ConfigError):
        SystemConfig(k=4, n=0)
    with pytest.raises(ConfigError):
        SystemConfig(k=4, n=2, channel_kind="bsc")
    with pytest.raises(ConfigError):
        SystemConfig(k=4, n=2, beta=-1.0)


@pytest.mark.parametrize("field, value", [("k", True), ("n", 1.0), ("block_length", 4.0),
                                          ("latent_multiplier", 2.0), ("hidden_filters", "8"),
                                          ("seed", False), ("seed", np.int64(3))])
def test_config_rejects_a_non_int_in_an_integer_field(field, value):
    with pytest.raises(ConfigError, match=field):
        desk_config(**{field: value})


# -- build -----------------------------------------------------------------------


def test_build_shapes():
    cfg = desk_config()
    sys_ = CommSystem(cfg)
    assert sys_.tx_conv1.weight.shape == (32, 16, 1)
    assert sys_.mu_head.weight.shape == (4, 32, 1)
    assert sys_.logvar_head.weight.shape == (4, 32, 1)
    assert sys_.rx_conv2.weight.shape == (16, 32, 1)
    assert sys_.tx_bn.channels == 32


def test_every_stage_is_a_callable_attribute():
    sys_ = CommSystem(desk_config())
    for stage in STAGES:
        assert callable(getattr(sys_, stage.name)), stage.name


def test_named_parameters_keep_the_checkpoint_order():
    # the checkpoint's layer list and clip_global_norm's summation follow this order
    names = [n for n, _ in CommSystem(desk_config()).named_parameters()]
    convs = ("tx_conv1", "tx_conv2", "mu_head", "logvar_head", "rx_conv1", "rx_conv2")
    assert names == [f"{c}.{f}" for c in convs for f in ("weight", "bias")] + [
        "tx_bn.gamma", "tx_bn.shift", "rx_bn.gamma", "rx_bn.shift"]


def test_build_same_seed_identical_weights():
    a = CommSystem(desk_config(seed=5))
    b = CommSystem(desk_config(seed=5))
    for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    c = CommSystem(desk_config(seed=6))
    assert not np.array_equal(a.tx_conv1.weight.data, c.tx_conv1.weight.data)


def test_parameter_count_matches_hand_count():
    cfg = desk_config()
    sys_ = CommSystem(cfg)
    M, F, D = cfg.M, cfg.hidden_filters, cfg.latent_dim
    by_hand = (
        (M * F + F)          # tx_conv1
        + (F * F + F)        # tx_conv2
        + 2 * F              # tx_bn gamma + shift
        + 2 * (F * D + D)    # mu and logvar heads
        + (D * F + F)        # rx_conv1
        + 2 * F              # rx_bn
        + (F * M + M)        # rx_conv2
    )
    assert sys_.parameter_count() == by_hand


def test_parameter_count_default_width():
    sys_ = CommSystem(SystemConfig(k=4, n=2, latent_multiplier=2))
    assert sys_.parameter_count() == 78616


# -- transmit / receive -------------------------------------------------------------


def test_transmit_shapes_and_power():
    cfg = desk_config()
    sys_ = CommSystem(cfg).eval_mode()
    x = onehot_batch(cfg, np.random.default_rng(0))
    signal, mu, logvar = sys_.transmit(x)
    assert signal.shape == (8, 10, 4)
    assert mu.shape == (8, 10, 4)
    assert logvar.shape == (8, 10, 4)
    assert_close_f32((signal.data.astype(np.float64)**2).mean(axis=(1, 2)), 1.0)


def test_transmit_power_constraint_in_train_mode():
    cfg = desk_config()
    sys_ = CommSystem(cfg).train_mode()
    signal, _, _ = sys_.transmit(onehot_batch(cfg, np.random.default_rng(1)))
    assert_close_f32((signal.data.astype(np.float64)**2).mean(axis=(1, 2)), 1.0)


def test_transmit_rejects_non_onehot():
    cfg = desk_config()
    sys_ = CommSystem(cfg)
    bad = onehot_batch(cfg, np.random.default_rng(2))
    bad[0, 0, :] = 0.5
    with pytest.raises(DomainError):
        sys_.transmit(bad)
    with pytest.raises(DomainError):
        sys_.transmit(np.zeros((2, 10, 16)))
    with pytest.raises(DomainError):
        sys_.transmit(np.zeros((2, 10, 7)))


def test_receive_rows_are_distributions():
    cfg = desk_config()
    sys_ = CommSystem(cfg).eval_mode()
    y = Tensor(np.random.default_rng(3).normal(size=(4, 10, 4)))
    probs = sys_.receive(y).data
    assert probs.shape == (4, 10, 16)
    assert_close_f32(probs.astype(np.float64).sum(axis=2), 1.0)
    assert np.all(probs > 0.0)


def test_eval_transmit_is_deterministic():
    cfg = desk_config()
    sys_ = CommSystem(cfg).eval_mode()
    x = onehot_batch(cfg, np.random.default_rng(4))
    a, _, _ = sys_.transmit(x)
    b, _, _ = sys_.transmit(x)
    np.testing.assert_array_equal(a.data, b.data)


# -- end to end ------------------------------------------------------------------------


def test_end_to_end_returns_finite_loss_and_gradients_reach_first_layer():
    cfg = desk_config()
    sys_ = CommSystem(cfg).train_mode()
    ch = ChannelModel(cfg.channel_kind, 6.0, cfg.code_rate, rng_seed=1)
    res = sys_.end_to_end(onehot_batch(cfg, np.random.default_rng(5)), ch)
    assert isinstance(res, EndToEndResult)
    assert math.isfinite(res.loss.item())
    res.loss.backward()
    for name, p in sys_.named_parameters():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name
    assert np.abs(sys_.tx_conv1.weight.grad).max() > 0.0


def test_end_to_end_checks_its_input_once(monkeypatch):
    cfg = desk_config()
    check = CommSystem._check_onehot
    calls = []

    def counting_check(self, onehot):
        calls.append(onehot)
        return check(self, onehot)

    monkeypatch.setattr(CommSystem, "_check_onehot", counting_check)
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=2)
    CommSystem(cfg).end_to_end(onehot_batch(cfg, np.random.default_rng(6)), ch)
    assert len(calls) == 1


def test_end_to_end_breakdown_consistent():
    cfg = desk_config()
    sys_ = CommSystem(cfg).train_mode()
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=2)
    res = sys_.end_to_end(onehot_batch(cfg, np.random.default_rng(6)), ch)
    bd = res.breakdown
    assert_close_f32(bd.total, bd.beta * bd.kl_term + bd.reconstruction_term)
    assert bd.kl_term >= 0.0


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 8), n=st.integers(1, 4), m=st.sampled_from([2, 4]),
       filters=st.integers(1, 32), kind=st.sampled_from(["awgn", "rayleigh"]),
       length=st.integers(1, 12), batch=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_end_to_end_shapes_and_gradients_over_configs(k, n, m, filters, kind, length, batch,
                                                      seed):
    cfg = SystemConfig(k=k, n=n, latent_multiplier=m, hidden_filters=filters,
                       channel_kind=kind, block_length=length, seed=seed)
    sys_ = CommSystem(cfg).train_mode()
    ch = ChannelModel(kind, 6.0, cfg.code_rate, rng_seed=seed)
    res = sys_.end_to_end(onehot_batch(cfg, np.random.default_rng(seed), batch), ch)
    res.loss.backward()
    for name, p in sys_.named_parameters():
        assert p.grad is not None, name
        assert p.grad.dtype == np.float32 and p.grad.shape == p.shape, name
        assert np.isfinite(p.grad).all(), name
    assert res.signal.shape == (batch, length, m * n)
    assert_close_f32((res.signal.data.astype(np.float64) ** 2).mean(axis=(1, 2)), 1.0)


def test_trace_names_every_stage():
    cfg = desk_config()
    sys_ = CommSystem(cfg)
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=3)
    x = onehot_batch(cfg, np.random.default_rng(7))
    for mode in (sys_.train_mode, sys_.eval_mode):
        steps = mode().end_to_end(x, ch).stages
        names = [n for n, _ in steps]
        assert names == [
            "tx_conv1", "tx_act1", "tx_conv2", "tx_act2", "tx_bn", "mu_head",
            "logvar_head", "sampling", "power_norm", "channel", "rx_conv1",
            "rx_act1", "rx_bn", "rx_conv2",
        ]
        assert names == [s.name for s in TRANSMITTER] + ["channel"] + [s.name for s in RECEIVER]
        for name, arr in steps:
            assert np.isfinite(arr).all(), name


# -- block length equivariance ------------------------------------------------------------


def test_kernel1_system_is_block_length_equivariant():
    cfg = desk_config()
    sys_ = CommSystem(cfg).eval_mode()
    sys_.power_norm.per_position = True
    rng = np.random.default_rng(8)
    symbols = rng.integers(0, cfg.M, size=600)

    outputs = {}
    for L in (10, 50, 100):
        grouped = symbols.reshape(-1, L)
        x = np.zeros((grouped.shape[0], L, cfg.M))
        np.put_along_axis(x, grouped[..., None], 1.0, axis=2)
        signal, _, _ = sys_.transmit(x)
        outputs[L] = signal.data.reshape(600, cfg.latent_dim)

    np.testing.assert_array_equal(outputs[10], outputs[50])
    np.testing.assert_array_equal(outputs[10], outputs[100])


def test_identical_symbols_map_to_identical_signals_per_position():
    cfg = desk_config()
    sys_ = CommSystem(cfg).eval_mode()
    sys_.power_norm.per_position = True
    x = np.zeros((1, 6, cfg.M))
    x[:, :, 3] = 1.0  # same symbol at every position
    signal, _, _ = sys_.transmit(x)
    first = signal.data[0, 0]
    for pos in range(6):
        np.testing.assert_array_equal(signal.data[0, pos], first)


@pytest.mark.parametrize("bad", [-1, 16])
def test_encode_rejects_a_symbol_outside_the_alphabet(bad):
    sys_ = CommSystem(desk_config()).eval_mode()
    book = sys_.codebook(sys_.config.M)
    symbols = np.zeros((2, sys_.config.block_length), dtype=np.int64)
    symbols[1, 3] = bad
    with pytest.raises(DomainError, match=str(bad)):
        sys_.encode(book, symbols)


def test_an_overflowing_latent_is_sent_at_unit_power():
    # mu entries near 1e20: their squares overflow float32, yet each block is
    # normalized to mean square 1 instead of being scaled to 0
    cfg = SystemConfig(k=2, n=1, latent_multiplier=2, hidden_filters=8, block_length=4, seed=1)
    sys_ = CommSystem(cfg)
    sys_.mu_head.weight.data[:] = 1e21
    sys_.eval_mode()
    book = sys_.codebook(cfg.M)
    symbols = np.random.default_rng(16).integers(0, cfg.M, size=(32, cfg.block_length))
    with np.errstate(over="ignore"):
        assert np.isinf((book[symbols] ** 2).mean(axis=(1, 2))).all()
    signal = sys_.encode(book, symbols).data
    latent = book.astype(np.float64)[symbols]
    assert_close_f32(signal, latent / np.sqrt((latent ** 2).mean(axis=(1, 2), keepdims=True)))
    mean_sq = (signal.astype(np.float64) ** 2).mean(axis=(1, 2))
    assert np.all(np.abs(mean_sq - 1.0) <= F32_TOL)


# -- checkpoints -------------------------------------------------------------------------


def test_checkpoint_roundtrip_preserves_everything(tmp_path):
    cfg = desk_config(seed=11)
    sys_ = CommSystem(cfg)
    # make running stats nontrivial
    sys_.train_mode()
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=4)
    sys_.end_to_end(onehot_batch(cfg, np.random.default_rng(9)), ch)

    p1 = tmp_path / "model.json"
    p2 = tmp_path / "model2.json"
    save_checkpoint(sys_, str(p1))
    loaded = load_checkpoint(str(p1))
    save_checkpoint(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    for (na, ta), (nb, tb) in zip(sys_.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    np.testing.assert_array_equal(sys_.tx_bn.running_mean, loaded.tx_bn.running_mean)
    np.testing.assert_array_equal(sys_.rx_bn.running_var, loaded.rx_bn.running_var)
    assert loaded.config == cfg  # block_length=10 included


def test_version_1_checkpoint_loads_at_l100_and_warns(tmp_path):
    cfg = desk_config(seed=13)
    sys_ = CommSystem(cfg)
    p = tmp_path / "m.json"
    save_checkpoint(sys_, str(p))
    doc = json.loads(p.read_text())
    doc["format_version"] = 1
    del doc["config"]["block_length"]
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="L=100"):
        loaded = load_checkpoint(str(old))
    assert loaded.config == dataclasses.replace(cfg, block_length=100)
    for (_, ta), (_, tb) in zip(sys_.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_checkpoint_loaded_system_predicts_identically(tmp_path):
    cfg = desk_config(seed=12)
    sys_ = CommSystem(cfg).eval_mode()
    path = tmp_path / "m.json"
    save_checkpoint(sys_, str(path))
    loaded = load_checkpoint(str(path)).eval_mode()
    x = onehot_batch(cfg, np.random.default_rng(10))
    a, _, _ = sys_.transmit(x)
    b, _, _ = loaded.transmit(x)
    np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("field", ["layers[tx_conv1.weight].values",
                                   "batchnorm_running_stats.rx_bn.var"])
def test_save_refuses_a_non_finite_value_and_keeps_the_old_file(tmp_path, field):
    sys_ = CommSystem(desk_config(seed=15))
    path = tmp_path / "m.json"
    save_checkpoint(sys_, str(path))
    before = path.read_bytes()
    if field.startswith("layers"):
        sys_.tx_conv1.weight.data.flat[3] = np.nan
    else:
        sys_.rx_bn.running_var[1] = np.inf
    with pytest.raises(CheckpointError, match=re.escape(f"field '{field}'")):
        save_checkpoint(sys_, str(path))
    assert path.read_bytes() == before


def test_checkpoint_missing_file():
    with pytest.raises(CheckpointError):
        load_checkpoint("/nonexistent/model.json")


def test_checkpoint_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


def test_checkpoint_error_names_offending_field(tmp_path):
    cfg = desk_config()
    p = tmp_path / "m.json"
    save_checkpoint(CommSystem(cfg), str(p))
    doc = json.loads(p.read_text())

    broken = dict(doc)
    broken["format_version"] = 99
    q = tmp_path / "v.json"
    q.write_text(json.dumps(broken))
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(str(q))

    broken = json.loads(p.read_text())
    del broken["config"]["k"]
    q.write_text(json.dumps(broken))
    with pytest.raises(CheckpointError, match="config"):
        load_checkpoint(str(q))

    broken = json.loads(p.read_text())
    broken["layers"][0]["shape"] = [1, 2, 3]
    q.write_text(json.dumps(broken))
    with pytest.raises(CheckpointError, match=broken["layers"][0]["name"]):
        load_checkpoint(str(q))

    broken = json.loads(p.read_text())
    broken["layers"] = broken["layers"][1:]
    q.write_text(json.dumps(broken))
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(str(q))


@pytest.mark.parametrize("path, value, field", [
    (("layers", 0, "shape"), 5, "shape"),
    (("layers", 0, "shape"), None, "shape"),
    (("layers", 0, "values", 0), "a", "values"),
    (("layers", 0, "values", 0), None, "values"),
    (("layers", 0, "values", 0), float("nan"), "values"),
    (("layers", 0, "values", 0), float("inf"), "values"),
    (("layers", 0, "values"), {"a": 1}, "values"),
    (("batchnorm_running_stats", "tx_bn", "mean"), "x", "tx_bn.mean"),
    (("batchnorm_running_stats", "rx_bn", "var", 0), None, "rx_bn.var"),
    (("layers", 0, "name"), ["x"], "layers"),
    (("layers", 0, "values", 0), "1.5", "values"),
    (("layers", 0, "values", 0), True, "values"),
    (("batchnorm_running_stats", "tx_bn", "mean", 0), True, "tx_bn.mean"),
    (("batchnorm_running_stats", "rx_bn", "var", 0), "1.5", "rx_bn.var"),
    (("config", "block_length"), 4.0, "config"),
    (("config", "n"), 1.0, "config"),
    (("config", "k"), True, "config"),
])
def test_malformed_checkpoint_entries_raise_checkpoint_error(tmp_path, path, value, field):
    saved = tmp_path / "m.json"
    save_checkpoint(CommSystem(desk_config()), str(saved))
    doc = json.loads(saved.read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    saved.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=re.escape(field)):
        load_checkpoint(str(saved))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 8), n=st.integers(1, 4), m=st.sampled_from([2, 4]),
       filters=st.integers(1, 32), kind=st.sampled_from(["awgn", "rayleigh"]),
       length=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_checkpoint_roundtrip_after_a_train_step(tmp_path_factory, k, n, m, filters, kind,
                                                 length, seed):
    cfg = SystemConfig(k=k, n=n, latent_multiplier=m, hidden_filters=filters,
                       channel_kind=kind, block_length=length, seed=seed)
    sys_ = CommSystem(cfg)
    data = generate_dataset(k, length, num_messages=4, seed=seed, num_test=1)
    train(sys_, data, epochs=1, batch_size=4, validation_fraction=0.0)  # one step

    tmp = tmp_path_factory.mktemp("roundtrip")
    first, second = tmp / "a.json", tmp / "b.json"
    save_checkpoint(sys_, str(first))
    loaded = load_checkpoint(str(first))
    save_checkpoint(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    for (_, ta), (_, tb) in zip(sys_.named_parameters(), loaded.named_parameters()):
        assert tb.dtype == np.float32
        assert np.array_equal(ta.data, tb.data)
    for (_, a), (_, b) in zip(sys_.layers_of(BatchNorm1D), loaded.layers_of(BatchNorm1D)):
        assert b.running_mean.dtype == b.running_var.dtype == np.float32
        assert np.array_equal(a.running_mean, b.running_mean)
        assert np.array_equal(a.running_var, b.running_var)


def test_float64_checkpoint_values_load_rounded_to_float32(tmp_path):
    sys_ = CommSystem(desk_config(seed=14))
    path = tmp_path / "m.json"
    save_checkpoint(sys_, str(path))
    doc = json.loads(path.read_text())
    doc["layers"][0]["values"][0] = 0.1  # not a float32 value
    doc["batchnorm_running_stats"]["tx_bn"]["mean"][0] = 1 / 3
    path.write_text(json.dumps(doc))
    loaded = load_checkpoint(str(path))
    assert loaded.tx_conv1.weight.data.reshape(-1)[0] == np.float32(0.1)
    assert loaded.tx_bn.running_mean[0] == np.float32(1 / 3)
    assert loaded.tx_bn.running_mean.dtype == np.float32
