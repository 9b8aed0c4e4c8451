import base64
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_stages
from vaecomm import CheckpointError, ConfigError, DomainError, model
from vaecomm.channels import ChannelModel
from vaecomm.checkpoint import load_checkpoint, save_checkpoint
from vaecomm.data import generate_dataset, one_hot
from vaecomm.layers import BatchNorm1D
from vaecomm.model import (
    PER_SYMBOL,
    RECEIVER,
    STAGES,
    TRANSMITTER,
    CommSystem,
    EndToEndResult,
    SystemConfig,
)
from vaecomm.tensor import Tensor, finite_difference_check
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


def symbol_batch(config, rng, batch=8):
    return rng.integers(0, config.M, size=(batch, config.block_length))


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
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="beta"):
            SystemConfig(k=4, n=2, beta=beta)


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


# -- the chain's stage outputs ---------------------------------------------------------


def test_transmit_shapes_and_power():
    cfg = desk_config()
    sys_ = CommSystem(cfg).eval_mode()
    stages = chain_stages(sys_, symbol_batch(cfg, np.random.default_rng(0)))
    for name in ("mu_head", "logvar_head", "power_norm", "channel"):
        assert stages[name].shape == (8, 10, 4), name
    assert stages["rx_conv2"].shape == (8, 10, 16)
    assert_close_f32((stages["power_norm"].astype(np.float64)**2).mean(axis=(1, 2)), 1.0)


def test_transmit_power_constraint_in_train_mode():
    cfg = desk_config()
    sys_ = CommSystem(cfg).train_mode()
    signal = chain_stages(sys_, symbol_batch(cfg, np.random.default_rng(1)))["power_norm"]
    assert_close_f32((signal.astype(np.float64)**2).mean(axis=(1, 2)), 1.0)


@pytest.mark.parametrize("bad", [-1, 16])
def test_end_to_end_rejects_a_symbol_outside_the_alphabet(bad):
    cfg = desk_config()
    symbols = symbol_batch(cfg, np.random.default_rng(2))
    symbols[1, 3] = bad
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=2)
    with pytest.raises(DomainError, match=rf"\[0, 16\), got {bad}"):
        CommSystem(cfg).end_to_end(symbols, ch)


@pytest.mark.parametrize("symbols", [
    np.zeros((2, 10)),
    np.zeros((2, 10), dtype=bool),
    np.zeros((2, 10, 16), dtype=np.int64),  # a one-hot-shaped array
    np.zeros(10, dtype=np.int64),
], ids=["float", "bool", "rank-3", "rank-1"])
def test_end_to_end_rejects_symbols_that_are_not_an_integer_matrix(symbols):
    cfg = desk_config()
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=2)
    with pytest.raises(DomainError, match=r"integer symbols of shape \(batch, L\)"):
        CommSystem(cfg).end_to_end(symbols, ch)


# The benchmark's stage-by-stage trace enters the chain through _check_onehot.
@pytest.mark.parametrize("case, match", [
    ("half-entry", "exactly one-hot"),
    ("zero-row", "exactly one-hot"),
    ("wrong-M", r"\(batch, L, 16\), got \(2, 10, 7\)"),
])
def test_check_onehot_rejects_rows_that_are_not_one_hot(case, match):
    system = CommSystem(desk_config())
    good = one_hot(np.arange(20).reshape(2, 10) % 16, 16).data
    np.testing.assert_array_equal(system._check_onehot(good).data, good)
    bad = good.copy()
    if case == "half-entry":
        bad[1, 4, 4] = 0.5
    elif case == "zero-row":
        bad[0, 2] = 0.0
    else:
        bad = bad[:, :, :7]
    with pytest.raises(DomainError, match=match):
        system._check_onehot(bad)


def test_eval_transmit_is_deterministic():
    cfg = desk_config()
    sys_ = CommSystem(cfg).eval_mode()
    x = symbol_batch(cfg, np.random.default_rng(4))
    np.testing.assert_array_equal(chain_stages(sys_, x)["power_norm"],
                                  chain_stages(sys_, x)["power_norm"])


# -- end to end ------------------------------------------------------------------------


def test_end_to_end_returns_finite_loss_and_gradients_reach_first_layer():
    cfg = desk_config()
    sys_ = CommSystem(cfg).train_mode()
    ch = ChannelModel(cfg.channel_kind, 6.0, cfg.code_rate, rng_seed=1)
    res = sys_.end_to_end(symbol_batch(cfg, np.random.default_rng(5)), ch)
    assert isinstance(res, EndToEndResult)
    assert math.isfinite(res.loss.item())
    res.loss.backward()
    for name, p in sys_.named_parameters():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name
    assert np.abs(sys_.tx_conv1.weight.grad).max() > 0.0


def test_end_to_end_checks_its_input_once(monkeypatch):
    cfg = desk_config()
    check = CommSystem._check_symbols
    calls = []

    def counting_check(self, symbols):
        calls.append(symbols)
        return check(self, symbols)

    monkeypatch.setattr(CommSystem, "_check_symbols", counting_check)
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=2)
    CommSystem(cfg).end_to_end(symbol_batch(cfg, np.random.default_rng(6)), ch)
    assert len(calls) == 1


def test_end_to_end_breakdown_consistent():
    cfg = desk_config()
    sys_ = CommSystem(cfg).train_mode()
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=2)
    res = sys_.end_to_end(symbol_batch(cfg, np.random.default_rng(6)), ch)
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
    res = sys_.end_to_end(symbol_batch(cfg, np.random.default_rng(seed), batch), ch)
    res.loss.backward()
    for name, p in sys_.named_parameters():
        assert p.grad is not None, name
        assert p.grad.dtype == np.float32 and p.grad.shape == p.shape, name
        assert np.isfinite(p.grad).all(), name
    signal = dict(res.stages)["power_norm"]
    assert signal.shape == (batch, length, m * n)
    assert_close_f32((signal.astype(np.float64) ** 2).mean(axis=(1, 2)), 1.0)


def _per_symbol_run(system, symbols, g, table):
    """The PER_SYMBOL stages' output and the gradients of their four
    parameters for the output gradient ``g``: as end_to_end's table node, or
    as the per-stage layer chain on every position."""
    x = one_hot(symbols, system.config.M)
    if table:
        out = system._per_symbol(symbols, x, [])
    else:
        out = system._run(PER_SYMBOL, {"x": x})["h"]
    for p in system.parameters():
        p.grad = None
    (out * Tensor(g)).sum().backward()
    conv1, conv2 = system.tx_conv1, system.tx_conv2
    return [out.data] + [p.grad for p in (conv1.weight, conv1.bias, conv2.weight, conv2.bias)]


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("k, batch, one_symbol", [
    (2, (64, 10), False),
    (4, (64, 10), False),
    (8, (64, 10), False),
    (4, (64, 10), True),  # one table row, padded by repeating it
    (4, (2, 3), False),  # fewer positions than a padded table: run per position
], ids=["k2", "k4", "k8", "one-symbol", "six-positions"])
@pytest.mark.parametrize("filters", [32, 256])
def test_the_per_symbol_table_is_bit_equal_to_the_stage_chain(filters, k, batch, one_symbol,
                                                              mode):
    """Bit-equal on OpenBLAS's AVX-512 sgemm, the kernel it picks on an
    AVX-512 CPU. Under ``OPENBLAS_CORETYPE=Haswell`` a float32 product's rows
    depend on its row count at every table size tried, so the table changes
    the last bits and 16 of these 20 cases fail (README, "System model")."""
    cfg = SystemConfig(k=k, n=2, hidden_filters=filters, block_length=batch[1], seed=k)
    system = getattr(CommSystem(cfg), f"{mode}_mode")()
    rng = np.random.default_rng(k)
    for conv in (system.tx_conv1, system.tx_conv2):  # biases away from their initial zeros
        conv.bias.data[:] = rng.normal(scale=0.1, size=filters)
    symbols = np.full(batch, 5) if one_symbol else rng.integers(0, cfg.M, size=batch)
    g = rng.normal(size=batch + (filters,)).astype(np.float32)
    table = _per_symbol_run(system, symbols, g, table=True)
    chain = _per_symbol_run(system, symbols, g, table=False)
    for name, a, b in zip(("output", "tx_conv1.weight", "tx_conv1.bias", "tx_conv2.weight",
                           "tx_conv2.bias"), table, chain):
        # the layout too: clip_global_norm sums each gradient in memory order
        assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides), name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_per_symbol_node_gradient_matches_finite_differences(seed):
    """The node's hand-written backward against central differences, in
    float64, so unlike the bit-equality test above it does not depend on the
    BLAS kernel. The batch has more positions than the padded table, so the
    forward and backward go through the table of distinct symbols."""
    filters = 8
    system = CommSystem(SystemConfig(k=3, n=1, hidden_filters=filters, seed=seed))
    rng = np.random.default_rng(seed)
    convs = (system.tx_conv1, system.tx_conv2)
    for conv in convs:
        conv.weight = Tensor(conv.weight.data.astype(np.float64), requires_grad=True)
        conv.bias = Tensor(rng.normal(scale=0.1, size=filters), requires_grad=True)
    symbols = rng.integers(0, system.config.M, size=(4, 80))
    assert symbols.size > max(model._TABLE_MIN_ROWS, model._TABLE_MIN_FLOATS // filters)
    x = one_hot(symbols, system.config.M)
    probe = Tensor(rng.normal(size=symbols.shape + (filters,)))
    for conv in convs:
        for field in ("weight", "bias"):
            start = getattr(conv, field)

            def f(p):
                setattr(conv, field, p)
                return (system._per_symbol(symbols, x, []) * probe).sum()

            report = finite_difference_check(f, start)
            setattr(conv, field, start)
            assert report.passed, (conv.name, field, report.max_rel_err)


def test_trace_names_every_stage():
    cfg = desk_config()
    sys_ = CommSystem(cfg)
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=3)
    x = symbol_batch(cfg, np.random.default_rng(7))
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
        outputs[L] = chain_stages(sys_, symbols.reshape(-1, L))["power_norm"].reshape(600, cfg.latent_dim)

    np.testing.assert_array_equal(outputs[10], outputs[50])
    np.testing.assert_array_equal(outputs[10], outputs[100])


def test_identical_symbols_map_to_identical_signals_per_position():
    cfg = desk_config()
    sys_ = CommSystem(cfg).eval_mode()
    sys_.power_norm.per_position = True
    symbols = np.full((1, 6), 3)  # same symbol at every position
    signal = chain_stages(sys_, symbols)["power_norm"]
    for pos in range(6):
        np.testing.assert_array_equal(signal[0, pos], signal[0, 0])


@pytest.mark.parametrize("bad", [-1, 16])
def test_encode_rejects_a_symbol_outside_the_alphabet(bad):
    sys_ = CommSystem(desk_config()).eval_mode()
    book = sys_.codebook()
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
    book = sys_.codebook()
    symbols = np.random.default_rng(16).integers(0, cfg.M, size=(32, cfg.block_length))
    with np.errstate(over="ignore"):
        assert np.isinf((book[symbols] ** 2).mean(axis=(1, 2))).all()
    signal = sys_.encode(book, symbols).data
    latent = book.astype(np.float64)[symbols]
    assert_close_f32(signal, latent / np.sqrt((latent ** 2).mean(axis=(1, 2), keepdims=True)))
    mean_sq = (signal.astype(np.float64) ** 2).mean(axis=(1, 2))
    assert np.all(np.abs(mean_sq - 1.0) <= F32_TOL)


# -- checkpoints -------------------------------------------------------------------------


def format2_document(system):
    """The document a format-2 writer made for system: every value a JSON number."""
    return {
        "format_version": 2,
        "config": dataclasses.asdict(system.config),
        "layers": [{"name": name, "shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
                   for name, t in system.named_parameters()],
        "batchnorm_running_stats": {
            name: {"mean": layer.running_mean.tolist(), "var": layer.running_var.tolist()}
            for name, layer in system.layers_of(BatchNorm1D)
        },
    }


def trained_step_system(seed):
    """A desk system after one train-mode forward pass, so its running statistics are not
    their initial zeros and ones."""
    cfg = desk_config(seed=seed)
    sys_ = CommSystem(cfg).train_mode()
    ch = ChannelModel("awgn", 6.0, cfg.code_rate, rng_seed=4)
    sys_.end_to_end(symbol_batch(cfg, np.random.default_rng(9)), ch)
    return sys_


def stored_arrays(system):
    """Every array a checkpoint stores, by its field name, in file order."""
    arrays = {f"layers[{name}]": t.data for name, t in system.named_parameters()}
    for name, layer in system.layers_of(BatchNorm1D):
        arrays[f"{name}.mean"] = layer.running_mean
        arrays[f"{name}.var"] = layer.running_var
    return arrays


def test_checkpoint_roundtrip_preserves_everything(tmp_path):
    sys_ = trained_step_system(seed=11)
    cfg = sys_.config

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


def test_checkpoint_payloads_are_the_little_endian_float32_bytes(tmp_path):
    sys_ = trained_step_system(seed=16)
    path = tmp_path / "m.json"
    save_checkpoint(sys_, str(path))
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 3
    payloads = {f"layers[{e['name']}]": e["float32le"] for e in doc["layers"]}
    assert all(set(e) == {"name", "shape", "float32le"} for e in doc["layers"])
    for name, entry in doc["batchnorm_running_stats"].items():
        payloads[f"{name}.mean"] = entry["mean"]
        payloads[f"{name}.var"] = entry["var"]
    arrays = stored_arrays(sys_)
    assert list(payloads) == list(arrays)
    for field, data in arrays.items():
        assert payloads[field] == base64.b64encode(data.astype("<f4").tobytes()).decode(), field


def test_format_2_and_format_3_files_load_the_same_arrays(tmp_path):
    sys_ = trained_step_system(seed=17)
    old, new = tmp_path / "v2.json", tmp_path / "v3.json"
    old.write_text(json.dumps(format2_document(sys_), indent=1) + "\n")
    save_checkpoint(sys_, str(new))
    from_old, from_new = load_checkpoint(str(old)), load_checkpoint(str(new))
    assert from_old.config == from_new.config == sys_.config
    a, b = stored_arrays(from_old), stored_arrays(from_new)
    for field, data in stored_arrays(sys_).items():
        np.testing.assert_array_equal(a[field], data, err_msg=field)
        np.testing.assert_array_equal(b[field], data, err_msg=field)


@pytest.mark.parametrize("version", [2, 3])
def test_loaded_checkpoint_arrays_are_writable_contiguous_float32(tmp_path, version):
    sys_ = trained_step_system(seed=18)
    path = tmp_path / "m.json"
    if version == 2:
        path.write_text(json.dumps(format2_document(sys_)))
    else:
        save_checkpoint(sys_, str(path))
    for field, array in stored_arrays(load_checkpoint(str(path))).items():
        assert array.dtype == np.float32 and array.dtype.isnative, field
        assert array.flags.writeable and array.flags.c_contiguous, field


def test_checkpoint_loaded_system_predicts_identically(tmp_path):
    cfg = desk_config(seed=12)
    sys_ = CommSystem(cfg).eval_mode()
    path = tmp_path / "m.json"
    save_checkpoint(sys_, str(path))
    loaded = load_checkpoint(str(path)).eval_mode()
    x = symbol_batch(cfg, np.random.default_rng(10))
    a, b = chain_stages(sys_, x), chain_stages(loaded, x)
    np.testing.assert_array_equal(a["power_norm"], b["power_norm"])
    np.testing.assert_array_equal(a["rx_conv2"], b["rx_conv2"])


@pytest.mark.parametrize("field", ["layers[tx_conv1.weight].float32le",
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


class FailingJSON:
    """Stands in for the json module: dump writes part of the document, then fails as a full
    disk does."""

    def dump(self, doc, fh, **kwargs):
        fh.write(json.dumps(doc, **kwargs)[:1000])
        raise OSError(28, "No space left on device")


def test_a_failed_write_keeps_the_existing_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save_checkpoint(CommSystem(desk_config(seed=19)), str(path))
    before = path.read_bytes()
    monkeypatch.setattr("vaecomm.checkpoint.json", FailingJSON())
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*No space left"):
        save_checkpoint(CommSystem(desk_config(seed=20)), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


@pytest.mark.parametrize("target", ["missing/m.json", "a_directory"])
def test_an_unwritable_checkpoint_path_is_named(tmp_path, target):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / target
    with pytest.raises(CheckpointError, match=re.escape(f"cannot write checkpoint {path}")):
        save_checkpoint(CommSystem(desk_config()), str(path))
    assert [p.name for p in tmp_path.rglob("*")] == ["a_directory"]  # no temporary file left


def test_checkpoint_missing_file():
    with pytest.raises(CheckpointError):
        load_checkpoint("/nonexistent/model.json")


def test_a_checkpoint_path_that_is_a_directory_is_named(tmp_path):
    with pytest.raises(CheckpointError, match=re.escape(f"cannot read checkpoint {tmp_path}")):
        load_checkpoint(str(tmp_path))


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


@dataclasses.dataclass(frozen=True)
class Format3:
    """A malformed-table value that edits the format-3 file save_checkpoint writes; the
    table's other values edit a format-2 document."""
    value: object


def f32le(values):
    return base64.b64encode(np.asarray(values, dtype="<f4").tobytes()).decode()


# sizes of the desk system's first layer (tx_conv1.weight) and of a batch norm's statistics
LAYER0_SIZE, BN_SIZE = 512, 32


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
    (("layers", 0, "float32le"), Format3(5), "float32le': not a base64 string"),
    (("layers", 0, "float32le"), Format3(None), "float32le': not a base64 string"),
    (("batchnorm_running_stats", "tx_bn", "mean"), Format3([0.0] * BN_SIZE),
     "tx_bn.mean': not a base64 string"),
    (("layers", 0, "float32le"), Format3("not base64!"), "float32le': not valid base64"),
    (("layers", 0, "float32le"), Format3("AAAA\u00e9"), "float32le': not valid base64"),
    (("batchnorm_running_stats", "rx_bn", "var"), Format3("AAA"), "rx_bn.var': not valid base64"),
    (("layers", 0, "float32le"), Format3(f32le(np.ones(LAYER0_SIZE - 1))),
     "float32le': expected 2048 bytes"),
    (("layers", 0, "float32le"), Format3(f32le(np.ones(LAYER0_SIZE))[:-4]),
     "float32le': expected 2048 bytes"),
    (("batchnorm_running_stats", "rx_bn", "var"), Format3(f32le(np.ones(BN_SIZE + 1))),
     "rx_bn.var': expected 128 bytes"),
    (("layers", 0, "float32le"), Format3(f32le([np.nan] + [0.0] * (LAYER0_SIZE - 1))),
     "float32le': holds a non-finite value"),
    (("batchnorm_running_stats", "rx_bn", "var"), Format3(f32le([1.0] * (BN_SIZE - 1) + [np.inf])),
     "rx_bn.var': holds a non-finite value"),
    (("batchnorm_running_stats", "tx_bn", "mean"), Format3(f32le([-np.inf] * BN_SIZE)),
     "tx_bn.mean': holds a non-finite value"),
    (("layers", 0, "values", 1), 1e300, "values': not a list of numbers"),
    (("batchnorm_running_stats", "rx_bn", "var", 0), 10 ** 400, "rx_bn.var': not a list of numbers"),
    (("format_version",), 2.0, "format_version"),
    (("format_version",), Format3(True), "format_version"),
    (("config", "beta"), float("nan"), "config"),
    (("config", "beta"), float("-inf"), "config"),
])
def test_malformed_checkpoint_entries_raise_checkpoint_error(tmp_path, path, value, field):
    saved = tmp_path / "m.json"
    system = CommSystem(desk_config())
    if isinstance(value, Format3):
        save_checkpoint(system, str(saved))
        doc = json.loads(saved.read_text())
        value = value.value
    else:
        doc = format2_document(system)
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
    data = generate_dataset(k, length, num_messages=5, seed=seed, num_test=1)
    train(sys_, data, epochs=1, batch_size=4)  # one step: one row is held out

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
    doc = format2_document(sys_)
    doc["layers"][0]["values"][0] = 0.1  # not a float32 value
    doc["batchnorm_running_stats"]["tx_bn"]["mean"][0] = 1 / 3
    path.write_text(json.dumps(doc))
    loaded = load_checkpoint(str(path))
    assert loaded.tx_conv1.weight.data.reshape(-1)[0] == np.float32(0.1)
    assert loaded.tx_bn.running_mean[0] == np.float32(1 / 3)
    assert loaded.tx_bn.running_mean.dtype == np.float32
