"""Command line behavior: parsing, precedence, exit codes, file outputs."""

import json

import numpy as np
import pytest

import vaecomm.gradcheck as gradcheck
from vaecomm.cli import (
    RunConfig,
    main,
    merge_config,
    parse_lengths,
    parse_sweep,
    read_config_file,
)
from vaecomm.errors import ConfigError, TrainingDivergedError
from vaecomm.tensor import from_op


def run_train(tmp_path, name="model.json", extra=(), fmt="csv"):
    out = tmp_path / name
    args = ["train", "--k", "2", "--n", "1", "--latent-mult", "2",
            "--filters", "12", "--L", "3", "--epochs", "2", "--batch", "32",
            "--train-messages", "96", "--test-messages", "8",
            "--seed", "9", "--format", fmt, "--out", str(out)]
    code = main(args + list(extra))
    return code, out


# ---------------------------------------------------------------- parsing


def test_parse_sweep_inclusive_integer_steps():
    assert parse_sweep("5:15:1") == tuple(float(v) for v in range(5, 16))
    assert len(parse_sweep("5:15:0.5")) == 21
    assert parse_sweep("7:7:1") == (7.0,)


def test_parse_sweep_rejects_bad_specs():
    for bad in ("5:15", "5:15:0", "15:5:1", "a:b:c", "1:2:-1"):
        with pytest.raises(ValueError):
            parse_sweep(bad)


def test_parse_lengths():
    assert parse_lengths("10,50,100") == (10, 50, 100)
    assert parse_lengths(" 4 , 8 ") == (4, 8)
    for bad in ("", ",", "a,b", "0,5", "-3"):
        with pytest.raises(ValueError):
            parse_lengths(bad)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment settings\n"
        "k = 3\n"
        "latent-mult = 4   # hyphen form accepted\n"
        "lr=0.02\n"
        "ebno = 4:8:2\n"
        "lengths = 5,10\n"
        "\n"
    )
    values = read_config_file(str(path))
    assert values == {"k": 3, "latent_mult": 4, "lr": 0.02,
                      "ebno": (4.0, 6.0, 8.0), "lengths": (5, 10)}


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError):
        read_config_file(str(missing))
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("unknown_thing = 5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        read_config_file(str(bad_key))
    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        read_config_file(str(bad_line))
    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("epochs = soon\n")
    with pytest.raises(ConfigError, match="epochs"):
        read_config_file(str(bad_value))


class _Namespace:
    def __init__(self, **kw):
        self.__dict__.update(kw)

    def __getattr__(self, name):
        return None


def test_merge_precedence_flag_over_preset_over_file():
    file_values = {"epochs": 3, "lr": 0.5}
    args = _Namespace(epochs=7, paper_scale=True)
    cfg, explicit = merge_config(args, file_values)
    assert cfg.epochs == 7          # flag beats preset
    assert cfg.lr == 0.01           # preset beats file
    assert cfg.k == 4               # untouched default
    assert "epochs" in explicit and "lr" in explicit
    cfg2, _ = merge_config(_Namespace(paper_scale=False), file_values)
    assert cfg2.epochs == 3 and cfg2.lr == 0.5
    assert RunConfig().L == 100 and RunConfig().epochs == 150


# ------------------------------------------------------------- exit codes


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "train" in capsys.readouterr().out


def test_invalid_latent_mult_names_allowed_values(capsys):
    code = main(["train", "--latent-mult", "3", "--out", "x.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "2" in err and "4" in err


def test_train_without_out_is_usage_error(capsys):
    code = main(["train", "--k", "2", "--n", "1", "--epochs", "0"])
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_unknown_constellation_is_usage_error(capsys):
    code = main(["baseline", "--constellation", "8psk", "--out", "x.csv"])
    assert code == 2
    capsys.readouterr()


def test_training_divergence_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise TrainingDivergedError("non-finite loss at epoch 1; layer 'tx_conv1'")
    monkeypatch.setattr("vaecomm.cli.train", explode)
    code, _ = run_train(tmp_path)
    assert code == 3
    assert "tx_conv1" in capsys.readouterr().err


# ------------------------------------------------------------------ train


def test_train_writes_checkpoint_and_log(tmp_path, capsys):
    code, out = run_train(tmp_path)
    captured = capsys.readouterr().out
    assert code == 0
    assert out.exists()
    log = tmp_path / "model.json.log.csv"
    assert log.exists()
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,kl,recon"
    assert len(lines) == 3
    assert "reference count: 12824" in captured


def test_train_reruns_are_byte_identical(tmp_path, capsys):
    _, a = run_train(tmp_path, name="a.json")
    _, b = run_train(tmp_path, name="b.json")
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    log_a = (tmp_path / "a.json.log.csv").read_bytes()
    log_b = (tmp_path / "b.json.log.csv").read_bytes()
    assert log_a == log_b


def test_train_json_log_format(tmp_path, capsys):
    code, out = run_train(tmp_path, fmt="json")
    capsys.readouterr()
    assert code == 0
    rows = json.loads((tmp_path / "model.json.log.json").read_text())
    assert len(rows) == 2
    assert set(rows[0]) == {"epoch", "train_loss", "val_loss", "kl", "recon"}


def test_train_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epochs = 1\nseed = 9\n")
    out = tmp_path / "m.json"
    code = main(["train", "--k", "2", "--n", "1", "--filters", "8", "--L", "2",
                 "--train-messages", "64", "--test-messages", "8", "--batch", "32",
                 "--config", str(cfg_file), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = (tmp_path / "m.json.log.csv").read_text().splitlines()
    assert len(rows) == 2  # header + 1 epoch from the file

    code = main(["train", "--k", "2", "--n", "1", "--filters", "8", "--L", "2",
                 "--train-messages", "64", "--test-messages", "8", "--batch", "32",
                 "--epochs", "2", "--config", str(cfg_file), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = (tmp_path / "m.json.log.csv").read_text().splitlines()
    assert len(rows) == 3  # flag overrode the file


# ------------------------------------------------------------------ sweep


def test_sweep_row_count_and_determinism(tmp_path, capsys):
    _, ckpt = run_train(tmp_path)
    curve_a = tmp_path / "a.csv"
    curve_b = tmp_path / "b.csv"
    for curve in (curve_a, curve_b):
        code = main(["sweep", "--checkpoint", str(ckpt), "--ebno", "5:15:1",
                     "--blocks", "8", "--seed", "4", "--out", str(curve)])
        assert code == 0
    capsys.readouterr()
    lines = curve_a.read_text().splitlines()
    assert lines[0] == "ebno_db,bler,ser,ci_low,ci_high,blocks,seed,system_label"
    assert len(lines) == 12
    ebnos = [float(line.split(",")[0]) for line in lines[1:]]
    assert ebnos == sorted(ebnos) and len(set(ebnos)) == 11
    assert curve_a.read_bytes() == curve_b.read_bytes()


def test_sweep_defaults_to_the_checkpoint_block_length(tmp_path, capsys):
    _, ckpt = run_train(tmp_path, extra=("--L", "10"))
    curves = {}
    for name, extra in (("stored", ()), ("explicit", ("--L", "10"))):
        curves[name] = tmp_path / f"{name}.csv"
        code = main(["sweep", "--checkpoint", str(ckpt), "--ebno", "0:2:1", "--blocks", "8",
                     "--seed", "4", "--out", str(curves[name]), *extra])
        assert code == 0
    capsys.readouterr()
    assert curves["stored"].read_bytes() == curves["explicit"].read_bytes()


def test_sweep_requires_checkpoint(capsys):
    assert main(["sweep", "--out", "c.csv"]) == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_sweep_checkpoint_flag_mismatch(tmp_path, capsys):
    _, ckpt = run_train(tmp_path)
    code = main(["sweep", "--checkpoint", str(ckpt), "--k", "4",
                 "--ebno", "5:6:1", "--blocks", "4", "--out", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert "k=2" in err and "k=4" in err


def test_sweep_corrupt_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = main(["sweep", "--checkpoint", str(bad), "--blocks", "4",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 3
    assert "bad.json" in capsys.readouterr().err


def test_sweep_json_output(tmp_path, capsys):
    _, ckpt = run_train(tmp_path)
    out = tmp_path / "curve.json"
    code = main(["sweep", "--checkpoint", str(ckpt), "--ebno", "5:7:1",
                 "--blocks", "4", "--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3 and rows[0]["system_label"] == "vae_k2n1m2_awgn"


# --------------------------------------------------------------- baseline


def test_baseline_curve_with_analytic_column(tmp_path, capsys):
    out = tmp_path / "qpsk.csv"
    code = main(["baseline", "--constellation", "qpsk", "--channel", "awgn",
                 "--ebno", "4:8:2", "--k", "2", "--L", "4", "--blocks", "200",
                 "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",analytic_ber")
    assert len(lines) == 4


def test_baseline_rayleigh_has_no_analytic_column(tmp_path, capsys):
    out = tmp_path / "qpsk_ray.csv"
    code = main(["baseline", "--constellation", "qpsk", "--channel", "rayleigh",
                 "--ebno", "10:12:2", "--k", "2", "--L", "4", "--blocks", "100",
                 "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert "analytic_ber" not in header
    assert header == "ebno_db,bler,ser,ci_low,ci_high,blocks,seed,system_label"


def test_baseline_deterministic(tmp_path, capsys):
    outs = []
    for name in ("x.csv", "y.csv"):
        out = tmp_path / name
        main(["baseline", "--constellation", "16qam", "--ebno", "6:8:1",
              "--k", "4", "--L", "2", "--blocks", "300", "--seed", "2",
              "--out", str(out)])
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


# --------------------------------------------------------------- transfer


def test_transfer_rows_one_per_length(tmp_path, capsys):
    _, ckpt = run_train(tmp_path)
    out = tmp_path / "transfer.csv"
    code = main(["transfer", "--checkpoint", str(ckpt), "--lengths", "2,5,9",
                 "--ebno-db", "6", "--blocks", "16", "--seed", "3",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "5", "9"]


def test_transfer_empty_lengths_is_usage_error(tmp_path, capsys):
    code = main(["transfer", "--checkpoint", "m.json", "--lengths", "",
                 "--out", "t.csv"])
    assert code == 2
    capsys.readouterr()


# -------------------------------------------------------------- gradcheck


def test_gradcheck_passes_and_prints_components(capsys):
    code = main(["gradcheck", "--trials", "2", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "softmax" in out and "PASS" in out
    assert "all 18 gradient checks passed" in out


def test_gradcheck_too_strict_tolerance_fails(capsys):
    code = main(["gradcheck", "--trials", "2", "--rel-tol", "1e-13", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED" in out


def test_gradcheck_injected_fault_names_the_op(monkeypatch, capsys, tmp_path):
    def broken_builder(rng):
        x0 = rng.normal(size=(3,))
        def f(x):
            return from_op(np.array((x.data**2).sum()), (x,),
                           lambda g: (g * x.data,))
        return f, x0

    monkeypatch.setattr(gradcheck, "REGISTRY",
                        gradcheck.REGISTRY + (("bad_op", broken_builder),))
    report_path = tmp_path / "report.json"
    code = main(["gradcheck", "--trials", "2", "--seed", "5",
                 "--out", str(report_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED: bad_op" in out
    rows = json.loads(report_path.read_text())
    assert rows[-1]["name"] == "bad_op" and rows[-1]["passed"] is False
