"""Command line behavior: parsing, precedence, exit codes, file outputs."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vaecomm
import vaecomm.gradcheck as gradcheck
from vaecomm.cli import (
    RunConfig,
    build_parser,
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
            "--train-messages", "96", "--seed", "9", "--format", fmt, "--out", str(out)]
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


def test_parse_sweep_rejects_non_finite_parts(capsys):
    for bad in ("-inf:5:1", "5:inf:1", "nan:5:1", "5:6:inf"):
        with pytest.raises(ValueError, match="non-finite"):
            parse_sweep(bad)
    assert main(["baseline", "--ebno=-inf:5:1", "--out", "b.csv"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_a_sweep_with_too_many_points_is_a_usage_error(capsys):
    # the point count overflowed int(): an OverflowError traceback and exit 1
    for bad in ("0:1e308:1e-308", "0:1:5e-321"):
        with pytest.raises(ValueError, match="too many points"):
            parse_sweep(bad)
    assert main(["baseline", "--ebno", "0:1e308:1e-308", "--out", "b.csv"]) == 2
    assert "too many points" in capsys.readouterr().err


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


def test_config_file_format_is_checked_before_any_work(tmp_path, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("blocks = 10\nformat = xml\n")
    out = tmp_path / "b.xml"
    code = main(["baseline", "--config", str(cfg_file), "--out", str(out)])
    assert code == 3
    assert f"{cfg_file}:2: bad value for format" in capsys.readouterr().err
    assert not out.exists()


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
    assert "epochs" in explicit and "lr" not in explicit  # the file's lr was not used
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


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "-0.5", "lr must be finite and > 0"),  # trained on to train_loss=3.14e29
    ("--beta", "nan", "beta must be finite and non-negative"),
])
def test_train_refuses_a_bad_rate_or_weight_with_one_error_line(tmp_path, capsys, flag,
                                                                 value, message):
    code, out = run_train(tmp_path, extra=(flag, value))
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


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
                 "--train-messages", "64", "--batch", "32",
                 "--config", str(cfg_file), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = (tmp_path / "m.json.log.csv").read_text().splitlines()
    assert len(rows) == 2  # header + 1 epoch from the file

    code = main(["train", "--k", "2", "--n", "1", "--filters", "8", "--L", "2",
                 "--train-messages", "64", "--batch", "32",
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
    assert lines[0] == "ebno_db,bler,ser,ci_low,ci_high,blocks,block_length,seed,system_label"
    assert len(lines) == 12
    ebnos = [float(line.split(",")[0]) for line in lines[1:]]
    assert ebnos == sorted(ebnos) and len(set(ebnos)) == 11
    assert curve_a.read_bytes() == curve_b.read_bytes()


def test_sweep_defaults_to_the_checkpoint_block_length(tmp_path, capsys):
    _, ckpt = run_train(tmp_path, extra=("--L", "10"))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("L = 3\n")  # overridden by the preset, so not a choice of L
    curves = {}
    for name, extra in (("stored", ()), ("explicit", ("--L", "10")),
                        ("preset_over_file", ("--paper-scale", "--config", str(cfg_file)))):
        curves[name] = tmp_path / f"{name}.csv"
        code = main(["sweep", "--checkpoint", str(ckpt), "--ebno", "0:2:1", "--blocks", "8",
                     "--seed", "4", "--out", str(curves[name]), *extra])
        assert code == 0
    capsys.readouterr()
    assert curves["stored"].read_bytes() == curves["explicit"].read_bytes()
    assert curves["stored"].read_bytes() == curves["preset_over_file"].read_bytes()
    rows = curves["stored"].read_text().splitlines()
    assert all(row.split(",")[6] == "10" for row in rows[1:])  # the block_length column


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


def test_sweep_checkpoint_that_is_a_directory(tmp_path, capsys):
    code = main(["sweep", "--checkpoint", str(tmp_path), "--blocks", "4",
                 "--out", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == [f"error: cannot read checkpoint {tmp_path}: "
                                f"[Errno 21] Is a directory: '{tmp_path}'"]
    assert not (tmp_path / "c.csv").exists()


def test_sweep_refuses_a_checkpoint_with_a_float_in_an_integer_field(tmp_path, capsys):
    _, ckpt = run_train(tmp_path)
    doc = json.loads(ckpt.read_text())
    doc["config"]["n"] = 1.0
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["sweep", "--checkpoint", str(ckpt), "--ebno", "5:6:1", "--blocks", "4",
                 "--out", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "config" in err and "n must be an integer" in err


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
    assert all(line.split(",")[6] == "4" for line in lines[1:])  # --L is the block_length


def test_baseline_rayleigh_has_no_analytic_column(tmp_path, capsys):
    out = tmp_path / "qpsk_ray.csv"
    code = main(["baseline", "--constellation", "qpsk", "--channel", "rayleigh",
                 "--ebno", "10:12:2", "--k", "2", "--L", "4", "--blocks", "100",
                 "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert "analytic_ber" not in header
    assert header == "ebno_db,bler,ser,ci_low,ci_high,blocks,block_length,seed,system_label"


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
    assert "all 16 gradient checks passed" in out


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


def test_the_program_logs_training_progress_to_stderr(tmp_path):
    src = str(Path(vaecomm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vaecomm.cli", "train", "--k", "2", "--n", "1",
         "--filters", "8", "--L", "3", "--epochs", "1", "--batch", "16",
         "--train-messages", "40", "--seed", "1", "--out", str(tmp_path / "m.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "vaecomm.training: epoch 1: " in proc.stderr
    assert "batches clipped" not in proc.stdout


# ------------------------------------------------------ flags per command

COMMAND_FLAGS = {
    "train": "k n latent-mult channel filters beta lr epochs batch L train-ebno-db seed "
             "train-messages out format config paper-scale",
    "sweep": "checkpoint k n latent-mult channel filters L ebno blocks seed out format "
             "config paper-scale",
    "baseline": "constellation channel k L ebno blocks seed out format config paper-scale",
    "transfer": "checkpoint k n latent-mult channel filters lengths ebno-db blocks seed out "
                "format config paper-scale",
    "gradcheck": "trials rel-tol seed out config",
}


def help_flags(command):
    """The long flags, --help aside, that ``vaecomm <command> --help`` lists."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return set(re.findall(r"^\s+(--[\w-]+)", text.getvalue(), re.MULTILINE))


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_lists_exactly_the_flags_it_reads(command):
    expected = {f"--{name}" for name in COMMAND_FLAGS[command].split()}
    assert help_flags(command) == expected


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", readme, re.MULTILINE)
    documented = {command: set(re.findall(r"--[\w-]+", flags)) for command, flags in rows}
    assert documented == {command: help_flags(command) for command in COMMAND_FLAGS}


@pytest.mark.parametrize("argv", [
    ["transfer", "--checkpoint", "m.json", "--ebno", "4:4:1", "--out", "t.csv"],
    ["transfer", "--checkpoint", "m.json", "--ebno", "6", "--out", "t.csv"],  # not --ebno-db
    ["gradcheck", "--format", "csv", "--out", "r.csv"],
    ["baseline", "--n", "1", "--out", "b.csv"],
    ["sweep", "--checkpoint", "m.json", "--lr", "0.1", "--out", "c.csv"],
    ["gradcheck", "--paper-scale"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_keys_the_command_does_not_read_are_accepted(tmp_path, capsys):
    cfg_file = tmp_path / "shared.cfg"
    cfg_file.write_text("k = 2\nn = 1\nlr = 0.5\nepochs = 3\ntrials = 4\n"
                        "lengths = 5,10\ncheckpoint = m.json\nL = 4\nblocks = 20\n")
    out = tmp_path / "b.csv"
    code = main(["baseline", "--config", str(cfg_file), "--ebno", "4:6:2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_nan_transfer_ebno_is_a_runtime_error(tmp_path, capsys):
    _, ckpt = run_train(tmp_path)
    out = tmp_path / "t.csv"
    code = main(["transfer", "--checkpoint", str(ckpt), "--lengths", "2",
                 "--ebno-db", "nan", "--blocks", "4", "--out", str(out)])
    assert code == 3
    assert "Eb/N0" in capsys.readouterr().err
    assert not out.exists()


def test_gradcheck_with_no_trials_is_a_runtime_error(capsys):
    assert main(["gradcheck", "--trials", "0"]) == 3
    captured = capsys.readouterr()
    assert "trials" in captured.err and "passed" not in captured.out
