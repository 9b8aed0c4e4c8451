"""Command line front end: train, sweep, baseline, transfer, gradcheck.

Every option is declared once, as a field of ``RunConfig``: its flag is
``--`` and the field name with '-' for '_', and the field's metadata holds
its converter, its allowed values (the library's own constants), its help
text and the commands that read it. The parser, the config-file reader and
``--paper-scale`` all derive from those fields, and each command accepts
only the flags it reads (no abbreviations), plus ``--config`` and, where it
reads a value the preset sets, ``--paper-scale``.

Values resolve in precedence order: explicit flag, then --paper-scale preset,
then config file entry, then built-in default. The built-in defaults of the
fields marked ``paper`` are the full-scale protocol's values, so the preset
restores them over a config file. Config files are flat ``key = value``
lines mirroring the long flag names ('#' starts a comment); every command
accepts every key, so one file can serve ``train`` and ``sweep``, and a
command ignores the keys it does not read. Flag and config-file text go
through the same converter and choice check. Every command is deterministic
given its flags and seed: rerunning writes byte-identical files.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 runtime or data error.

Run as a program (the ``vaecomm`` script or ``python -m vaecomm.cli``), the
package's INFO lines (per-epoch training health, per-point sweep and
transfer progress) go to stderr. ``main`` itself installs no handler.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
from dataclasses import dataclass

from .baselines import (
    CONSTELLATION_NAMES,
    BaselineResult,
    Constellation,
    analytic_ber,
    baseline_bler,
)
from .channels import CHANNEL_KINDS
from .checkpoint import load_checkpoint, save_checkpoint
from .curves import FORMATS, BlerCurve, BlerPoint, dataclass_table, write_table
from .data import generate_dataset
from .errors import ConfigError, VaecommError
from .evaluation import TransferRecord, block_length_transfer, evaluate_bler
from .gradcheck import ComponentReport, run_all
from .model import VALID_LATENT_MULTIPLIERS, CommSystem, SystemConfig
from .seeding import derive_seed
from .training import train

REFERENCE_PARAMETER_COUNT = 12824

_DATASET_STREAM = 5
_BASELINE_STREAM = 6


class UsageError(Exception):
    """Bad command usage detected after argument parsing."""


def parse_sweep(text: str) -> tuple[float, ...]:
    """'start:stop:step' inclusive of stop; start <= stop and step > 0."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep spec must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"sweep spec has non-numeric part: {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"sweep spec has a non-finite part: {text!r}")
    if step <= 0:
        raise ValueError(f"sweep step must be > 0, got {step}")
    if start > stop:
        raise ValueError(f"sweep start must be <= stop, got {text!r}")
    steps = (stop - start) / step + 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"sweep spec has too many points: {text!r}")
    return tuple(round(start + i * step, 10) for i in range(int(steps) + 1))


def parse_lengths(text: str) -> tuple[int, ...]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ValueError("length list must not be empty")
    try:
        lengths = tuple(int(p) for p in items)
    except ValueError:
        raise ValueError(f"lengths must be integers, got {text!r}") from None
    if any(v < 1 for v in lengths):
        raise ValueError(f"lengths must be >= 1, got {text!r}")
    return lengths


def _option(default, commands: str, help: str, *, convert=None, choices=None, paper=False):
    """A RunConfig field with its flag's converter (default: the type of the
    default, str where that is None), allowed values, help text and the
    space-separated commands that read it; paper marks a full-scale value."""
    if convert is None:
        convert = str if default is None else type(default)
    return dataclasses.field(default=default, metadata={
        "commands": commands.split(), "help": help, "convert": convert,
        "choices": choices, "paper": paper})


@dataclass(frozen=True)
class RunConfig:
    """Every value a command reads; each field declares its own flag."""

    k: int = _option(4, "train sweep baseline transfer", "bits per symbol (alphabet 2^k)")
    n: int = _option(2, "train sweep transfer", "channel uses per symbol")
    latent_mult: int = _option(2, "train sweep transfer", "latent dimension multiplier",
                               choices=VALID_LATENT_MULTIPLIERS)
    channel: str = _option("awgn", "train sweep baseline transfer", "channel model",
                           choices=CHANNEL_KINDS)
    filters: int = _option(256, "train sweep transfer", "hidden conv channels")
    beta: float = _option(1e-4, "train", "KL weight in the loss", paper=True)
    lr: float = _option(0.01, "train", "Adam learning rate", paper=True)
    epochs: int = _option(150, "train", "training epochs", paper=True)
    batch: int = _option(64, "train", "minibatch size", paper=True)
    L: int = _option(100, "train sweep baseline", "block length in symbols", paper=True)
    train_ebno_db: float = _option(6.0, "train", "training Eb/N0 in dB")
    train_messages: int = _option(12800, "train", "training messages to generate", paper=True)
    ebno: tuple[float, ...] = _option(tuple(float(v) for v in range(5, 16)), "sweep baseline",
                                      "Eb/N0 sweep as start:stop:step (inclusive)",
                                      convert=parse_sweep)
    ebno_db: float = _option(8.0, "transfer", "single evaluation Eb/N0 in dB")
    blocks: int = _option(64000, "sweep baseline transfer", "blocks per evaluation point",
                          paper=True)
    lengths: tuple[int, ...] = _option((10, 50, 100), "transfer", "comma-separated block lengths",
                                       convert=parse_lengths)
    seed: int = _option(0, "train sweep baseline transfer gradcheck", "random seed")
    constellation: str = _option("qpsk", "baseline", "baseline constellation",
                                 choices=CONSTELLATION_NAMES)
    trials: int = _option(100, "gradcheck", "random configurations per component")
    rel_tol: float = _option(1e-4, "gradcheck", "max allowed relative gradient error")
    checkpoint: str | None = _option(None, "sweep transfer", "trained model JSON")
    out: str | None = _option(None, "train sweep baseline transfer gradcheck", "output file path")
    format: str = _option("csv", "train sweep baseline transfer", "result file format",
                          choices=FORMATS)


_OPTIONS = {option.name: option for option in dataclasses.fields(RunConfig)}
_PAPER = [option for option in _OPTIONS.values() if option.metadata["paper"]]

# RunConfig field -> SystemConfig field for the values that fix a checkpoint's
# architecture; sweep and transfer check any of them that was set.
_ARCHITECTURE = {"k": "k", "n": "n", "latent_mult": "latent_multiplier",
                 "channel": "channel_kind", "filters": "hidden_filters"}


def _convert(option: dataclasses.Field, text: str):
    """A flag's or a config-file entry's text as the option's value."""
    value = option.metadata["convert"](text)
    choices = option.metadata["choices"]
    if choices is not None and value not in choices:
        raise ValueError(f"must be one of {list(choices)}, got {value!r}")
    return value


def _flag_type(option: dataclasses.Field):
    def convert(text):
        try:
            return _convert(option, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file into converted values."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, text = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _convert(_OPTIONS[key], text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def merge_config(args: argparse.Namespace, file_values: dict) -> tuple[RunConfig, frozenset]:
    """Resolve flag > paper preset > config file > default; track which flag
    or config-file values were used (a preset overrides a file's value)."""
    kwargs = {}
    paper_scale = getattr(args, "paper_scale", False)
    for name, option in _OPTIONS.items():
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            kwargs[name] = flag_value
        elif name in file_values and not (paper_scale and option.metadata["paper"]):
            kwargs[name] = file_values[name]
    return RunConfig(**kwargs), frozenset(kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaecomm",
        description="Learned end-to-end communication: training and benchmarks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_text, allow_abbrev=False)
        for name, option in _OPTIONS.items():
            if command not in option.metadata["commands"]:
                continue
            choices = option.metadata["choices"]
            sub.add_argument("--" + name.replace("_", "-"), type=_flag_type(option),
                             metavar="{%s}" % ",".join(map(str, choices)) if choices else None,
                             help=option.metadata["help"])
        sub.add_argument("--config", help="flat key=value config file")
        preset = [option for option in _PAPER if command in option.metadata["commands"]]
        if preset:
            sub.add_argument("--paper-scale", action="store_true", help="preset: " + ", ".join(
                f"{option.name}={option.default}" for option in preset))
    return parser


def _system_config(cfg: RunConfig) -> SystemConfig:
    return SystemConfig(**{system: getattr(cfg, name) for name, system in _ARCHITECTURE.items()},
                        beta=cfg.beta, block_length=cfg.L, seed=cfg.seed)


def cmd_train(cfg: RunConfig, explicit: frozenset) -> int:
    system = CommSystem(_system_config(cfg))
    print(f"parameters: {system.parameter_count()} "
          f"(reference count: {REFERENCE_PARAMETER_COUNT})")
    dataset = generate_dataset(cfg.k, cfg.L, cfg.train_messages,
                               derive_seed(cfg.seed, _DATASET_STREAM), num_test=0)
    logbook = train(system, dataset, epochs=cfg.epochs, batch_size=cfg.batch,
                    lr=cfg.lr, train_ebno_db=cfg.train_ebno_db)
    save_checkpoint(system, cfg.out)
    log_path = f"{cfg.out}.log.{cfg.format}"
    write_table(log_path, cfg.format, *logbook.table())
    print(f"wrote checkpoint {cfg.out}")
    print(f"wrote training log {log_path}")
    if logbook.records:
        last = logbook.records[-1]
        print(f"final epoch {last.epoch}: train_loss={last.train_loss!r} "
              f"val_loss={last.validation_loss!r}")
    return 0


def _load_for_eval(cfg: RunConfig, explicit: frozenset) -> CommSystem:
    if not cfg.checkpoint:
        raise UsageError("this command requires --checkpoint PATH")
    system = load_checkpoint(cfg.checkpoint)
    for name, system_name in _ARCHITECTURE.items():
        wanted, found = getattr(cfg, name), getattr(system.config, system_name)
        if name in explicit and wanted != found:
            raise ConfigError(
                f"checkpoint {cfg.checkpoint} has {name}={found}, "
                f"but {name}={wanted} was requested")
    system.eval_mode()
    return system


def cmd_sweep(cfg: RunConfig, explicit: frozenset) -> int:
    system = _load_for_eval(cfg, explicit)
    length = cfg.L if "L" in explicit else system.config.block_length
    curve = evaluate_bler(system, cfg.ebno, cfg.blocks, cfg.seed,
                          block_length=length)
    write_table(cfg.out, cfg.format, *curve.table())
    print(f"wrote {cfg.out} ({len(curve.points)} points)")
    return 0


def cmd_baseline(cfg: RunConfig, explicit: frozenset) -> int:
    constellation = Constellation.by_name(cfg.constellation)
    label = f"{constellation.name}_{cfg.channel}"
    points = []
    for idx, ebno in enumerate(cfg.ebno):
        result: BaselineResult = baseline_bler(
            constellation, ebno, cfg.k, cfg.L, cfg.blocks,
            derive_seed(cfg.seed, _BASELINE_STREAM, idx), channel=cfg.channel)
        points.append(BlerPoint(
            ebno_db=ebno, bler=result.bler, ser=result.ser,
            ci_low=result.ci_low, ci_high=result.ci_high,
            blocks=result.blocks, block_length=cfg.L, seed=cfg.seed, system_label=label,
            analytic_ber=(analytic_ber(constellation, ebno)
                          if cfg.channel == "awgn" else None),
        ))
    write_table(cfg.out, cfg.format, *BlerCurve(points=points).table())
    print(f"wrote {cfg.out} ({len(points)} points)")
    return 0


def cmd_transfer(cfg: RunConfig, explicit: frozenset) -> int:
    system = _load_for_eval(cfg, explicit)
    records = block_length_transfer(system, cfg.lengths, cfg.ebno_db,
                                    blocks_per_length=cfg.blocks, seed=cfg.seed)
    write_table(cfg.out, cfg.format, *dataclass_table(TransferRecord, records))
    print(f"wrote {cfg.out} ({len(records)} lengths)")
    return 0


def cmd_gradcheck(cfg: RunConfig, explicit: frozenset) -> int:
    reports = run_all(trials=cfg.trials, rel_tol=cfg.rel_tol, seed=cfg.seed)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<28s} max_rel_err={r.max_rel_err:.3e} {status}")
    if cfg.out:
        write_table(cfg.out, "json", *dataclass_table(ComponentReport, reports))
    failures = [r.name for r in reports if not r.passed]
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    print(f"all {len(reports)} gradient checks passed")
    return 0


# command -> (function, help text, what its required --out file holds)
_COMMANDS = {
    "train": (cmd_train, "train a system and write a checkpoint", "the checkpoint"),
    "sweep": (cmd_sweep, "evaluate a checkpoint across Eb/N0", "the curve file"),
    "baseline": (cmd_baseline, "Monte Carlo baseline curves", "the curve file"),
    "transfer": (cmd_transfer, "evaluate one checkpoint at several block lengths",
                 "the results file"),
    "gradcheck": (cmd_gradcheck, "finite-difference gradient audit", None),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    run, _, out_file = _COMMANDS[args.command]
    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg, explicit = merge_config(args, file_values)
        if out_file and not cfg.out:
            raise UsageError(f"{args.command} requires --out PATH for {out_file}")
        return run(cfg, explicit)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except VaecommError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger = logging.getLogger("vaecomm")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
