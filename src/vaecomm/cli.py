"""Command line front end: train, sweep, baseline, transfer, gradcheck.

Values resolve in precedence order: explicit flag, then --paper-scale preset,
then config file entry, then built-in default. Config files are flat
``key = value`` lines mirroring the long flag names ('#' starts a comment).
Every command is deterministic given its flags and seed: rerunning writes
byte-identical files.

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

from .baselines import BaselineResult, Constellation, analytic_ber, baseline_bler
from .checkpoint import load_checkpoint, save_checkpoint
from .curves import FORMATS, BlerCurve, BlerPoint, dataclass_table, write_table
from .data import generate_dataset
from .errors import ConfigError, VaecommError
from .evaluation import TransferRecord, block_length_transfer, evaluate_bler
from .gradcheck import ComponentReport, run_all
from .model import CommSystem, SystemConfig
from .seeding import derive_seed
from .training import train

REFERENCE_PARAMETER_COUNT = 12824

_DATASET_STREAM = 5
_BASELINE_STREAM = 6

_PAPER_PRESET = {
    "L": 100,
    "epochs": 150,
    "batch": 64,
    "lr": 0.01,
    "beta": 1e-4,
    "train_messages": 12800,
    "test_messages": 64000,
    "blocks": 64000,
}


class UsageError(Exception):
    """Bad command usage detected after argument parsing."""


@dataclass(frozen=True)
class RunConfig:
    k: int = 4
    n: int = 2
    latent_mult: int = 2
    channel: str = "awgn"
    filters: int = 256
    beta: float = 1e-4
    lr: float = 0.01
    epochs: int = 150
    batch: int = 64
    L: int = 100
    train_ebno_db: float = 6.0
    train_messages: int = 12800
    test_messages: int = 64000
    ebno: tuple[float, ...] = tuple(float(v) for v in range(5, 16))
    ebno_db: float = 8.0
    blocks: int = 64000
    lengths: tuple[int, ...] = (10, 50, 100)
    seed: int = 0
    constellation: str = "qpsk"
    trials: int = 100
    rel_tol: float = 1e-4
    checkpoint: str | None = None
    out: str | None = None
    format: str = "csv"


def parse_sweep(text: str) -> tuple[float, ...]:
    """'start:stop:step' inclusive of stop; start <= stop and step > 0."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep spec must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"sweep spec has non-numeric part: {text!r}") from None
    if step <= 0:
        raise ValueError(f"sweep step must be > 0, got {step}")
    if start > stop:
        raise ValueError(f"sweep start must be <= stop, got {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(round(start + i * step, 10) for i in range(count))


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


def _flag_type(parser_fn):
    def convert(text):
        try:
            return parser_fn(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _parse_format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"format must be one of {list(FORMATS)}, got {text!r}")
    return text


# Config-file converters: the type of each RunConfig default (str for paths
# that default to None), except where the text has a syntax of its own.
_CONVERTERS = {
    field.name: str if field.default is None else type(field.default)
    for field in dataclasses.fields(RunConfig)
} | {"ebno": parse_sweep, "lengths": parse_lengths, "format": _parse_format}


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
        text = text.strip()
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONVERTERS[key](text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def merge_config(args: argparse.Namespace, file_values: dict) -> tuple[RunConfig, frozenset]:
    """Resolve flag > paper preset > config file > default; track what was set."""
    kwargs = {}
    explicit = set(file_values)
    paper_scale = getattr(args, "paper_scale", False)
    for field in dataclasses.fields(RunConfig):
        name = field.name
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            kwargs[name] = flag_value
            explicit.add(name)
        elif paper_scale and name in _PAPER_PRESET:
            kwargs[name] = _PAPER_PRESET[name]
        elif name in file_values:
            kwargs[name] = file_values[name]
    return RunConfig(**kwargs), frozenset(explicit)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, help="bits per symbol (alphabet 2^k)")
    sub.add_argument("--n", type=int, help="channel uses per symbol")
    sub.add_argument("--latent-mult", dest="latent_mult", type=int, choices=(2, 4),
                     help="latent dimension multiplier")
    sub.add_argument("--channel", choices=("awgn", "rayleigh"))
    sub.add_argument("--filters", type=int, help="hidden conv channels")
    sub.add_argument("--beta", type=float, help="KL weight in the loss")
    sub.add_argument("--lr", type=float, help="Adam learning rate")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch", type=int, help="minibatch size")
    sub.add_argument("--L", type=int, help="block length in symbols")
    sub.add_argument("--train-ebno-db", dest="train_ebno_db", type=float)
    sub.add_argument("--ebno", type=_flag_type(parse_sweep),
                     help="Eb/N0 sweep as start:stop:step (inclusive)")
    sub.add_argument("--blocks", type=int, help="blocks per evaluation point")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--format", choices=FORMATS)
    sub.add_argument("--paper-scale", action="store_true",
                     help="preset: L=100, 12800/64000 messages, 150 epochs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaecomm",
        description="Learned end-to-end communication: training and benchmarks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_train = commands.add_parser("train", help="train a system and write a checkpoint")
    _add_common_flags(p_train)
    p_train.add_argument("--train-messages", dest="train_messages", type=int,
                         help="training messages to generate")
    p_train.add_argument("--test-messages", dest="test_messages", type=int,
                         help="held-back test messages to generate")

    p_sweep = commands.add_parser("sweep", help="evaluate a checkpoint across Eb/N0")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--checkpoint", help="trained model JSON")

    p_base = commands.add_parser("baseline", help="Monte Carlo baseline curves")
    _add_common_flags(p_base)
    p_base.add_argument("--constellation", choices=("qpsk", "qam16", "16qam"))

    p_transfer = commands.add_parser("transfer",
                                     help="evaluate one checkpoint at several block lengths")
    _add_common_flags(p_transfer)
    p_transfer.add_argument("--checkpoint", help="trained model JSON")
    p_transfer.add_argument("--lengths", type=_flag_type(parse_lengths),
                            help="comma-separated block lengths")
    p_transfer.add_argument("--ebno-db", dest="ebno_db", type=float,
                            help="single evaluation Eb/N0")

    p_grad = commands.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_common_flags(p_grad)
    p_grad.add_argument("--trials", type=int, help="random configurations per component")
    p_grad.add_argument("--rel-tol", dest="rel_tol", type=float,
                        help="max allowed relative gradient error")

    return parser


def _system_config(cfg: RunConfig) -> SystemConfig:
    return SystemConfig(
        k=cfg.k, n=cfg.n, latent_multiplier=cfg.latent_mult,
        hidden_filters=cfg.filters, beta=cfg.beta, channel_kind=cfg.channel,
        block_length=cfg.L, seed=cfg.seed,
    )


def cmd_train(cfg: RunConfig, explicit: frozenset) -> int:
    if not cfg.out:
        raise UsageError("train requires --out PATH for the checkpoint")
    system = CommSystem(_system_config(cfg))
    print(f"parameters: {system.parameter_count()} "
          f"(reference count: {REFERENCE_PARAMETER_COUNT})")
    dataset = generate_dataset(cfg.k, cfg.L, cfg.train_messages,
                               derive_seed(cfg.seed, _DATASET_STREAM),
                               num_test=cfg.test_messages)
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
    actual = system.config
    requested = {
        "k": (cfg.k, actual.k),
        "n": (cfg.n, actual.n),
        "latent_mult": (cfg.latent_mult, actual.latent_multiplier),
        "channel": (cfg.channel, actual.channel_kind),
        "filters": (cfg.filters, actual.hidden_filters),
    }
    for name, (wanted, found) in requested.items():
        if name in explicit and wanted != found:
            raise ConfigError(
                f"checkpoint {cfg.checkpoint} has {name}={found}, "
                f"but {name}={wanted} was requested")
    system.eval_mode()
    return system


def cmd_sweep(cfg: RunConfig, explicit: frozenset) -> int:
    if not cfg.out:
        raise UsageError("sweep requires --out PATH for the curve file")
    system = _load_for_eval(cfg, explicit)
    length = cfg.L if "L" in explicit else system.config.block_length
    curve = evaluate_bler(system, cfg.ebno, cfg.blocks, cfg.seed,
                          block_length=length)
    write_table(cfg.out, cfg.format, *curve.table())
    print(f"wrote {cfg.out} ({len(curve.points)} points)")
    return 0


def cmd_baseline(cfg: RunConfig, explicit: frozenset) -> int:
    if not cfg.out:
        raise UsageError("baseline requires --out PATH for the curve file")
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
    if not cfg.out:
        raise UsageError("transfer requires --out PATH for the results file")
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


_DISPATCH = {
    "train": cmd_train,
    "sweep": cmd_sweep,
    "baseline": cmd_baseline,
    "transfer": cmd_transfer,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg, explicit = merge_config(args, file_values)
        return _DISPATCH[args.command](cfg, explicit)
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
