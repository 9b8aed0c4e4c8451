"""Workload definitions, set-up, untraced measurement and output checks.

Every workload is closed-loop: one process and one caller, each call waiting
for the previous one. Library defaults choose the BLAS thread count and the
evaluation worker count, as users get them; the environment record states both.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from scipy.special import bdtr, bdtrc

from vaecomm import (
    CommSystem,
    Constellation,
    Dataset,
    SystemConfig,
    analytic_ser,
    baseline_bler,
    block_length_transfer,
    derive_seed,
    evaluate_bler,
    generate_dataset,
    load_checkpoint,
    save_checkpoint,
    train,
)

# Desk configuration shared by the workloads.
LATENT_MULT = 2
FILTERS = 256
L = 10
BATCH = 64
TRAIN_EBNO_DB = 6.0
MODEL_SEED = 2020        # weights and latent sampling: part of the program's set-up
SETUP_DATA_SEED = 2021   # eval_sweep trains its system on fixed messages

# Measured work. Every timed call is short, so a run makes many of each and
# spreads them over its whole length. Sweep points sit where the pooled SER is
# dominated by channel noise, so it varies little between systems trained on
# different seeds.
LOW_SNR_POINTS = (-6.0, -4.0, -2.0, 0.0)
SWEEP_BLOCKS = 512
TRANSFER_L = 100
TRANSFER_EBNO_DB = 0.0
TRANSFER_BLOCKS = 512      # two chunks of 256 blocks, one per eval worker
BASELINE_BLOCKS = 25000
TRAIN_SLICE_MESSAGES = 1280   # rows per repeated train() call: 1,152 train, 128 validation
SETUP_REPEATS = 5
MIN_MESSAGES = 300       # floor for scaled-down runs: a few full batches
WARMUP_MESSAGES = 640    # untimed train() call that lets BLAS threads and buffers start
FIVE_SIGMA_TAIL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))  # one-sided normal tail beyond 5 sigma

# derive_seed labels of the streams drawn from the workload seed
SWEEP_STREAM = 1
TRANSFER_STREAM = 2
BASELINE_STREAM = 3
TRACE_STREAM = 4


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    n: int
    channel: str
    train_messages: int     # rows given to the full train() call, validation holdout included
    primary: str            # the phase the workload exists for: "train" or "eval"
    sweep_points: tuple     # nominal Eb/N0 (dB) of the sweep and the AWGN baseline


WORKLOADS = {
    # desk acceptance config: most of the test suite's time, and the paper's setting
    "train_k4": Workload("train_k4", k=4, n=2, channel="awgn", train_messages=12800,
                         primary="train", sweep_points=LOW_SNR_POINTS),
    # M=256 at the same rate: the alphabet-width paths do about half the step
    "train_k8": Workload("train_k8", k=8, n=4, channel="rayleigh", train_messages=12800,
                         primary="train", sweep_points=(0.0, 4.0, 8.0, 12.0)),
    # eval-mode only in the timed phase: sweep, L=100 transfer, QPSK baseline
    "eval_sweep": Workload("eval_sweep", k=4, n=2, channel="awgn", train_messages=3200,
                           primary="eval", sweep_points=LOW_SNR_POINTS),
}


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(count * scale)))


def system_config(wl: Workload) -> SystemConfig:
    return SystemConfig(k=wl.k, n=wl.n, latent_multiplier=LATENT_MULT, hidden_filters=FILTERS,
                        channel_kind=wl.channel, block_length=L, seed=MODEL_SEED)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Operations:
    """Counts operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name, fn, check=None):
        """Call fn(); return (result, seconds), or (None, seconds) if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failing operation is counted, and the run goes on
            elapsed = time.perf_counter() - start
            self._fail(f"{name}: raised\n{traceback.format_exc()}")
            return None, elapsed
        elapsed = time.perf_counter() - start
        problem = check(result) if check is not None else None
        if problem:
            self._fail(f"{name}: {problem}")
        return result, elapsed

    def check(self, name, problem):
        """Count a stand-alone check as one operation; problem is None when it passed."""
        self.attempted += 1
        if problem:
            self._fail(f"{name}: {problem}")

    def _fail(self, message):
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)


# -- output checks -------------------------------------------------------------

def check_log(log):
    for r in log.records:
        values = (r.train_loss, r.validation_loss, r.kl_term, r.reconstruction_term)
        if not all(math.isfinite(v) for v in values):
            return f"non-finite loss at epoch {r.epoch}: {values}"
    return None


def curve_counts(curve):
    return [(p.ebno_db, p.bler, p.ser) for p in curve.points]


def check_baseline(result, ebno_db: float, k: int):
    """AWGN message-symbol errors within a 5-sigma binomial tolerance of the theory.

    A message symbol spans k/2 QPSK symbols with independent noise, so it
    errs with p = 1 - (1 - SER_QPSK)^(k/2). The check fails when either
    binomial tail at the observed count is below the 5-sigma normal tail;
    exact tails stay valid at the tiny p of high Eb/N0 points.
    """
    p = 1.0 - (1.0 - analytic_ser(Constellation.qpsk(), ebno_db)) ** (k / 2)
    errors, trials = result.symbol_errors, result.blocks * L
    at_most = bdtr(errors, trials, p)
    at_least = bdtrc(errors - 1, trials, p) if errors > 0 else 1.0
    if min(at_most, at_least) < FIVE_SIGMA_TAIL:
        return (f"{errors} symbol errors in {trials} at {ebno_db} dB; expected "
                f"{p * trials:.6g} (tails {at_most:.3g}, {at_least:.3g})")
    return None


# -- set-up --------------------------------------------------------------------

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import vaecomm; print(time.perf_counter() - t)"
)


def child_import_seconds(src: Path) -> float:
    """Time `import vaecomm` in a fresh interpreter, as a user's process pays it."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def build_train_inputs(wl: Workload, seed: int, scale: float):
    """The dataset and an initial system: what a user's set-up pays before train()."""
    data = generate_dataset(wl.k, L, scaled(wl.train_messages, scale, MIN_MESSAGES), seed=seed,
                            num_test=0)
    return data, CommSystem(system_config(wl))


def train_once(system, data):
    return train(system, data, epochs=1, batch_size=BATCH, train_ebno_db=TRAIN_EBNO_DB)


def setup_eval_system(wl: Workload, scale: float, ops: Operations, ckpt_path: Path):
    """Train the eval system from fixed seeds, then round-trip it through a checkpoint.

    Returns the trained system, the loaded one, the train() log and seconds,
    and the dataset.
    """
    data = generate_dataset(wl.k, L, scaled(wl.train_messages, scale, MIN_MESSAGES),
                            seed=SETUP_DATA_SEED, num_test=0)
    system = CommSystem(system_config(wl))
    log, train_s = ops.run("setup.train", lambda: train_once(system, data), check=check_log)
    save_checkpoint(system, str(ckpt_path))
    loaded = load_checkpoint(str(ckpt_path)).eval_mode()
    return system, loaded, log, train_s, data


# -- untraced phases -------------------------------------------------------------

def median_rate(samples):
    """The median over calls of work per second, from (work, seconds) samples; None if none."""
    return statistics.median(w / t for w, t in samples) if samples else None


def repeat_within(budget_s: float, minimum: int, fn):
    """Call fn() at least `minimum` times, and again while the next call fits the budget."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > budget_s:
            return


def sweep(wl: Workload, system, seed: int, scale: float):
    return evaluate_bler(system, wl.sweep_points, scaled(SWEEP_BLOCKS, scale), seed=seed,
                         block_length=L)


def transfer(system, seed: int, scale: float):
    return block_length_transfer(system, [TRANSFER_L], TRANSFER_EBNO_DB,
                                 scaled(TRANSFER_BLOCKS, scale), seed=seed)


class Rounds:
    """Rounds of short timed calls on one system, with their checks.

    Each round makes one call of every kind the workload measures: a
    train() call on the next slice of the training rows (train workloads
    only), a sweep, a transfer and a baseline call per sweep point.
    """

    def __init__(self, wl: Workload, system, seed: int, scale: float, ops: Operations,
                 train_slices=()):
        self.wl, self.system, self.scale, self.ops = wl, system, scale, ops
        self.train_slices = list(train_slices)
        self.sweep_seed = derive_seed(seed, SWEEP_STREAM)
        self.transfer_seed = derive_seed(seed, TRANSFER_STREAM)
        self.baseline_seed = derive_seed(seed, BASELINE_STREAM)
        self.trains, self.sweeps, self.transfers, self.baselines = [], [], [], []  # (work, s)
        self.first_sweep = None
        self.first_transfer = None
        self.sweep_ser = None

    def round(self):
        if self.train_slices:
            self._train()
        self._sweep()
        self._transfer()
        self._baseline()

    def _train(self):
        data = self.train_slices[len(self.trains) % len(self.train_slices)]
        system = CommSystem(system_config(self.wl))
        log, dt = self.ops.run("train.slice", lambda: train_once(system, data), check=check_log)
        if log is not None:
            self.trains.append((data.train.size, dt))

    def _sweep(self):
        def same_as_first(curve):
            if self.first_sweep is not None and curve_counts(curve) != self.first_sweep:
                return "counts differ from the first sweep with the same seed"
            return None

        curve, dt = self.ops.run(
            "sweep", lambda: sweep(self.wl, self.system, self.sweep_seed, self.scale),
            check=same_as_first)
        if curve is None:
            return
        if self.first_sweep is None:
            self.first_sweep = curve_counts(curve)
            self.sweep_ser = statistics.fmean(p.ser for p in curve.points)
        self.sweeps.append((sum(p.blocks for p in curve.points) * L, dt))

    def _transfer(self):
        def same_as_first(records):
            counts = [(r.ser, r.bler) for r in records]
            if self.first_transfer is not None and counts != self.first_transfer:
                return "counts differ from the first transfer with the same seed"
            return None

        records, dt = self.ops.run(
            "transfer", lambda: transfer(self.system, self.transfer_seed, self.scale),
            check=same_as_first)
        if records is None:
            return
        if self.first_transfer is None:
            self.first_transfer = [(r.ser, r.bler) for r in records]
        self.transfers.append((sum(r.blocks * r.block_length for r in records), dt))

    def _baseline(self):
        qpsk = Constellation.qpsk()
        for i, ebno in enumerate(self.wl.sweep_points):
            result, dt = self.ops.run(
                f"baseline[{ebno}]",
                lambda: baseline_bler(qpsk, ebno, self.wl.k, L, scaled(BASELINE_BLOCKS, self.scale),
                                      seed=derive_seed(self.baseline_seed, i), channel="awgn"),
                check=lambda r: check_baseline(r, ebno, self.wl.k))
            if result is not None:
                self.baselines.append((result.bits, dt))

    def metrics(self) -> dict:
        return {
            "sweep_symbols_per_s": median_rate(self.sweeps),
            "transfer_symbols_per_s": median_rate(self.transfers),
            "baseline_bits_per_s": median_rate(self.baselines),
            "sweep_ser": self.sweep_ser,
        }

    def details(self) -> dict:
        return {"train_slice_samples": self.trains,
                "sweep_samples": self.sweeps,
                "transfer_samples": self.transfers,
                "baseline_samples": self.baselines,
                "sweep_counts": self.first_sweep,
                "transfer_counts": self.first_transfer}


UNITS = {
    "setup_s": "s",
    "train_symbols_per_s": "symbols/s",
    "train_recon_loss": "nats",
    "sweep_symbols_per_s": "symbols/s",
    "transfer_symbols_per_s": "symbols/s",
    "baseline_bits_per_s": "bits/s",
    "sweep_ser": "ratio",
    "peak_rss_mb": "MB",
}


def with_units(values: dict, units: dict) -> dict:
    """The metrics line; a metric whose operations all failed is left out."""
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units if values.get(name) is not None}


def train_slices(data, scale: float) -> list:
    """The training rows cut into consecutive datasets for the repeated short train() calls."""
    size = scaled(TRAIN_SLICE_MESSAGES, scale, MIN_MESSAGES)
    return [Dataset(train=data.train[i:i + size], test=data.test, k=data.k, seed=data.seed)
            for i in range(0, max(1, data.train.shape[0] - size + 1), size)]


def full_training(wl: Workload, data, ops: Operations):
    """An untimed warm-up call, then one timed train() call on every training row.

    Returns the trained system, its (symbols, seconds) sample and its log.
    """
    warmup = Dataset(train=data.train[:WARMUP_MESSAGES], test=data.test, k=data.k, seed=data.seed)
    ops.run("train.warmup", lambda: train_once(CommSystem(system_config(wl)), warmup),
            check=check_log)
    system = CommSystem(system_config(wl))
    log, dt = ops.run("train", lambda: train_once(system, data), check=check_log)
    return system, [(data.train.size, dt)] if log is not None else [], log


def record_losses(values: dict, details: dict, log) -> None:
    """The epoch-mean reconstruction BCE is the quality metric; the rest goes to the details.

    The total loss is not used: one batch whose KL term spikes can raise the
    epoch mean a million-fold while the trained system is unharmed.
    """
    if log is not None:
        r = log.records[-1]
        values["train_recon_loss"] = r.reconstruction_term
        details.update(train_loss=r.train_loss, train_kl=r.kl_term,
                       final_val_loss=r.validation_loss)


def run_untraced(wl: Workload, seed: int, seconds: float, scale: float, ops: Operations,
                 out_dir: Path, import_s: float):
    src = Path(sys.modules["vaecomm"].__file__).resolve().parent.parent
    values: dict = {}
    details: dict = {"import_s_in_process": import_s}
    setup_samples = []
    train_samples = []

    if wl.primary == "train":
        for _ in range(SETUP_REPEATS):
            imp = child_import_seconds(src)
            t0 = time.perf_counter()
            data, _ = build_train_inputs(wl, seed, scale)
            setup_samples.append(imp + time.perf_counter() - t0)
        start = time.perf_counter()
        eval_system, train_samples, log = full_training(wl, data, ops)
        record_losses(values, details, log)
        rounds = Rounds(wl, eval_system, seed, scale, ops, train_slices(data, scale))
    else:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            ckpt = Path(tmp) / "setup.json"
            for _ in range(SETUP_REPEATS):
                imp = child_import_seconds(src)
                t0 = time.perf_counter()
                trained, loaded, log, train_s, data = setup_eval_system(wl, scale, ops, ckpt)
                setup_samples.append(imp + time.perf_counter() - t0)
                if log is not None:
                    train_samples.append((data.train.size, train_s))
                record_losses(values, details, log)
        ops.run("setup.checkpoint_round_trip",
                lambda: round_trip_problem(wl, trained, loaded, seed, scale),
                check=lambda problem: problem)
        start = time.perf_counter()
        rounds = Rounds(wl, loaded, seed, scale, ops)

    repeat_within(seconds - (time.perf_counter() - start), 2, rounds.round)

    values["setup_s"] = statistics.median(setup_samples)
    values["train_symbols_per_s"] = median_rate(train_samples + rounds.trains)
    values.update(rounds.metrics())
    values["peak_rss_mb"] = peak_rss_mb()
    details.update(setup_s=setup_samples, train_samples=train_samples, **rounds.details())
    return with_units(values, UNITS), details


def round_trip_problem(wl: Workload, trained, loaded, seed: int, scale: float):
    """Sweep counts of the set-up system must survive the checkpoint unchanged."""
    probe_seed = derive_seed(seed, SWEEP_STREAM, 1)
    before = curve_counts(sweep(wl, trained, probe_seed, scale * 0.25))
    after = curve_counts(sweep(wl, loaded, probe_seed, scale * 0.25))
    if before != after:
        return f"sweep counts changed across the checkpoint: {before} vs {after}"
    return None
