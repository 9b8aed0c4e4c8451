"""Acceptance gate: one test per criterion, one printed verdict line each.

Training-based criteria run at desk scale (block length 10, reduced evaluation
budgets) with frozen seeds, so the whole suite finishes in minutes and every
rerun reproduces the same numbers bit for bit.
"""

import math
import time

import numpy as np
import pytest

from oracles import chain_stages, monte_carlo_expectation
from vaecomm.baselines import Constellation, analytic_ber, baseline_bler
from vaecomm.channels import ChannelModel, noise_variance
from vaecomm.checkpoint import load_checkpoint, save_checkpoint
from vaecomm.cli import main
from vaecomm.curves import wilson_interval
from vaecomm.data import generate_dataset
from vaecomm.evaluation import block_length_transfer, evaluate_bler
from vaecomm.gradcheck import run_all
from vaecomm.losses import kl_standard_normal
from vaecomm.model import CommSystem, SystemConfig
from vaecomm.seeding import derive_seed
from vaecomm.tensor import Tensor, no_grad
from vaecomm.training import train

DESK_SEED = 42


def _verdict(number, name, ok, detail):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def desk_config(seed=DESK_SEED, channel="awgn", mult=2):
    return SystemConfig(k=4, n=2, latent_multiplier=mult, hidden_filters=256,
                        block_length=10, seed=seed, channel_kind=channel)


def mean_test_loss(system, rows, ebno_db, chan_seed):
    """Average total loss over held-out messages with one fixed noise stream."""
    cfg = system.config
    system.eval_mode()
    channel = ChannelModel(cfg.channel_kind, ebno_db, cfg.code_rate,
                           rng_seed=chan_seed)
    total = 0.0
    with no_grad():
        for start in range(0, rows.shape[0], 256):
            chunk = rows[start:start + 256]
            result = system.end_to_end(chunk, channel)
            total += result.breakdown.total * chunk.shape[0]
    return total / rows.shape[0]


def convergence_epoch(values, rel_tol=0.01):
    """Early-stopping style convergence monitor.

    Returns the first epoch (1-based) after which the best validation loss
    seen so far never again improves by rel_tol or more in a single epoch,
    or None if the final epoch still improves it.  Raw per-epoch deltas are
    meaningless here: a converged loss of ~1e-2 leaves 1% of its value below
    the minibatch jitter floor, so the monitor tracks the running best, which
    is the quantity that actually stops moving when training has converged.
    """
    best = values[0]
    last_improvement = 1
    for epoch, value in enumerate(values[1:], start=2):
        if value < best * (1.0 - rel_tol):
            last_improvement = epoch
        best = min(best, value)
    if last_improvement >= len(values):
        return None
    return last_improvement + 1


def ser_interval(point, block_length):
    errors = round(point.ser * point.blocks * block_length)
    return wilson_interval(errors, point.blocks * block_length)


@pytest.fixture(scope="module")
def trained_awgn():
    system = CommSystem(desk_config())
    dataset = generate_dataset(4, 10, 12800, derive_seed(DESK_SEED, 5),
                               num_test=64)
    log = train(system, dataset, epochs=30, batch_size=64, lr=0.01,
                train_ebno_db=6.0)
    return system, log


@pytest.fixture(scope="module")
def trained_rayleigh():
    system = CommSystem(desk_config(channel="rayleigh"))
    dataset = generate_dataset(4, 10, 12800, derive_seed(DESK_SEED, 5),
                               num_test=64)
    log = train(system, dataset, epochs=30, batch_size=64, lr=0.01,
                train_ebno_db=9.0)
    return system, log


def test_acceptance_1_gradient_integrity():
    t0 = time.perf_counter()
    reports = run_all(trials=100, rel_tol=1e-4, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in reports)
    failing = [r.name for r in reports if not r.passed]
    ok = not failing and worst < 1e-4 and elapsed < 60.0
    _verdict(1, "gradient integrity",
             ok, f"{len(reports)} components, worst rel err {worst:.2e}, "
                 f"{elapsed:.1f}s" + (f", failing: {failing}" if failing else ""))


def test_acceptance_2_kl_correctness():
    t0 = time.perf_counter()
    zero = kl_standard_normal(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))
    exact_zero = abs(float(zero.data)) < 1e-12

    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for trial in range(20):
        mu = rng.uniform(0.7, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        logvar = rng.uniform(-1.0, 1.0, size=4)
        closed = float(kl_standard_normal(Tensor(mu.reshape(1, 4)),
                                          Tensor(logvar.reshape(1, 4))).data)

        def log_ratio(h, mu=mu, logvar=logvar):
            return -0.5 * np.sum(logvar + (h - mu) ** 2 * np.exp(-logvar) - h * h,
                                 axis=-1)

        mc = monte_carlo_expectation(log_ratio, mu, logvar, 1_000_000,
                                     seed=3000 + trial)
        worst_rel = max(worst_rel, abs(mc - closed) / closed)

    mu = rng.normal(size=(10_000, 6))
    logvar = rng.normal(size=(10_000, 6))
    per_pair = ((Tensor(logvar) + 1.0 - Tensor(mu).square()
                 - Tensor(logvar).exp()).sum(axis=-1) * -0.5).data
    batch_mean = float(kl_standard_normal(Tensor(mu), Tensor(logvar)).data)
    nonneg = bool((per_pair >= 0.0).all())
    consistent = abs(batch_mean - per_pair.mean()) < 1e-9
    elapsed = time.perf_counter() - t0
    ok = exact_zero and worst_rel < 0.01 and nonneg and consistent and elapsed < 60.0
    _verdict(2, "KL correctness",
             ok, f"MC worst rel err {worst_rel:.4f} over 20 pairs at 1e6 samples, "
                 f"KL(std||std)={float(zero.data):.1e}, "
                 f"min KL over 1e4 pairs {per_pair.min():.2e}, {elapsed:.1f}s")


def test_acceptance_3_channel_calibration():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for ebno in (0.0, 5.0, 10.0, 15.0):
        for rate in (0.5, 2.0, 4.0):
            channel = ChannelModel("awgn", ebno, rate,
                                   rng_seed=derive_seed(41, int(ebno), int(rate * 2)))
            noise = channel.apply(Tensor(np.zeros((1000, 100, 10)))).data
            rel = abs(noise.var() / noise_variance(ebno, rate) - 1.0)
            worst_rel = max(worst_rel, rel)

    channel = ChannelModel("rayleigh", math.inf, 2.0, rng_seed=derive_seed(42, 0))
    x = np.zeros((100_000, 1, 2))
    x[:, :, 0] = 1.0
    out = channel.apply(Tensor(x)).data
    magnitude = np.sort(np.hypot(out[:, 0, 0], out[:, 0, 1]))
    n = magnitude.size
    cdf = 1.0 - np.exp(-magnitude * magnitude)
    ks = float(np.max(np.maximum(np.abs(cdf - np.arange(1, n + 1) / n),
                                 np.abs(cdf - np.arange(n) / n))))
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 0.01 and ks < 0.01 and elapsed < 60.0
    _verdict(3, "channel calibration",
             ok, f"AWGN worst var rel err {worst_rel:.4f} over 12 (EbN0, R) pairs "
                 f"at 1e6 samples, Rayleigh KS {ks:.4f} at 1e5 draws, {elapsed:.1f}s")


def test_acceptance_4_baseline_fidelity():
    t0 = time.perf_counter()
    k, L = 4, 10
    blocks = math.ceil(1e7 / (k * L))
    worst_z = 0.0
    for constellation in (Constellation.qpsk(), Constellation.qam16()):
        for ebno in (4.0, 6.0, 8.0, 10.0):
            result = baseline_bler(constellation, ebno, k, L, blocks, seed=1234)
            mc_ber = result.bit_errors / result.bits
            ref = analytic_ber(constellation, ebno)
            sigma = math.sqrt(ref * (1.0 - ref) / result.bits)
            worst_z = max(worst_z, abs(mc_ber - ref) / sigma)
            assert result.bits >= 1e7
    quote = analytic_ber(Constellation.qpsk(), 8.0)
    quote_ok = abs(quote - 1.88e-4) / 1.88e-4 < 0.12
    elapsed = time.perf_counter() - t0
    ok = worst_z < 3.0 and quote_ok and elapsed < 300.0
    _verdict(4, "baseline fidelity",
             ok, f"worst |z| {worst_z:.2f} over 8 points at 1e7 bits each, "
                 f"QPSK@8dB analytic {quote:.4e}, {elapsed:.1f}s")


def test_acceptance_5_end_to_end_learning(trained_awgn):
    system, log = trained_awgn
    train_losses = [r.train_loss for r in log.records]
    val_losses = [r.validation_loss for r in log.records]

    ratio = train_losses[-1] / train_losses[0]
    a_ok = ratio < 0.5

    flat_epoch = convergence_epoch(val_losses)
    b_ok = flat_epoch is not None and flat_epoch <= 25

    points = [float(v) for v in range(5, 16)]
    curve = evaluate_bler(system, points, blocks_per_point=2000, seed=777)
    sers = [p.ser for p in curve.points]
    ser_10db = sers[5]
    c1_ok = ser_10db < 0.1
    monotone = True
    for prev, nxt in zip(curve.points, curve.points[1:]):
        if nxt.ser <= prev.ser:
            continue
        lo_p, hi_p = ser_interval(prev, 10)
        lo_n, hi_n = ser_interval(nxt, 10)
        if not (lo_n <= hi_p and lo_p <= hi_n):
            monotone = False

    qpsk = baseline_bler(Constellation.qpsk(), 8.0, 4, 10, 200_000, seed=5)
    learned_8db = sers[3]
    d_ok = learned_8db <= 10.0 * qpsk.ser

    ok = a_ok and b_ok and c1_ok and monotone and d_ok
    quiet = 30 - flat_epoch + 1 if flat_epoch else 0
    _verdict(5, "end-to-end learning",
             ok, f"loss ratio e30/e1 {ratio:.3f} (<0.5), best val stable from "
                 f"epoch {flat_epoch} ({quiet} quiet epochs), SER@10dB "
                 f"{ser_10db:.2e} (<0.1), monotone {monotone}, SER@8dB "
                 f"{learned_8db:.2e} vs 10x QPSK {10 * qpsk.ser:.2e}")


def test_acceptance_6_latent_dimension_comparison():
    wins = 0
    details = []
    for seed in (0, 1, 2):
        dataset = generate_dataset(4, 10, 8192, derive_seed(seed, 5),
                                   num_test=2048)
        losses = {}
        for mult in (2, 4):
            system = CommSystem(desk_config(seed=seed, mult=mult))
            run_log = train(system, dataset, epochs=20, batch_size=64, lr=0.01,
                            train_ebno_db=6.0)
            assert len(run_log.records) == 20
            losses[mult] = mean_test_loss(system, dataset.test, 6.0,
                                          derive_seed(999, seed))
        wins += losses[4] <= losses[2]
        details.append(f"seed {seed}: 2n {losses[2]:.4f} vs 4n {losses[4]:.4f}")
    ok = wins >= 2
    _verdict(6, "latent dimension comparison",
             ok, f"4n wins {wins}/3 [{'; '.join(details)}]")


def test_acceptance_7_block_length_generalization(trained_awgn):
    system, _ = trained_awgn
    t0 = time.perf_counter()

    rng = np.random.default_rng(97)
    symbols = rng.integers(0, 16, size=600)
    system.eval_mode()
    system.power_norm.per_position = True
    try:
        signals = {}
        for length in (10, 50, 100):  # noise-free channel: read the transmitted signal
            blocks = symbols.reshape(-1, length)
            signals[length] = chain_stages(system, blocks)["power_norm"].reshape(600, -1)
        bitwise = (np.array_equal(signals[10], signals[50])
                   and np.array_equal(signals[50], signals[100]))
    finally:
        system.power_norm.per_position = False

    records = block_length_transfer(system, [10, 50, 100], 8.0,
                                    blocks_per_length=2000, seed=31)
    intervals = [(r.ser_ci_low, r.ser_ci_high) for r in records]
    overlap = all(lo_b <= hi_a and lo_a <= hi_b
                  for i, (lo_a, hi_a) in enumerate(intervals)
                  for lo_b, hi_b in intervals[i + 1:])
    elapsed = time.perf_counter() - t0
    ok = bitwise and overlap and elapsed < 300.0
    _verdict(7, "block-length generalization",
             ok, f"bitwise equal signals across L=10/50/100: {bitwise}, SER CIs "
                 + " ".join(f"[{lo:.1e},{hi:.1e}]" for lo, hi in intervals)
                 + f" overlap: {overlap}, {elapsed:.1f}s")


def test_acceptance_8_rayleigh_pipeline(trained_awgn, trained_rayleigh):
    awgn_system, _ = trained_awgn
    ray_system, ray_log = trained_rayleigh

    finite = all(math.isfinite(r.train_loss) and math.isfinite(r.validation_loss)
                 for r in ray_log.records)
    val_losses = [r.validation_loss for r in ray_log.records]
    flat_epoch = convergence_epoch(val_losses)
    converged = flat_epoch is not None and flat_epoch < 30

    ray14 = evaluate_bler(ray_system, [14.0], 4000, seed=88).points[0]
    awgn14 = evaluate_bler(awgn_system, [14.0], 4000, seed=88).points[0]
    ray_lo, _ = ser_interval(ray14, 10)
    _, awgn_hi = ser_interval(awgn14, 10)
    worse = ray_lo > awgn_hi

    ok = finite and converged and worse
    _verdict(8, "rayleigh pipeline",
             ok, f"finite {finite}, best val stable from epoch {flat_epoch}, "
                 f"SER@14dB rayleigh {ray14.ser:.2e} (ci_low {ray_lo:.2e}) vs "
                 f"awgn {awgn14.ser:.2e} (ci_high {awgn_hi:.2e})")


def test_acceptance_9_determinism_and_formats(trained_awgn, tmp_path, capsys):
    system, _ = trained_awgn

    first = tmp_path / "model_a.json"
    second = tmp_path / "model_b.json"
    save_checkpoint(system, str(first))
    save_checkpoint(load_checkpoint(str(first)), str(second))
    roundtrip = first.read_bytes() == second.read_bytes()

    def run(tag):
        out = tmp_path / f"{tag}.json"
        code = main(["train", "--k", "2", "--n", "1", "--filters", "16",
                     "--L", "4", "--epochs", "2", "--batch", "32",
                     "--train-messages", "128", "--seed", "3", "--out", str(out)])
        assert code == 0
        curve = tmp_path / f"{tag}.csv"
        code = main(["sweep", "--checkpoint", str(out), "--ebno", "5:7:1",
                     "--blocks", "64", "--seed", "5", "--out", str(curve)])
        assert code == 0
        return (out.read_bytes(), (tmp_path / f"{tag}.json.log.csv").read_bytes(),
                curve.read_bytes())

    reruns_identical = run("x") == run("y")
    printed = capsys.readouterr().out
    count_printed = "reference count: 12824" in printed

    M, F, D = 16, 256, 4
    hand_count = ((M * F + F) + (F * F + F) + 2 * F
                  + 2 * (F * D + D) + (D * F + F) + 2 * F + (F * M + M))
    default_count = CommSystem(desk_config()).parameter_count()
    count_ok = default_count == hand_count

    ok = roundtrip and reruns_identical and count_printed and count_ok
    _verdict(9, "determinism and formats",
             ok, f"checkpoint roundtrip byte-identical {roundtrip}, CLI reruns "
                 f"byte-identical {reruns_identical}, parameter count "
                 f"{default_count} == hand count {hand_count}, printed beside "
                 f"reference 12824: {count_printed}")
