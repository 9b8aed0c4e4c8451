import itertools
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vaecomm
from vaecomm import ConfigError, DomainError, ShapeMismatchError
from vaecomm.baselines import (
    BaselineResult,
    Constellation,
    analytic_ber,
    analytic_ser,
    baseline_bler,
    demodulate_hard,
    modulate,
    qfunc,
)
from vaecomm.curves import BlerCurve, BlerPoint, wilson_interval, write_table


def hamming(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# -- constellations ---------------------------------------------------------------


def test_qpsk_pinned_convention():
    c = Constellation.qpsk()
    np.testing.assert_allclose(c.points[0b00], (1 + 1j) / math.sqrt(2), rtol=1e-15)
    np.testing.assert_allclose(c.points[0b01], (1 - 1j) / math.sqrt(2), rtol=1e-15)
    np.testing.assert_allclose(c.points[0b10], (-1 + 1j) / math.sqrt(2), rtol=1e-15)
    np.testing.assert_allclose(c.points[0b11], (-1 - 1j) / math.sqrt(2), rtol=1e-15)


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
def test_unit_average_energy(name):
    c = Constellation.by_name(name)
    energy = np.mean(np.abs(c.points) ** 2)
    np.testing.assert_allclose(energy, 1.0, rtol=1e-14)
    assert len(set(np.round(c.points, 12))) == c.points.size


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
def test_gray_property_nearest_neighbours_differ_one_bit(name):
    c = Constellation.by_name(name)
    pts = c.points
    dists = [
        (abs(pts[i] - pts[j]), i, j)
        for i, j in itertools.combinations(range(pts.size), 2)
    ]
    dmin = min(d for d, _, _ in dists)
    for d, i, j in dists:
        if d < dmin * 1.001:
            assert hamming(i, j) == 1, (i, j)


def test_bit_map_is_a_bijection():
    for name in ("qpsk", "16qam"):
        c = Constellation.by_name(name)
        patterns = np.arange(c.points.size)
        shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
        bits = ((patterns[:, None] >> shifts) & 1).reshape(-1)
        recovered = demodulate_hard(c, c.points)
        np.testing.assert_array_equal(recovered, bits)


def test_unknown_constellation():
    with pytest.raises(ConfigError):
        Constellation.by_name("8psk")


# -- modulate / demodulate ------------------------------------------------------------


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
def test_noiseless_roundtrip(name):
    c = Constellation.by_name(name)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=c.bits_per_symbol * 1000)
    np.testing.assert_array_equal(demodulate_hard(c, modulate(c, bits)), bits)


def test_modulate_rejects_ragged_and_non_binary():
    c = Constellation.qpsk()
    with pytest.raises(ShapeMismatchError):
        modulate(c, np.array([0, 1, 0]))
    with pytest.raises(DomainError):
        modulate(c, np.array([0, 2]))


def test_demodulate_tie_breaks_to_lowest_index():
    c = Constellation.qpsk()
    bits = demodulate_hard(c, np.array([0.0 + 0.0j]))  # equidistant from all
    np.testing.assert_array_equal(bits, [0, 0])


def distance_search(c, symbols):
    """The reference decision: least complex distance, ties to the lowest index."""
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    return np.argmin(np.abs(symbols[:, None] - c.points[None, :]) ** 2, axis=1)


def index_bits(c, idx):
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    return ((np.asarray(idx)[:, None] >> shifts) & 1).reshape(-1)


def adversarial_axis_values(c):
    """Signed zeros, the levels, and the midpoints between levels and their
    negations, each with its two nearest floats on either side."""
    levels = np.unique(c.points.real)
    mids = (levels[:-1] + levels[1:]) / 2
    values = [0.0, -0.0, *levels, *mids, *-mids]
    for v in list(values):
        up = np.nextafter(v, np.inf)
        down = np.nextafter(v, -np.inf)
        values += [up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf)]
    return np.array(values)


def pairs(parts):
    """Every complex(a, b) for a, b in parts; 1j * inf would make a NaN real part."""
    grid = np.empty((parts.size, parts.size), dtype=np.complex128)
    grid.real, grid.imag = parts[:, None], parts[None, :]
    return grid.ravel()


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
def test_demodulate_matches_the_distance_search_on_random_symbols(name):
    c = Constellation.by_name(name)
    rng = np.random.default_rng(21)
    for scale in (1e-3, 0.1, 0.5, 1.0, 2.0, 1e3, 1e6, 1e9, 1e12, 1e150):
        symbols = (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)) * scale
        np.testing.assert_array_equal(demodulate_hard(c, symbols),
                                      index_bits(c, distance_search(c, symbols)))


def guard_edge_values(c):
    """The slicer's guard edges on one axis: +-64 and the next floats past them;
    each midpoint, the points 2^-24 either side of it, and the floats one ulp
    either side of those; NaN and +-inf."""
    levels = np.unique(c.levels)
    mids = (levels[:-1] + levels[1:]) / 2
    values = [64.0, -64.0, np.nextafter(64.0, np.inf), np.nextafter(-64.0, -np.inf)]
    for m in mids:
        values.append(m)
        for edge in (m - 2.0 ** -24, m + 2.0 ** -24):
            values += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    return np.array(values + [np.nan, np.inf, -np.inf])


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
def test_demodulate_matches_the_distance_search_at_thresholds_and_extremes(name):
    c = Constellation.by_name(name)
    axis = adversarial_axis_values(c)
    big = np.array([1e6, 1e12, 1e100, 1e150, 3.2e150])
    extremes = np.array([np.nan, np.inf, -np.inf])
    rng = np.random.default_rng(5)
    near = np.concatenate([axis + rng.normal(scale=1e-12, size=axis.size),
                           axis * (1 + rng.normal(scale=1e-15, size=axis.size))])
    edges = guard_edge_values(c)
    grid = np.concatenate([pairs(np.concatenate([axis, big, -big, extremes])), pairs(near),
                           pairs(np.concatenate([edges, axis]))])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = demodulate_hard(c, grid)
    np.testing.assert_array_equal(got, index_bits(c, distance_search(c, grid)))
    # 1e300's squared distances overflow to inf on both paths, which tie at index 0
    huge = pairs(np.concatenate([[1e300, -1e300], edges]))
    with np.errstate(over="raise"):
        got = demodulate_hard(c, huge)
    with np.errstate(over="ignore"):
        expected = index_bits(c, distance_search(c, huge))
    np.testing.assert_array_equal(got, expected)


def test_a_symbol_whose_distances_overflow_decides_without_a_warning():
    # under the suite's error::RuntimeWarning filter a warning would fail this
    c = Constellation.qpsk()
    np.testing.assert_array_equal(demodulate_hard(c, np.array([-1e300 + 0j])),
                                  index_bits(c, np.array([0])))


@pytest.mark.parametrize("levels, reason", [
    ([1.0], "power of two"),
    ([1.0, -1.0, 0.5], "power of two"),
    ([-3.0, -1.0, 1.0, 3.0, 5.0, 7.0], "power of two"),
    ([[1.0, -1.0]], "power of two"),
    ([], "power of two"),
    ([1.0, math.nan], "finite"),
    ([math.inf, -1.0], "finite"),
    ([2.5, -1.0], r"\[-2, 2\]"),
    ([1.0, -2.0 - 1e-12], r"\[-2, 2\]"),
    ([0.5, 0.6], "1/4 apart"),
    ([-1.0, 0.0, 0.2, 1.0], "1/4 apart"),
    ([1.0, 1.0], "1/4 apart"),
])
def test_constellation_refuses_a_ladder_the_slicer_cannot_decide(levels, reason):
    with pytest.raises(ConfigError, match=reason):
        Constellation("bad", levels)


def test_constellation_points_derive_from_one_ladder_on_both_axes():
    c = Constellation("4pam", [-1.5, -0.5, 1.5, 0.5])
    assert c.bits_per_symbol == 4
    for index, point in enumerate(c.points):
        assert point == complex(c.levels[index >> 2], c.levels[index & 0b11])
    edge = Constellation("edge", [-2.0, -1.75])  # the ends of what the slicer accepts
    rng = np.random.default_rng(8)
    symbols = (rng.standard_normal(5_000) + 1j * rng.standard_normal(5_000)) * 2.0
    for c in (c, edge):
        np.testing.assert_array_equal(demodulate_hard(c, symbols),
                                      index_bits(c, distance_search(c, symbols)))


def test_constellation_keeps_a_read_only_copy_of_its_ladder():
    ladder = np.array([-3.0, -1.0, 3.0, 1.0]) / math.sqrt(10.0)
    c = Constellation("copy", ladder)
    ladder[:] = 0.0  # the checked ladder is the one the slicer uses
    assert c.levels[0] == -3.0 / math.sqrt(10.0)
    for table in (c.levels, c.points, c._midpoints, c._by_position):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_constellations_compare_and_hash_by_name_and_ladder():
    assert Constellation.qpsk() == Constellation.qpsk()
    assert Constellation.qam16() == Constellation.by_name("qam16")
    assert Constellation.qpsk() != Constellation.qam16()
    ladder = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert Constellation("other", ladder) != Constellation.qpsk()  # same ladder, new name
    assert Constellation("qpsk", 2 * ladder) != Constellation.qpsk()
    assert Constellation.qpsk() != "qpsk"
    table = {Constellation.qpsk(): "qpsk", Constellation.qam16(): "16qam"}
    assert table[Constellation.by_name("qpsk")] == "qpsk"
    assert table[Constellation.by_name("16qam")] == "16qam"
    assert len({Constellation.qpsk(), Constellation.qpsk()}) == 1


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_baseline_runs_a_scaled_ladder_at_its_labelled_ebno(channel):
    # the noise follows the mean symbol energy, so scaling the ladder by 2
    # scales the received symbols by 2 and decides every one alike
    scaled = Constellation("qpsk", np.array([2.0, -2.0]) / math.sqrt(2.0))
    assert scaled.symbol_energy == 4.0 and Constellation.qpsk().symbol_energy == 1.0
    args = dict(ebno_db=4.0, k=4, L=5, n_blocks=3_000, seed=9, channel=channel)
    reference = baseline_bler(Constellation.qpsk(), **args)
    assert reference.symbol_errors > 100
    assert baseline_bler(scaled, **args) == reference


# -- analytic curves --------------------------------------------------------------------


def test_qpsk_ber_at_8db_reference_value():
    # independent evaluation of Q(sqrt(2 * 10^0.8)) frozen from first principles
    got = analytic_ber(Constellation.qpsk(), 8.0)
    np.testing.assert_allclose(got, 0.00019090777407599314, rtol=1e-12)
    # coarse anchor often quoted for this point
    assert abs(got - 1.88e-4) / 1.88e-4 < 0.12


def test_qfunc_against_erfc_identity():
    xs = np.array([0.0, 1.0, 2.5])
    np.testing.assert_allclose(qfunc(xs)[0], 0.5, rtol=1e-15)
    assert np.all(np.diff(qfunc(xs)) < 0)


# Run in a fresh interpreter: SciPy stays unloaded through `import vaecomm`
# and `import vaecomm.cli`, loads on the first analytic curve, and the curves
# are the erfc formulas bit for bit.
_SCIPY_ON_DEMAND = """
import math, sys
import numpy as np
import vaecomm
assert "scipy" not in sys.modules, "import vaecomm loaded scipy"
import vaecomm.cli
assert "scipy" not in sys.modules, "import vaecomm.cli loaded scipy"
from vaecomm import Constellation, analytic_ber, analytic_ser
ebno = np.linspace(-4.0, 16.0, 41)
ber = {name: analytic_ber(Constellation.by_name(name), ebno) for name in ("qpsk", "16qam")}
assert "scipy.special" in sys.modules, "analytic_ber did not load scipy.special"
ser = {name: analytic_ser(Constellation.by_name(name), ebno) for name in ("qpsk", "16qam")}
from scipy.special import erfc
g = 10.0 ** (ebno / 10.0)
q_qpsk = 0.5 * erfc(np.sqrt(2.0 * g) / math.sqrt(2.0))
q_16qam = 0.5 * erfc(np.sqrt(0.8 * g) / math.sqrt(2.0))
assert np.array_equal(ber["qpsk"], q_qpsk)
assert np.array_equal(ber["16qam"], 0.75 * q_16qam)
assert np.array_equal(ser["qpsk"], 2.0 * q_qpsk - q_qpsk * q_qpsk)
assert np.array_equal(ser["16qam"], 1.0 - (1.0 - 1.5 * q_16qam) ** 2)
scalar = analytic_ber(Constellation.qpsk(), 7.0)
assert scalar == float(0.5 * erfc(math.sqrt(2.0 * 10.0 ** 0.7) / math.sqrt(2.0)))
print("ok")
"""


def test_scipy_loads_only_with_the_first_analytic_curve():
    src = str(Path(vaecomm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_ON_DEMAND], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


def test_qam16_always_worse_than_qpsk():
    for db in np.linspace(-5, 20, 26):
        assert analytic_ber(Constellation.qam16(), db) > analytic_ber(Constellation.qpsk(), db)


def test_analytic_ser_exceeds_ber():
    for name in ("qpsk", "16qam"):
        c = Constellation.by_name(name)
        for db in (0.0, 5.0, 10.0):
            assert analytic_ser(c, db) > analytic_ber(c, db)


def test_ber_monotone_decreasing_in_ebno():
    c = Constellation.qam16()
    vals = analytic_ber(c, np.arange(0, 16))
    assert np.all(np.diff(vals) < 0)


# -- Monte Carlo baseline -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
def test_mc_ber_matches_analytic_within_3_sigma(name):
    c = Constellation.by_name(name)
    res = baseline_bler(c, 6.0, k=4, L=10, n_blocks=50_000, seed=1)  # 2e6 bits
    p = analytic_ber(c, 6.0)
    sigma = math.sqrt(p * (1.0 - p) / res.bits)
    assert abs(res.ber - p) < 3.0 * sigma, (res.ber, p, sigma)


def test_bler_matches_iid_identity_within_ci():
    c = Constellation.qpsk()
    res = baseline_bler(c, 4.0, k=4, L=10, n_blocks=20_000, seed=2)
    predicted = 1.0 - (1.0 - res.ser) ** 10
    assert res.ci_low <= predicted <= res.ci_high, (predicted, res)


def test_rayleigh_baseline_worse_than_awgn():
    c = Constellation.qpsk()
    awgn = baseline_bler(c, 10.0, k=4, L=10, n_blocks=20_000, seed=3)
    fading = baseline_bler(c, 10.0, k=4, L=10, n_blocks=20_000, seed=3, channel="rayleigh")
    assert fading.ber > 2.0 * awgn.ber


def test_baseline_reproducible_and_counts_consistent():
    c = Constellation.qam16()
    a = baseline_bler(c, 8.0, k=4, L=5, n_blocks=5_000, seed=4)
    b = baseline_bler(c, 8.0, k=4, L=5, n_blocks=5_000, seed=4)
    assert a == b
    assert isinstance(a, BaselineResult)
    assert a.bit_errors >= a.symbol_errors  # a wrong symbol has >= 1 wrong bit
    assert a.symbol_errors >= a.block_errors
    assert a.bler >= a.ser


def test_baseline_logs_one_line_per_call(caplog):
    c = Constellation.qpsk()
    with caplog.at_level(logging.INFO, logger="vaecomm.baselines"):
        result = baseline_bler(c, 4.0, k=2, L=5, n_blocks=300, seed=6, chunk_blocks=128)
    lines = [r.getMessage() for r in caplog.records if r.name == "vaecomm.baselines"]
    assert len(lines) == 1
    assert lines[0].startswith(
        f"qpsk: Eb/N0 4.0 dB, 300 blocks, {result.block_errors} block errors, ")
    assert lines[0].endswith(" bits/s")
    caplog.clear()
    assert baseline_bler(c, 4.0, k=2, L=5, n_blocks=300, seed=6, chunk_blocks=128) == result


def test_baseline_rejects_partial_symbols():
    with pytest.raises(ConfigError):
        baseline_bler(Constellation.qam16(), 8.0, k=3, L=3, n_blocks=10, seed=0)
    with pytest.raises(DomainError):
        baseline_bler(Constellation.qpsk(), 8.0, k=0, L=10, n_blocks=10, seed=0)


@pytest.mark.parametrize("ebno_db", [math.nan, -math.inf])
def test_baseline_rejects_nan_and_minus_inf_ebno(ebno_db):
    with pytest.raises(DomainError, match="Eb/N0"):
        baseline_bler(Constellation.qpsk(), ebno_db, k=2, L=4, n_blocks=10, seed=0)


@pytest.mark.parametrize("chunk_blocks", [0, -3])
def test_baseline_rejects_chunk_blocks_below_one(chunk_blocks):
    # 0 looped forever, as no chunk advanced the block count, and a
    # negative value raised numpy's ValueError
    with pytest.raises(DomainError, match="chunk_blocks"):
        baseline_bler(Constellation.qpsk(), 4.0, k=2, L=4, n_blocks=10, seed=0,
                      chunk_blocks=chunk_blocks)


# (block, symbol, bit) errors of baseline_bler(c, ebno, k, L=4, n_blocks=2500,
# seed=7, channel, chunk_blocks=1000), recorded from the distance-search
# demodulator. A change to any draw or decision changes them.
PINNED_COUNTS = {
    ("qpsk", "awgn", 0.0, 3): (1546, 2165, 2336),
    ("qpsk", "awgn", 0.0, 4): (1801, 2740, 3092),
    ("qpsk", "awgn", 0.0, 8): (2316, 4838, 6285),
    ("qpsk", "awgn", 6.0, 3): (78, 79, 79),
    ("qpsk", "awgn", 6.0, 4): (88, 88, 88),
    ("qpsk", "awgn", 6.0, 8): (193, 203, 203),
    ("qpsk", "rayleigh", 0.0, 3): (2089, 3648, 4365),
    ("qpsk", "rayleigh", 0.0, 4): (2271, 4479, 5852),
    ("qpsk", "rayleigh", 0.0, 8): (2480, 6961, 11699),
    ("qpsk", "rayleigh", 6.0, 3): (1146, 1422, 1579),
    ("qpsk", "rayleigh", 6.0, 4): (1385, 1851, 2170),
    ("qpsk", "rayleigh", 6.0, 8): (2058, 3428, 4356),
    ("16qam", "awgn", 0.0, 3): (2145, 3781, 4171),
    ("16qam", "awgn", 0.0, 4): (2330, 4789, 5624),
    ("16qam", "awgn", 0.0, 8): (2492, 7265, 11254),
    ("16qam", "awgn", 6.0, 3): (699, 790, 801),
    ("16qam", "awgn", 6.0, 4): (934, 1087, 1125),
    ("16qam", "awgn", 6.0, 8): (1510, 2062, 2235),
    ("16qam", "rayleigh", 0.0, 3): (2260, 4628, 5861),
    ("16qam", "rayleigh", 0.0, 4): (2414, 5505, 8013),
    ("16qam", "rayleigh", 0.0, 8): (2498, 7990, 15976),
    ("16qam", "rayleigh", 6.0, 3): (1465, 2218, 2571),
    ("16qam", "rayleigh", 6.0, 4): (1814, 2744, 3612),
    ("16qam", "rayleigh", 6.0, 8): (2286, 4660, 7103),
}


@pytest.mark.parametrize("key", list(PINNED_COUNTS), ids=lambda key: "-".join(map(str, key)))
def test_baseline_counts_are_pinned(key):
    name, channel, ebno, k = key
    r = baseline_bler(Constellation.by_name(name), ebno, k=k, L=4, n_blocks=2500, seed=7,
                      channel=channel, chunk_blocks=1000)
    assert (r.block_errors, r.symbol_errors, r.bit_errors) == PINNED_COUNTS[key]


# (constellation, channel, Eb/N0, k): (block, symbol, bit) errors at the benchmark's
# size: L=10, 25,000 blocks, so six full 4,096-block chunks and one of 424
PINNED_BENCHMARK_COUNTS = {
    ("qpsk", "awgn", -6.0, 4): (24999, 165706, 238107),
    ("qpsk", "awgn", 0.0, 4): (24007, 69526, 78316),
    ("qpsk", "awgn", -6.0, 8): (25000, 221713, 477246),
    ("qpsk", "awgn", 0.0, 8): (24955, 119513, 156736),
    ("16qam", "rayleigh", 6.0, 8): (24969, 117206, 176056),
}


@pytest.mark.parametrize("key", list(PINNED_BENCHMARK_COUNTS),
                         ids=lambda key: "-".join(map(str, key)))
def test_baseline_counts_are_pinned_at_the_benchmark_size(key):
    name, channel, ebno, k = key
    r = baseline_bler(Constellation.by_name(name), ebno, k=k, L=10, n_blocks=25_000, seed=1,
                      channel=channel)
    assert (r.block_errors, r.symbol_errors, r.bit_errors) == PINNED_BENCHMARK_COUNTS[key]


def test_baseline_call_peaks_under_12_mb_at_k8():
    tracemalloc.start()
    try:
        baseline_bler(Constellation.qpsk(), 0.0, k=8, L=10, n_blocks=25_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("arg, value", [
    ("k", 4.0), ("k", True), ("L", 10.0), ("n_blocks", 2.5), ("n_blocks", True),
    ("chunk_blocks", 2.5), ("chunk_blocks", False), ("n_blocks", "10"),
])
def test_baseline_rejects_a_non_integer_size(arg, value):
    sizes = dict(k=4, L=10, n_blocks=10, chunk_blocks=4096) | {arg: value}
    with pytest.raises(DomainError, match=f"{arg} must be an integer"):
        baseline_bler(Constellation.qpsk(), 4.0, seed=0, **sizes)


@pytest.mark.parametrize("seed", [-1, True, 2.0, "7"])
def test_baseline_rejects_a_seed_that_is_not_an_integer_from_zero(seed):
    # -1 raised numpy's ValueError from inside default_rng
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        baseline_bler(Constellation.qpsk(), 4.0, k=2, L=4, n_blocks=10, seed=seed)


def test_baseline_accepts_numpy_integer_sizes():
    c = Constellation.qpsk()
    want = baseline_bler(c, 4.0, k=4, L=10, n_blocks=300, seed=0, chunk_blocks=128)
    got = baseline_bler(c, 4.0, k=np.int64(4), L=np.int32(10), n_blocks=np.int64(300), seed=0,
                        chunk_blocks=np.uint16(128))
    assert got == want
    assert type(got.blocks) is int


# -- intervals and serialization ------------------------------------------------------------


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and 0.0 < hi < 0.01
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    with pytest.raises(DomainError):
        wilson_interval(5, 0)
    with pytest.raises(DomainError):
        wilson_interval(10, 5)


def test_curve_csv_schema(tmp_path):
    curve = BlerCurve([
        BlerPoint(5.0, 0.5, 0.25, 0.4, 0.6, 100, 10, 42, "test_system"),
    ])
    path = tmp_path / "curve.csv"
    write_table(str(path), "csv", *curve.table())
    lines = path.read_text().splitlines()
    assert lines[0] == "ebno_db,bler,ser,ci_low,ci_high,blocks,block_length,seed,system_label"
    assert lines[1] == "5.0,0.5,0.25,0.4,0.6,100,10,42,test_system"


def test_curve_csv_with_analytic_column(tmp_path):
    curve = BlerCurve([
        BlerPoint(5.0, 0.5, 0.25, 0.4, 0.6, 100, 10, 42, "qpsk_awgn", analytic_ber=0.125),
    ])
    path = tmp_path / "curve.csv"
    write_table(str(path), "csv", *curve.table())
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",analytic_ber")
    assert lines[1].endswith(",0.125")


def test_curve_json_roundtrip(tmp_path):
    import json

    curve = BlerCurve([BlerPoint(5.0, 0.5, 0.25, 0.4, 0.6, 100, 10, 42, "sys")])
    path = tmp_path / "curve.json"
    write_table(str(path), "json", *curve.table())
    rows = json.loads(path.read_text())
    assert rows[0]["ebno_db"] == 5.0
    assert rows[0]["block_length"] == 10
    assert rows[0]["system_label"] == "sys"
    assert "analytic_ber" not in rows[0]
