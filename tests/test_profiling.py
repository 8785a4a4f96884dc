import math
from pathlib import Path

import numpy as np
import pytest

from oracles import dataset_of
from trojansim.data import Dataset, synthesize
from trojansim.errors import ConfigError, DegenerateStatsError, DimensionError, ForgeError
from trojansim.models import LayerSpec, ModelSpec, build_lenet, seed_weights
from trojansim.profiling import (
    Histogram,
    LayerStats,
    SigmaBand,
    TriggerRateEstimate,
    analytic_rate,
    assert_bands_clear,
    collect_observations,
    count_band_collisions,
    estimate_trigger_rate,
    export_histogram,
    forge_bands,
    profile_layer,
    wilson_half_width,
)
from trojansim.tensor import FLOAT32, Kernel, Tensor


def linear_probe_model(rows):
    """Input (1,) -> dense layer emitting rows * x, so layer output is rows."""
    w = np.array(rows, dtype=np.float32).reshape(-1, 1)
    kernel = Kernel(Tensor.from_array(w), Tensor.from_array(np.zeros(len(rows), dtype=np.float32)))
    return ModelSpec("probe", (1,), (LayerSpec("out", "dense", {"units": len(rows)}, kernel),))


def one_image_dataset(value=1.0):
    img = Tensor.from_array(np.array([value], dtype=np.float32))
    return dataset_of("one", ((img, 0),))


def flat_stats(mean, stddev, layer="fc1", bins=101):
    """Stats carrying only mean/stddev; histogram empty (no observations)."""
    return LayerStats(layer, 0, mean, stddev, 0.0, 0.0, Histogram(bins, 0.0, 0.0, (0,) * bins))


# --- profile_layer -------------------------------------------------------


def test_two_point_stats():
    stats = profile_layer(linear_probe_model([1.0, 3.0]), one_image_dataset(), "out")
    assert stats.count == 2
    assert stats.mean == 2.0
    assert stats.stddev == 1.0  # population, not sample
    assert stats.min == 1.0 and stats.max == 3.0


def test_zero_weights_degenerate():
    stats = profile_layer(linear_probe_model([0.0, 0.0, 0.0]), one_image_dataset(), "out")
    assert stats.mean == 0.0 and stats.stddev == 0.0
    with pytest.raises(DegenerateStatsError):
        forge_bands(stats)


def test_fc1_count_is_images_times_length():
    m = seed_weights(build_lenet(), 2)
    val = synthesize(100, (1, 28, 28), seed=11)
    stats = profile_layer(m, val, "fc1")
    assert stats.count == 100 * 120
    assert sum(stats.histogram.counts) == stats.count
    assert stats.histogram.bin_count == 101
    assert stats.histogram.lo == stats.min and stats.histogram.hi == stats.max


def test_profile_unknown_layer_lists_names():
    with pytest.raises(ConfigError, match="out"):
        profile_layer(linear_probe_model([1.0]), one_image_dataset(), "nope")


def test_profile_layer_order_insensitive():
    m = seed_weights(build_lenet(), 2)
    base = synthesize(20, (1, 28, 28), seed=7)
    shuffled = Dataset("shuf", base.pixels[::-1], base.labels[::-1])
    a = profile_layer(m, base, "fc1")
    b = profile_layer(m, shuffled, "fc1")
    assert a.mean == b.mean and a.stddev == b.stddev
    assert a.min == b.min and a.max == b.max
    assert a.histogram.counts == b.histogram.counts


def test_profile_empty_dataset():
    stats = profile_layer(linear_probe_model([1.0]), dataset_of("e", (), (1,)), "out")
    assert stats.count == 0 and stats.stddev == 0.0


def test_profile_constant_output_histogram_well_formed():
    # min == max: bins must still be fixed-width and sum to count
    stats = profile_layer(linear_probe_model([2.0, 2.0]), one_image_dataset(), "out")
    assert stats.min == stats.max == 2.0
    assert stats.histogram.lo < 2.0 < stats.histogram.hi
    assert sum(stats.histogram.counts) == 2


# --- forge_bands ---------------------------------------------------------


def test_band_formula_unit_normal():
    bands = forge_bands(flat_stats(0.0, 1.0), 3, 4)
    by_side = {b.side: b for b in bands}
    assert (by_side["upper"].lo, by_side["upper"].hi) == (3.0, 4.0)
    assert (by_side["lower"].lo, by_side["lower"].hi) == (-4.0, -3.0)


def test_band_formula_shifted():
    bands = forge_bands(flat_stats(10.0, 5.0), 3, 4)
    by_side = {b.side: b for b in bands}
    assert (by_side["upper"].lo, by_side["upper"].hi) == (25.0, 30.0)
    assert (by_side["lower"].lo, by_side["lower"].hi) == (-10.0, -5.0)


def test_band_formula_reported_distribution_shapes():
    # distributions whose 3..4 sigma limits land on the reference ranges
    upper = forge_bands(flat_stats(1503.0, 110.0), sides=("upper",))[0]
    assert (upper.lo, upper.hi) == (1833.0, 1943.0)
    lower = forge_bands(flat_stats(-1266.0, 160.0), sides=("lower",))[0]
    assert (lower.lo, lower.hi) == (-1906.0, -1746.0)


def test_forge_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        forge_bands(flat_stats(0.0, 1.0), k_lo=4, k_hi=3)
    with pytest.raises(ConfigError):
        forge_bands(flat_stats(0.0, 1.0), sides=("sideways",))
    with pytest.raises(ConfigError):
        forge_bands(flat_stats(0.0, 1.0), sides=())


def test_forge_rejects_populated_bands():
    # observations out at 3.5 sigma sit inside the upper band
    obs_model = linear_probe_model([0.0, -1.0, 1.0, 3.5, -3.5])
    stats = profile_layer(obs_model, one_image_dataset(), "out")
    # normalize: mean 0, stddev ~2.3; put band right on the data instead
    stats = LayerStats("out", stats.count, 0.0, 1.0, stats.min, stats.max, stats.histogram)
    with pytest.raises(ForgeError) as e:
        forge_bands(stats, 3, 4)
    assert e.value.colliding_count >= 1


def test_forged_bands_clear_of_validation_observations():
    m = seed_weights(build_lenet(), 2)
    val = synthesize(100, (1, 28, 28), seed=11)
    stats = profile_layer(m, val, "fc1")
    bands = forge_bands(stats, 3, 4)
    obs = collect_observations(m, val, "fc1")
    assert count_band_collisions(bands, obs) == 0
    assert_bands_clear(bands, obs)  # must not raise


def test_band_side_and_bounds_validation():
    with pytest.raises(ConfigError):
        SigmaBand("l", 2.0, 1.0, "upper", 3, 4)
    with pytest.raises(ConfigError):
        SigmaBand("l", 1.0, 2.0, "diagonal", 3, 4)


# --- estimate_trigger_rate -----------------------------------------------


def normal_mass(lo, hi, n=20001):
    """Simpson's rule over the standard normal pdf: independent of erf."""
    xs = np.linspace(lo, hi, n)
    pdf = np.exp(-xs * xs / 2) / math.sqrt(2 * math.pi)
    h = (hi - lo) / (n - 1)
    return h / 3 * (pdf[0] + pdf[-1] + 4 * pdf[1::2].sum() + 2 * pdf[2:-1:2].sum())


def test_analytic_single_element_rate():
    bands = forge_bands(flat_stats(0.0, 1.0), 3, 4)
    p_elem, p_img = analytic_rate(0.0, 1.0, bands, 1)
    expected = 2 * normal_mass(3.0, 4.0)
    assert abs(p_elem - expected) < 1e-9
    assert abs(p_elem - 0.002637) < 5e-6
    assert p_img == p_elem


def test_analytic_image_rate_length_120():
    bands = forge_bands(flat_stats(0.0, 1.0), 3, 4)
    est = estimate_trigger_rate(flat_stats(0.0, 1.0), bands, 120)
    p_elem = 2 * normal_mass(3.0, 4.0)
    assert abs(est.analytic - (1 - (1 - p_elem) ** 120)) < 1e-9
    assert abs(est.analytic - 0.2715) < 2e-4
    assert est.samples == 0 and est.monte_carlo == 0.0


def test_estimate_empty_bands_and_bad_args():
    assert estimate_trigger_rate(flat_stats(0.0, 1.0), [], 120).analytic == 0.0
    bands = forge_bands(flat_stats(0.0, 1.0), 3, 4)
    with pytest.raises(ConfigError):
        estimate_trigger_rate(flat_stats(0.0, 1.0), bands, 0)
    with pytest.raises(ConfigError):
        estimate_trigger_rate(flat_stats(0.0, 1.0), bands, 10, mode="guess")
    with pytest.raises(DegenerateStatsError):
        estimate_trigger_rate(flat_stats(0.0, 0.0), bands, 10)


def test_monte_carlo_agrees_with_analytic_on_gaussian():
    bands = forge_bands(flat_stats(0.0, 1.0), 3, 4)
    est = estimate_trigger_rate(flat_stats(0.0, 1.0), bands, 120, mode="monteCarlo",
                                samples=20000, seed=5)
    assert est.samples == 20000
    assert abs(est.monte_carlo - est.analytic) <= 3 * est.confidence_half_width


def test_monte_carlo_deterministic():
    bands = forge_bands(flat_stats(0.0, 1.0), 3, 4)
    a = estimate_trigger_rate(flat_stats(0.0, 1.0), bands, 50, mode="monteCarlo",
                              samples=5000, seed=1)
    b = estimate_trigger_rate(flat_stats(0.0, 1.0), bands, 50, mode="monteCarlo",
                              samples=5000, seed=1)
    assert a == b


def test_widening_band_never_decreases_estimates():
    stats = flat_stats(0.0, 1.0)
    prev_analytic, prev_mc = 0.0, 0.0
    for hi in (3.2, 3.5, 4.0, 4.5):
        band = SigmaBand("fc1", 3.0, hi, "upper", 3, 4)
        est = estimate_trigger_rate(stats, [band], 60, mode="monteCarlo",
                                    samples=4000, seed=3)
        assert est.analytic >= prev_analytic
        assert est.monte_carlo >= prev_mc
        prev_analytic, prev_mc = est.analytic, est.monte_carlo


def test_model_source_estimate_counts_real_taps():
    m = linear_probe_model([1.0, 2.0])
    probe = dataset_of(
        "p",
        ((Tensor.from_array(np.array([v], dtype=np.float32)), 0) for v in (0.1, 0.5, 2.0, 3.0)),
    )
    band = SigmaBand("out", 3.9, 6.5, "upper", 3, 4)
    est = estimate_trigger_rate((m, probe, "out"), [band], 2, mode="monteCarlo")
    # taps: (x, 2x); only x=2.0 -> 4.0 and x=3.0 -> 6.0 land in [3.9, 6.5]
    assert est.monte_carlo == 0.5 and est.samples == 4
    with pytest.raises(DimensionError):
        estimate_trigger_rate((m, probe, "out"), [band], 3, mode="monteCarlo")


def test_wilson_half_width_matches_root_form():
    z = 1.959963984540054
    for k, n in [(0, 100), (5, 100), (50, 100), (20, 1000), (999, 1000)]:
        p = k / n
        center = (p + z * z / (2 * n)) / (1 + z * z / n)
        spread = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
        lo, hi = center - spread, center + spread
        assert wilson_half_width(k, n) == pytest.approx((hi - lo) / 2, rel=1e-12)
    with pytest.raises(ConfigError):
        wilson_half_width(1, 0)


# --- serialization -------------------------------------------------------


def test_stats_json_roundtrip():
    m = seed_weights(build_lenet(), 2)
    stats = profile_layer(m, synthesize(5, (1, 28, 28), 3), "fc1")
    again = LayerStats.from_json(stats.to_json())
    assert again == stats
    assert set(stats.to_json()) == {"layerName", "count", "mean", "stddev", "min", "max", "histogram"}
    assert set(stats.to_json()["histogram"]) == {"binCount", "lo", "hi", "counts"}


def test_band_and_estimate_json_roundtrip():
    band = forge_bands(flat_stats(0.0, 1.0), 3, 4)[0]
    assert SigmaBand.from_json(band.to_json()) == band
    assert set(band.to_json()) == {"layerName", "lo", "hi", "side", "kLo", "kHi"}
    est = TriggerRateEstimate(0.25, 0.24, 1000, 0.01)
    assert TriggerRateEstimate.from_json(est.to_json()) == est
    assert set(est.to_json()) == {"analytic", "monteCarlo", "samples", "confidenceHalfWidth"}


def load_histogram_csv(path):
    """Read back an exported histogram."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "bin_lo,bin_hi,count":
        raise ConfigError(f"{path} is not a histogram CSV")
    out = []
    for ln in lines[1:]:
        lo_s, hi_s, c_s = ln.split(",")
        out.append((float(lo_s), float(hi_s), int(c_s)))
    return out


def test_histogram_export_roundtrip(tmp_path):
    m = seed_weights(build_lenet(), 2)
    stats = profile_layer(m, synthesize(10, (1, 28, 28), 3), "fc1")
    path = tmp_path / "h.csv"
    export_histogram(stats, path)
    rows = load_histogram_csv(path)
    assert len(rows) == 101
    edges = stats.histogram.edges()
    for i, (lo, hi, c) in enumerate(rows):
        assert lo == edges[i] and hi == edges[i + 1]  # repr() round-trips exactly
        assert c == stats.histogram.counts[i]
    assert sum(c for _, _, c in rows) == stats.count


def test_histogram_export_empty(tmp_path):
    stats = profile_layer(linear_probe_model([1.0]), dataset_of("e", (), (1,)), "out")
    path = tmp_path / "h.csv"
    export_histogram(stats, path)
    assert path.read_text() == "bin_lo,bin_hi,count\n"
    assert load_histogram_csv(path) == []
