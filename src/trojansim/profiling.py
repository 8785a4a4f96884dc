"""Statistical profiling of layer outputs and trigger-band forging.

The attack's analysis phase: run the validation set through the model, pool
every scalar element of one layer's output, summarize the distribution, and
derive value bands between the k_lo-sigma and k_hi-sigma limits that no
validation observation touches. Rates of landing in those bands are then
estimated analytically (Gaussian i.i.d. approximation) and by Monte-Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, synthesize
from .errors import ConfigError, DegenerateStatsError, DimensionError, ForgeError, InvariantViolation
from .models import ModelSpec, forward_batch

DEFAULT_BIN_COUNT = 101
Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class Histogram:
    bin_count: int
    lo: float
    hi: float
    counts: tuple[int, ...]

    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bin_count + 1)


@dataclass(frozen=True)
class LayerStats:
    layer_name: str
    count: int
    mean: float
    stddev: float  # population
    min: float
    max: float
    histogram: Histogram

    def to_json(self) -> dict:
        return {
            "layerName": self.layer_name,
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.min,
            "max": self.max,
            "histogram": {
                "binCount": self.histogram.bin_count,
                "lo": self.histogram.lo,
                "hi": self.histogram.hi,
                "counts": list(self.histogram.counts),
            },
        }

    @staticmethod
    def from_json(obj: dict) -> "LayerStats":
        h = obj["histogram"]
        return LayerStats(
            layer_name=obj["layerName"],
            count=obj["count"],
            mean=obj["mean"],
            stddev=obj["stddev"],
            min=obj["min"],
            max=obj["max"],
            histogram=Histogram(h["binCount"], h["lo"], h["hi"], tuple(h["counts"])),
        )


@dataclass(frozen=True)
class SigmaBand:
    layer_name: str
    lo: float
    hi: float
    side: str  # upper | lower
    k_lo: float
    k_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigError(f"band lo {self.lo} must be < hi {self.hi}")
        if self.side not in ("upper", "lower"):
            raise ConfigError(f"band side must be 'upper' or 'lower', got {self.side!r}")

    def to_json(self) -> dict:
        return {
            "layerName": self.layer_name,
            "lo": self.lo,
            "hi": self.hi,
            "side": self.side,
            "kLo": self.k_lo,
            "kHi": self.k_hi,
        }

    @staticmethod
    def from_json(obj: dict) -> "SigmaBand":
        return SigmaBand(
            layer_name=obj["layerName"],
            lo=obj["lo"],
            hi=obj["hi"],
            side=obj["side"],
            k_lo=obj["kLo"],
            k_hi=obj["kHi"],
        )


@dataclass(frozen=True)
class TriggerRateEstimate:
    analytic: float
    monte_carlo: float
    samples: int
    confidence_half_width: float

    def to_json(self) -> dict:
        return {
            "analytic": self.analytic,
            "monteCarlo": self.monte_carlo,
            "samples": self.samples,
            "confidenceHalfWidth": self.confidence_half_width,
        }

    @staticmethod
    def from_json(obj: dict) -> "TriggerRateEstimate":
        return TriggerRateEstimate(
            analytic=obj["analytic"],
            monte_carlo=obj["monteCarlo"],
            samples=obj["samples"],
            confidence_half_width=obj["confidenceHalfWidth"],
        )


def collect_observations(model: ModelSpec, dataset: Dataset, layer_name: str) -> np.ndarray:
    """All scalar elements of one layer's tap across a dataset, as float64,
    image by image in row-major order."""
    _, taps = forward_batch(model, dataset.pixels, (layer_name,))
    return taps[layer_name].reshape(-1).astype(np.float64, copy=False)


def _pooled_moments(sorted_obs: np.ndarray) -> tuple[float, float]:
    """(mean, population stddev) of sorted observations, which it overwrites
    with their squared deviations (so no second array of their size exists).
    Non-finite activations (a NaN or Inf weight, or float32 overflow) leave
    nothing to profile: a non-finite mean or stddev is DegenerateStatsError."""
    mean = float(np.mean(sorted_obs))
    np.subtract(sorted_obs, mean, out=sorted_obs)
    stddev = float(np.sqrt(np.mean(np.square(sorted_obs, out=sorted_obs))))
    if not (math.isfinite(mean) and math.isfinite(stddev)):
        raise DegenerateStatsError(f"observations have non-finite mean {mean} or stddev {stddev}")
    return mean, stddev


def layer_stats(
    layer_name: str, observations: np.ndarray, bin_count: int = DEFAULT_BIN_COUNT
) -> LayerStats:
    """Summarize one layer's pooled observations.

    Observations are sorted before reduction, so the result is bitwise
    insensitive to the order of the images they came from.
    """
    if bin_count < 1:
        raise ConfigError("bin_count must be >= 1")
    obs = np.sort(observations)
    if obs.size == 0:
        empty = Histogram(bin_count, 0.0, 0.0, (0,) * bin_count)
        return LayerStats(layer_name, 0, 0.0, 0.0, 0.0, 0.0, empty)
    mean, stddev = _pooled_moments(obs.copy())
    lo, hi = float(obs[0]), float(obs[-1])
    # degenerate spread still needs well-formed fixed-width bins
    h_lo, h_hi = (lo, hi) if hi > lo else (lo - 0.5, hi + 0.5)
    counts, _ = np.histogram(obs, bins=bin_count, range=(h_lo, h_hi))
    return LayerStats(
        layer_name=layer_name,
        count=int(obs.size),
        mean=mean,
        stddev=stddev,
        min=lo,
        max=hi,
        histogram=Histogram(bin_count, h_lo, h_hi, tuple(int(c) for c in counts)),
    )


def profile_layer(
    model: ModelSpec, validation: Dataset, layer_name: str, bin_count: int = DEFAULT_BIN_COUNT
) -> LayerStats:
    """Pool one layer's outputs over a validation set into summary stats."""
    return layer_stats(layer_name, collect_observations(model, validation, layer_name), bin_count)


def forge_bands(
    stats: LayerStats,
    k_lo: float = 3.0,
    k_hi: float = 4.0,
    sides: tuple[str, ...] = ("upper", "lower"),
) -> list[SigmaBand]:
    """Derive trigger bands between the k_lo- and k_hi-sigma limits.

    upper = [mean + k_lo*sigma, mean + k_hi*sigma]
    lower = [mean - k_hi*sigma, mean - k_lo*sigma]

    A band that overlaps any populated histogram bin is rejected: the trigger
    must sit in a region the validation set never reached. The histogram is
    the finest record LayerStats keeps, so the check is conservative at bin
    resolution — it can reject a technically clean band, never accept a
    dirty one.
    """
    if not 0 < k_lo < k_hi:
        raise ConfigError(f"need 0 < kLo < kHi, got kLo={k_lo}, kHi={k_hi}")
    if not sides or any(s not in ("upper", "lower") for s in sides):
        raise ConfigError(f"sides must be drawn from upper/lower, got {sides!r}")
    if stats.stddev <= 0.0:
        raise DegenerateStatsError(
            f"layer {stats.layer_name!r} has zero-variance outputs (count={stats.count}); "
            "no sigma band exists"
        )
    bands = []
    for side in sides:
        if side == "upper":
            lo = stats.mean + k_lo * stats.stddev
            hi = stats.mean + k_hi * stats.stddev
        else:
            lo = stats.mean - k_hi * stats.stddev
            hi = stats.mean - k_lo * stats.stddev
        colliding = _histogram_mass_overlapping(stats.histogram, lo, hi)
        if colliding:
            raise ForgeError(
                f"{side} band [{lo}, {hi}] for layer {stats.layer_name!r} overlaps "
                f"populated histogram bins",
                colliding_count=colliding,
            )
        bands.append(SigmaBand(stats.layer_name, lo, hi, side, k_lo, k_hi))
    return bands


def _histogram_mass_overlapping(hist: Histogram, band_lo: float, band_hi: float) -> int:
    total = 0
    edges = hist.edges()
    for i, c in enumerate(hist.counts):
        if c and edges[i] <= band_hi and edges[i + 1] >= band_lo:
            total += c
    return total


def in_bands(values, bands) -> np.ndarray:
    """Mask of the values inside any band, bounds inclusive. Values are
    compared as float64, whatever their storage type."""
    values = np.asarray(values, dtype=np.float64)
    mask = np.zeros(values.shape, dtype=bool)
    for b in bands:
        mask |= (values >= b.lo) & (values <= b.hi)
    return mask


def count_band_collisions(bands: list[SigmaBand], observations: np.ndarray) -> int:
    """Exact count of observations falling inside any band (inclusive)."""
    return int(np.count_nonzero(in_bands(observations, bands)))


def assert_bands_clear(bands: list[SigmaBand], observations: np.ndarray) -> None:
    """Post-forge stealthiness assertion: no observation inside any band."""
    n = count_band_collisions(bands, observations)
    if n:
        raise InvariantViolation(f"{n} validation observations fall inside forged bands")


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def wilson_half_width(successes: int, trials: int, z: float = Z95) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigError("Wilson interval needs trials > 0")
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))) / denom


def analytic_rate(mean: float, stddev: float, bands: list[SigmaBand], layer_length: int) -> tuple[float, float]:
    """(p_elem, p_image) under the i.i.d. Gaussian approximation."""
    if stddev <= 0.0:
        raise DegenerateStatsError("analytic trigger rate needs sigma > 0")
    p_elem = 0.0
    for b in bands:
        p_elem += normal_cdf((b.hi - mean) / stddev) - normal_cdf((b.lo - mean) / stddev)
    p_elem = min(max(p_elem, 0.0), 1.0)
    p_image = 1.0 - (1.0 - p_elem) ** layer_length
    return p_elem, p_image


def estimate_trigger_rate(
    source,
    bands: list[SigmaBand],
    layer_length: int,
    mode: str = "analytic",
    samples: int = 100_000,
    seed: int = 0,
) -> TriggerRateEstimate:
    """Estimate the per-image probability of any element landing in a band.

    source is either a LayerStats (activations modeled i.i.d. Gaussian with
    its mean/stddev — cheap, supports the analytic/Monte-Carlo agreement
    check) or a (model, probeDataset, layerName) triple (Monte-Carlo taps
    real forward passes — slower, authoritative, since real layer elements
    are neither Gaussian nor independent; the analytic figure then uses the
    pooled probe mean/stddev).
    """
    if layer_length <= 0:
        raise ConfigError(f"layer_length must be positive, got {layer_length}")
    if mode not in ("analytic", "monteCarlo"):
        raise ConfigError(f"mode must be 'analytic' or 'monteCarlo', got {mode!r}")
    if not bands:
        return TriggerRateEstimate(0.0, 0.0, 0, 0.0)

    if isinstance(source, LayerStats):
        mean, stddev = source.mean, source.stddev
        _, p_image = analytic_rate(mean, stddev, bands, layer_length)
        if mode == "analytic":
            return TriggerRateEstimate(p_image, 0.0, 0, 0.0)
        if samples <= 0:
            raise ConfigError("monteCarlo mode needs samples > 0")
        rng = np.random.default_rng(seed)
        hits = 0
        # blockwise to bound memory; draws are seed-stable regardless of bands
        block = 2048
        done = 0
        while done < samples:
            n = min(block, samples - done)
            acts = mean + stddev * rng.standard_normal((n, layer_length))
            hits += int(np.count_nonzero(in_bands(acts, bands).any(axis=1)))
            done += n
        return TriggerRateEstimate(
            p_image, hits / samples, samples, wilson_half_width(hits, samples)
        )

    model, probe, layer_name = source
    obs = collect_observations(model, probe, layer_name)
    if obs.size == 0:
        raise DegenerateStatsError("probe dataset is empty")
    if obs.size % len(probe) != 0 or obs.size // len(probe) != layer_length:
        raise DimensionError(
            f"layer {layer_name!r} yields {obs.size // len(probe)} elements per image, "
            f"caller declared {layer_length}"
        )
    if mode == "monteCarlo":
        # the images' hits before their observations are sorted in place
        hits = int(np.count_nonzero(in_bands(obs.reshape(len(probe), layer_length), bands).any(axis=1)))
    obs.sort()
    mean, stddev = _pooled_moments(obs)
    _, p_image = analytic_rate(mean, stddev, bands, layer_length)
    if mode == "analytic":
        return TriggerRateEstimate(p_image, 0.0, 0, 0.0)
    n = len(probe)
    return TriggerRateEstimate(p_image, hits / n, n, wilson_half_width(hits, n))


def make_probe_dataset(model: ModelSpec, count: int, seed: int) -> Dataset:
    """Uniform-pixel probe images matching the model's input shape."""
    return synthesize(count, model.input_shape, seed, mode="uniform")


def export_histogram(stats: LayerStats, path: str | Path) -> None:
    """Write the histogram as CSV: header bin_lo,bin_hi,count.

    Zero-observation stats produce a header-only file. Edges are rendered
    with repr(), the shortest decimal that round-trips the exact float.
    """
    lines = ["bin_lo,bin_hi,count"]
    if stats.count > 0:
        edges = stats.histogram.edges()
        for i, c in enumerate(stats.histogram.counts):
            lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{c}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

