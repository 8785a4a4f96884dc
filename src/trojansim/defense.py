"""Countermeasures against activation-statistics trigger design, and their
effectiveness evaluation.

Two defenses: (1) hand the would-be adversary a randomly scaled validation
set, so the layer statistics they profile are not the deployed ones; (2)
split the layer pipeline into contiguous groups built by non-colluding
designers, so no single designer can profile, trigger on, or interpret the
full pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import weightfile
from .data import Dataset
from .errors import ConfigError, DegenerateStatsError, ForgeError
from .models import (
    PARAMETERIZED_KINDS,
    LayerSpec,
    ModelSpec,
    forward_batch,
    iter_layer_shapes,
    layers_to_json,
    model_params,
)
from .profiling import (
    collect_observations,
    count_band_collisions,
    estimate_trigger_rate,
    forge_bands,
    in_bands,
    profile_layer,
    wilson_half_width,
)
from .rng import Xoshiro256StarStar

PER_IMAGE = "perImage"
PER_PIXEL = "perPixel"


@dataclass(frozen=True)
class ScalePlan:
    seed: int
    mode: str = PER_IMAGE
    r_min: float = 0.5
    r_max: float = 2.0

    def __post_init__(self):
        if self.mode not in (PER_IMAGE, PER_PIXEL):
            raise ConfigError(f"scale mode must be perImage or perPixel, got {self.mode!r}")
        if not 0 < self.r_min <= self.r_max:
            raise ConfigError(f"need 0 < rMin <= rMax, got [{self.r_min}, {self.r_max}]")

    def to_json(self) -> dict:
        return {"seed": self.seed, "mode": self.mode, "range": [self.r_min, self.r_max]}

    @staticmethod
    def from_json(obj: dict) -> "ScalePlan":
        r_min, r_max = obj.get("range", [0.5, 2.0])
        return ScalePlan(seed=obj["seed"], mode=obj.get("mode", PER_IMAGE), r_min=r_min, r_max=r_max)


def scale_factors(plan: ScalePlan, dataset: Dataset) -> np.ndarray:
    """The scale draws, regenerable for audit, as one (N, width) float64
    array: row i holds image i's factors, perImage one and perPixel one per
    pixel. Draw order is image-major, so the two modes share a seed
    discipline.
    """
    lo, hi = plan.r_min, plan.r_max
    # a dataset has one image shape, so every image takes the same draws
    width = 1 if plan.mode == PER_IMAGE else math.prod(dataset.image_shape)
    factors = Xoshiro256StarStar(plan.seed).next_double_rows(len(dataset), width)
    # the same float64 sequence as rng.uniform(lo, hi), one draw after another
    factors *= hi - lo
    factors += lo
    return factors


def alter_validation(dataset: Dataset, plan: ScalePlan) -> Dataset:
    """Replace each image A with r*A; labels stay put.

    With r_min = r_max = 1 every factor is exactly 1.0 and the output is
    bitwise identical to the input.
    """
    rows = dataset.pixels.reshape(len(dataset), math.prod(dataset.image_shape))
    # each image times its factors in float64, rounded once to float32; the
    # ufunc's buffered loop keeps its float64 temporaries small
    scaled = np.multiply(rows, scale_factors(plan, dataset), dtype=np.float64, casting="unsafe",
                         out=np.empty(rows.shape, dtype=np.float32))
    return Dataset(f"{dataset.name}/altered", scaled.reshape(dataset.pixels.shape), dataset.labels)


@dataclass(frozen=True, eq=False)
class DesignerView:
    """What one contracted designer receives: their contiguous layer slice
    (with parameters) and the dims at their group's boundaries — nothing
    about any other group."""

    group_index: int
    layers: tuple[LayerSpec, ...]
    input_dims: tuple[int, ...]
    output_dims: tuple[int, ...]


@dataclass(frozen=True)
class DefenseReport:
    kind: str  # alteredValidation | distributed
    adversary_trigger_rate_designed: float
    adversary_trigger_rate_actual: float
    band_collision_count: int
    exposure_findings: tuple[str, ...]
    verdict: str  # effective | ineffective | inconclusive

    def __post_init__(self):
        if self.verdict not in ("effective", "ineffective", "inconclusive"):
            raise ConfigError(f"invalid verdict {self.verdict!r}")
        for rate in (self.adversary_trigger_rate_designed, self.adversary_trigger_rate_actual):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"trigger rate {rate} outside [0, 1]")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "adversaryTriggerRateDesigned": self.adversary_trigger_rate_designed,
            "adversaryTriggerRateActual": self.adversary_trigger_rate_actual,
            "bandCollisionCount": self.band_collision_count,
            "exposureFindings": list(self.exposure_findings),
            "verdict": self.verdict,
        }


def stream_hit_rate(model: ModelSpec, bands, dataset: Dataset, watch_layer: str) -> tuple[int, int]:
    """(hits, images): how many images put any watched element in a band."""
    _, taps = forward_batch(model, dataset.pixels, (watch_layer,))
    mask = in_bands(taps[watch_layer], bands)
    hits = int(np.count_nonzero(mask.any(axis=tuple(range(1, mask.ndim)))))
    return hits, len(dataset)


def evaluate_altered_defense(
    model: ModelSpec,
    true_validation: Dataset,
    plan: ScalePlan,
    stream_data: Dataset,
    probe: Dataset,
    k_lo: float = 3.0,
    k_hi: float = 4.0,
    watch_layer: str = "fc1",
) -> DefenseReport:
    """Simulate the adversary working from the scaled validation set.

    The adversary profiles the watch layer on the ALTERED set and forges
    bands from those statistics. Designed rate: the adversary's own
    Monte-Carlo estimate, from forward passes over probe, inputs they can
    synthesize themselves (make_probe_dataset; they hold the full model),
    which goes unused when no bands are forged. Actual rate: the same
    bands measured against the true deployment stream. The defense is judged
    effective when the bands collide with true validation observations
    (stealthiness broken) or the actual rate strays more than 3 Wilson
    half-widths from the designed estimate.
    """
    altered = alter_validation(true_validation, plan)
    try:
        adv_stats = profile_layer(model, altered, watch_layer)
        layer_length = adv_stats.count // max(len(altered), 1)
        bands = forge_bands(adv_stats, k_lo, k_hi)
    except (DegenerateStatsError, ForgeError) as e:
        # the adversary gets no bands: nothing to measure, both rates are 0
        if isinstance(e, DegenerateStatsError):
            finding, verdict = f"adversary profiling degenerate: {e}", "inconclusive"
        else:
            finding = f"adversary cannot forge collision-free bands on the altered set: {e}"
            verdict = "effective"
        return DefenseReport(
            kind="alteredValidation",
            adversary_trigger_rate_designed=0.0,
            adversary_trigger_rate_actual=0.0,
            band_collision_count=0,
            exposure_findings=(finding,),
            verdict=verdict,
        )

    designed = estimate_trigger_rate(
        (model, probe, watch_layer), bands, layer_length, mode="monteCarlo"
    )
    true_obs = collect_observations(model, true_validation, watch_layer)
    collisions = count_band_collisions(bands, true_obs)
    hits, n = stream_hit_rate(model, bands, stream_data, watch_layer)
    actual = hits / n if n else 0.0

    # both rates are binomial estimates; compare within 3 quadrature-combined
    # Wilson half-widths so neither side's sampling noise is ignored
    hw_actual = wilson_half_width(hits, n) if n else 0.0
    combined = math.sqrt(designed.confidence_half_width**2 + hw_actual**2)
    rate_broken = abs(actual - designed.monte_carlo) > 3.0 * combined
    findings: list[str] = []
    findings.append(
        f"designed rate {designed.monte_carlo:.6f} (±{designed.confidence_half_width:.6f} "
        f"Wilson 95%, n={designed.samples}), actual stream rate {actual:.6f} "
        f"(±{hw_actual:.6f}, n={n})"
    )
    findings.append(
        f"{collisions} true-validation observations fall inside the adversary's bands"
    )
    for b in bands:
        findings.append(
            f"adversary {b.side} band [{b.lo:.6f}, {b.hi:.6f}] on layer {b.layer_name!r}"
        )
    verdict = "effective" if (collisions > 0 or rate_broken) else "ineffective"
    return DefenseReport(
        kind="alteredValidation",
        adversary_trigger_rate_designed=designed.monte_carlo,
        adversary_trigger_rate_actual=actual,
        band_collision_count=collisions,
        exposure_findings=tuple(findings),
        verdict=verdict,
    )


def partition(
    model: ModelSpec, k: int | None = None, cuts: list[int] | None = None
) -> list[DesignerView]:
    """Split the pipeline into contiguous designer groups.

    Exactly one of k (balanced split into k groups) or cuts (explicit
    boundary indices: a cut at i starts a new group at layer i) is given.
    """
    n_layers = len(model.layers)
    if (k is None) == (cuts is None):
        raise ConfigError("give exactly one of k or cuts")
    if k is not None:
        if not 2 <= k <= n_layers:
            raise ConfigError(f"k must be in [2, {n_layers}], got {k}")
        base, rem = divmod(n_layers, k)
        sizes = [base + 1] * rem + [base] * (k - rem)
        cuts = list(np.cumsum(sizes)[:-1])
    else:
        cuts = sorted(set(int(c) for c in cuts))
        if any(not 0 < c < n_layers for c in cuts):
            raise ConfigError(f"cuts must be interior layer indices in (0, {n_layers}), got {cuts}")
        if not cuts:
            raise ConfigError("cuts must define at least 2 groups")

    for layer in model.layers:
        if layer.kind in PARAMETERIZED_KINDS and layer.params is None:
            raise ConfigError(f"cannot partition: layer {layer.name!r} has no parameters")

    shapes = list(iter_layer_shapes(model))
    bounds = [0] + list(cuts) + [n_layers]
    views = []
    for g in range(len(bounds) - 1):
        start, stop = bounds[g], bounds[g + 1]
        views.append(
            DesignerView(
                group_index=g,
                layers=model.layers[start:stop],
                input_dims=shapes[start][1],
                output_dims=shapes[stop - 1][2],
            )
        )
    return views


def evaluate_distributed_defense(views: list[DesignerView], full_model: ModelSpec) -> DefenseReport:
    """Check that every designer's view underdetermines the full pipeline.

    Per view: (i) at least one other group holds parameters it cannot see;
    (ii) unless it is the final group, its last layer is not the model's
    last, so it cannot map its outputs to class labels; (iii) no view sees
    both the model's true input dims and its final output dims.
    """
    if not views:
        raise ConfigError("no views given")
    ordered = sorted(views, key=lambda v: v.group_index)
    expected_names = full_model.layer_names()
    got_names = [l.name for v in ordered for l in v.layers]
    if got_names != expected_names:
        raise ConfigError(
            f"views do not tile the model: views give {got_names}, model has {expected_names}"
        )
    if len(ordered) < 2:
        raise ConfigError("distributed defense needs at least 2 groups")

    param_layers = {
        l.name for l in full_model.layers if l.kind in PARAMETERIZED_KINDS
    }
    full_shapes = list(iter_layer_shapes(full_model))
    model_in = full_shapes[0][1]
    model_out = full_shapes[-1][2]

    findings: list[str] = []
    ok = True
    for view in ordered:
        own = {l.name for l in view.layers}
        hidden_params = sorted(param_layers - own)
        if param_layers and not hidden_params:
            ok = False
            findings.append(
                f"group {view.group_index}: VIOLATION - holds every parameterized layer"
            )
        else:
            findings.append(
                f"group {view.group_index}: lacks parameters of {hidden_params}"
                if hidden_params
                else f"group {view.group_index}: no parameterized layers exist to hide"
            )
        is_final = view is ordered[-1]
        if not is_final:
            if view.layers[-1].name == expected_names[-1]:
                ok = False
                findings.append(
                    f"group {view.group_index}: VIOLATION - ends at the model's final layer"
                )
            else:
                findings.append(
                    f"group {view.group_index}: ends at {view.layers[-1].name!r}, not the "
                    "model output - class labels unreachable"
                )
        sees_in = view.input_dims == model_in
        sees_out = view.output_dims == model_out
        if sees_in and sees_out:
            ok = False
            findings.append(
                f"group {view.group_index}: VIOLATION - sees both model input and output dims"
            )
        else:
            findings.append(
                f"group {view.group_index}: boundary dims {view.input_dims} -> "
                f"{view.output_dims} expose "
                + (
                    "model input side only"
                    if sees_in
                    else ("model output side only" if sees_out else "interior dims only")
                )
            )
    return DefenseReport(
        kind="distributed",
        adversary_trigger_rate_designed=0.0,
        adversary_trigger_rate_actual=0.0,
        band_collision_count=0,
        exposure_findings=tuple(findings),
        verdict="effective" if ok else "ineffective",
    )


# --- DesignerView serialization: architecture fragment + weight slice ----


def view_to_json(view: DesignerView) -> dict:
    return {
        "groupIndex": view.group_index,
        "inputDims": list(view.input_dims),
        "outputDims": list(view.output_dims),
        "layers": layers_to_json(view.layers),
    }


def save_view(view: DesignerView, directory: str | Path) -> tuple[Path, Path]:
    """Write view<g>.json (architecture fragment) and view<g>.dlaw (params)."""
    directory = Path(directory)
    json_path = directory / f"view{view.group_index}.json"
    weights_path = directory / f"view{view.group_index}.dlaw"
    json_path.write_text(
        json.dumps(view_to_json(view), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    weightfile.write_entries(model_params(view), weights_path)
    return json_path, weights_path
