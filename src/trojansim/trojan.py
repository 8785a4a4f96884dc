"""Input-interception payload: trigger evaluation and the two-mode state
machine that swaps in a stored malicious image on the cycle after a trigger.

Dormant:  pass the legitimate image through, watch one layer's output; if
          any element lands in a trigger band, arm.
Armed:    substitute the selected malicious image for this cycle's input
          (the legitimate image is dropped), skip trigger evaluation, and
          reset to Dormant.

`run_compromised` drives a whole stream from one batched pass: a dormant
cycle is exactly a clean forward, so the pass serves every dormant cycle and
the machine walks only the cycles with a hit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError
from .models import ModelSpec, forward_batch
from .profiling import SigmaBand, in_bands
from .tensor import Tensor

DORMANT = "Dormant"
ARMED = "Armed"

ROUND_ROBIN = "roundRobin"
FIXED_INDEX = "fixedIndex"


@dataclass(frozen=True, eq=False)
class TrojanConfig:
    watch_layer: str
    bands: tuple[SigmaBand, ...]
    malicious_images: tuple[Tensor, ...]
    selection: str = ROUND_ROBIN
    fixed_index: int = 0

    def __post_init__(self):
        if not self.malicious_images:
            raise ConfigError("maliciousImages must be non-empty")
        shapes = {img.shape for img in self.malicious_images}
        if len(shapes) > 1:
            raise ConfigError(f"malicious images mix shapes: {sorted(shapes)}")
        for b in self.bands:
            if b.layer_name != self.watch_layer:
                raise ConfigError(
                    f"band targets layer {b.layer_name!r} but watchLayer is {self.watch_layer!r}"
                )
        if self.selection not in (ROUND_ROBIN, FIXED_INDEX):
            raise ConfigError(f"selection must be roundRobin or fixedIndex, got {self.selection!r}")
        if not 0 <= self.fixed_index < len(self.malicious_images):
            raise ConfigError(
                f"fixedIndex {self.fixed_index} out of range for {len(self.malicious_images)} images"
            )

    def select_image(self, substitution_ordinal: int) -> tuple[int, Tensor]:
        if self.selection == FIXED_INDEX:
            idx = self.fixed_index
        else:
            idx = substitution_ordinal % len(self.malicious_images)
        return idx, self.malicious_images[idx]


@dataclass(frozen=True)
class TriggerEvent:
    cycle: int
    kind: str  # Triggered | Substituted
    hit_value: float | None = None
    hit_index: int | None = None
    used_malicious_index: int | None = None

    def to_json(self) -> dict:
        obj = {"cycle": self.cycle, "kind": self.kind}
        if self.kind == "Triggered":
            obj["hitValue"] = self.hit_value
            obj["hitIndex"] = self.hit_index
        else:
            obj["usedMaliciousIndex"] = self.used_malicious_index
        return obj


@dataclass(frozen=True)
class TrojanState:
    mode: str = DORMANT
    fired_count: int = 0
    log: tuple[TriggerEvent, ...] = ()


@dataclass(frozen=True)
class AttackReport:
    images_processed: int
    trigger_count: int
    trigger_rate: float
    substitutions: int
    misclassifications: int
    clean_equivalence: bool

    def to_json(self) -> dict:
        return {
            "imagesProcessed": self.images_processed,
            "triggerCount": self.trigger_count,
            "triggerRate": self.trigger_rate,
            "substitutions": self.substitutions,
            "misclassifications": self.misclassifications,
            "cleanEquivalence": self.clean_equivalence,
        }


def run_compromised(
    model: ModelSpec,
    config: TrojanConfig,
    stream: Dataset,
) -> tuple[list[int], AttackReport, TrojanState]:
    """Drive the full stream through the compromised pipeline, in order.

    Returns the labels, the report and the final state of the per-cycle
    machine, without a per-cycle loop: a dormant cycle is exactly a clean
    forward, so one batched pass over the stream yields every clean label
    and each cycle's first watch-tap element inside a band, and a state
    consistent by construction. The Dormant/Armed machine then walks
    only the cycles with a hit; a hit on a substituted cycle is never
    evaluated. The malicious images the walk used are then labelled by one
    batched pass (one per input dtype, as a fixed-point model takes float32
    images too). The report is scored against the stream pass's labels.
    """
    if config.watch_layer not in model.layer_names():
        raise ConfigError(
            f"watchLayer {config.watch_layer!r} not in model; valid: {model.layer_names()}"
        )
    n = len(stream)
    clean, taps = forward_batch(model, stream.images(), (config.watch_layer,))
    tap = taps[config.watch_layer]
    tap = tap.reshape(n, math.prod(tap.shape[1:]))  # an empty stream leaves no size to infer
    mask = in_bands(tap, config.bands)
    rows = np.flatnonzero(mask.any(axis=1))
    log: list[TriggerEvent] = []
    substitutions = 0
    for cycle, col in zip(rows.tolist(), mask[rows].argmax(axis=1).tolist()):
        if log and log[-1].cycle == cycle:
            continue  # substituted cycle: trigger evaluation is suppressed
        log.append(TriggerEvent(cycle, "Triggered", hit_value=float(tap[cycle, col]), hit_index=col))
        if cycle + 1 == n:
            break  # no next cycle to poison: the machine stays armed
        used_idx, _ = config.select_image(substitutions)
        log.append(TriggerEvent(cycle + 1, "Substituted", used_malicious_index=used_idx))
        substitutions += 1
    used = sorted({e.used_malicious_index for e in log if e.kind == "Substituted"})
    malicious_labels: dict[int, int] = {}
    for dtype in {config.malicious_images[i].dtype for i in used}:
        same = [i for i in used if config.malicious_images[i].dtype == dtype]
        found = forward_batch(model, [config.malicious_images[i] for i in same], ())[0]
        malicious_labels.update(zip(same, found.tolist()))
    clean_labels = clean.tolist()
    labels = list(clean_labels)
    for e in log:
        if e.kind == "Substituted":
            labels[e.cycle] = malicious_labels[e.used_malicious_index]
    mode = ARMED if log and log[-1].kind == "Triggered" else DORMANT
    state = TrojanState(mode, len(log) - substitutions, tuple(log))
    report = evaluate_attack(clean_labels, (labels, state), stream)
    return labels, report, state


def substituted_cycles(state: TrojanState) -> set[int]:
    return {e.cycle for e in state.log if e.kind == "Substituted"}


def evaluate_attack(
    clean_labels: list[int],
    compromised_run: tuple[list[int], TrojanState],
    stream: Dataset,
) -> AttackReport:
    """Score a compromised run against its clean baseline."""
    labels, state = compromised_run
    if not (len(clean_labels) == len(labels) == len(stream)):
        raise DataError(
            f"length mismatch: {len(clean_labels)} clean, {len(labels)} compromised, "
            f"{len(stream)} stream images"
        )
    substituted = substituted_cycles(state)
    misclassifications = sum(
        1 for c in substituted if labels[c] != clean_labels[c]
    )
    clean_equivalence = all(
        labels[c] == clean_labels[c] for c in range(len(labels)) if c not in substituted
    )
    n = len(labels)
    trigger_count = state.fired_count
    return AttackReport(
        images_processed=n,
        trigger_count=trigger_count,
        trigger_rate=(trigger_count / n) if n else 0.0,
        substitutions=len(substituted),
        misclassifications=misclassifications,
        clean_equivalence=clean_equivalence,
    )


def write_labels_csv(labels: list[int], state: TrojanState, path: str | Path) -> None:
    """Per-cycle outputs: cycle,label,substituted."""
    substituted = substituted_cycles(state)
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["cycle", "label", "substituted"])
        for c, label in enumerate(labels):
            w.writerow([c, label, 1 if c in substituted else 0])

