"""Simulation of input-interception Trojans in CNN accelerator pipelines.

The pipeline under study runs images through a small CNN one at a time. A
planted trigger watches one layer's output for values inside statistically
rare bands; once armed, it substitutes a stored malicious image for the next
cycle's input, then resets. This package provides the deterministic tensor
kernels, models, data handling, statistical profiling, the attack state
machine, two countermeasures, and a batch CLI.
"""

from .data import (
    Dataset,
    SplitPlan,
    parse_cifar10,
    parse_idx,
    split,
    split_indices,
    synthesize,
    synthesize_split,
)
from .defense import (
    DefenseReport,
    DesignerView,
    ScalePlan,
    alter_validation,
    evaluate_altered_defense,
    evaluate_distributed_defense,
    partition,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateStatsError,
    DimensionError,
    ForgeError,
    InvariantViolation,
    ParseError,
    TrojansimError,
)
from .models import (
    ForwardTrace,
    LayerSpec,
    ModelSpec,
    build_cifar_net,
    build_lenet,
    forward,
    forward_batch,
    quantize_model,
    seed_weights,
)
from .profiling import (
    LayerStats,
    SigmaBand,
    TriggerRateEstimate,
    estimate_trigger_rate,
    export_histogram,
    forge_bands,
    profile_layer,
)
from .tensor import FLOAT32, Q16_16, FixedFormat, Kernel, Tensor
from .trojan import (
    AttackReport,
    TriggerEvent,
    TrojanConfig,
    TrojanState,
    evaluate_attack,
    run_compromised,
)

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "ConfigError",
    "DataError",
    "Dataset",
    "DefenseReport",
    "DegenerateStatsError",
    "DesignerView",
    "DimensionError",
    "FLOAT32",
    "FixedFormat",
    "ForgeError",
    "ForwardTrace",
    "InvariantViolation",
    "Kernel",
    "LayerSpec",
    "LayerStats",
    "ModelSpec",
    "ParseError",
    "Q16_16",
    "ScalePlan",
    "SigmaBand",
    "SplitPlan",
    "Tensor",
    "TriggerEvent",
    "TriggerRateEstimate",
    "TrojanConfig",
    "TrojanState",
    "TrojansimError",
    "alter_validation",
    "build_cifar_net",
    "build_lenet",
    "estimate_trigger_rate",
    "evaluate_altered_defense",
    "evaluate_attack",
    "evaluate_distributed_defense",
    "export_histogram",
    "forge_bands",
    "forward",
    "forward_batch",
    "partition",
    "parse_cifar10",
    "parse_idx",
    "profile_layer",
    "quantize_model",
    "run_compromised",
    "seed_weights",
    "split",
    "split_indices",
    "synthesize",
    "synthesize_split",
]
