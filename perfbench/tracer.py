"""Outside-in tracing: wrap the public functions of the trojansim modules and
record one span (name, start, end, parent) per call, then reduce the spans to
the per-layer metrics listed in ``PER_LAYER``.

Nothing inside the program changes. Every module attribute that refers to a
wrapped function is replaced, so calls through ``from .x import f`` names and
through ``module.f`` both pass through the wrapper. ``cli.main`` stays
unwrapped: the benchmark calls it, and the time it spends outside every
wrapped function is what ``trace.untraced_s`` reports.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ("tensor", "models", "data", "rng", "profiling", "trojan", "defense", "weightfile", "cli")
UNWRAPPED = {"cli.main"}
KERNELS = ("conv2d", "dense", "maxpool2d", "relu", "quantize")
LAYERS = ("conv1", "conv2", "fc1", "fc2", "fc3")
PHASES = ("profile", "forge", "attack", "defend")

# (name, unit, better) of every metric a traced run reports. The forward
# counts per phase and all other counts repeat exactly from run to run.
PER_LAYER = (
    [(f"phase.{p}.forwards", "count", "lower") for p in PHASES]
    + [m for k in KERNELS for m in ((f"tensor.{k}.calls", "count", "lower"), (f"tensor.{k}.self_s", "s", "lower"))]
    + [(f"tensor.{l}.us_per_img", "us", "lower") for l in LAYERS]
    + [(f"tensor.{l}.macs_per_img", "MAC", "lower") for l in LAYERS]
    + [(f"tensor.{l}.mmacs_per_s", "MMAC/s", "higher") for l in LAYERS]
    + [
        ("tensor.saturations", "count", "lower"),
        ("models.forward.calls", "count", "lower"),
        ("models.forward.us_per_img", "us", "lower"),
        ("models.forward.self_s", "s", "lower"),
        ("models.forward.distinct_ratio", "ratio", "higher"),
        ("models.seed_weights.s", "s", "lower"),
        ("data.synthesize.calls", "count", "lower"),
        ("data.synthesize.s", "s", "lower"),
        ("data.synthesize.images", "count", "lower"),
        ("data.split.s", "s", "lower"),
        ("rng.draws", "count", "lower"),
        ("rng.draws_per_s", "1/s", "higher"),
        ("profiling.profile_layer.s", "s", "lower"),
        ("profiling.collect_observations.calls", "count", "lower"),
        ("profiling.collect_observations.self_s", "s", "lower"),
        ("profiling.forge_bands.s", "s", "lower"),
        ("profiling.assert_bands_clear.s", "s", "lower"),
        ("profiling.estimate_trigger_rate.self_s", "s", "lower"),
        ("profiling.observations", "count", "lower"),
        ("trojan.run_compromised.s", "s", "lower"),
        ("trojan.step.calls", "count", "lower"),
        ("trojan.step.self_s", "s", "lower"),
        ("trojan.check_trigger.calls", "count", "lower"),
        ("trojan.check_trigger.self_s", "s", "lower"),
        ("trojan.triggers", "count", "higher"),
        ("trojan.substitutions", "count", "higher"),
        ("trojan.forwards_per_cycle", "ratio", "lower"),
        ("trojan.step.tail_head_ratio", "ratio", "lower"),
        ("defense.alter_validation.s", "s", "lower"),
        ("defense.stream_hit_rate.s", "s", "lower"),
        ("defense.partition.s", "s", "lower"),
        ("defense.evaluate_distributed_defense.s", "s", "lower"),
        ("defense.save_view.s", "s", "lower"),
        ("defense.evaluate_altered_defense.self_s", "s", "lower"),
        ("weightfile.write_entries.s", "s", "lower"),
        ("weightfile.bytes_written", "count", "lower"),
        ("cli.build_model.s", "s", "lower"),
        ("cli.build_datasets.s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def layer_shapes(model) -> tuple[dict, dict]:
    """({weight shape: layer name}, {layer name: MACs per image}) of a model
    spec; weight shapes are unique per layer in both built-in models."""
    from trojansim import models

    by_shape, macs = {}, {}
    for layer, in_shape, out_shape in models.iter_layer_shapes(model):
        if layer.kind == "conv":
            k = layer.hyperparams["kernelSize"]
            shape = (out_shape[0], in_shape[0], k, k)
            macs[layer.name] = int(np.prod(out_shape)) * in_shape[0] * k * k
        elif layer.kind == "dense":
            shape = (out_shape[0], in_shape[0])
            macs[layer.name] = out_shape[0] * in_shape[0]
        else:
            continue
        by_shape[shape] = layer.name
    return by_shape, macs


class Tracer:
    """Span recorder. Spans are kept in parallel lists and reduced in
    ``metrics``; ``paused`` turns recording off (for the benchmark's own
    correctness checks)."""

    def __init__(self, layer_of_shape: dict):
        self.layer_of_shape = layer_of_shape
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.phase: list[str] = []
        self.tag: list[str | None] = []
        self.stack = [-1]
        self.current_phase = "setup"
        self.windows: list[tuple[float, float]] = []
        self.paused = False
        self.counts = {
            "saturations": 0,
            "images": 0,
            "draws": 0,
            "observations": 0,
            "triggers": 0,
            "substitutions": 0,
            "cycles": 0,
            "bytes_written": 0,
        }
        self.digests: set[bytes] = set()
        self._signatures: dict[str, inspect.Signature] = {}
        self._patched: list[tuple[dict, str, object]] = []

    # --- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function defined in the traced modules."""
        mods = {m: importlib.import_module(f"trojansim.{m}") for m in MODULES}
        replace = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                    and name not in UNWRAPPED
                ):
                    replace[id(fn)] = (fn, self._wrap(fn, name))
        namespaces = [vars(m) for m in mods.values()]
        namespaces.append(vars(importlib.import_module("trojansim")))
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._patched.append((ns, attr, value))
                    ns[attr] = replace[id(value)][1]

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()

    def _wrap(self, fn, name: str):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        self._signatures[name] = inspect.signature(fn)
        names, parent, start, end = self.names, self.parent, self.start, self.end
        phase, tag, stack = self.phase, self.tag, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parent.append(stack[-1])
            phase.append(self.current_phase)
            tag.append(None)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if hook is not None:
                hook(i, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # --- per-call counts, taken where the work happens --------------------

    def _kernel(self, i, args, kwargs, result):
        kernel = args[1] if len(args) > 1 else kwargs["kernel"]
        self.tag[i] = self.layer_of_shape.get(kernel.weights.shape)
        self.counts["saturations"] += result.saturations

    _hook_tensor_conv2d = _kernel
    _hook_tensor_dense = _kernel

    def _hook_tensor_quantize(self, i, args, kwargs, result):
        self.counts["saturations"] += result.saturations

    def _hook_models_forward(self, i, args, kwargs, result):
        image = args[1] if len(args) > 1 else kwargs["image"]
        self.digests.add(hashlib.blake2b(image.data.tobytes(), digest_size=16).digest())

    def _hook_data_synthesize(self, i, args, kwargs, result):
        bound = self._bind("data.synthesize", args, kwargs)
        count, shape, mode = bound["count"], bound["shape"], bound["mode"]
        pixels = int(np.prod(shape))
        per_image = pixels if mode == "uniform" else 2 * ((pixels + 1) // 2)
        self.counts["images"] += count
        self.counts["draws"] += count * per_image

    def _hook_models_seed_weights(self, i, args, kwargs, result):
        # one draw per weight and bias; counted here rather than through the
        # (wrapped) models.model_params, which would record a span of its own
        self.counts["draws"] += sum(
            layer.params.weights.size + layer.params.bias.size
            for layer in result.layers
            if layer.params is not None
        )

    def _hook_defense_scale_factors(self, i, args, kwargs, result):
        self.counts["draws"] += sum(int(a.size) for a in result)

    def _hook_profiling_collect_observations(self, i, args, kwargs, result):
        self.counts["observations"] += int(result.size)

    def _hook_trojan_run_compromised(self, i, args, kwargs, result):
        _, report, _ = result
        self.counts["triggers"] += report.trigger_count
        self.counts["substitutions"] += report.substitutions
        self.counts["cycles"] += report.images_processed

    def _hook_weightfile_write_entries(self, i, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["bytes_written"] += os.path.getsize(path)

    def _bind(self, name: str, args, kwargs) -> dict:
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    # --- reduction --------------------------------------------------------

    def metrics(self, macs: dict) -> dict[str, float]:
        """Reduce the recorded spans to the ``PER_LAYER`` metrics (without
        ``trace.overhead_s``, which needs an untraced run)."""
        names, parent = self.names, self.parent
        n = len(names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        kernel_below = [0.0] * n
        kernel_names = {f"tensor.{k}" for k in KERNELS}
        # children are recorded after their parents, so one backward pass
        # sums every span's children and the kernel time beneath it
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                kernel_below[p] += kernel_below[i] + (dur[i] if names[i] in kernel_names else 0.0)

        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        for i in range(n):
            nm = names[i]
            calls[nm] = calls.get(nm, 0) + 1
            total[nm] = total.get(nm, 0.0) + dur[i]
            self_t[nm] = self_t.get(nm, 0.0) + dur[i] - child[i]

        m: dict[str, float] = {}
        for p in PHASES:
            m[f"phase.{p}.forwards"] = sum(
                1 for i in range(n) if names[i] == "models.forward" and self.phase[i] == p
            )
        for k in KERNELS:
            m[f"tensor.{k}.calls"] = calls.get(f"tensor.{k}", 0)
            m[f"tensor.{k}.self_s"] = self_t.get(f"tensor.{k}", 0.0)
        layer_calls: dict[str, int] = {}
        layer_time: dict[str, float] = {}
        for i in range(n):
            if self.tag[i] is not None:
                layer_calls[self.tag[i]] = layer_calls.get(self.tag[i], 0) + 1
                layer_time[self.tag[i]] = layer_time.get(self.tag[i], 0.0) + dur[i]
        for l in LAYERS:
            c, t = layer_calls.get(l, 0), layer_time.get(l, 0.0)
            m[f"tensor.{l}.us_per_img"] = 1e6 * t / c if c else 0.0
            m[f"tensor.{l}.macs_per_img"] = macs.get(l, 0)
            m[f"tensor.{l}.mmacs_per_s"] = macs.get(l, 0) * c / t / 1e6 if t else 0.0
        m["tensor.saturations"] = self.counts["saturations"]

        fwd = [i for i in range(n) if names[i] == "models.forward"]
        m["models.forward.calls"] = len(fwd)
        m["models.forward.us_per_img"] = 1e6 * total.get("models.forward", 0.0) / len(fwd) if fwd else 0.0
        # time in forward outside the five kernels: per-op Tensor wrapping,
        # validation and the layer loop
        m["models.forward.self_s"] = sum(dur[i] - kernel_below[i] for i in fwd)
        m["models.forward.distinct_ratio"] = len(self.digests) / len(fwd) if fwd else 0.0
        m["models.seed_weights.s"] = total.get("models.seed_weights", 0.0)

        m["data.synthesize.calls"] = calls.get("data.synthesize", 0)
        m["data.synthesize.s"] = total.get("data.synthesize", 0.0)
        m["data.synthesize.images"] = self.counts["images"]
        m["data.split.s"] = total.get("data.split", 0.0)
        m["rng.draws"] = self.counts["draws"]
        rng_s = sum(total.get(f, 0.0) for f in ("data.synthesize", "models.seed_weights", "defense.scale_factors"))
        m["rng.draws_per_s"] = self.counts["draws"] / rng_s if rng_s else 0.0

        m["profiling.profile_layer.s"] = total.get("profiling.profile_layer", 0.0)
        m["profiling.collect_observations.calls"] = calls.get("profiling.collect_observations", 0)
        m["profiling.collect_observations.self_s"] = self_t.get("profiling.collect_observations", 0.0)
        m["profiling.forge_bands.s"] = total.get("profiling.forge_bands", 0.0)
        m["profiling.assert_bands_clear.s"] = total.get("profiling.assert_bands_clear", 0.0)
        m["profiling.estimate_trigger_rate.self_s"] = self_t.get("profiling.estimate_trigger_rate", 0.0)
        m["profiling.observations"] = self.counts["observations"]

        m["trojan.run_compromised.s"] = total.get("trojan.run_compromised", 0.0)
        m["trojan.step.calls"] = calls.get("trojan.step", 0)
        m["trojan.step.self_s"] = self_t.get("trojan.step", 0.0)
        m["trojan.check_trigger.calls"] = calls.get("trojan.check_trigger", 0)
        m["trojan.check_trigger.self_s"] = self_t.get("trojan.check_trigger", 0.0)
        m["trojan.triggers"] = self.counts["triggers"]
        m["trojan.substitutions"] = self.counts["substitutions"]
        runs = {i for i in range(n) if names[i] == "trojan.run_compromised"}
        inside = [False] * n
        for i in range(n):
            p = parent[i]
            inside[i] = p >= 0 and (p in runs or inside[p])
        cycles = self.counts["cycles"]
        in_run = sum(1 for i in fwd if inside[i])
        m["trojan.forwards_per_cycle"] = in_run / cycles if cycles else 0.0
        head = tail = 0.0
        for r in sorted(runs):
            steps = [dur[i] - child[i] for i in range(r + 1, n) if parent[i] == r and names[i] == "trojan.step"]
            q = len(steps) // 4
            if q:
                head += sum(steps[:q])
                tail += sum(steps[-q:])
        m["trojan.step.tail_head_ratio"] = tail / head if head else 0.0

        for f in ("alter_validation", "stream_hit_rate", "partition", "evaluate_distributed_defense", "save_view"):
            m[f"defense.{f}.s"] = total.get(f"defense.{f}", 0.0)
        m["defense.evaluate_altered_defense.self_s"] = self_t.get("defense.evaluate_altered_defense", 0.0)
        m["weightfile.write_entries.s"] = total.get("weightfile.write_entries", 0.0)
        m["weightfile.bytes_written"] = self.counts["bytes_written"]
        m["cli.build_model.s"] = total.get("cli.build_model", 0.0)
        m["cli.build_datasets.s"] = total.get("cli.build_datasets", 0.0)

        m["trace.spans"] = n
        covered = sum(dur[i] for i in range(n) if parent[i] < 0)
        m["trace.untraced_s"] = sum(e - s for s, e in self.windows) - covered
        return m
