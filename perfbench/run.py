"""trojansim benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload lenet-readme --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Each run spawns fresh single-threaded worker processes, one at a time, each
in a new directory under ``.perfbench_runs/`` that is removed afterwards.
The package is imported from ``src/`` of the checkout this file sits in.

--trace 0  end-to-end metrics: set-up time (median of several fresh
           processes, as measured), per-iteration wall time and per-phase
           times over the iterations that fit in --seconds, each reported at
           the host's reference speed (see hostprobe.py; the human-readable
           lines also give them as measured), and peak RSS.
--trace 1  per-layer metrics: one untraced and one traced iteration, each
           in its own process; the traced one wraps every public trojansim
           function (see tracer.py).

Every run checks its outputs: SHA-256 digests against ``reference.json`` and
the paper's invariants (see workloads.py). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
from hostprobe import REFERENCE_UNIT_S  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import PHASES, VARIANTS, WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("profile_s", "s"),
    ("forge_s", "s"),
    ("attack_s", "s"),
    ("defend_s", "s"),
    ("peak_rss_mb", "MB"),
)
# a driven run must end within 180 s; workers still running then are killed
RUN_BUDGET_S = 170
# fresh processes timed from start until the workload is ready
SETUP_SAMPLES = 5


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(run_dir: Path, workload: str, variant: int, mode: str, seconds: float = 0.0, trace: int = 0,
          deadline: float | None = None):
    """Run one worker to completion in a fresh directory, killing it at
    ``deadline`` (a ``time.monotonic`` value).

    Returns (result dict, set-up seconds), or (None, None) when the worker
    failed; its log then goes to stderr.
    """
    workdir = Path(tempfile.mkdtemp(dir=run_dir))
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--variant", str(variant), "--mode", mode,
        "--seconds", str(seconds), "--trace", str(trace),
        "--src", str(SRC), "--result", str(result_path),
    ]
    with open(workdir / "worker.log", "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=worker_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=None if deadline is None else max(deadline - started, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0 or not result_path.exists():
        sys.stderr.write(f"worker {workload} {mode} failed ({code}):\n")
        sys.stderr.write((workdir / "worker.log").read_text(errors="replace")[-4000:])
        return None, None
    result = json.loads(result_path.read_text())
    return result, result["ready_at"] - started


def count_failures(results: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages). A failed check marks the last operation
    of the phase that wrote the checked output as failed."""
    attempted = failed = 0
    messages = []
    for result in results:
        ops = result["ops"]
        bad = {i for i, (_, _, err) in enumerate(ops) if err}
        messages += [f"{phase}: {name}: {err}" for phase, name, err in ops if err]
        checks = [tuple(f) for f in result["failures"]]
        if result["artifacts"]:
            for key in sorted(reference.keys() | result["artifacts"].keys()):
                if reference.get(key) != result["artifacts"].get(key):
                    checks.append((key.split(":")[0], f"digest of {key} differs from reference"))
        for phase, message in checks:
            messages.append(f"{phase}: {message}")
            in_phase = [i for i, op in enumerate(ops) if op[0] == phase]
            bad.add(in_phase[-1] if in_phase else len(ops) - 1)
        attempted += len(ops)
        failed += len({i for i in bad if i >= 0})
    return attempted, failed, messages


def spread_note(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond
    it, and the sample count."""
    n = len(samples)
    note = f"median {statistics.median(samples):.6g}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
            note += f"  p{p:g} {q:.6g}"
            break
    return f"{note}  n={n}"


def phase_samples(iterations: list[dict]) -> dict[str, list[float]]:
    samples = {"wall_s": [it["wall"] for it in iterations]}
    for phase in PHASES[:4]:
        samples[f"{phase}_s"] = [t for it in iterations for t in it["phases"].get(phase, [])]
    return samples


def summarize(samples: dict[str, list[float]]) -> dict[str, float]:
    """Medians, except a phase: its mean call time over the run's samples.
    The host's speed varies within a second, so the median of a few short
    calls jumps between its modes while the mean follows the share of time
    spent in each."""
    return {
        k: statistics.fmean(v) if k.removesuffix("_s") in PHASES else statistics.median(v)
        for k, v in samples.items()
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, run_dir: Path) -> dict:
    workload = WORKLOADS[name]
    variant = seed % VARIANTS
    reference = json.loads((HERE / "reference.json").read_text()).get(name, {}).get(str(variant), {})
    if not reference:
        raise SystemExit(f"no reference digests for {name} variant {variant}")
    samples: dict[str, list[float]] = {}
    results = []
    deadline = time.monotonic() + RUN_BUDGET_S
    metrics, measured, probe = {}, {}, None
    if trace:
        plain, _ = spawn(run_dir, name, variant, "once", deadline=deadline)
        traced, _ = spawn(run_dir, name, variant, "once", trace=1, deadline=deadline)
        results = [r for r in (plain, traced) if r is not None]
        if plain and traced and plain["iterations"] and traced["iterations"]:
            metrics = dict(traced["trace"])
            metrics["trace.overhead_s"] = traced["iterations"][0]["wall"] - plain["iterations"][0]["wall"]
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            result, setup_s = spawn(run_dir, name, variant, "setup", deadline=deadline)
            if result is None:
                break
            setups.append(setup_s)
        main = None
        if len(setups) == SETUP_SAMPLES - 1:
            main, setup_s = spawn(run_dir, name, variant, "run", seconds=seconds, deadline=deadline)
        if main is not None:
            results = [main]
            setups.append(setup_s)
            samples["setup_s"] = setups
            samples.update(phase_samples(main["iterations"]))
            samples["peak_rss_mb"] = [main["peak_rss_kb"] / 1024]
            if all(samples.values()):
                metrics = summarize(samples)
                measured = summarize(phase_samples(main["measured"]))
                probe = main["probe"]
    attempted, failed, messages = count_failures(results, reference)
    if not results:
        attempted, failed = max(attempted, 1), max(failed, 1)
    correct = bool(results) and failed == 0 and bool(metrics)
    return {
        "name": name, "variant": variant, "correct": correct, "attempted": attempted,
        "failed": failed, "messages": messages, "metrics": metrics, "samples": samples,
        "measured": measured, "probe": probe,
    }


def report(run: dict, units: dict) -> None:
    print(f"{run['name']} (input variant {run['variant']}): "
          f"{'correct' if run['correct'] else 'INCORRECT'}, "
          f"{run['attempted'] - run['failed']}/{run['attempted']} operations ok, "
          f"failed_ratio {run['failed'] / run['attempted']:.4g}")
    for message in run["messages"][:20]:
        print(f"  check failed: {message}")
    if run["probe"]:
        print(f"  host probe: {run['probe']['samples']} samples, median "
              f"{run['probe']['median_s'] * 1e3:.3f} ms (reference {REFERENCE_UNIT_S * 1e3:g} ms)")
    for key, value in run["metrics"].items():
        note = spread_note(run["samples"][key]) if key in run["samples"] else ""
        if key in run["measured"]:
            note += f"  measured {run['measured'][key]:.6g}"
        print(f"  {key:42s} {value:>14.6g} {units[key]:7s} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "trojansim" / "__init__.py").is_file():
        print(f"no trojansim package under {SRC}", file=sys.stderr)
        return 2

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in PER_LAYER}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=RUNS))
    try:
        runs = [run_workload(n, args.seed, args.seconds, args.trace, run_dir) for n in names]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    for run in runs:
        report(run, units)
    single = len(runs) == 1
    metrics = {
        (k if single else f"{run['name']}/{k}"): {"value": v, "unit": units[k]}
        for run in runs
        for k, v in run["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
