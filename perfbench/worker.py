"""One benchmark process: set up one workload, run it, write the result.

Started by ``run.py`` in a fresh directory, which is the working directory of
every phase. Modes:

  setup  set up, record when the workload was ready, exit
  run    set up, then run whole iterations, each with its extra samples of
         short phases, while the next still fits in ``--seconds``
  once   set up, then run the phases once (traced runs, references)

The result is one JSON file. In ``run`` mode each timed call is reported at
the host's reference speed (see hostprobe.py) and also as it was measured;
in the other modes as measured, in host seconds from ``time.perf_counter``.
``ready_at`` is ``time.monotonic`` so that the parent can subtract the moment
it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from hostprobe import HostProbe


def run_phase(phase, phase_ops, ctx, ops) -> tuple[float, float] | None:
    """Run one phase's operations; when they started and ended, or None
    when one failed."""
    t0 = time.perf_counter()
    for op in phase_ops:
        try:
            op.run(ctx)
        except Exception as e:  # a failed operation is a result, not a crash
            ops.append([phase, op.name, f"{type(e).__name__}: {e}"])
            traceback.print_exc()
            return None
        ops.append([phase, op.name, None])
    return t0, time.perf_counter()


def run_iteration(workload, ctx, tracer, extra_samples: bool) -> tuple[dict, list]:
    """Run every phase once, in order. With ``extra_samples``, phases the
    workload samples more than once are run again, spread over the slots
    after their own and later phases, so that a short phase is timed at
    several moments of the iteration rather than in one burst.

    Returns ({phase: [(start, end) per call]}, ops): the first call of each
    phase is the one in pipeline order; ops is a list of [phase, op name,
    error or None]. Stops at the first failed operation, since later phases
    read its outputs.
    """
    phases = workload.phases()
    slots: list[list] = [[] for _ in phases]
    for i, (phase, samples, phase_ops) in enumerate(phases if extra_samples else ()):
        for j in range(samples - 1):
            slots[i + (j + 1) * (len(phases) - i) // samples].append((phase, phase_ops))
    calls: dict[str, list] = {}
    ops: list = []
    t_start = time.perf_counter()
    for i, (phase, _, phase_ops) in enumerate(phases):
        if tracer is not None:
            tracer.current_phase = phase
        for name, run_ops in [(phase, phase_ops), *slots[i]]:
            span = run_phase(name, run_ops, ctx, ops)
            if span is None:
                return calls, ops
            calls.setdefault(name, []).append(span)
    if tracer is not None:
        tracer.windows.append((t_start, time.perf_counter()))
        tracer.current_phase = "checks"
    return calls, ops


def timed(calls: dict, seconds) -> dict:
    """{"wall": ..., "phases": {phase: [seconds per call]}} of one iteration,
    each call converted by ``seconds(start, end)``; wall is the sum of the
    first call of every phase, i.e. the time to result."""
    phases = {ph: [seconds(*span) for span in spans] for ph, spans in calls.items()}
    return {"wall": sum(times[0] for times in phases.values()), "phases": phases}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "once"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--src", required=True, help="the src/ directory trojansim must come from")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    import trojansim

    if not Path(trojansim.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"trojansim imported from {trojansim.__file__}, not {args.src}", file=sys.stderr)
        return 3

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path.cwd()
    tracer = macs = None
    setup_start = time.perf_counter()
    if args.trace:
        from trojansim import models
        from tracer import Tracer, layer_shapes

        by_shape, macs = layer_shapes(models.build_model(workload.model))
        tracer = Tracer(by_shape)
        tracer.install()
        setup_start = time.perf_counter()
    ctx = workload.setup(args.variant, workdir)
    ready_at = time.monotonic()
    result: dict = {"ready_at": ready_at}
    if tracer is not None:
        tracer.windows.append((setup_start, time.perf_counter()))
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    iterations, ops, digests, failures = [], [], None, []
    probe = HostProbe() if args.mode == "run" else None
    with probe or nullcontext():
        while True:
            if "saturations" in ctx:
                ctx["saturations"][0] = 0
            t0 = time.monotonic()
            calls, iter_ops = run_iteration(workload, ctx, tracer, args.mode == "run")
            ops += iter_ops
            if any(err for _, _, err in iter_ops):
                break
            iterations.append(calls)
            if tracer is not None:
                tracer.paused = True
            got = workload.artifacts(ctx)
            if digests is not None and got != digests:
                changed = sorted(k for k in got.keys() | digests.keys() if got.get(k) != digests.get(k))
                failures.append([changed[0].split(":")[0], f"rerun not byte-identical: {changed}"])
            digests = got
            now = time.monotonic()
            # start another iteration only if it is expected to end within --seconds
            if args.mode == "once" or (now - ready_at) + (now - t0) > args.seconds:
                break
    measured = [timed(calls, lambda t0, t1: t1 - t0) for calls in iterations]
    if probe is None:
        result["iterations"] = measured
    else:
        result["iterations"] = [timed(calls, probe.seconds) for calls in iterations]
        result["measured"] = measured
        result["probe"] = probe.summary()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if digests is not None:
        try:
            failures += [list(f) for f in workload.invariants(ctx)]
        except Exception as e:
            traceback.print_exc()
            failures.append(["report", f"invariant check raised {type(e).__name__}: {e}"])
    result.update(ops=ops, artifacts=digests or {}, failures=failures)
    if tracer is not None:
        result["trace"] = tracer.metrics(macs)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
