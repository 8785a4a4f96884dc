"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload lenet-readme --seeds 10 [--trace 1] [--out FILE]

For every metric: the median of the per-run values, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median. With ``--out``
the per-run values and the summary are appended to a JSON file, keyed by
workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10, help="runs, on seeds 0..N-1 plus --first")
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    runs = []
    for seed in range(args.first, args.first + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **line})
        values = {k: v["value"] for k, v in line["metrics"].items()}
        print(f"seed {seed}: correct={line['correct']} " + " ".join(f"{k}={v:.5g}" for k, v in values.items()
              if not args.trace), flush=True)
    names = list(runs[0]["metrics"])
    summary = {k: summarize([r["metrics"][k]["value"] for r in runs]) for k in names}
    for k, s in summary.items():
        print(f"{k:42s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        data.setdefault(args.workload, {})[f"trace{args.trace}"] = {"runs": runs, "summary": summary}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
