"""Record the reference digests every benchmark run is checked against.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload once per input variant at the current commit, requires
every operation and invariant to pass, and writes the SHA-256 digest of
every output to ``reference.json``. Recording is only correct on a commit
whose outputs are known to be right; the checked-in file was recorded on the
commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import HERE, RUNS, spawn
from workloads import VARIANTS, WORKLOADS


def main(names: list[str]) -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    RUNS.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=RUNS)
    try:
        for name in names or list(WORKLOADS):
            digests = {}
            for variant in range(VARIANTS):
                result, _ = spawn(run_dir, name, variant, "once")
                if result is None:
                    return 1
                errors = [e for _, _, e in result["ops"] if e] + [m for _, m in result["failures"]]
                if errors:
                    print(f"{name} variant {variant}: {errors}", file=sys.stderr)
                    return 1
                digests[str(variant)] = result["artifacts"]
                print(f"{name} variant {variant}: {len(result['artifacts'])} outputs", flush=True)
            reference[name] = digests
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
