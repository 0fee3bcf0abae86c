"""Run-to-run spread of the end-to-end metrics over two sets of seeded runs.

    python3 perfbench/spread.py

Each set calls run.py once per seed and workload of BENCHMARK.json, for its
run_seconds, alternating the workloads (every workload on one seed, then the
next seed); set 1 uses seeds 1-10 and set 2 seeds 11-20.  For each set,
workload and metric it prints the median, the quartiles and the spread
(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles(values,
n=4)``, the share of failed operations, and set 2's median relative to set
1's, against the metric's bound in BENCHMARK.json.  Raw output goes to
perfbench/results/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


SETS = 2
SEEDS = 10  # per set


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    (HERE / "results").mkdir(exist_ok=True)
    log = HERE / "results" / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.jsonl"
    runs = {}  # (set, workload) -> list of result objects
    for s in range(SETS):
        for seed in range(s * SEEDS + 1, (s + 1) * SEEDS + 1):
            for w in workloads:
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, *spec["command"][1:], "--workload", w, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                took = time.monotonic() - t0
                runs.setdefault((s, w), []).append(result)
                with log.open("a") as fh:
                    fh.write(json.dumps({"set": s + 1, "workload": w, "seed": seed,
                                         "run_s": took, **result}) + "\n")
                print(f"set {s + 1} seed {seed:2d} {w:17s} {took:5.1f}s "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                      flush=True)

    print("\n| workload | metric | set | median | Q1 | Q3 | spread | vs set 1 | bound | failed |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for metric in bounds:
            first = None
            for s in range(SETS):
                rs = runs[(s, w)]
                values = [r["metrics"][metric]["value"] for r in rs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                first = med if first is None else first
                share = sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                print(f"| {w} | {metric} | {s + 1} | {med:.4f} | {q1:.4f} | {q3:.4f} | "
                      f"{(q3 - q1) / med:.3f} | {med / first - 1:+.3f} | {bounds[metric]} | "
                      f"{share:.4f} |")
    print(f"\nraw results: {log.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
