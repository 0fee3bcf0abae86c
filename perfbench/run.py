"""Benchmark of the centralizers CLI: two workloads, end to end and per layer.

    python3 perfbench/run.py --workload cayley --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py          # every workload in turn, untraced

A run measures whole rounds for about ``--seconds`` seconds.  A round is one
fresh single-threaded interpreter (child.py) that imports ``src/centralizers``
and makes the workload's CLI calls in order.  Each call's report is then
checked against independent recomputations (checks.py).  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics of tracer.py with
the tracing overhead.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread for the rounds and for the checks' numpy; set before any import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
DEFAULT_SEED = 1
SETUP_PROBES = 8  # extra interpreter start-ups per run, for a steadier setup_s
ROUND_TIMEOUT_S = 150

# Each workload joins calls dominated by different layers of one part of the
# toolkit, so that a run of run_seconds holds several rounds; the README says
# which layer dominates each call and why.
WORKLOADS = {
    "cayley": [
        ["extract", "--family", "F2xZ2", "--subgroup", "t", "--threshold-a", "1",
         "--c0", "2", "--radius", "7"],
        ["extract", "--family", "Z2*Z3", "--subgroup", "s,s*s", "--threshold-a", "1",
         "--c0", "3", "--radius", "16"],
        ["afp", "--family", "F2xZ2", "--subgroup", "t", "--delta", "1/6", "--radius", "6",
         "--certify"],
    ],
    "farey": [
        ["farey", "--depth", "6"],
        ["farey", "--depth", "8", "--delta-mode", "sampled", "--delta-samples", "5000"],
    ],
}


def spawn_round(calls: list, trace: bool) -> dict:
    """One round in a fresh interpreter.  Its calls' report streams come back
    through files in a scratch directory, read here and removed."""
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="streams-", dir=RESULTS) as streams:
        spec = json.dumps({"calls": calls, "streams": streams, "trace": trace})
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(spawned), str(ROOT), spec],
            capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"round process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout)
        paths = [Path(streams, f"{i}.jsonl") for i in range(len(calls))]
        result["calls"] = [{"argv": argv, "exit": code, "stream": path.read_text(encoding="utf-8")}
                           for argv, code, path in zip(calls, result.pop("exits"), paths)]
        if trace:
            result["trace"]["cli.report_bytes"] = sum(path.stat().st_size for path in paths)
    return result


def run_rounds(calls: list, seconds: float, trace: bool) -> list:
    """Whole rounds while the next one is expected to end within ``seconds``,
    judged by the mean round so far; at least two.  A traced run alternates
    untraced and traced rounds."""
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(spawn_round(calls, trace and len(rounds) % 2 == 1))
        elapsed = time.monotonic() - start
        if len(rounds) >= 2 and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def check_rounds(rounds: list) -> tuple[int, int, list]:
    """(attempted, failed, failures): every call and every check of every round.

    Checks are pure functions of (argv, exit code, stream), so a stream already
    checked in an earlier round of the run reuses that result."""
    from checks import check_call

    memo, attempted, failed, failures = {}, 0, 0, []
    for r in rounds:
        for call in r["calls"]:
            digest = hashlib.sha256(call["stream"].encode("utf-8")).hexdigest()
            key = (tuple(call["argv"]), str(call["exit"]), digest)
            if key not in memo:
                memo[key] = check_call(call["argv"], call["exit"], call["stream"])
            call_ok, results = memo[key]
            attempted += 1 + len(results)
            failed += (not call_ok) + sum(not ok for ok, _ in results.values())
            if not call_ok:
                failures.append(f"{' '.join(call['argv'])}: exit {call['exit']}")
            failures += [f"{' '.join(call['argv'])}: {name}: {detail}"
                         for name, (ok, detail) in results.items() if not ok]
    return attempted, failed, sorted(set(failures))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    calls = [argv + ["--seed", str(seed)] for argv in WORKLOADS[workload]]
    spawn_round([], False)  # warm-up: byte-compiles a fresh checkout, unmeasured
    probes = [spawn_round([], False)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = run_rounds(calls, seconds, trace)
    attempted, failed, failures = check_rounds(rounds)

    plain = [r for r in rounds if "trace" not in r]
    if trace:
        traced = [r["trace"] for r in rounds if "trace" in r]
        samples = {name: [t[name] for t in traced] for name in traced[0]}
        samples["trace.untraced_wall_s"] = [r["wall_s"] for r in plain]
    else:
        samples = {name: [r[name] for r in plain] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = probes + [r["setup_s"] for r in rounds]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    if trace:
        # medians of the traced and of the untraced rounds of this run
        metrics["trace.overhead_pct"] = 100 * (
            metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1)
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(metrics) != declared:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")

    RESULTS.mkdir(exist_ok=True)
    raw = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "rounds": [{k: v for k, v in r.items() if k != "calls"} | {
               "exits": [c["exit"] for c in r["calls"]]} for r in rounds],
           "setup_probes_s": probes, "attempted": attempted, "failed": failed,
           "failures": failures}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    (RESULTS / name).write_text(json.dumps(raw, indent=1))

    print(f"{workload}  seed {seed}  rounds {len(rounds)}"
          f"{' (alternately traced)' if trace else ''}  set-up probes {len(probes)}")
    for name in sorted(metrics):
        count = f"median of {len(samples[name])}" if name in samples else "derived"
        print(f"  {name:42s} {metrics[name]:14.6f} {UNITS[name]:6s} {count}")
    print(f"  attempted {attempted}  failed {failed}")
    for line in failures:
        print(f"  FAILED {line}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                        for name in sorted(metrics)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, one run each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="passed to every CLI call as --seed")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "centralizers" / "cli.py").is_file():
        print(f"no centralizers package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
