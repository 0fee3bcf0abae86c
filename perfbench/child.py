"""One benchmark round in a fresh interpreter.

    python3 child.py <spawn time> <checkout root> <spec JSON>

The spawn time is the parent's ``time.monotonic()`` just before it started
this process (the clock is shared by all processes of the machine).  The spec
holds the CLI argv lists to run, the directory for their report streams and
whether to trace.  The round imports the checkout's ``src/centralizers``,
calls ``centralizers.cli.run`` once per argv with its report written to the
file ``<streams>/<call index>.jsonl``, as the CLI would write to a redirected
stdout, and prints one JSON object: its set-up, wall and CPU times, its peak
resident memory and each call's exit code.  No report is kept in memory, so
the peak is the program's and not the harness's.
"""

import io
import json
import os
import sys
import time


def peak_rss_mb() -> float:
    # VmHWM belongs to this process image; ru_maxrss can carry the memory of
    # the parent it was forked from
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    spawned, root, spec = float(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, os.path.join(root, "src"))
    import centralizers.cli as cli

    setup_s = time.monotonic() - spawned
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    exits = []
    for i, argv in enumerate(spec["calls"]):
        with open(os.path.join(spec["streams"], f"{i}.jsonl"), "w", encoding="utf-8") as out:
            try:
                code = cli.run(argv, stdout=out, stderr=io.StringIO())
            except SystemExit as exc:  # argparse rejected the argv: a failed call
                code = exc.code if isinstance(exc.code, int) else str(exc.code)
            except Exception as exc:  # a traceback is a failed call: report it, go on
                code = f"{type(exc).__name__}: {exc}"
        exits.append(code)
    wall_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu_start

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb(), "exits": exits}
    if tracer is not None:
        result["trace"] = tracer.summary(wall_s)
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
