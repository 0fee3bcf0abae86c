"""The benchmark tracer still finds every package name it wraps.

``perfbench/tracer.py`` replaces module globals and class attributes of the
package when it installs; a name it reads that the package no longer has
fails here, in a small traced run of each kind of call it measures.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
import centralizers.cli as cli

traced = Tracer()
traced.install()
calls = [
    ["farey", "--depth", "3"],
    ["delta", "--family", "F2", "--radius", "2"],
    ["afp", "--family", "F2xZ2", "--subgroup", "t", "--delta", "1/6", "--radius", "4",
     "--certify"],
    ["extract", "--family", "Z2*Z3", "--subgroup", "r", "--threshold-a", "1", "--c0", "2",
     "--radius", "6"],
]
exits = [cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) for argv in calls]
print(json.dumps({"exits": exits, "trace": traced.summary(1.0)}))
"""


def test_tracer_installs_and_counts_every_layer():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["exits"] == [0, 0, 0, 0]
    trace = result["trace"]
    # graphs.bfs_calls counts the far_pairs rows of the afp --certify call
    for name in ("fixpoints.midpoint_calls", "farey.window_size", "groups.multiply_calls",
                 "graphs.bfs_calls"):
        assert trace[name] > 0, name
