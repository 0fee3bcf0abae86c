"""Self-test of checks.py: every check passes on a true report and fails on a
report corrupted where that check looks.

    python3 perfbench/selftest.py

The reports come from small versions of the benchmark's CLI calls, run in this
process against the checkout's ``src/``.  Exit status 0 means every check
passed its true report and caught its corruption.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import centralizers.cli as cli  # noqa: E402
import run  # noqa: E402
from checks import check_call  # noqa: E402


def first(records, kind):
    return next(r for r in records if r["record"] == kind)


def every(records, kind):
    return [r for r in records if r["record"] == kind]


def drop_member(rec):
    rec["members"].pop()
    rec["size"] -= 1


def set_cert(records, element, provenance):
    cert = every(records, "centralizer_certificate")[-1]
    cert["element"], cert["provenance"] = element, provenance


def keep_two_certificates(records):
    for cert in every(records, "centralizer_certificate")[2:]:
        records.remove(cert)


def move_to_counterexamples(records):
    cert = next(c for c in every(records, "midpoint_certificate") if c["certified"])
    cert["counterexamples"].append(cert["certified"].pop())


def endpoint_as_midpoint(records):
    cert = next(c for c in every(records, "midpoint_certificate") if c["certified"])
    cert["certified"][0][0] = cert["endpoints"][0]


def bump_row(records, field):
    first(records, "orbit_diameter_profile")["rows"][0][field] += 1


def add(kind, field, amount):
    def corrupt(records):
        first(records, kind)[field] += amount
    return corrupt


def put(kind, field, value):
    def corrupt(records):
        first(records, kind)[field] = value
    return corrupt


FAREY = {
    "window": add("farey_window", "size", 1),
    "triangles": add("delta_estimate", "triangles", -1),
    "delta_witness": add("delta_estimate", "delta", 1),
    "almost_fixed_slopes": lambda r: drop_member(first(r, "almost_fixed_slopes")),
    "orbit_profile": lambda r: bump_row(r, "max_orbit_diameter"),
    "profile_counts": lambda r: bump_row(r, "count"),
}

# (small CLI call, {check name: corruption of its report})
CASES = [
    ("extract --family F2xZ2 --subgroup t --threshold-a 1 --c0 2 --radius 5", {
        "constants_N": add("constants", "N", 1),
        "C2_is_one_ball": put("constants", "C2", 5),
        "almost_fixed_set": lambda r: drop_member(first(r, "almost_fixed_set")),
        "certificate_elements": lambda r: set_cert(
            r, "a*b", every(r, "centralizer_certificate")[-1]["provenance"]),
        "certificate_commutation": lambda r: every(
            r, "centralizer_certificate")[0].update(verified=False),
        "threshold_reached_true": put("extraction_summary", "threshold_reached", False),
        "nontrivial_certificates": keep_two_certificates,
    }),
    ("extract --family Z2*Z3 --subgroup s,s*s --threshold-a 1 --c0 3 --radius 8", {
        "constants_N": put("constants", "D", "325"),
        "C2_is_one_ball": put("constants", "C1", 2),
        "almost_fixed_set": put("almost_fixed_set", "excluded_window_invalid", 0),
        "certificate_elements": lambda r: set_cert(r, "s*r", ["1", "s"]),
        "certificate_commutation": lambda r: set_cert(
            r, "r", ["1", every(r, "centralizer_certificate")[-1]["provenance"][1]]),
        "threshold_reached_false": put("extraction_summary", "threshold_reached", True),
        "afp_is_subgroup": lambda r: first(r, "almost_fixed_set").update(members=[0, 1, 2]),
        "certificates_in_subgroup": lambda r: set_cert(r, "r*s*r", ["r*s2*r", "r*s*s2*r"]),
    }),
    ("afp --family F2xZ2 --subgroup t --delta 1/6 --radius 5 --certify", {
        "almost_fixed_set": add("almost_fixed_set", "excluded_window_invalid", 1),
        "far_pairs": lambda r: r.remove(every(r, "midpoint_certificate")[-1]),
        "no_counterexamples": move_to_counterexamples,
        "certified_on_geodesic": endpoint_as_midpoint,
    }),
    ("farey --depth 4", FAREY),
    ("farey --depth 5 --delta-mode sampled --delta-samples 300", FAREY),
]


def main() -> int:
    problems = 0
    for command, corruptions in CASES:
        argv = command.split() + ["--seed", "3"]
        out = io.StringIO()
        code = cli.run(argv, stdout=out, stderr=io.StringIO())
        stream = out.getvalue()
        call_ok, results = check_call(argv, code, stream)
        bad = [name for name, (ok, _) in results.items() if not ok]
        print(f"{command}: true report {'passes' if call_ok and not bad else 'FAILS ' + str(bad)}")
        problems += (not call_ok) + len(bad)
        if set(corruptions) != set(results):
            missing = sorted(set(results) - set(corruptions))
            print(f"  corruptions do not cover the checks {missing}")
            problems += 1
        records = [json.loads(line) for line in stream.splitlines()]
        for name, corrupt in corruptions.items():
            broken = copy.deepcopy(records)
            corrupt(broken)
            text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in broken)
            caught = not check_call(argv, code, text)[1][name][0]
            print(f"  {name:26s} {'caught' if caught else 'MISSED'}")
            problems += not caught
        for what, (exit_code, text) in {"nonzero exit": (1, stream),
                                     "line not an object": (code, stream + "[1, 2]\n")}.items():
            call_caught = not check_call(argv, exit_code, text)[0]
            print(f"  {what:26s} {'caught' if call_caught else 'MISSED'}")
            problems += not call_caught
    # a flag the CLI rejects makes argparse exit; the round records a failed call
    argv = ["farey", "--no-such-flag"]
    call = run.spawn_round([argv], False)["calls"][0]
    rejected = call["exit"] != 0 and not check_call(argv, call["exit"], call["stream"])[0]
    print(f"rejected flag in a round: {'failed call' if rejected else 'MISSED'} (exit {call['exit']})")
    problems += not rejected
    print("selftest", "passed" if problems == 0 else f"FAILED ({problems} problems)")
    return 0 if problems == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
