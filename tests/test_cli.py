"""End-to-end CLI runs: records, exit codes, config files, determinism."""

import gc
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralizers import extraction, farey, fixpoints
from centralizers import multitwist as mt
from centralizers.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_NONE_FOUND,
    EXIT_OK,
    SUBGROUP_NAMES,
    load_config_file,
    run,
)
from centralizers.errors import ParseError
from centralizers.groupfile import BUILTIN_NAMES
from test_golden_streams import EXHAUSTIVE_CAYLEY, GOLDEN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def records_of(stream):
    return [json.loads(line) for line in stream.splitlines()]


def test_ball_records():
    code, out, err = invoke(["ball", "--family", "F2", "--radius", "2"])
    assert code == EXIT_OK
    recs = records_of(out)
    assert recs[0]["record"] == "config"
    ball = next(r for r in recs if r["record"] == "ball")
    assert ball["vertices"] == 17
    assert ball["sphere_sizes"] == [1, 4, 12]
    assert "seed" in ball and "inputs" in ball
    assert "ball radius 2" in err


def test_records_have_sorted_keys():
    _, out, _ = invoke(["delta", "--family", "Z2*Z3", "--radius", "4"])
    for line in out.splitlines():
        rec = json.loads(line)
        assert list(rec) == sorted(rec)


def test_afp_certify():
    code, out, _ = invoke(
        ["afp", "--family", "F2xZ2", "--subgroup", "t", "--delta", "1/6",
         "--radius", "4", "--certify"]
    )
    assert code == EXIT_OK
    recs = records_of(out)
    afp = next(r for r in recs if r["record"] == "almost_fixed_set")
    assert afp["size"] > 0
    certs = [r for r in recs if r["record"] == "midpoint_certificate"]
    assert certs and all(not r["counterexamples"] for r in certs)


def test_extract_found_and_not_found():
    base = ["extract", "--family", "Z2*Z3", "--subgroup", "r", "--c0", "2",
            "--radius", "6"]
    code, out, _ = invoke(base + ["--threshold-a", "1"])
    assert code == EXIT_OK
    summary = next(r for r in records_of(out) if r["record"] == "extraction_summary")
    assert summary["nontrivial"] == 1 and summary["paths_agree"] is True

    code, _, err = invoke(base + ["--threshold-a", "0"])
    assert code == EXIT_NONE_FOUND
    assert "no extraction possible" in err


def test_invariant_failure_exits_5(monkeypatch):
    # the two refinement paths must agree; a path that loses an element is a
    # defect of the toolkit, reported as such and not as "none found"
    specialized = extraction._specialized_path

    def drop_one(ctx, subgroup, members):
        cls, pc = specialized(ctx, subgroup, members)
        return cls[1:], pc

    monkeypatch.setattr(extraction, "_specialized_path", drop_one)
    code, out, err = invoke(["extract", "--family", "Z2*Z3", "--subgroup", "r", "--c0", "2",
                             "--radius", "6", "--threshold-a", "1"])
    assert code == EXIT_INVARIANT and out == ""
    assert err.startswith("internal error:") and "disagree" in err
    assert "Traceback" not in err


def test_farey_subcommand():
    code, out, _ = invoke(["farey", "--depth", "4", "--subgroup-name", "S4"])
    assert code == EXIT_OK
    recs = records_of(out)
    kinds = [r["record"] for r in recs]
    assert {"farey_window", "delta_estimate", "almost_fixed_slopes",
            "orbit_diameter_profile"} <= set(kinds)
    window = next(r for r in recs if r["record"] == "farey_window")
    assert window["size"] == 32


def test_multitwist_subcommand(tmp_path):
    code, out, _ = invoke(["multitwist", "--builtin-action", "s3"])
    assert code == EXIT_OK
    rec = next(r for r in records_of(out) if r["record"] == "multitwist_verification")
    assert rec["multitwist_central"] and rec["characterization_holds"]

    action = tmp_path / "action.txt"
    action.write_text(
        "labels x y\nelements 1 g\ntable\n1 g\ng 1\nend\nperm g x->y y->x\n"
    )
    code, out, _ = invoke(["multitwist", "--action-file", str(action)])
    assert code == EXIT_OK


def test_error_exit_codes(tmp_path):
    assert invoke(["ball", "--family", "Nope"])[0] == EXIT_INPUT
    assert invoke(["ball", "--group-file", str(tmp_path / "missing")])[0] != EXIT_OK
    assert invoke(["afp", "--family", "F2", "--subgroup", "t", "--delta", "0"])[0] == EXIT_INPUT
    assert invoke(["ball", "--family", "F2", "--radius", "9", "--budget", "50"])[0] == EXIT_BUDGET
    assert invoke(["delta", "--family", "F2"] )[0] == EXIT_OK


@pytest.mark.parametrize("argv,message", [
    (["afp", "--family", "F2xZ2", "--subgroup", "t", "--radius", "2"],
     "one of --threshold-a / --delta is required"),
    # delta is 0 beside --threshold-a, and no vertex is moved by at most 0
    (["afp", "--family", "F2xZ2", "--subgroup", "t", "--threshold-a", "0", "--certify"],
     "--certify needs a nonempty member set"),
    (["multitwist"], "one of --action-file / --builtin-action is required"),
])
def test_missing_required_input_exits_2(argv, message):
    assert invoke(argv) == (EXIT_INPUT, "", f"input error: {message}\n")


def test_empty_delta_exits_2_beside_threshold_a():
    # an empty --delta beside --threshold-a used to run with delta 0
    base = ["afp", "--family", "F2xZ2", "--subgroup", "t", "--radius", "2"]
    for extra in (["--threshold-a", "1", "--delta="], ["--delta="]):
        code, _, err = invoke(base + extra)
        assert code == EXIT_INPUT
        assert "cannot parse rational ''" in err


def test_negative_sample_counts_exit_2():
    # a negative count used to scan 0 triangles and report delta >= 0, which
    # then set the farey almost-fixed threshold to 6 * 0
    for argv in (["farey", "--depth", "3", "--delta-mode", "sampled", "--delta-samples", "-5"],
                 ["delta", "--family", "F2", "--radius", "1", "--mode", "sampled",
                  "--samples", "-1"]):
        code, out, err = invoke(argv)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("input error: samples must be >= 0")


AFP_NEGATIVE_DELTA = ["afp", "--family", "F2", "--subgroup", "1", "--threshold-a", "0",
                      "--delta", "-1"]


@pytest.mark.parametrize("argv", [
    AFP_NEGATIVE_DELTA + ["--radius", "0"],
    AFP_NEGATIVE_DELTA + ["--radius", "0", "--certify"],
    AFP_NEGATIVE_DELTA + ["--radius", "1"],
    AFP_NEGATIVE_DELTA + ["--radius", "1", "--certify"],
    ["afp", "--family", "F2", "--subgroup", "1", "--delta=-1/6", "--radius", "1"],
    ["extract", "--family", "F2", "--subgroup", "1", "--threshold-a", "0", "--c0", "1",
     "--delta", "-1", "--radius", "0"],
    ["extract", "--family", "F2", "--subgroup", "1", "--threshold-a", "0", "--c0", "1",
     "--delta", "-1", "--radius", "1"],
])
def test_negative_delta_exits_2_at_every_radius(argv):
    # at radius 0 there is no far pair to certify, and `afp --certify` used
    # to exit 0 there while radius 1 exited 2
    assert invoke(argv) == (EXIT_INPUT, "", "input error: delta must be >= 0\n")


@pytest.mark.parametrize("argv", [
    ["extract", "--family", "F2", "--subgroup", "1", "--threshold-a", "0", "--c0", "1",
     "--radius", "0"],
    ["extract", "--family", "F2xZ2", "--subgroup", "t", "--threshold-a", "0", "--c0", "2",
     "--radius", "3"],
    ["extract", "--family", "F2xZ2", "--subgroup", "t", "--threshold-a", "1", "--c0", "2",
     "--radius", "3"],
])
def test_order_bound_0_exits_2_whatever_the_input(argv):
    # a singleton class and an empty set used to exit 1, as no order was
    # checked; only an input with certificates reached the bound's check
    assert invoke(argv + ["--order-bound", "0"]) == (
        EXIT_INPUT, "", "input error: order-check bound must be >= 1\n")


AFP_R2 = ["afp", "--family", "F2xZ2", "--subgroup", "t", "--radius", "2"]
EXTRACT_R2 = ["extract", "--family", "F2xZ2", "--subgroup", "t", "--c0", "2", "--radius", "2"]


@pytest.mark.parametrize("argv", [
    ["extract", "--family", "F2xZ2", "--subgroup", "t", "--threshold-a", "1", "--c0", "99999",
     "--radius", "2"],
    AFP_R2 + ["--threshold-a", "1e5000"],
    AFP_R2 + ["--threshold-a", "1e-5000"],
    AFP_R2 + ["--delta", "1e5000"],
    AFP_R2 + ["--delta", "1e-5000"],
    EXTRACT_R2 + ["--threshold-a", "1e5000"],
    EXTRACT_R2 + ["--threshold-a", "1", "--delta", "1e5000"],
    ["farey", "--depth", "2", "--threshold-a", "1e5000"],
])
def test_numbers_too_long_to_print_exit_2_or_3(argv):
    # each used to raise Python's int-to-str digit limit as a traceback, exit 1
    code, out, err = invoke(argv)
    assert code in (EXIT_INPUT, EXIT_BUDGET) and out == "" and "Traceback" not in err


# values argparse rejects for an int or a choice flag
ILL_TYPED = ["abc", "1.5", "", "0x3", "-", "--", "both"]


@st.composite
def delta_layer_argv(draw):
    """``delta`` and ``farey`` runs with small windows, either delta mode and
    sample counts that may be negative; now and then a flag value is ill-typed."""
    def value(options):
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(ILL_TYPED))
        return str(draw(options))

    counts = st.integers(-5, 60)
    modes = st.sampled_from(["exhaustive", "sampled"])
    if draw(st.booleans()):
        argv = ["delta", "--family", draw(st.sampled_from(BUILTIN_NAMES)),
                "--radius", value(st.integers(-1, 3)), "--mode", value(modes),
                "--samples", value(counts)]
        if draw(st.booleans()):
            argv += ["--budget", value(st.integers(0, 50))]
    else:
        argv = ["farey", "--depth", value(st.integers(-1, 5)),
                "--subgroup-name", value(st.sampled_from(["S4", "ST6", "center2"])),
                "--delta-mode", value(modes), "--delta-samples", value(counts)]
        if draw(st.booleans()):
            argv += ["--delta-depth", value(st.integers(-1, 5))]
    return argv + ["--seed", value(st.integers(0, 3))]


@settings(max_examples=60, deadline=None)
@given(delta_layer_argv())
def test_delta_layer_exits_with_documented_codes(argv):
    code, out, err = invoke(argv)
    assert code in (EXIT_OK, EXIT_NONE_FOUND, EXIT_INPUT, EXIT_BUDGET, EXIT_INVARIANT)
    assert "Traceback" not in err
    assert (out == "") == (code != EXIT_OK)
    if any(v in ILL_TYPED for v in argv[2::2]):  # every flag value
        assert code == EXIT_INPUT and ": error: argument --" in err


def test_ill_typed_flag_value_exits_2_with_usage_on_given_stderr(capsys):
    # argparse's own message goes to the stream given to ``run``, not to sys.stderr
    code, out, err = invoke(["delta", "--family", "F2", "--radius", "abc"])
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("usage: centralizers delta")
    assert err.endswith("centralizers delta: error: argument --radius: invalid int value: 'abc'\n")
    assert capsys.readouterr() == ("", "")
    code, _, err = invoke(["nope"])
    assert code == EXIT_INPUT and "invalid choice: 'nope'" in err


def test_out_file_and_summary_split(tmp_path):
    out_path = tmp_path / "report.jsonl"
    code, out, err = invoke(
        ["ball", "--family", "F2", "--radius", "2", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    assert "ball radius 2" in out  # summary goes to stdout when --out is set
    recs = records_of(out_path.read_text())
    assert recs[-1]["record"] == "ball"


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = Z2*Z3\nradius = 5\nmode = sampled\nsamples = 200\nseed = 7\n")
    argv = ["delta", "--config", str(cfg)]
    code, out, _ = invoke(argv)
    assert code == EXIT_OK
    rec = records_of(out)[0]["config"]
    assert rec["radius"] == 5 and rec["seed"] == 7 and rec["mode"] == "sampled"
    # explicit flag wins over the config value
    _, out2, _ = invoke(argv + ["--radius", "3"])
    assert records_of(out2)[0]["config"]["radius"] == 3
    # so does an abbreviated one, which argparse expands
    _, out3, _ = invoke(argv + ["--rad", "2"])
    assert records_of(out3)[0]["config"]["radius"] == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("radius: 5\n")
    assert invoke(["delta", "--family", "F2", "--config", str(bad)])[0] == EXIT_INPUT
    bad.write_text("no_such_key = 1\n")
    assert invoke(["delta", "--family", "F2", "--config", str(bad)])[0] == EXIT_INPUT
    # values go through each flag's own converter; a bad one is an input error
    bad.write_text("radius = abc\n")
    code, _, err = invoke(["delta", "--family", "F2", "--config", str(bad)])
    assert code == EXIT_INPUT and "Traceback" not in err
    bad.write_text("certify = maybe\n")
    code, _, err = invoke(["afp", "--family", "F2xZ2", "--subgroup", "t", "--delta", "1/6",
                           "--config", str(bad)])
    assert code == EXIT_INPUT and "Traceback" not in err
    # help and config are dests of the parser, not options a config file sets
    for line in ("help = x\n", f"config = {cfg}\n"):
        bad.write_text(line)
        code, out, _ = invoke(["ball", "--family", "F2", "--radius", "1", "--config", str(bad)])
        assert code == EXIT_INPUT and out == ""


def test_load_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nradius = 4   # trailing\n\nthreshold-a = 1\n")
    assert load_config_file(str(cfg)) == {"radius": "4", "threshold_a": "1"}


@pytest.mark.parametrize("second", ["radius = 5", "threshold_a = 2"])
def test_repeated_config_key_exits_2(tmp_path, second):
    # the second spelling collides with threshold-a once '-' reads as '_'
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"radius = 3\nthreshold-a = 1\n{second}\nfamily = F2\n")
    key = second.split()[0]
    with pytest.raises(ParseError, match=f"^line 3: duplicate key '{key}'$"):
        load_config_file(str(cfg))
    code, out, err = invoke(["ball", "--config", str(cfg)])
    assert (code, out, err) == (EXIT_INPUT, "", f"parse error: line 3: duplicate key '{key}'\n")


def test_config_keys_naming_one_flag_exit_2(tmp_path):
    # argparse expands an abbreviated key as it does a typed flag: 'radiu'
    # names --radius, so the last of the two would win unseen
    cfg = tmp_path / "c.cfg"
    for first, second, flag in (("radius", "radiu", "radius"), ("rad", "radius", "radius"),
                                ("threshold_a", "thr", "threshold-a")):
        cfg.write_text(f"family = F2xZ2\nsubgroup = t\n{first} = 1\n{second} = 2\n")
        code, out, err = invoke(["afp", "--config", str(cfg)])
        assert (code, out, err) == (
            EXIT_INPUT, "", f"parse error: keys {first!r} and {second!r} both name --{flag}\n")
    # an abbreviated key alone sets its flag, and a typed flag still wins
    cfg.write_text("family = F2\nrad = 2\n")
    for typed, radius in (([], 2), (["--radius", "1"], 1)):
        out = invoke(["ball", "--config", str(cfg), *typed])[1]
        assert records_of(out)[0]["config"]["radius"] == radius


def test_subgroup_name_choices_are_the_farey_subgroups():
    assert SUBGROUP_NAMES == tuple(farey.SUBGROUP_GENERATORS)


def test_identical_runs_are_byte_identical():
    argv = ["delta", "--family", "Z2*Z3", "--radius", "5", "--mode", "sampled",
            "--samples", "300", "--seed", "11"]
    assert invoke(argv)[1] == invoke(argv)[1]


def test_successful_runs_leave_no_cyclic_garbage():
    # the parsers are built once a process, by the first call: each build
    # leaves objects in reference cycles (about 455), which a memory probe
    # counted or not as the collector happened to run
    argv = ["ball", "--family", "F2", "--radius", "2"]
    invoke(argv)
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert invoke(argv)[0] == EXIT_OK
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_config_file_supplies_required_flags(tmp_path):
    cfg = tmp_path / "extract.cfg"
    cfg.write_text("family = Z2*Z3\nsubgroup = r\nthreshold-a = 1\nc0 = 2\nradius = 6\n")
    code, out, _ = invoke(["extract", "--config", str(cfg)])
    assert code == EXIT_OK
    assert out == invoke(["extract", "--family", "Z2*Z3", "--subgroup", "r",
                          "--threshold-a", "1", "--c0", "2", "--radius", "6"])[1]
    # a bare --config gets the subcommand's own usage error
    code, _, err = invoke(["extract", "--config"])
    assert code == EXIT_INPUT
    assert err.startswith("usage: centralizers extract")
    assert err.endswith("error: argument --config: expected one argument\n")


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = invoke(["delta", "--help"])
    assert code == EXIT_OK and err == ""
    assert out.startswith("usage: centralizers delta") and "--samples" in out
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [
    ["ball", "--family", "F2", "--config", "{}"],
    ["ball", "--group-file", "{}"],
    ["multitwist", "--action-file", "{}"],
])
def test_undecodable_input_file_exits_2_naming_it(tmp_path, argv):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfef\x00a\x00m\x00")
    code, out, err = invoke([a.format(path) for a in argv])
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"input error: {path}: not UTF-8 text")


@pytest.mark.parametrize("text,argv,symbol", [
    # a letter named 1 printed like the identity: two certificates for "1"
    ("family finite\nelements e 1\ntable\ne 1\n1 e\nend\n",
     ["extract", "--subgroup", "1", "--threshold-a", "1", "--c0", "2", "--radius", "2"], "1"),
    # a letter a*b printed like the product a*b, and --subgroup a*b failed
    ("family free\ngenerators a*b c\n", ["ball", "--radius", "2"], "a*b"),
])
def test_letters_the_word_syntax_cannot_spell_exit_2(tmp_path, text, argv, symbol):
    path = tmp_path / "group.txt"
    path.write_text(text)
    code, out, err = invoke(argv + ["--group-file", str(path)])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"parse error: symbol {symbol!r} cannot be spelled in a word\n"


def test_unwritable_out_exits_2(tmp_path):
    for argv in (["ball", "--family", "F2", "--radius", "1",
                  "--out", str(tmp_path / "missing" / "x")],
                 ["farey", "--depth", "3", "--out", str(tmp_path)]):
        code, out, err = invoke(argv)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("file error: ") and "Traceback" not in err


def test_nul_byte_in_config_exits_2(tmp_path):
    # a path with a NUL byte makes open() raise ValueError
    cfg = tmp_path / "nul.cfg"
    cfg.write_text("out = a\x00b\n")
    code, out, err = invoke(["ball", "--family", "F2", "--radius", "1", "--config", str(cfg)])
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("parse error: line 1: ")


def test_farey_window_budget_exits_3_before_the_build(monkeypatch):
    monkeypatch.setattr(farey, "WINDOW_SLOPE_BUDGET", 63)  # depth 4: 32 slopes, 5: 64
    assert invoke(["farey", "--depth", "4"])[0] == EXIT_OK
    for argv in (["farey", "--depth", "5"], ["farey", "--depth", "4", "--delta-depth", "5"]):
        code, out, err = invoke(argv)
        assert code == EXIT_BUDGET and out == ""
        assert err == "budget error: a depth-5 window has 2^6 slopes, over the 63-slope budget\n"


def test_certify_pair_budget_exits_3(monkeypatch):
    argv = ["afp", "--family", "F2xZ2", "--subgroup", "t", "--delta", "1/6",
            "--radius", "4", "--certify"]  # 36 far pairs
    monkeypatch.setattr(fixpoints, "CERTIFY_PAIR_BUDGET", 36)
    assert invoke(argv)[0] == EXIT_OK
    monkeypatch.setattr(fixpoints, "CERTIFY_PAIR_BUDGET", 35)
    code, out, err = invoke(argv)
    assert code == EXIT_BUDGET and out == ""
    assert err == "budget error: far-pair budget 35 exceeded\n"


def test_multitwist_vector_budget_exits_3_before_the_walk(tmp_path, monkeypatch):
    # Z2 swapping two of nine curves: 5^9 vectors, over the 5^8 budget
    labels = [f"c{i}" for i in range(9)]
    action = tmp_path / "action.txt"
    action.write_text(f"labels {' '.join(labels)}\nelements 1 g\ntable\n1 g\ng 1\nend\n"
                      "perm g c0->c1 c1->c0\n")

    def walked(_action):
        raise AssertionError("the budget is checked before any vector")

    monkeypatch.setattr(mt, "build_T", walked)
    code, out, err = invoke(["multitwist", "--action-file", str(action)])
    assert code == EXIT_BUDGET and out == ""
    assert err == "budget error: 1953125 exponent vectors exceed the budget of 390625\n"


def run_python(code, *args, **env):
    """``python -c code *args`` in a fresh interpreter, with ``src`` first on
    its path and no bytecode written, its output captured as text."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                 PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
                 **env),
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs RLIMIT_AS as Linux enforces it")
def test_running_out_of_memory_exits_3():
    # a ball of F1 holds words of every length up to R, R^2 letters in all:
    # far more than 256 MiB of address space, limited in the child alone
    done = run_python("import resource, sys\n"
                      "from centralizers.cli import main\n"
                      "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
                      "main()", "ball", "--family", "F1", "--radius", "100000")
    assert (done.returncode, done.stdout) == (EXIT_BUDGET, "")
    assert done.stderr == "budget error: out of memory\n"


# a call's tracemalloc peak in a fresh interpreter: the call is made once
# untraced first, and the traced one writes its report to the null device, so
# that only what a call holds counts, not a first call's lazy imports, a copy
# of its output or what the tests run before it left behind
PEAK_PROBE = """
import io, json, os, sys, tracemalloc
from centralizers.cli import run
argv = json.loads(sys.argv[1])
with open(os.devnull, "w", encoding="utf-8") as sink:
    first = run(argv, stdout=sink, stderr=io.StringIO())
    tracemalloc.start()
    code = run(argv, stdout=sink, stderr=io.StringIO())
    peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([first, code, peak]))
"""


def check_fresh_peak(argv, ceiling):
    """Assert that ``argv``'s tracemalloc peak, read by ``PEAK_PROBE``, is
    under ``ceiling`` and that both calls exit 0.  The peak is printed next to
    the ceiling, so ``pytest -rP`` shows the headroom of a passing probe."""
    done = run_python(PEAK_PROBE, json.dumps(argv))
    assert done.returncode == 0, done.stderr
    first, code, peak = json.loads(done.stdout)
    assert first == code == EXIT_OK
    print(f"{' '.join(argv)}: peak {peak:,} of {ceiling:,} bytes, {ceiling - peak:,} left")
    assert peak < ceiling, argv


def test_benchmark_extract_peak_memory():
    # each of the 2,914 certificates is held once: elements are tuples,
    # certificates are slotted, hold no commutation products and share one
    # report of an infinite order, and records are JSON lines from emit on;
    # the orbit table holds one small int or None per vertex.  The extract
    # ceiling is its highest peak on Python 3.10-3.13 (3,583,524 bytes) with
    # 10% headroom
    for argv, ceiling in (
            (["extract", "--family", "F2xZ2", "--subgroup", "t", "--threshold-a", "1",
              "--c0", "2", "--radius", "7"], 3_950_000),
            (["afp", "--family", "F2xZ2", "--subgroup", "t", "--delta", "1/6",
              "--radius", "6", "--certify"], 2_225_000)):
        check_fresh_peak(argv, ceiling)


@pytest.mark.parametrize("argv,ceiling", [
    (["farey", "--depth", "6"], 1_025_000),
    (["farey", "--depth", "8", "--delta-mode", "sampled", "--delta-samples", "5000"], 1_580_000),
])
def test_benchmark_farey_peak_memory(argv, ceiling):
    # the scans hold vertex sets as int bitsets: each vertex's spheres, the
    # columns of every target when exhaustive, the draw and its side index
    # when sampled, and the far rows toward one target at a time; each
    # ceiling is the peak of the int-bitset scans (936,170 and 1,442,340
    # bytes) with under 10% headroom
    check_fresh_peak(argv, ceiling)


# lines from which the fuzz draws group, action and config file texts
# (a multi-line entry is a whole valid file)
GROUP_LINES = ["family free", "family finite", "family free_product", "family direct_product",
               "family other", "generators a b", "generators", "factor", "elements 1 r",
               "elements 1 s s2", "elements", "table", "end", "1 r", "r 1", "1 s s2",
               "s s2 1", "s2 1 s", "r r", "# comment",
               "family free\ngenerators a", "family direct_product\ngenerators a\n"
               "elements 1 r\ntable\n1 r\nr 1\nend",
               "family free_product\nfactor\nelements 1 r\ntable\n1 r\nr 1\nend\n"
               "factor\nelements 1 s s2\ntable\n1 s s2\ns s2 1\ns2 1 s\nend"]
ACTION_LINES = ["labels x y", "labels x y z w", "labels", "elements 1 g", "elements 1 g g2",
                "table", "end", "1 g", "g 1", "1 g g2", "g g2 1", "g2 1 g",
                "perm g x->y y->x", "perm g x->y y->z z->x", "perm g2 x->z", "perm g x",
                "perm g x->y x->x",
                "perm", "# comment",
                "labels x y z w\nelements 1 g\ntable\n1 g\ng 1\nend\nperm g x->y y->x"]
CONFIG_KEYS = ["family", "group-file", "radius", "budget", "seed", "out", "mode", "samples",
               "subgroup", "delta", "threshold_a", "certify", "c0", "order-bound", "formula",
               "depth", "subgroup-name", "delta-mode", "delta-samples", "delta-depth",
               "action-file", "builtin-action", "rad", "help", "config", "nope", ""]
CONFIG_VALUES = ["0", "1", "2", "3", "-1", "abc", "", "true", "no", "maybe", "1/6", "t",
                 "r", "u,u*u", "F2", "F2xZ2", "Z2*Z3", "S4", "sampled", "surface", "s3",
                 "grp", "act", "cfg", "report", ".", "missing/x", "a\0b"]


def _file_contents(lines):
    """A definition file: lines drawn from a vocabulary, free text, or raw bytes."""
    text = st.one_of(st.lists(st.sampled_from(lines), max_size=12).map("\n".join),
                     st.text(max_size=40))
    return st.one_of(text.map(lambda t: t.encode("utf-8")), st.binary(max_size=24))


@st.composite
def cli_run_inputs(draw):
    """argv for any of the six subcommands, with small sizes, plus the contents
    of the ``grp``, ``act`` and ``cfg`` files it may name, in the working directory."""
    small = st.integers(-1, 3).map(str)
    command = draw(st.sampled_from(["ball", "delta", "afp", "extract", "farey", "multitwist"]))
    argv = [command]
    family = draw(st.sampled_from(BUILTIN_NAMES + ("Nope",)))
    if command in ("ball", "delta", "afp", "extract"):
        source = draw(st.sampled_from(["family"] * 3 + ["group-file", "both", "neither"]))
        if source in ("family", "both"):
            argv += ["--family", family]
        if source in ("group-file", "both"):
            argv += ["--group-file", "grp"]
        argv += ["--radius", draw(small), "--budget", str(draw(st.integers(0, 1000)))]
    if command == "delta":
        argv += ["--mode", draw(st.sampled_from(["exhaustive", "sampled"])),
                 "--samples", str(draw(st.integers(-1, 40)))]
    if command in ("afp", "extract"):
        subgroups = ["t", "u,u*u", "r", "s,s*s", "", "a", "r*s"]
        matching = {"F2xZ2": "t", "F2xZ3": "u,u*u", "Z2*Z2": "r", "Z2*Z3": "s,s*s"}
        argv += ["--subgroup", matching.get(family, "") if draw(st.booleans())
                 else draw(st.sampled_from(subgroups))]
        thresholds = st.sampled_from(["0", "1", "2", "1/2", "-1", "x", "1/0", "1e5000",
                                      "1e-5000"])
        if command == "extract" or draw(st.booleans()):
            argv += ["--threshold-a", draw(thresholds)]
        if draw(st.booleans()):
            argv += ["--delta", draw(st.sampled_from(["0", "1/6", "1", "-1/6", "y", "1e5000",
                                                      "1e-5000"]))]
    if command == "afp" and draw(st.booleans()):
        argv += ["--certify"]
    if command == "extract":
        argv += ["--c0", str(draw(st.integers(0, 3) | st.just(99999))),
                 "--order-bound", str(draw(st.integers(0, 10**6))),
                 "--formula", draw(st.sampled_from(["cayley", "surface"]))]
    if command == "farey":
        argv += ["--depth", draw(small),
                 "--subgroup-name", draw(st.sampled_from(["S4", "ST6", "center2"])),
                 "--delta-mode", draw(st.sampled_from(["exhaustive", "sampled"])),
                 "--delta-samples", str(draw(st.integers(-1, 40)))]
        if draw(st.booleans()):
            argv += ["--delta-depth", draw(small)]
        if draw(st.booleans()):
            argv += ["--threshold-a", draw(st.sampled_from(["0", "1", "5/2", "z", "1e5000"]))]
    if command == "multitwist":
        source = draw(st.sampled_from(["file", "builtin", "neither"]))
        if source == "file":
            argv += ["--action-file", "act"]
        elif source == "builtin":
            argv += ["--builtin-action", draw(st.sampled_from(["z3-cycle", "s3", "swap"]))]
    if draw(st.integers(0, 2)) == 0:
        argv += ["--config", "cfg"]
    out = draw(st.sampled_from([None] * 3 + ["report.jsonl", "missing/report.jsonl", "."]))
    if out is not None:
        argv += ["--out", out]
    argv += ["--seed", draw(small)]
    config = st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES)),
                      max_size=4)
    files = {
        "grp": draw(_file_contents(GROUP_LINES)),
        "act": draw(_file_contents(ACTION_LINES)),
        "cfg": draw(st.one_of(
            config.map(lambda kv: "".join(f"{k} = {v}\n" for k, v in kv).encode("utf-8")),
            _file_contents(CONFIG_KEYS))),
    }
    return argv, files


@settings(max_examples=150, deadline=None)
@given(cli_run_inputs())
def test_every_subcommand_exits_with_documented_codes(inputs):
    argv, files = inputs
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # where the files live, and where a config's `out` lands
        try:
            for name, data in files.items():
                with open(name, "wb") as fh:
                    fh.write(data)
            code, out, err = invoke(argv)
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_NONE_FOUND, EXIT_INPUT, EXIT_BUDGET, EXIT_INVARIANT)
    assert "Traceback" not in err
    if code not in (EXIT_OK, EXIT_NONE_FOUND):
        assert out == ""


README_CALLS = {
    "ball": ["ball", "--family", "F2", "--radius", "4"],
    "extract": ["extract", "--family", "F2xZ3", "--subgroup", "u,u*u", "--threshold-a", "1",
                "--c0", "3", "--radius", "8"],
    "afp": ["afp", "--family", "F2xZ2", "--subgroup", "t", "--delta", "1/6", "--radius", "4",
            "--certify"],
    "multitwist": ["multitwist", "--builtin-action", "s3"],
    "delta": ["delta", "--family", "Z2*Z3", "--radius", "6"],
    "farey": ["farey", "--depth", "6", "--subgroup-name", "S4"],
}
CALLS = {**README_CALLS, "sampled delta": GOLDEN[0][0]}
GOLDEN_DIGESTS = {tuple(argv): [out, err] for argv, out, err in GOLDEN + EXHAUSTIVE_CAYLEY}

# one CLI call in a fresh interpreter: its exit code, the sha256 digests of
# its stdout and stderr, and the package's modules loaded by the import and
# those added by the call
CALL_PROBE = """
import hashlib, io, json, sys
import centralizers.cli as cli
def loaded():
    return {m for m in sys.modules if m.startswith("centralizers.")}
imported = loaded()
out, err = io.StringIO(), io.StringIO()
code = cli.run(json.loads(sys.argv[1]), stdout=out, stderr=err)
added = loaded() - imported
print(json.dumps([code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)),
                  sorted(imported), sorted(added)]))
"""

CLI_MODULES = ["centralizers." + name for name in
               ("cli", "errors", "extraction", "fixpoints", "graphs", "groupfile", "groups")]


@pytest.mark.parametrize("name,added", [
    ("ball", []),
    ("afp", []),
    ("extract", []),
    ("delta", ["deltascan"]),
    ("farey", ["deltascan", "farey"]),
    ("multitwist", ["multitwist"]),
    ("sampled delta", ["deltascan"]),
])
def test_each_subcommand_loads_only_what_it_runs(name, added):
    done = run_python(CALL_PROBE, json.dumps(CALLS[name]))
    assert done.returncode == 0, done.stderr
    code, *digests, imported, loaded = json.loads(done.stdout)
    assert (code, imported, loaded) == (EXIT_OK, CLI_MODULES,
                                        ["centralizers." + m for m in added])
    if name not in ("ball", "multitwist"):  # the five with golden digests
        assert digests == GOLDEN_DIGESTS[tuple(CALLS[name])]


def test_readme_library_example_runs():
    # the README's "Library example" block, as a reader would paste it
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    done = run_python(block.split("```", 1)[0])
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 3


def test_closure_error_names_one_pair_under_every_hash_seed():
    # {1, a, b} in F2: the first pair in canonical word order with its
    # product outside the set is (a, a), whatever order the set iterates in
    argv = ["afp", "--family", "F2", "--subgroup", "a,b", "--threshold-a", "1", "--radius", "2"]
    runs = set()
    for seed in range(6):
        done = run_python("from centralizers.cli import main; main()", *argv,
                          PYTHONHASHSEED=str(seed))
        runs.add((done.returncode, done.stdout, done.stderr))
    assert runs == {(EXIT_INPUT, "", "input error: not closed: a * a = a*a is missing "
                                     "from the set\n")}
