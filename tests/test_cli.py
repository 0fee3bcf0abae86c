"""End-to-end CLI runs: records, exit codes, config files, determinism."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralizers import extraction
from centralizers.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_NONE_FOUND,
    EXIT_OK,
    load_config_file,
    run,
)
from centralizers.groupfile import BUILTIN_NAMES


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


def test_negative_sample_counts_exit_2():
    # a negative count used to scan 0 triangles and report delta >= 0, which
    # then set the farey almost-fixed threshold to 6 * 0
    for argv in (["farey", "--depth", "3", "--delta-mode", "sampled", "--delta-samples", "-5"],
                 ["delta", "--family", "F2", "--radius", "1", "--mode", "sampled",
                  "--samples", "-1"]):
        code, out, err = invoke(argv)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("input error: samples must be >= 0")


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


def test_identical_runs_are_byte_identical():
    argv = ["delta", "--family", "Z2*Z3", "--radius", "5", "--mode", "sampled",
            "--samples", "300", "--seed", "11"]
    assert invoke(argv)[1] == invoke(argv)[1]
