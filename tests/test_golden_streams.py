"""Golden report streams: the sha256 of stdout and stderr of fixed CLI calls.

The calls are the four criterion-9 configurations, the README's
``afp ... --radius 4 --certify`` example, the README's exhaustive
``farey --depth 6`` example, the three calls of the benchmark's ``cayley``
workload at ``--seed 1``, the two calls of its ``farey`` workload at
``--seed 1`` and two exhaustive ``delta`` scans of Cayley balls.
A change that is meant to leave the reports alone must leave these digests
alone; a change that alters a stream on purpose updates its digest here and
says why in CHANGES.md.
"""

import hashlib
import io

import pytest

from centralizers.cli import run as cli_run

GOLDEN = [
    (["delta", "--family", "Z2*Z3", "--radius", "5", "--mode", "sampled",
      "--samples", "400", "--seed", "17"],
     "16101b3a7850e758ab868a248e6e85cd35195edb0f2021d9a9107bf19d5c1b65",
     "40fb5920c7fe5536e0d8c2112acfa364f0bce14009b2f2b24601607c0bf6ef09"),
    (["extract", "--family", "F2xZ2", "--subgroup", "t", "--threshold-a", "1",
      "--c0", "2", "--radius", "4", "--seed", "3"],
     "fddea04afaf4873b7ee7642372496363f1ddca00ef9aa9f99e1726a2f883c371",
     "b9fb94aaa027cce3ded23047adfc6fdbc15d2b45eef6b45ac8be3fd3a45f876b"),
    (["farey", "--depth", "5", "--subgroup-name", "ST6", "--seed", "5",
      "--delta-mode", "sampled", "--delta-samples", "500"],
     "109b0ee63cab10af99c90db4683e61336f0c494066aa43e92055f6ae2d1449ed",
     "b14441c1b62467b6b864603e39d1ec1e7b15c2ad77d8a8cb1d3da4aa0a128234"),
    (["afp", "--family", "F2xZ3", "--subgroup", "u,u*u", "--delta", "1/6",
      "--radius", "4", "--certify"],
     "70c0cb1c97dc9caf3d0a17cd5ea231f97de2d9c17dbc358a0a320fd52028ec18",
     "032c2a5b4c5cccd89c168a9f866e178b97e2ec1877a0169a859ad4a091b336df"),
    # README example: 36 far-apart pairs certified
    (["afp", "--family", "F2xZ2", "--subgroup", "t", "--delta", "1/6",
      "--radius", "4", "--certify"],
     "19847de9c862275a05d0358e1377a575cf6ccb3f6e4a3ebc2b2068d2a834a1d6",
     "fb8a09d2af69a7dae74d42e4514b27b6c0fbe8eff1ffa46a89e8d9a765092480"),
    # README example: every triangle of the 128-slope window
    (["farey", "--depth", "6", "--subgroup-name", "S4"],
     "349c56959c37389edc3f65e2bfdf98bbfd2ca4c954459a1f70c65bf4eeaef8b3",
     "3529b106dc0194b0822ee4db898596cd67844d8c8f5d7352a45452283f1548fc"),
]

# the benchmark's `cayley` workload at --seed 1; kept apart from GOLDEN so
# that the ids of both lists stay distinct
CAYLEY_WORKLOAD = [
    (["extract", "--family", "F2xZ2", "--subgroup", "t", "--threshold-a", "1",
      "--c0", "2", "--radius", "7", "--seed", "1"],
     "5bb270c338f5cbb5928232dd943e19f2e749addd42e13cfb149da6b3e8d8b0e7",
     "49edfba7c5adfa66f404932f2fcdb1e320f02fa84a478dca524ef6546f653a4a"),
    (["extract", "--family", "Z2*Z3", "--subgroup", "s,s*s", "--threshold-a", "1",
      "--c0", "3", "--radius", "16", "--seed", "1"],
     "191cb0db1e18d022a7aec60a65fe05ee55ef4a372587f2919159c59bb129b270",
     "9b253ec62ed476392ede97b30e216583bf33ddd95c64310ad0022d64688267cb"),
    (["afp", "--family", "F2xZ2", "--subgroup", "t", "--delta", "1/6",
      "--radius", "6", "--certify", "--seed", "1"],
     "3cb5be4b543f48a7ab83222e69034e3804de50c62436ccaca862a1d2df198398",
     "3d89074b2b5b308f6d6ebfec47bee41bd93df4881475cad2ca0eb2ae31965a5b"),
]


# the benchmark's `farey` workload at --seed 1: every triangle of the depth-6
# window, then 5,000 sampled triangles of the depth-8 one
FAREY_WORKLOAD = [
    (["farey", "--depth", "6", "--seed", "1"],
     "0163549afc4074f836004e9ced76a09c36a8673e13a4a5b279e9075043de1d2b",
     "3529b106dc0194b0822ee4db898596cd67844d8c8f5d7352a45452283f1548fc"),
    (["farey", "--depth", "8", "--delta-mode", "sampled", "--delta-samples", "5000",
      "--seed", "1"],
     "779ae0eae683ec01281e4355876669eacf461e9abbebe00e2f08104ad441fab7",
     "d768f4d29b40675406ff0fa5fceb3201eaca19b789734a6ce7d77d298126f18a"),
]


# the README's exhaustive `delta` example and the F2xZ2 ball of radius 3,
# whose 4-cycles make delta 1; kept apart from GOLDEN so that its ids stay
EXHAUSTIVE_CAYLEY = [
    (["delta", "--family", "Z2*Z3", "--radius", "6"],
     "904d87838341cec06d34c5dd34a955ab0058ce77b36885502cb024a884a10ad0",
     "3e543574deae4916232646e2591eb5d40e9a04ba58b1b542f75c01068c5f2219"),
    (["delta", "--family", "F2xZ2", "--radius", "3"],
     "08e3e723fe86775ede778b665841caa9b7d81d08611dc1c639df14b0b6464088",
     "267034c6b9904bb49868346492224a8465e9fdfbc8d54e631a1958cd620cb65c"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_stream(argv, stdout_sha, stderr_sha):
    out, err = io.StringIO(), io.StringIO()
    assert cli_run(argv, stdout=out, stderr=err) == 0, err.getvalue()
    assert _sha256(out.getvalue()) == stdout_sha
    assert _sha256(err.getvalue()) == stderr_sha


@pytest.mark.parametrize("argv,stdout_sha,stderr_sha", GOLDEN,
                         ids=[" ".join(argv[:3]) for argv, _, _ in GOLDEN])
def test_golden_stream(argv, stdout_sha, stderr_sha):
    _check_stream(argv, stdout_sha, stderr_sha)


@pytest.mark.parametrize("argv,stdout_sha,stderr_sha", CAYLEY_WORKLOAD,
                         ids=[" ".join(argv[:3]) for argv, _, _ in CAYLEY_WORKLOAD])
def test_cayley_workload_stream(argv, stdout_sha, stderr_sha):
    _check_stream(argv, stdout_sha, stderr_sha)


@pytest.mark.parametrize("argv,stdout_sha,stderr_sha", FAREY_WORKLOAD,
                         ids=[" ".join(argv[:3]) for argv, _, _ in FAREY_WORKLOAD])
def test_farey_workload_stream(argv, stdout_sha, stderr_sha):
    _check_stream(argv, stdout_sha, stderr_sha)


@pytest.mark.parametrize("argv,stdout_sha,stderr_sha", EXHAUSTIVE_CAYLEY,
                         ids=[" ".join(argv[:3]) for argv, _, _ in EXHAUSTIVE_CAYLEY])
def test_exhaustive_cayley_stream(argv, stdout_sha, stderr_sha):
    _check_stream(argv, stdout_sha, stderr_sha)


def _as_config(argv) -> str:
    """The flags of argv as config lines: ``--key value`` -> ``key = value``,
    a bare ``--certify`` -> ``certify = true``."""
    lines, flags = [], argv[1:]
    while flags:
        key = flags.pop(0).removeprefix("--")
        value = flags.pop(0) if flags and not flags[0].startswith("--") else "true"
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


@pytest.mark.parametrize("argv,stdout_sha,stderr_sha", GOLDEN,
                         ids=[" ".join(argv[:3]) for argv, _, _ in GOLDEN])
def test_config_file_equals_flags(tmp_path, argv, stdout_sha, stderr_sha):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_as_config(argv))
    _check_stream([argv[0], "--config", str(cfg)], stdout_sha, stderr_sha)


@pytest.mark.parametrize("argv,stdout_sha,stderr_sha", GOLDEN,
                         ids=[" ".join(argv[:3]) for argv, _, _ in GOLDEN])
def test_out_file_equals_stdout(tmp_path, argv, stdout_sha, stderr_sha):
    # with --out the stream goes to the file and the summary to stdout
    path = tmp_path / "report.jsonl"
    out, err = io.StringIO(), io.StringIO()
    assert cli_run(argv + ["--out", str(path)], stdout=out, stderr=err) == 0, err.getvalue()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == stdout_sha
    assert _sha256(out.getvalue()) == stderr_sha
    assert err.getvalue() == ""
