"""Batch front end: run the pipelines, emit JSON-lines reports and a summary.

Every record in the report stream carries the seed and the provenance of the
inputs it was computed from; identical configuration and seed produce a
byte-identical stream (no timestamps, no unordered iteration).

Exit codes: 0 ok / certificates found, 1 extraction found none,
2 input or parse error, 3 budget exceeded or out of memory, 5 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction

from .errors import (
    BudgetError, InputError, InvariantError, ParseError, ToolkitError,
)
from .extraction import (
    ORDER_CHECK_BOUND, compute_constants, extract_centralizers, measure_constants,
    printable_bits,
)
from .fixpoints import CayleyContext, almost_fixed_set, far_pairs, midpoint_certify
from .graphs import estimate_delta
from .groupfile import BUILTIN_NAMES, builtin_group, load_group, read_text
from .groups import DEFAULT_BALL_BUDGET, build_ball, verify_subgroup

EXIT_OK = 0
EXIT_NONE_FOUND = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 5

# ``farey.SUBGROUP_GENERATORS``' names: the parser offers them without
# loading ``farey``, which only the ``farey`` command imports
SUBGROUP_NAMES = ("S4", "ST6", "center2")


def _parse_fraction(text: str) -> Fraction:
    """A rational that prints, and so does 6 times it, the a of ``--delta``."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {text!r}") from exc
    if max(value.numerator.bit_length(), value.denominator.bit_length()) + 3 > printable_bits():
        raise InputError(f"rational {text!r} is too long to print")
    return value


def load_config_file(path: str) -> dict:
    """Simple ``key = value`` lines; '#' starts a comment.  A key may appear
    once, ``-`` and ``_`` counting as the same character."""
    out = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", line=lineno)
        if "\0" in line:  # no path or flag value holds one
            raise ParseError("NUL byte in a config line", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        out[key] = value.strip()
    return out


# each parser is built once a process: a build leaves argparse's objects in
# reference cycles, which only the cyclic collector frees, when it next runs
@functools.cache
def _config_finder() -> argparse.ArgumentParser:
    """The parser that finds ``--config`` before the full parse."""
    find = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    find.add_argument("--config")
    return find


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centralizers",
        description="Almost-fixed-point sets and centralizer extraction, exactly.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_group_flags(p):
        p.add_argument("--family", help=f"built-in family, one of {', '.join(BUILTIN_NAMES)}")
        p.add_argument("--group-file", help="group definition file")
        p.add_argument("--radius", type=int, default=3)
        p.add_argument("--budget", type=int, default=DEFAULT_BALL_BUDGET)

    def add_common(p):
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="report stream path (default: stdout)")

    p = sub.add_parser("ball", help="build a Cayley ball and report its profile")
    add_group_flags(p)
    add_common(p)

    p = sub.add_parser("delta", help="estimate the thin-triangle delta of a ball")
    add_group_flags(p)
    add_common(p)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=10000)

    p = sub.add_parser("afp", help="almost-fixed set and midpoint certification")
    add_group_flags(p)
    add_common(p)
    p.add_argument("--subgroup", required=True,
                   help="comma-separated words, e.g. 't' or 'u,u*u' (identity implied)")
    p.add_argument("--delta", help="rational delta; threshold is 6*delta")
    p.add_argument("--threshold-a", help="explicit orbit-diameter threshold")
    p.add_argument("--certify", action="store_true",
                   help="also certify midpoints over all valid far-apart member pairs")

    p = sub.add_parser("extract", help="pigeonhole extraction of centralizers")
    add_group_flags(p)
    add_common(p)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--threshold-a", required=True)
    p.add_argument("--c0", type=int, required=True,
                   help="bound on finite-subgroup orders (user-supplied)")
    p.add_argument("--delta", default="0", help="delta used in the D formula")
    p.add_argument("--order-bound", type=int, default=ORDER_CHECK_BOUND)
    p.add_argument("--formula", choices=("cayley", "surface"), default="cayley")

    p = sub.add_parser("farey", help="Farey window, distances and orbit profiles")
    add_common(p)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--subgroup-name", choices=SUBGROUP_NAMES, default="S4")
    p.add_argument("--threshold-a", help="orbit-diameter threshold (default 6*window delta)")
    p.add_argument("--delta-mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--delta-samples", type=int, default=5000)
    p.add_argument("--delta-depth", type=int, default=None,
                   help="window depth used for the delta estimate (default: --depth)")

    p = sub.add_parser("multitwist", help="verify the multitwist commutation model")
    add_common(p)
    p.add_argument("--action-file", help="curve-family action definition")
    p.add_argument("--builtin-action", choices=tuple(_BUILTIN_ACTIONS),
                   help="built-in demonstration action")
    return parser


def _make_oracle(args):
    if args.group_file:
        return load_group(args.group_file)
    if args.family:
        return builtin_group(args.family)
    raise InputError("one of --family / --group-file is required")


def _make_subgroup(oracle, spec: str):
    words = [w for w in spec.split(",") if w.strip()]
    elements = {oracle.identity}
    elements.update(oracle.parse(w) for w in words)
    return verify_subgroup(oracle, elements)


# one encoder for every record: ``json.dumps`` with sort_keys builds a new one
# per call, and this one writes the same bytes
_encode = json.JSONEncoder(sort_keys=True).encode


class Report:
    """The report stream, each record held as its JSON line from the moment
    it is emitted, and the summary lines."""

    def __init__(self, seed, inputs):
        self.lines = []
        self.summary = []
        self.base = {"seed": seed, "inputs": inputs}
        self.emit("config", config=inputs)

    def emit(self, record_type, **fields):
        rec = {"record": record_type}
        rec.update(self.base)
        rec.update(fields)
        self.lines.append(_encode(rec) + "\n")

    def say(self, line):
        self.summary.append(line)


def _cmd_ball(args, report):
    oracle = _make_oracle(args)
    ball = build_ball(oracle, args.radius, budget=args.budget)
    counts = {}
    for length in ball.lengths:
        counts[length] = counts.get(length, 0) + 1
    report.emit(
        "ball",
        radius=ball.radius,
        vertices=ball.size,
        sphere_sizes=[counts.get(r, 0) for r in range(ball.radius + 1)],
        family=oracle.family,
    )
    report.say(f"ball radius {ball.radius}: {ball.size} vertices ({oracle.family})")
    return EXIT_OK


def _cmd_delta(args, report):
    oracle = _make_oracle(args)
    ball = build_ball(oracle, args.radius, budget=args.budget)
    est = estimate_delta(ball, mode=args.mode, samples=args.samples, seed=args.seed)
    report.emit("delta_estimate", radius=ball.radius, **est.to_record())
    report.say(f"delta {est.delta} over {est.triangles} triangles ({est.mode})")
    return EXIT_OK


def _afp_threshold(args) -> tuple[Fraction, Fraction]:
    """The threshold a and delta of ``afp`` and ``extract``: a is
    ``--threshold-a`` (delta then defaults to 0) or else 6 * ``--delta``."""
    if args.threshold_a is None and args.delta is None:
        raise InputError("one of --threshold-a / --delta is required")
    delta = _parse_fraction(args.delta) if args.delta is not None else Fraction(0)
    if delta < 0:
        raise InputError("delta must be >= 0")
    if args.threshold_a is None:
        return 6 * delta, delta
    return _parse_fraction(args.threshold_a), delta


def _almost_fixed(args, report):
    """What ``afp`` and ``extract`` both begin with: the ball's context, the
    subgroup, the thresholds and the emitted almost-fixed set."""
    oracle = _make_oracle(args)
    subgroup = _make_subgroup(oracle, args.subgroup)
    ball = build_ball(oracle, args.radius, budget=args.budget)
    ctx = CayleyContext(ball)
    a, delta = _afp_threshold(args)
    afp = almost_fixed_set(ctx, subgroup, a)
    report.emit("almost_fixed_set", subgroup=[str(h) for h in subgroup],
                **afp.to_record())
    return ctx, subgroup, a, delta, afp


def _cmd_afp(args, report):
    ctx, _, a, delta, afp = _almost_fixed(args, report)
    report.say(
        f"almost-fixed set at threshold {a}: {afp.size} members, "
        f"{afp.excluded} window-excluded"
    )
    if args.certify:
        if delta <= 0 and not afp.members:
            raise InputError("--certify needs a nonempty member set")
        pairs = 0
        bad = 0
        for x, y, _ in far_pairs(ctx, afp.members, delta):
            cert = midpoint_certify(ctx, afp, x, y, delta)
            pairs += 1
            bad += len(cert.counterexamples)
            report.emit("midpoint_certificate", **cert.to_record())
        report.say(f"certified {pairs} far-apart pairs; {bad} counterexamples")
        if bad:
            return EXIT_NONE_FOUND
    return EXIT_OK


def _cmd_extract(args, report):
    if args.order_bound < 1:
        raise InputError("order-check bound must be >= 1")
    ctx, subgroup, a, delta, afp = _almost_fixed(args, report)
    c1, c2, c3 = measure_constants(ctx, int(a))
    constants = compute_constants(args.c0, c1, c2, c3, delta,
                                  a=int(a), formula=args.formula)
    report.emit("constants", **constants.to_record(),
                provenance={
                    "C0": "user-supplied",
                    "C1": "measured (transitive action)",
                    "C2": "measured over window core",
                    "C3": "measured (free action)",
                    "delta": "user-supplied",
                })
    report.say(
        f"constants: N = {constants.n}, D = {constants.d} ({constants.formula}); "
        f"card(P_H) = {afp.size}"
    )
    if not afp.members:
        report.say("almost-fixed set empty: no extraction possible")
        return EXIT_NONE_FOUND
    result = extract_centralizers(ctx, subgroup, afp, m=args.order_bound)
    for cert in result.certificates:
        report.emit("centralizer_certificate", **cert.to_record())
    nontrivial = result.nontrivial
    report.emit(
        "extraction_summary",
        certificates=len(result.certificates),
        nontrivial=len(nontrivial),
        class_size=result.class_size,
        threshold_reached=afp.size >= constants.n,
        # extract_centralizers raises InvariantError when the paths disagree
        paths_agree=True,
    )
    report.say(
        f"extracted {len(result.certificates)} certificates "
        f"({len(nontrivial)} nontrivial), pigeonhole class size {result.class_size}"
    )
    return EXIT_OK if nontrivial else EXIT_NONE_FOUND


def _cmd_farey(args, report):
    from . import farey as fy

    window = fy.build_window(args.depth)
    subgroup = fy.finite_subgroup(args.subgroup_name)
    report.emit("farey_window", depth=args.depth, size=window.size,
                note="curve-graph analogue at complexity 4; not covered by the "
                     "main theorem's hypothesis")
    delta_depth = args.delta_depth if args.delta_depth is not None else args.depth
    delta_window = window if delta_depth == args.depth else fy.build_window(delta_depth)
    est = estimate_delta(delta_window, mode=args.delta_mode,
                         samples=args.delta_samples, seed=args.seed)
    report.emit("delta_estimate", depth=delta_depth, **est.to_record(),
                note="window artifact, lower-bound estimate")
    if args.threshold_a is not None:
        a = _parse_fraction(args.threshold_a)
    else:
        a = Fraction(6 * est.delta)
    afp = fy.almost_fixed_slopes(subgroup, window, a)
    members = [str(window.slopes[v]) for v in afp.members]
    report.emit("almost_fixed_slopes", subgroup=args.subgroup_name,
                threshold=str(a), size=afp.size,
                excluded_window_invalid=afp.excluded, members=members)
    report.emit(
        "orbit_diameter_profile",
        subgroup=args.subgroup_name,
        rows=[
            {"distance": r.distance_from_center,
             "max_orbit_diameter": r.max_orbit_diameter,
             "count": r.count}
            for r in fy.orbit_diameter_profile(afp, window)
        ],
        excluded=afp.excluded,
    )
    report.say(
        f"farey depth {args.depth}: {window.size} slopes, delta >= {est.delta}, "
        f"|almost-fixed({a})| = {afp.size} for {args.subgroup_name}"
    )
    return EXIT_OK


# name -> the action built from the ``multitwist`` module, which only the
# ``multitwist`` command imports
_BUILTIN_ACTIONS = {
    "z3-cycle": lambda mt: mt.cyclic_rotation_action(3),
    "s3": lambda mt: mt.symmetric3_action(),
    "swap": lambda mt: mt.cyclic_rotation_action(2, fixed=2),
}


def _cmd_multitwist(args, report):
    from . import multitwist as mt

    if args.action_file:
        action = mt.parse_action(read_text(args.action_file))
    elif args.builtin_action:
        action = _BUILTIN_ACTIONS[args.builtin_action](mt)
    else:
        raise InputError("one of --action-file / --builtin-action is required")
    rep = mt.verify_multitwist_commutation(action)
    report.emit("multitwist_verification", **rep.to_record())
    report.say(
        "multitwist commutation verified"
        if rep.ok
        else "multitwist commutation FAILED"
    )
    return EXIT_OK if rep.ok else EXIT_NONE_FOUND


_COMMANDS = {
    "ball": _cmd_ball,
    "delta": _cmd_delta,
    "afp": _cmd_afp,
    "extract": _cmd_extract,
    "farey": _cmd_farey,
    "multitwist": _cmd_multitwist,
}


_FLAG_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


def _config_flags(config: dict) -> list[str]:
    """A config file's ``key = value`` pairs as ``--key=value`` flags.

    argparse then coerces, checks and expands them exactly as typed flags.
    ``certify = <true/false word>`` becomes ``--certify`` or nothing (any
    other word is left for argparse to reject).  A config file can neither
    ask for help nor name another config file.
    """
    flags = []
    for key, text in config.items():
        if any(name.startswith(key) for name in ("help", "config")):
            raise InputError(f"config key {key!r} is not allowed")
        if key == "certify" and text.lower() in _FLAG_WORDS:
            if _FLAG_WORDS[text.lower()]:
                flags.append("--certify")
        else:
            flags.append(f"--{key.replace('_', '-')}={text}")
    return flags


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv once, with the ``--config`` file's flags spliced in right
    after the subcommand, so that the flags typed after it win.  argparse
    expands an abbreviated key as it does a flag, so each key is then
    resolved to the flag it names, as argparse does: its exact dest, or else
    the one dest it begins.  Two keys that name one flag are a ParseError."""
    try:
        path = _config_finder().parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # a bare --config: the real parse reports it
        path = None
    if path:
        config = load_config_file(path)
        at = next((i + 1 for i, arg in enumerate(argv) if not arg.startswith("-")), 0)
        args = build_parser().parse_args(argv[:at] + _config_flags(config) + argv[at:])
        dests = [d for d in vars(args) if d != "subcommand"]
        named = {}
        for key in config:
            dest = key if key in dests else next((d for d in dests if d.startswith(key)), key)
            if dest in named:
                raise ParseError(f"keys {named[dest]!r} and {key!r} both name "
                                 f"--{dest.replace('_', '-')}")
            named[dest] = key
        return args
    return build_parser().parse_args(argv)


# failure -> summary label and exit code; the first matching kind wins
_FAILURES = (
    (OSError, "file error", EXIT_INPUT),
    (ParseError, "parse error", EXIT_INPUT),
    (InputError, "input error", EXIT_INPUT),
    (BudgetError, "budget error", EXIT_BUDGET),
    (InvariantError, "internal error", EXIT_INVARIANT),
    (ToolkitError, "error", EXIT_INPUT),
    (MemoryError, "budget error: out of memory", EXIT_BUDGET),
)


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse prints its help and its usage errors, then exits
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = _parse_args(argv)
        inputs = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("config", "out") and v is not None
        }
        report = Report(args.seed, inputs)
        code = _COMMANDS[args.subcommand](args, report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(report.lines)
            summary = stdout
        else:
            stdout.writelines(report.lines)
            summary = stderr
        for line in report.summary:
            print(line, file=summary)
        return code
    except SystemExit as exc:
        return exc.code
    except (OSError, ToolkitError, MemoryError) as exc:
        label, code = next((label, code) for kind, label, code in _FAILURES
                           if isinstance(exc, kind))
        # a MemoryError's message is most often empty
        print(": ".join(filter(None, (label, str(exc)))), file=stderr)
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
