"""Batch front end: run the pipelines, emit JSON-lines reports and a summary.

Every record in the report stream carries the seed and the provenance of the
inputs it was computed from; identical configuration and seed produce a
byte-identical stream (no timestamps, no unordered iteration).

Exit codes: 0 ok / certificates found, 1 extraction found none,
2 input or parse error, 3 budget exceeded, 4 window violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import multitwist as mt
from . import farey as fy
from .errors import BudgetError, InputError, ParseError, ToolkitError, WindowError
from .extraction import compute_constants, extract_centralizers, measure_constants
from .fixpoints import CayleyContext, almost_fixed_set, midpoint_certify
from .graphs import estimate_delta
from .groupfile import BUILTIN_NAMES, builtin_group, load_group
from .groups import build_ball, verify_subgroup

EXIT_OK = 0
EXIT_NONE_FOUND = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_WINDOW = 4


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {text!r}") from exc


def load_config_file(path: str) -> dict:
    """Simple ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key = value, got {line!r}", line=lineno)
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


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
        p.add_argument("--budget", type=int, default=2_000_000)

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
    p.add_argument("--order-bound", type=int, default=64)
    p.add_argument("--formula", choices=("cayley", "surface"), default="cayley")

    p = sub.add_parser("farey", help="Farey window, distances and orbit profiles")
    add_common(p)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--subgroup-name", choices=("S4", "ST6", "center2"), default="S4")
    p.add_argument("--threshold-a", help="orbit-diameter threshold (default 6*window delta)")
    p.add_argument("--delta-mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--delta-samples", type=int, default=5000)
    p.add_argument("--delta-depth", type=int, default=None,
                   help="window depth used for the delta estimate (default: --depth)")

    p = sub.add_parser("multitwist", help="verify the multitwist commutation model")
    add_common(p)
    p.add_argument("--action-file", help="curve-family action definition")
    p.add_argument("--builtin-action", choices=("z3-cycle", "s3", "swap"),
                   help="built-in demonstration action")
    return parser


def _make_oracle(args):
    if getattr(args, "group_file", None):
        return load_group(args.group_file), {"group_file": args.group_file}
    if getattr(args, "family", None):
        return builtin_group(args.family), {"family": args.family}
    raise InputError("one of --family / --group-file is required")


def _make_subgroup(oracle, spec: str):
    words = [w for w in spec.split(",") if w.strip()]
    elements = {oracle.identity}
    elements.update(oracle.parse(w) for w in words)
    return verify_subgroup(oracle, elements)


class Report:
    def __init__(self, seed, inputs):
        self.records = []
        self.summary = []
        self.base = {"seed": seed, "inputs": inputs}
        self.emit("config", config=inputs)

    def emit(self, record_type, **fields):
        rec = {"record": record_type}
        rec.update(self.base)
        rec.update(fields)
        self.records.append(rec)

    def say(self, line):
        self.summary.append(line)

    def stream(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)


def _cmd_ball(args, report):
    oracle, prov = _make_oracle(args)
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
    oracle, _ = _make_oracle(args)
    ball = build_ball(oracle, args.radius, budget=args.budget)
    est = estimate_delta(ball, mode=args.mode, samples=args.samples, seed=args.seed)
    report.emit("delta_estimate", radius=ball.radius, **est.to_record())
    report.say(
        f"delta {est.delta} over {est.triangles} triangles "
        f"({'exhaustive' if est.exhaustive else 'sampled'})"
    )
    return EXIT_OK


def _afp_threshold(args) -> tuple[Fraction, Fraction]:
    if getattr(args, "threshold_a", None) is not None:
        a = _parse_fraction(args.threshold_a)
        delta = _parse_fraction(args.delta) if getattr(args, "delta", None) else Fraction(0)
        return a, delta
    if getattr(args, "delta", None) is not None:
        delta = _parse_fraction(args.delta)
        return 6 * delta, delta
    raise InputError("one of --threshold-a / --delta is required")


def _cmd_afp(args, report):
    oracle, _ = _make_oracle(args)
    subgroup = _make_subgroup(oracle, args.subgroup)
    ball = build_ball(oracle, args.radius, budget=args.budget)
    ctx = CayleyContext(ball)
    a, delta = _afp_threshold(args)
    afp = almost_fixed_set(ctx, subgroup, a)
    report.emit("almost_fixed_set", subgroup=[str(h) for h in subgroup],
                **afp.to_record())
    report.say(
        f"almost-fixed set at threshold {a}: {afp.size} members, "
        f"{afp.excluded} window-excluded"
    )
    if args.certify:
        if delta <= 0 and not afp.members:
            raise InputError("--certify needs a nonempty member set")
        twenty = 20 * delta
        pairs = 0
        bad = 0
        for i, x in enumerate(afp.members):
            for y in afp.members[i + 1:]:
                d, ok = ctx.pair_distance(x, y)
                if not ok or d < twenty:
                    continue
                cert = midpoint_certify(ctx, subgroup, x, y, delta)
                pairs += 1
                bad += len(cert.counterexamples)
                report.emit("midpoint_certificate", **cert.to_record())
        report.say(f"certified {pairs} far-apart pairs; {bad} counterexamples")
        if bad:
            return EXIT_NONE_FOUND
    return EXIT_OK


def _cmd_extract(args, report):
    oracle, _ = _make_oracle(args)
    subgroup = _make_subgroup(oracle, args.subgroup)
    ball = build_ball(oracle, args.radius, budget=args.budget)
    ctx = CayleyContext(ball)
    a = _parse_fraction(args.threshold_a)
    delta = _parse_fraction(args.delta)
    afp = almost_fixed_set(ctx, subgroup, a)
    report.emit("almost_fixed_set", subgroup=[str(h) for h in subgroup],
                **afp.to_record())
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
        paths_agree=result.paths_agree,
    )
    report.say(
        f"extracted {len(result.certificates)} certificates "
        f"({len(nontrivial)} nontrivial), pigeonhole class size {result.class_size}"
    )
    return EXIT_OK if nontrivial else EXIT_NONE_FOUND


def _cmd_farey(args, report):
    window = fy.build_window(args.depth)
    subgroup = fy.finite_subgroup(args.subgroup_name)
    report.emit("farey_window", depth=args.depth, size=window.size,
                note="curve-graph analogue at complexity 4; not covered by the "
                     "main theorem's hypothesis")
    delta_depth = args.delta_depth if args.delta_depth is not None else args.depth
    delta_window = window if delta_depth == args.depth else fy.build_window(delta_depth)
    est = estimate_delta(delta_window.graph(), mode=args.delta_mode,
                         samples=args.delta_samples, seed=args.seed)
    report.emit("delta_estimate", depth=delta_depth, **est.to_record(),
                note="window artifact, lower-bound estimate")
    if args.threshold_a is not None:
        a = _parse_fraction(args.threshold_a)
    else:
        a = Fraction(6 * est.delta)
    afp = fy.almost_fixed_slopes(subgroup, window, a)
    members = [str(window.slopes[v]) for v in afp.members]
    report.emit("almost_fixed_slopes", subgroup=subgroup.name,
                threshold=str(a), size=afp.size,
                excluded_window_invalid=afp.excluded, members=members)
    profile, excluded = fy.orbit_diameter_profile(subgroup, window)
    report.emit(
        "orbit_diameter_profile",
        subgroup=subgroup.name,
        rows=[
            {"distance": r.distance_from_center,
             "max_orbit_diameter": r.max_orbit_diameter,
             "count": r.count}
            for r in profile
        ],
        excluded=excluded,
    )
    report.say(
        f"farey depth {args.depth}: {window.size} slopes, delta >= {est.delta}, "
        f"|almost-fixed({a})| = {afp.size} for {subgroup.name}"
    )
    return EXIT_OK


_BUILTIN_ACTIONS = {
    "z3-cycle": lambda: mt.cyclic_rotation_action(3),
    "s3": mt.symmetric3_action,
    "swap": lambda: mt.cyclic_rotation_action(2, fixed=2),
}


def _cmd_multitwist(args, report):
    if args.action_file:
        with open(args.action_file, "r", encoding="utf-8") as fh:
            action = mt.parse_action(fh.read())
    elif args.builtin_action:
        action = _BUILTIN_ACTIONS[args.builtin_action]()
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


def _config_value(action: argparse.Action, text: str):
    """Coerce a config-file string as the command line would coerce it."""
    if isinstance(action, argparse._StoreTrueAction):
        try:
            return _FLAG_WORDS[text.lower()]
        except KeyError:
            raise InputError(
                f"config key {action.dest}: expected true/false, got {text!r}"
            ) from None
    value = text
    if action.type is not None:
        try:
            value = action.type(text)
        except (TypeError, ValueError) as exc:
            raise InputError(f"config key {action.dest}: cannot parse {text!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise InputError(
            f"config key {action.dest}: {value!r} is not one of {list(action.choices)}"
        )
    return value


def _apply_config(parser: argparse.ArgumentParser, args, argv) -> None:
    """Merge the --config file into args; explicit flags win over it."""
    defaults = load_config_file(args.config)
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = {a.dest: a for a in subparsers.choices[args.subcommand]._actions}
    bad = set(defaults) - set(actions)
    if bad:
        raise InputError(f"unknown config keys: {sorted(bad)}")
    explicit = {
        tok[2:].split("=", 1)[0].replace("-", "_")
        for tok in (argv if argv is not None else sys.argv[1:])
        if tok.startswith("--")
    }
    for key, text in defaults.items():
        if key not in explicit:
            setattr(args, key, _config_value(actions[key], text))


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args, argv)
        inputs = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("config", "out") and v is not None
        }
        report = Report(getattr(args, "seed", 0), inputs)
        code = _COMMANDS[args.subcommand](args, report)
    except OSError as exc:
        print(f"file error: {exc}", file=stderr)
        return EXIT_INPUT
    except ParseError as exc:
        print(f"parse error: {exc}", file=stderr)
        return EXIT_INPUT
    except InputError as exc:
        print(f"input error: {exc}", file=stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"budget error: {exc}", file=stderr)
        return EXIT_BUDGET
    except WindowError as exc:
        print(f"window error: {exc}", file=stderr)
        return EXIT_WINDOW
    except ToolkitError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT

    stream = report.stream()
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(stream)
        for line in report.summary:
            print(line, file=stdout)
    else:
        stdout.write(stream)
        for line in report.summary:
            print(line, file=stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
