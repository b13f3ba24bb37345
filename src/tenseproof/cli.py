"""Command line front end.

Verbs: ``check`` a derivation file, ``normalize`` one (optionally tracing
every reduction step), ``eval`` a formula in a model, ``valid`` for bounded
validity search, and ``corpus`` to run the bundled derivations through the
whole pipeline.

Exit codes: 0 all pass, 1 check failure, 2 normalization failure,
3 semantic (probe or validity) failure, 4 input error (I/O, parse,
malformed file, or a world bound out of range).
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import run_corpus
from .derivation import dump, load, to_json
from .kernel import check
from .normalize import NonTermination, is_normal, normalize
from .parser import ParseError, parse, render
from .rules import parse_profile
from .semantics import (
    FinitelyVacuous, UnboundLabel, eval_entity, find_countermodel,
    load_interpretation, load_model, soundness_probe,
)
from .syntax import ProofContext

EXIT_OK, EXIT_CHECK, EXIT_NORMALIZE, EXIT_SEMANTIC, EXIT_IO = 0, 1, 2, 3, 4


def _profile(text: str):
    return parse_profile(text)


def _at_least(value: int, least: int, flag: str) -> int:
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, not {value}")
    return value


def cmd_check(args) -> int:
    _at_least(args.probe, 0, "--probe")
    d = load(args.file)
    profile = _profile(args.profile)
    report = check(d, profile)
    print(f"status: {report.status}")
    print(f"conclusion: {render(d.conclusion)}")
    gam = sorted(render(x) for x in report.open.gamma)
    delt = sorted(render(x) for x in report.open.delta)
    print(f"open labeled: {gam or '[]'}")
    print(f"open relational: {delt or '[]'}")
    print(f"theorem: {report.is_theorem}")
    for v in report.violations:
        print(f"  {v}")
    if not report.ok:
        return EXIT_CHECK
    if args.probe:
        probe = soundness_probe(d, args.probe, profile)
        print(f"probe({args.probe}): {probe.status}")
        if probe.status == "FAIL":
            print(json.dumps(probe.countermodel.to_json()))
            return EXIT_SEMANTIC
    return EXIT_OK


class _PrintedTrace:
    """A trace sink that prints each record as its step happens, so the
    steps before a failure are still shown."""

    def append(self, record: dict) -> None:
        print(json.dumps(record), flush=True)


def cmd_normalize(args) -> int:
    d = load(args.file)
    profile = _profile(args.profile)
    report = check(d, profile)
    if not report.ok:
        for v in report.violations:
            print(str(v), file=sys.stderr)
        return EXIT_CHECK
    try:
        nf = normalize(d, trace=_PrintedTrace() if args.trace else None)
    except NonTermination as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NORMALIZE
    if args.output:
        dump(nf, args.output)
    else:
        print(json.dumps(to_json(nf), indent=1))
    if not is_normal(nf).normal or not check(nf, profile).ok:
        print("normalization produced a non-normal or invalid tree",
              file=sys.stderr)
        return EXIT_NORMALIZE
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    lam = load_interpretation(args.interpretation)
    phi = parse("any", args.formula)
    try:
        value = eval_entity(model, lam, phi)
    except UnboundLabel as exc:
        print(f"unbound label: {exc}", file=sys.stderr)
        return EXIT_IO
    print("true" if value else "false")
    return EXIT_OK


def cmd_valid(args) -> int:
    _at_least(args.max_worlds, 1, "--max-worlds")
    phi = parse("any", args.formula)
    profile = _profile(args.profile)
    try:
        cm = find_countermodel(ProofContext.make(), phi, args.max_worlds, profile)
    except FinitelyVacuous as exc:
        print(f"FinitelyVacuous: {exc}", file=sys.stderr)
        return EXIT_IO
    if cm is None:
        print(f"VALID({args.max_worlds})")
        return EXIT_OK
    print(json.dumps(cm.to_json(), indent=1))
    return EXIT_SEMANTIC


def cmd_corpus(args) -> int:
    _at_least(args.max_worlds, 1, "--max-worlds")
    _, code = run_corpus(args.prefix, args.max_worlds, emit=print)
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tenseproof",
        description="check, normalize and semantically probe labeled "
                    "natural deduction proofs for linear tense logic")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="check a derivation file")
    p.add_argument("file")
    p.add_argument("--profile", default="kl")
    p.add_argument("--probe", type=int, default=0, metavar="N",
                   help="also search for countermodels up to N worlds")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("normalize", help="normalize a derivation file")
    p.add_argument("file")
    p.add_argument("--profile", default="kl")
    p.add_argument("--trace", action="store_true",
                   help="emit one JSON record per reduction step")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("eval", help="evaluate a formula in a finite model")
    p.add_argument("model")
    p.add_argument("interpretation")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("valid", help="bounded validity search")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, required=True)
    p.add_argument("--profile", default="kl")
    p.set_defaults(fn=cmd_valid)

    p = sub.add_parser("corpus", help="run the bundled corpus pipeline")
    p.add_argument("prefix", nargs="?", default=None)
    p.add_argument("--max-worlds", type=int, default=4)
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
