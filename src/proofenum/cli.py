"""Command-line interface: check, grammar, schemes, terms and verify."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .expand import Session, enumerate_terms
from .grammar import (DEFAULT_CAP, CapExceeded, NotPositive, build_grammar,
                      enumerate_schemes, grammar_to_json, is_inhabited,
                      render_grammar)
from .ljplus import (IllFormed, NamedContext, check_proof, proof_from_json,
                     proof_to_json, render_proof, term_height)
from .syntax import Formula, NotNegative, SyntaxError_, parse_formula, render
from .sysf import is_positive_type, parse_sysf_type, phi, render_sysf_term

EXIT_OK = 0
EXIT_UNINHABITED = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


def _read_input(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _parse_goal(text: str, sysf: bool) -> Formula:
    if sysf:
        t = parse_sysf_type(text)
        if not is_positive_type(t):
            raise NotPositive(text.strip())
        return phi(t)
    return parse_formula(text)


def _cmd_check(args) -> int:
    try:
        goal = _parse_goal(_read_input(args.input), args.sysf)
        session = Session()
        g = build_grammar(goal, session, args.cap)
    except NotPositive as exc:
        print(f"positive: no ({exc})")
        return EXIT_BAD_INPUT
    inhabited = is_inhabited(g)
    if args.format == "json":
        print(json.dumps({"goal": render(goal), "positive": True,
                          "inhabited": inhabited}))
    else:
        print(f"positive: yes, inhabited: {'yes' if inhabited else 'no'}")
    return EXIT_OK if inhabited else EXIT_UNINHABITED


def _cmd_grammar(args) -> int:
    goal = _parse_goal(_read_input(args.input), args.sysf)
    session = Session()
    g = build_grammar(goal, session, args.cap)
    if args.format == "json":
        print(json.dumps(grammar_to_json(g), indent=2))
    else:
        print(render_grammar(g))
    return EXIT_OK


def _cmd_schemes(args) -> int:
    goal = _parse_goal(_read_input(args.input), args.sysf)
    session = Session()
    g = build_grammar(goal, session, args.cap, args.max_height)
    schemes = enumerate_schemes(g, args.max_height)
    if args.format == "json":
        print(json.dumps({"goal": render(goal),
                          "maxHeight": args.max_height,
                          "schemes": [proof_to_json(s) for s in schemes]},
                         indent=2))
    else:
        for s in schemes:
            print(render_proof(s))
    return EXIT_OK


def _cmd_terms(args) -> int:
    goal = _parse_goal(_read_input(args.input), args.sysf)
    terms = enumerate_terms(goal, args.max_height, args.cap)
    if args.format == "json":
        entries = []
        for t in terms:
            entry = {"term": proof_to_json(t), "height": term_height(t),
                     "text": render_proof(t)}
            if args.sysf:
                entry["sysf"] = render_sysf_term(t)
            entries.append(entry)
        print(json.dumps({"goal": render(goal),
                          "maxHeight": args.max_height,
                          "terms": entries}, indent=2))
    else:
        for t in terms:
            print(render_sysf_term(t) if args.sysf else render_proof(t))
    return EXIT_OK


def _cmd_verify(args) -> int:
    goal = _parse_goal(_read_input(args.input), args.sysf)
    data = json.load(sys.stdin)
    entries = data["terms"] if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise ValueError(f"expected a list of terms, got {entries!r}")
    failures = 0
    for entry in entries:
        raw = entry["term"] if isinstance(entry, dict) and "term" in entry \
            else entry
        t = proof_from_json(raw)
        try:
            ok = check_proof(NamedContext(), t, goal)
        except IllFormed:
            ok = False
        if not ok:
            failures += 1
            print(f"FAIL {render_proof(t)}", file=sys.stderr)
    total = len(entries)
    print(f"verified {total - failures}/{total}")
    return EXIT_OK if failures == 0 else EXIT_UNINHABITED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofenum",
        description="Enumerate the beta-normal eta-long proofs of positive "
                    "formulas via the scheme grammar.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, heights: bool) -> None:
        p.add_argument("input",
                       help="formula (or type with --sysf); '-' for stdin")
        p.add_argument("--sysf", action="store_true",
                       help="input is a System F type")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="limit on grammar nonterminals")
        if heights:
            p.add_argument("--max-height", type=int, default=8)

    common(sub.add_parser("check", help="positivity and inhabitation"),
           heights=False)
    common(sub.add_parser("grammar", help="emit the scheme grammar"),
           heights=False)
    common(sub.add_parser("schemes", help="enumerate proof schemes"),
           heights=True)
    common(sub.add_parser("terms", help="enumerate proof-terms"),
           heights=True)
    common(sub.add_parser("verify",
                          help="re-check terms JSON from stdin"),
           heights=False)
    return parser


_DISPATCH = {
    "check": _cmd_check,
    "grammar": _cmd_grammar,
    "schemes": _cmd_schemes,
    "terms": _cmd_terms,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "max_height", 1) < 1:
        print("error: --max-height must be at least 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return _DISPATCH[args.command](args)
    except (SyntaxError_, NotPositive, NotNegative,
            json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CapExceeded as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
