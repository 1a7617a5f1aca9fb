"""Self-test of the output checks: each check must fail on an output
damaged in its own way.

Run from the root of the repository:

    python3 bench/selftest.py

It exits 0 when every damaged output is caught.  The traced run of
bench/run.py runs the same cases.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Tuple

import checks
import workloads

# (damage, the check that must report it, failures the checks report)
Case = Tuple[str, str, List[str]]


def _sysf(pe, text: str):
    return pe.phi(pe.parse_sysf_type(text))


def _rehead(pe, term, old: str, new: str):
    """The same term with the first spine head `old` changed to `new`."""
    if isinstance(term, pe.Spine):
        if term.head == old:
            return replace(term, head=new)
        args = list(term.args)
        for i, a in enumerate(args):
            b = _rehead(pe, a, old, new)
            if b is not a:
                args[i] = b
                return replace(term, args=tuple(args))
        return term
    body = _rehead(pe, term.body, old, new)
    return term if body is term else replace(term, body=body)


def damage_cases(pe) -> List[Case]:
    kernel = checks.Kernel(pe)
    cases: List[Case] = []

    def enum(label, expect, goal, h, terms, closed_form=None):
        cases.append((label, expect, checks.check_enumeration(
            kernel, goal, h, terms, closed_form)[0]))

    church = _sysf(pe, workloads.CHURCH)
    good = pe.enumerate_terms(church, 10)
    enum("church: a term dropped", "oracle's set", church, 10, good[:-1])
    enum("church: a term dropped", "closed form", church, 10, good[:-1],
         closed_form=10 - 3)
    enum("church: a term duplicated", "alpha-equivalent",
         church, 10, good + good[:1])
    enum("church: a term above the bound", "higher than", church, 9, good)

    two = _sysf(pe, workloads.TWO_SUCC)
    good = pe.enumerate_terms(two, 7)
    lam_pf = good[0].body                      # \X. \h0. ...
    s0, s1 = lam_pf.pvar, lam_pf.body.pvar     # the two successors
    enum("two-successor: a head changed to the other successor",
         "alpha-equivalent", two, 7,
         [_rehead(pe, good[0], s0, s1)] + good[1:])
    enum("two-successor: a head changed to an unbound name",
         "check_proof rejects", two, 7,
         [_rehead(pe, good[0], s0, "nowhere")] + good[1:])

    fig = pe.parse_formula(workloads.FIG)
    good = pe.enumerate_terms(fig, 11)
    enum("fig: an annotation changed", "check_proof rejects", fig, 11,
         [replace(good[0], annot=pe.parse_formula("Q"))] + good[1:])

    def verdict(label, expect, goal, v, dk=None):
        cases.append((label, expect,
                      checks.check_verdict(kernel, goal, v, dk)[0]))

    d2 = pe.parse_formula(workloads.d_family(2))
    verdict("D_2: yes flipped to no", "written-out witness", d2, False, dk=2)
    verdict("P -> P: yes flipped to no", "'no', but",
            pe.parse_formula("P -> P"), False)
    verdict("P -> Q: no flipped to yes", "'yes', but",
            pe.parse_formula("P -> Q"), True)
    return cases


def missed(cases: List[Case]) -> List[str]:
    """Labels of the damages the expected check did not report."""
    return [f"{label} ({expect})" for label, expect, failures in cases
            if not any(expect in f for f in failures)]


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import proofenum as pe

    cases = damage_cases(pe)
    for label, expect, failures in cases:
        print(f"{label} [{expect}]: {'; '.join(failures) or '-'}")
    lost = missed(cases)
    for label in lost:
        print(f"MISSED: {label}")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
