"""Spans and counts around the public functions of each layer.

The tracer wraps functions from outside: every module of the package
that holds the original function under some name gets the wrapper
instead, so calls between modules are seen too.  A call made while the
same function is already open (recursion) is not wrapped again.  Spans
are kept in memory as (name, start, end, parent) and written as JSON at
the end of the run.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

PACKAGE = "proofenum"

# (module, function) -> span name; the layer is the part before the dot.
TRACED = {
    ("syntax", "parse_formula"): "syntax.parse",
    ("sysf", "parse_sysf_type"): "sysf.parse_type",
    ("sysf", "phi"): "sysf.phi",
    ("ljb", "normalize_chain"): "ljb.clean",
    ("ljb", "expose"): "ljb.expose",
    ("grammar", "build_grammar"): "grammar.saturate",
    ("grammar", "is_inhabited"): "grammar.emptiness",
    ("grammar", "enumerate_schemes"): "grammar.schemes",
    ("expand", "funcH"): "expand.expand",
    ("expand", "enumerate_terms"): "expand.enumerate_terms",
}

# Functions whose calls cProfile counts for syntax.render_calls.
RENDER_FUNCTIONS = {("proofenum/syntax.py", "render"),
                    ("proofenum/ljb.py", "render_item")}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.grammars: list = []
        self._stack: List[int] = []
        self._open: Counter = Counter()
        self._patched: list = []
        self._hooks: Dict[str, Callable] = {
            "ljb.clean": self._on_clean,
            "grammar.saturate": self._on_grammar,
            "grammar.schemes": self._on_schemes,
            "expand.expand": self._on_expand,
            "expand.enumerate_terms": self._on_terms,
        }

    # -- results of wrapped calls ------------------------------------------

    def _on_clean(self, result) -> None:
        for step in result[1]:
            kind = type(step).__name__.replace("Step", "").lower()
            self.counts[f"ljb.clean_steps.{kind}"] += 1

    def _on_grammar(self, g) -> None:
        self.counts["grammar.nonterminals"] += len(g.nonterminals)
        self.counts["grammar.productions"] += len(g.productions)
        self.grammars.append(g)

    def _on_schemes(self, schemes) -> None:
        self.counts["grammar.schemes"] += len(schemes)

    def _on_expand(self, terms) -> None:
        self.counts["expand.terms_raw"] += len(terms)
        self.counts["expand.fanout_max"] = max(
            self.counts["expand.fanout_max"], len(terms))

    def _on_terms(self, terms) -> None:
        self.counts["expand.terms"] += len(terms)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook: Optional[Callable] = self._hooks.get(name)
        spans, stack, opened, counts = (self.spans, self._stack, self._open,
                                        self.counts)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if opened[name]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            stack.append(index)
            spans.append(None)
            opened[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                # A tuple of atoms, which the cyclic collector stops tracking.
                spans[index] = (name, start, perf(), parent)
                opened[name] -= 1
                stack.pop()
            counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for (mod, fname), name in TRACED.items():
            orig = getattr(sys.modules[f"{PACKAGE}.{mod}"], fname)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ---------------------------------------------------------

    def inclusive(self, *names: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] in names)

    def self_times(self) -> Dict[str, float]:
        """Per layer, span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Counter = Counter()
        for s, c in zip(self.spans, child):
            out[s[0].split(".")[0]] += (s[2] - s[1]) - c
        return dict(out)


def count_render_calls(fn: Callable[[], object]) -> int:
    """Run fn under cProfile and count the calls of the rendering
    functions, recursive ones included."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    total = 0
    for (filename, _, funcname), row in pstats.Stats(prof).stats.items():
        tail = "/".join(filename.replace("\\", "/").split("/")[-2:])
        if (tail, funcname) in RENDER_FUNCTIONS:
            total += row[1]
    return total
