"""Benchmark of proofenum: one workload, one seed, one process, one thread.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload decide --seed 1 --seconds 35 --trace 0

The package is imported from the checkout's own `src/`.  With
`--trace 0` the run sets up once, makes timed passes over the
workload's batch of library calls until `--seconds` have gone by (at
least MIN_PASSES), times SETUPS_PER_PASS set-ups in fresh interpreters
after each pass, checks the outputs and prints the end-to-end metrics,
each a median over the set-ups or the passes.  With
`--trace 1` it makes a fixed set of five passes (`--seconds` is not
used), cross-checks the layers the batch does not reach, prints the
per-layer metrics and writes the spans and counts to bench/out/.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_PASS = 2
MIN_PASSES = 3
PACKAGE = tracing.PACKAGE


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Set-up


def load_package():
    pe = importlib.import_module(PACKAGE)
    if Path(pe.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise BenchError(f"{PACKAGE} was imported from {pe.__file__}, "
                         f"not from {SRC}")
    return pe


def parse_goal(pe, inp):
    """The parse behind `proofenum check`, with --sysf for types."""
    if inp.sysf:
        t = pe.parse_sysf_type(inp.text)
        if not pe.is_positive_type(t):
            raise pe.NotPositive(inp.text)
        return pe.phi(t)
    return pe.parse_formula(inp.text)


def make_inputs(pe, workload: str, seed: int):
    inputs = workloads.WORKLOADS[workload](seed)
    return inputs, [parse_goal(pe, inp) for inp in inputs]


def setup(workload: str, seed: int):
    t0 = time.perf_counter()
    pe = load_package()
    inputs, goals = make_inputs(pe, workload, seed)
    return time.perf_counter() - t0, pe, inputs, goals


def setup_in_child(workload: str, seed: int) -> float:
    """The set-up time of a fresh interpreter running this file with
    --setup-only.  A fresh interpreter imports the package as a user
    does, and the copies it makes stay out of this process's memory."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=60)
    if child.returncode != 0:
        raise BenchError(f"set-up failed: {child.stderr.strip()}")
    return float(child.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Operations and passes


def run_decide(pe, inp, goal):
    t0 = time.perf_counter()
    verdict = pe.is_inhabited(pe.build_grammar(parse_goal(pe, inp),
                                               pe.Session()))
    dt = time.perf_counter() - t0
    return verdict, dt, dt


def run_enumerate(pe, inp, goal):
    t0 = time.perf_counter()
    it = iter(pe.enumerate_terms(goal, inp.height))
    first = next(it, None)
    t1 = time.perf_counter()
    out = [] if first is None else [first, *it]
    return out, t1 - t0, time.perf_counter() - t0


def one_pass(pe, workload, inputs, goals):
    """(wall time, summed time to first result, outputs, call times)."""
    op = run_decide if workload == "decide" else run_enumerate
    outs, times, first_sum = [], [], 0.0
    t0 = time.perf_counter()
    for inp, goal in zip(inputs, goals):
        out, first, total = op(pe, inp, goal)
        outs.append(out)
        times.append(total)
        first_sum += first
    return time.perf_counter() - t0, first_sum, outs, times


# ---------------------------------------------------------------------------
# Checks


def check_outputs(kernel, workload, inputs, goals, outs):
    """(indexes of failed operations, unexpected failures, per-input
    oracle time, per-input witness height)."""
    failed, unexpected, oracle_times, witness = [], [], [], []
    for i, (inp, goal, out) in enumerate(zip(inputs, goals, outs)):
        if workload == "decide":
            fails, h, osec = checks.check_verdict(kernel, goal, out, inp.dk)
        else:
            fails, osec = checks.check_enumeration(
                kernel, goal, inp.height, out, inp.closed_form)
            h = None
        oracle_times.append(osec)
        witness.append(h)
        if fails:
            failed.append(i)
            known = inp.known_fault and fails == [inp.known_fault.message]
            why = f" (known fault: {inp.known_fault.why})" if known else ""
            print(f"{inp.name}: {'; '.join(fails)}{why}", file=sys.stderr)
            if not known:
                unexpected.append(inp.name)
    return failed, unexpected, oracle_times, witness


def metric(value, unit):
    return {"value": value, "unit": unit}


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


# ---------------------------------------------------------------------------
# Runs


def end_to_end_run(workload, seed, seconds):
    # The set-ups after each pass sample the same stretch of time as the
    # passes, so that a slow second of the machine does not set setup_s.
    _, pe, inputs, goals = setup(workload, seed)
    setups = []
    walls, firsts, reference, differ = [], [], None, 0
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, first, outs, _ = one_pass(pe, workload, inputs, goals)
        walls.append(wall)
        firsts.append(first)
        if reference is None:
            reference = outs
        differ += outs != reference
        setups += [setup_in_child(workload, seed)
                   for _ in range(SETUPS_PER_PASS)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    kernel = checks.Kernel(pe)
    failed, unexpected, _, _ = check_outputs(kernel, workload, inputs, goals,
                                             reference)
    if differ:
        print(f"{differ} passes differ from the first", file=sys.stderr)
    passes = len(walls)
    return {
        "correct": not unexpected and not differ,
        "attempted": passes * len(inputs),
        "failed": passes * len(failed),
        "metrics": {
            "wall_s": metric(statistics.median(walls), "s"),
            "first_result_s": metric(statistics.median(firsts), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        },
    }


def cross_check(pe, kernel, workload, inputs, goals, outs, pass_times,
                oracle_times, witness, grammars):
    """Run the layers the batch does not reach and check they agree with
    it; return (failures, rows of input, enumerate_terms time, oracle
    time at the same height)."""
    failures, rows = [], []
    if workload == "decide":
        for inp, goal, h in zip(inputs, goals, witness):
            if h is None:
                continue
            t0 = time.perf_counter()
            terms = pe.enumerate_terms(goal, h)
            dt = time.perf_counter() - t0
            reference, osec = kernel.oracle(goal, h)
            rows.append((f"{inp.name}@{h}", dt, osec))
            if ({checks.alpha_key(t) for t in terms}
                    != {checks.alpha_key(t) for t in reference}):
                failures.append(f"{inp.name}: enumerate_terms at the witness "
                                f"height differs from the oracle")
    else:
        for inp, out, g in zip(inputs, outs, grammars):
            if out and not pe.is_inhabited(g):
                failures.append(f"{inp.name}: terms found, is_inhabited "
                                f"says no")
        rows = [(inp.name, t, o)
                for inp, t, o in zip(inputs, pass_times, oracle_times)]
    return failures, rows


def traced_run(workload, seed):
    _, pe, inputs, goals = setup(workload, seed)
    with tracing.Tracer() as setup_tracer:
        make_inputs(pe, workload, seed)

    # Untraced, traced, untraced, traced and profiled passes.  The
    # overhead is taken against the second untraced pass, as the first
    # one pays for growing the heap; the second traced pass must repeat
    # the counts of the first.
    outs = one_pass(pe, workload, inputs, goals)[2]
    tracer = tracing.Tracer()
    with tracer:
        wall_t1, _, outs1, times1 = one_pass(pe, workload, inputs, goals)
    wall_u, _, outs2, _ = one_pass(pe, workload, inputs, goals)
    repeat = tracing.Tracer()
    with repeat:
        wall_t2, _, outs3, _ = one_pass(pe, workload, inputs, goals)
    profiled = []
    render_calls = tracing.count_render_calls(
        lambda: profiled.append(one_pass(pe, workload, inputs, goals)[2]))
    passes = 5
    problems = []
    if tracer.counts != repeat.counts:
        problems.append("counts differ between the two traced passes")
    if not outs == outs1 == outs2 == outs3 == profiled[0]:
        problems.append("passes differ in their outputs")

    kernel = checks.Kernel(pe)
    failed, unexpected, oracle_times, witness = check_outputs(
        kernel, workload, inputs, goals, outs)
    # The cross-check has its own tracer: its figures stand in only for
    # the layers the batch does not reach.
    crossed = tracing.Tracer()
    with crossed:
        cross, yardstick = cross_check(pe, kernel, workload, inputs, goals,
                                       outs, times1, oracle_times, witness,
                                       tracer.grammars)
    problems += cross
    problems += [f"self-test: damage not caught: {label}"
                 for label in selftest.missed(selftest.damage_cases(pe))]
    for p in problems:
        print(p, file=sys.stderr)

    def reached(span):
        return tracer if tracer.counts[f"{span}.calls"] else crossed

    c, selfs = tracer.counts, tracer.self_times()
    em, sc, ex = (reached("grammar.emptiness"), reached("grammar.schemes"),
                  reached("expand.expand"))
    terms = reached("expand.enumerate_terms").counts["expand.terms"]
    raw = ex.counts["expand.terms_raw"]
    values = {
        "syntax.parse_s": (setup_tracer.inclusive("syntax.parse"), "s"),
        "syntax.render_calls": (render_calls, "count"),
        "sysf.translate_s": (setup_tracer.inclusive("sysf.parse_type",
                                                    "sysf.phi"), "s"),
        "ljb.clean_calls": (c["ljb.clean.calls"], "count"),
        "ljb.clean_s": (tracer.inclusive("ljb.clean"), "s"),
        "ljb.clean_steps.split": (c["ljb.clean_steps.split"], "count"),
        "ljb.clean_steps.drop": (c["ljb.clean_steps.drop"], "count"),
        "ljb.clean_steps.merge": (c["ljb.clean_steps.merge"], "count"),
        "ljb.expose_calls": (c["ljb.expose.calls"], "count"),
        "ljb.expose_s": (tracer.inclusive("ljb.expose"), "s"),
        "grammar.saturate_s": (tracer.inclusive("grammar.saturate"), "s"),
        "grammar.self_s": (selfs.get("grammar", 0.0), "s"),
        "grammar.nonterminals": (c["grammar.nonterminals"], "count"),
        "grammar.productions": (c["grammar.productions"], "count"),
        "grammar.emptiness_s": (em.inclusive("grammar.emptiness"), "s"),
        "grammar.schemes_s": (sc.inclusive("grammar.schemes"), "s"),
        "grammar.schemes": (sc.counts["grammar.schemes"], "count"),
        "expand.expand_s": (ex.inclusive("expand.expand"), "s"),
        "expand.self_s": (ex.self_times().get("expand", 0.0), "s"),
        "expand.schemes_expanded": (ex.counts["expand.expand.calls"],
                                    "count"),
        "expand.fanout_max": (ex.counts["expand.fanout_max"], "count"),
        "expand.terms": (terms, "count"),
        "expand.terms_raw": (raw, "count"),
        "expand.useful_ratio": (terms / raw if raw else 0.0, "ratio"),
        "ljplus.check_s": (kernel.check_s, "s"),
        "ljplus.oracle_s": (kernel.oracle_s, "s"),
        "oracle.ratio": (geomean(t / o for _, t, o in yardstick), "ratio"),
        "trace.overhead_ratio": ((wall_t1 + wall_t2) / 2 / wall_u, "ratio"),
    }
    result = {
        "correct": not unexpected and not problems,
        "attempted": passes * len(inputs),
        "failed": passes * len(failed),
        "metrics": {k: metric(v, u) for k, (v, u) in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent"],
        "setup_spans": setup_tracer.spans,
        "spans": tracer.spans,
        "counts": dict(sorted(tracer.counts.items())),
        "self_s": selfs,
        "cross_check_spans": crossed.spans,
        "cross_check_counts": dict(sorted(crossed.counts.items())),
        "oracle": [{"input": name, "enumerate_terms_s": t, "oracle_s": o,
                    "ratio": t / o} for name, t, o in yardstick],
        "result": result,
    }))
    print(f"spans and counts: {trace_file.relative_to(ROOT)}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the time of one set-up and exit")
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_only:
            print(setup(args.workload, args.seed)[0])
            return 0
        if args.trace:
            result = traced_run(args.workload, args.seed)
        else:
            result = end_to_end_run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
