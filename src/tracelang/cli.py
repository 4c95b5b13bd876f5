"""Command-line driver: run / verify / equiv / suite.

Exit codes are the scripting contract:

* ``run``:    0 yes, 1 no, 2 bound-exceeded
* ``verify``: 0 valid witness, 1 invalid (including hash mismatches)
* ``equiv``:  0 equivalent, 1 not equivalent, 2 unknown under bounds
* ``suite``:  0 iff every problem generated an instance, every instance
  agreed with its oracle and no run hit a bound
* every command: 64 bad input (usage errors, any ``TraceLangError``, files
  that cannot be read or written), after ``error: <message>`` on stderr;
  70 any other exception, after its traceback and ``internal error: <type>:
  <message>``, so that a crash never reads as a verdict.  ``main`` alone
  turns errors into exit codes.

``--format json`` emits key-sorted JSON; with ``--no-timing`` the report is
byte-identical across runs on identical inputs.  ``run`` reports its verdict,
``trace_length``, ``nodes_explored``, the check counters ``exists_calls``
and ``table_hits`` (see ``engine.Evaluator``) and its two bounds (``k`` with
``max_trace_length``, and ``node_budget``).  The environment variable
``PROMISE_MAX_NODES`` caps the number of search nodes globally.  Both that
cap and ``nodes_explored`` count module steps actually expanded; a universal
check answered directly on the trace or from the evaluator's table expands
none, the left arm of a union is expanded once, by the search itself, and
a module's choice that the ``BG`` test right after the module rejects, when
the module writes the test's current register, is dropped before it
becomes a trace, so it is no node.
``equiv`` reads the same cap as the number of successor traces the lab may
build, and answers unknown past it; ``verify`` does not read it yet.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from typing import Optional

from .engine import SearchConfig, Trace, run_main_task, witness_length
from .errors import TraceLangError
from .lab import UNKNOWN, before_after_equivalent, strongly_equivalent
from .parser import parse_program, parse_term
from .problems import ProblemId, build_instance, build_program, oracle
from .structures import parse_structure
from .witness_io import verify_witness_file, witness_to_json

USAGE_ERROR = 64
INTERNAL_ERROR = 70


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _node_budget() -> Optional[int]:
    raw = os.environ.get("PROMISE_MAX_NODES")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        print(f"ignoring non-integer PROMISE_MAX_NODES={raw!r}", file=sys.stderr)
        return None


def _at_least(low: int, what: str, rule: str):
    """The argparse type of an int option of at least ``low``, checked here
    so that every command rejects a bad one with the same usage exit."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be {rule}, got {value}")
        return value

    return parse


_exponent = _at_least(0, "k", "nonnegative")
_length = _at_least(1, "max-len", "at least 1, the input letter")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _emit(report: dict, fmt: str, no_timing: bool) -> None:
    if no_timing:
        report = {k: v for k, v in report.items() if not k.endswith("seconds")}
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")


def cmd_run(args) -> int:
    structure_text = _read(args.structure)
    program_text = _read(args.program)
    structure = parse_structure(structure_text)
    program = parse_program(program_text, structure.vocabulary)
    cfg = SearchConfig.for_run(
        program,
        structure,
        k=args.k,
        max_trace_length=args.max_len,
        node_budget=_node_budget(),
    )
    start = time.perf_counter()
    verdict = run_main_task(program, structure, cfg)
    elapsed = time.perf_counter() - start
    report = {
        "verdict": verdict.kind,
        "trace_length": verdict.witness.final_length if verdict.witness else None,
        "nodes_explored": verdict.nodes,
        "exists_calls": verdict.exists_calls,
        "table_hits": verdict.table_hits,
        "k": args.k,
        "max_trace_length": cfg.max_trace_length,
        "node_budget": cfg.node_budget,
        "wall_seconds": round(elapsed, 6),
    }
    if verdict.kind == "yes" and args.witness:
        with open(args.witness, "w", encoding="utf-8") as f:
            f.write(witness_to_json(verdict.witness, program_text, structure_text, args.k))
        report["witness_path"] = args.witness
        report["witness_length"] = witness_length(verdict.witness)
    _emit(report, args.format, args.no_timing)
    return {"yes": 0, "no": 1, "bound-exceeded": 2}[verdict.kind]


def cmd_verify(args) -> int:
    program_text = _read(args.program)
    structure_text = _read(args.structure)
    witness_text = _read(args.witness)
    ok, reason = verify_witness_file(program_text, structure_text, witness_text)
    print(f"{'valid' if ok else 'invalid'}: {reason}")
    return 0 if ok else 1


def cmd_equiv(args) -> int:
    structure = parse_structure(_read(args.structure))
    program = parse_program(_read(args.program), structure.vocabulary)
    left = parse_term(args.left)
    right = parse_term(args.right)
    cfg = SearchConfig.for_run(
        program, structure, k=args.k, max_trace_length=args.max_len, node_budget=_node_budget()
    )
    bases = [Trace.initial(structure)]
    check = strongly_equivalent if args.mode == "strong" else before_after_equivalent
    result = check(program, left, right, bases, cfg)
    label = "Unknown" if result is UNKNOWN else str(result)
    print(
        f"{label} (mode={args.mode}, bases={len(bases)}, "
        f"max_trace_length={cfg.max_trace_length}, k={args.k})"
    )
    if result is UNKNOWN:
        return 2
    return 0 if result else 1


def _suite_instances(pid: ProblemId, n_lo: int, n_hi: int, trials: int, seed: int):
    """Instance stream for one problem over a size range."""
    if pid in (ProblemId.EVEN, ProblemId.SIZE_FOUR):
        for n in range(max(1, n_lo), n_hi + 1):
            yield build_instance(pid, {"n": n})
        return
    rng = random.Random(f"{seed}:{pid.value}")
    for _ in range(trials):
        if pid is ProblemId.SAME_SIZE:
            n = rng.randint(max(2, n_lo), max(2, n_hi))
            params = {"n": n, "p_size": rng.randint(0, min(4, n)), "q_size": rng.randint(0, min(4, n))}
        elif pid is ProblemId.ST_CONNECTIVITY:
            n = rng.randint(max(1, n_lo), max(1, n_hi))
            params = {"n": n, "edge_prob": rng.choice([0.2, 0.4, 0.6])}
        elif pid is ProblemId.SAME_GENERATION:
            n = rng.randint(max(1, n_lo), max(1, n_hi))
            params = {"n": n}
        elif pid is ProblemId.MOD2_LINEAR:
            params = {"nvars": rng.randint(max(0, min(3, n_lo)), max(0, min(3, n_hi))), "neqs": rng.randint(0, 3)}
            if params["nvars"] == 0:
                params["neqs"] = 0
        else:
            raise TraceLangError(f"unknown problem {pid}")
        yield build_instance(pid, params, seed=rng.randrange(1 << 30))


_SUITE_DEFAULTS = {
    ProblemId.EVEN: (1, 7),
    ProblemId.SIZE_FOUR: (1, 6),
    ProblemId.SAME_SIZE: (2, 6),
    ProblemId.ST_CONNECTIVITY: (2, 5),
    ProblemId.SAME_GENERATION: (2, 7),
    ProblemId.MOD2_LINEAR: (1, 3),
}


def cmd_suite(args) -> int:
    problems = list(ProblemId) if args.problem == "all" else [ProblemId.from_string(args.problem)]
    exit_code = 0
    budget = _node_budget()
    print(f"{'problem':<12} {'instances':>9} {'agree':>6} {'bound':>6} {'seconds':>8}")
    for pid in problems:
        lo, hi = _SUITE_DEFAULTS[pid]
        if args.n_range:
            lo, hi = args.n_range
        total = agree = bound = 0
        start = time.perf_counter()
        for instance in _suite_instances(pid, lo, hi, args.trials, args.seed):
            program = build_program(pid, instance.vocabulary)
            cfg = SearchConfig.for_run(program, instance, k=args.k, node_budget=budget)
            verdict = run_main_task(program, instance, cfg)
            expected = oracle(pid, instance)
            total += 1
            if verdict.kind == "bound-exceeded":
                bound += 1
            elif (verdict.kind == "yes") == expected:
                agree += 1
        elapsed = time.perf_counter() - start
        seconds = "-" if args.no_timing else f"{elapsed:8.2f}"
        print(f"{pid.value:<12} {total:>9} {agree:>6} {bound:>6} {seconds:>8}")
        if not total or agree != total or bound:
            exit_code = 1
    return exit_code


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like 2..5, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range must not end below its start, got {text!r}")
    return lo, hi


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="tracelang")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="decide the main task for a program on a structure")
    run.add_argument("--program", required=True)
    run.add_argument("--structure", required=True)
    run.add_argument("--k", type=_exponent, default=2, help="length-bound exponent (default 2)")
    run.add_argument("--max-len", type=_length, default=None, help="override the trace length bound")
    run.add_argument("--witness", default=None, help="write the certificate here on yes")
    run.add_argument("--format", choices=["text", "json"], default="text")
    run.add_argument("--no-timing", action="store_true")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="replay a witness without searching")
    verify.add_argument("--program", required=True)
    verify.add_argument("--structure", required=True)
    verify.add_argument("--witness", required=True)
    verify.set_defaults(func=cmd_verify)

    equiv = sub.add_parser("equiv", help="check term equivalence on an input structure")
    equiv.add_argument("--left", required=True)
    equiv.add_argument("--right", required=True)
    equiv.add_argument("--program", required=True)
    equiv.add_argument("--structure", required=True)
    equiv.add_argument("--mode", choices=["strong", "before-after"], default="strong")
    equiv.add_argument("--k", type=_exponent, default=2)
    equiv.add_argument("--max-len", type=_length, default=None)
    equiv.set_defaults(func=cmd_equiv)

    suite = sub.add_parser("suite", help="run bundled problems against their oracles")
    suite.add_argument("--problem", default="all")
    suite.add_argument(
        "--n-range", type=_parse_range, default=None, metavar="A..B",
        help="instance sizes; even and size-four run each n once, mod2-lineq caps systems at 3 variables",
    )
    suite.add_argument(
        "--trials", type=_at_least(1, "trials", "at least 1"), default=20,
        help="instances per problem (ignored by even and size-four)",
    )
    suite.add_argument("--seed", type=int, default=0, help="instance seed (ignored by even and size-four)")
    suite.add_argument("--k", type=_exponent, default=2)
    suite.add_argument("--no-timing", action="store_true")
    suite.set_defaults(func=cmd_suite)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (TraceLangError, OSError) as e:  # bad input or an unreadable or unwritable file
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:  # a crash must not exit with a verdict's code
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
