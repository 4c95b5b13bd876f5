"""Runs one workload in this (fresh) interpreter and prints one JSON line.

Started by ``run.py`` with ``src/`` on the path.  The load is a closed loop
with one caller: each operation starts when the previous one has returned.
Whole rounds run until ``--seconds`` have passed.  With ``--trace 1`` rounds
alternate untraced and traced, so the traced rounds give the per-layer
figures and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

LIMIT_AT_START = sys.getrecursionlimit()

import tracelang  # noqa: E402  (after reading the interpreter's own limit)
from tracelang import engine, lab, modules  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 9  # set-ups per run; setup_s is their median
REFERENCE_LOOP_S = 1e-3  # speed that gated timings are scaled to (see SpeedGauge)
GAUGE_PERIOD_S = 0.1  # with a loop of ~1 ms: 1% of the time

OK, ERROR = workloads.OK, workloads.ERROR


def execute(op) -> tuple[str, str, float, float, object]:
    """Time one call and check its output: (status, reason, start, seconds, output)."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as e:  # the program raised: this operation failed
        return ERROR, f"{type(e).__name__}: {str(e)[:120]}", t0, time.perf_counter() - t0, None
    dt = time.perf_counter() - t0
    try:
        status, reason = op.check(out) or (OK, "")
    except Exception as e:  # an output the check cannot read is a wrong output
        status, reason = workloads.WRONG, f"unreadable output ({type(e).__name__}: {e})"
    return status, reason, t0, dt, out


def self_test() -> list[str]:
    """Feed the checker corrupted outputs (and their genuine counterparts);
    return every case it judged the wrong way."""
    W = workloads

    def verdict(kind, *choices):
        cs = tuple(modules.Choice(m, tuple(a.items())) for m, a in choices)
        return engine.Verdict(kind, engine.Witness(cs, 1 + len(cs)) if kind == "yes" else None, len(cs))

    edges = [("a", "b"), ("b", "c")]
    path = lambda ch: reference.check_path_witness(ch, edges, "a", "c")
    walk = [("Start", {"Reach": "a"}), ("Step", {"Next": "b"}), ("Commit", {"Reach": "b"}),
            ("Step", {"Next": "c"}), ("Commit", {"Reach": "c"})]
    jump = [("Start", {"Reach": "a"}), ("Step", {"Next": "c"}), ("Commit", {"Reach": "c"})]
    eqs = [((0, 1, 2), 1)]
    mod2 = lambda ch: reference.check_mod2_witness(ch, ["v1", "v2", "v3"], eqs)
    assign = lambda *true: [c for i, v in enumerate(("v1", "v2", "v3")) for c in (
        ("PickVar", {"Var": v, "Val": "b1" if i in true else "b0"}),
        ("RecordTrue", {"TrueRec": v}) if i in true else ("RecordFalse", {"FalseRec": v}))]
    chain = lambda ch: reference.check_chain_witness(ch, 2, ["e0", "e1"])

    def boom():
        raise RuntimeError("corrupted call")

    cases = [  # (label, output, check, output is right)
        ("path yes", verdict("yes", *walk), W.verdict_check(True, path), True),
        ("verdict no for yes", verdict("no"), W.verdict_check(True, path), False),
        ("verdict yes for no", verdict("yes", *walk), W.verdict_check(False, path), False),
        ("bound-exceeded", verdict("bound-exceeded"), W.verdict_check(False, path), False),
        ("path over a non-edge", verdict("yes", *jump), W.verdict_check(True, path), False),
        ("mod-2 yes", verdict("yes", *assign(0)), W.verdict_check(True, mod2), True),
        ("mod-2 violating witness", verdict("yes", *assign(0, 1)), W.verdict_check(True, mod2), False),
        ("chain yes", verdict("yes", ("GuessP", {"P": "e0"}), ("GuessP", {"P": "e1"})),
         W.verdict_check(True, chain), True),
        ("chain repeats", verdict("yes", ("GuessP", {"P": "e0"}), ("GuessP", {"P": "e0"})),
         W.verdict_check(True, chain), False),
        ("equivalence", True, W.equiv_check(True), True),
        ("equivalence flipped", True, W.equiv_check(False), False),
        ("equivalence UNKNOWN", lab.UNKNOWN, W.equiv_check(True), False),
        ("certificate accepted", (True, ""), W.cert_check(True), True),
        ("valid certificate rejected", (False, "replay failed"), W.cert_check(True), False),
        ("mutant accepted", (True, ""), W.cert_check(False), False),
        ("exception", None, W.equiv_check(True), False),
    ]
    wrong = []
    for label, output, check, right in cases:
        call = boom if label == "exception" else (lambda o=output: o)
        status = execute(W.Op("self-test", call, check))[0]
        if (status == OK) != right:
            wrong.append(label)
    return wrong


def reference_loop() -> None:
    """A fixed piece of interpreter work of the kinds the engine does
    (a generator, tuples, dict updates, frozenset unions); no tracelang."""

    def pairs(n):
        for i in range(n):
            yield i, i & 7

    table, seen = {}, frozenset()
    for i, j in pairs(4000):
        table[j, i % 13] = i
        if i % 50 == 0:
            seen = seen | {j}


class SpeedGauge:
    """The machine's speed while operations run.

    This machine's speed drifts by 15-40% over seconds to minutes, alike for
    all interpreter work, so that no statistic of one run's timings is
    steady from run to run.  While the gauge is active, a timer signal
    interrupts the running operation every ``GAUGE_PERIOD_S`` and times one
    pass of ``reference_loop`` (about 1% of the time).  ``scale(start,
    end)`` is the factor that turns a time measured in that interval into
    the time it would have taken with the loop at ``REFERENCE_LOOP_S``,
    from the samples taken within a period of the interval.

    The loop runs in the interrupted operation's heap and after its cache
    traffic, so the program's memory can move the reading too
    (``gauge_check.py`` measures by how much); the report keeps the
    unscaled figures beside the scaled ones.
    """

    def __init__(self):
        self.active = False
        self.at: list[float] = []  # sample times, ascending
        self.loop: list[float] = []  # loop seconds at those times

    def _tick(self, signum, frame):
        if self.active:
            # the loop's allocations must not start a collection of the
            # operation's objects, which would be timed as machine speed
            enabled = gc.isenabled()
            gc.disable()
            try:
                self.at.append(time.perf_counter())
                self.loop.append(self.loop_s(1))
            finally:
                if enabled:
                    gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @staticmethod
    def loop_s(n: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            reference_loop()
        return (time.perf_counter() - t0) / n

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        if not self.loop:
            self.at.append(time.perf_counter())
            self.loop.append(self.loop_s(10))
        lo = bisect.bisect_left(self.at, start - GAUGE_PERIOD_S)
        hi = bisect.bisect_right(self.at, end + GAUGE_PERIOD_S)
        if lo == hi:  # no sample near: the nearest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_LOOP_S / statistics.fmean(self.loop[lo:hi])


class Tally:
    """What the rounds of one run did: outcomes, and the start and duration
    of every repetition of every operation (each runs once per round),
    untraced and traced apart."""

    def __init__(self, n_ops: int):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, list] = {}  # kind -> [count, first reason]
        self.rounds = {False: 0, True: 0}
        self.times = {False: [[] for _ in range(n_ops)], True: [[] for _ in range(n_ops)]}
        self.nodes = {False: 0, True: 0}
        self.gauge = SpeedGauge()

    def add(self, i, op, status, reason, start, dt, out, traced):
        self.attempted += 1
        if status != OK:
            self.failed += 1
            self.wrong += status == workloads.WRONG
            self.failures.setdefault(op.kind, [0, f"{status}: {reason}"])[0] += 1
            return
        nodes = getattr(out, "nodes", None)
        if isinstance(nodes, int):
            self.nodes[traced] += nodes
        self.times[traced][i].append((start, dt))

    def scaled(self, traced: bool = False) -> list[list[float]]:
        """Each operation's repetition times, scaled by the gauge."""
        scale = self.gauge.scale
        return [[dt * scale(t0, t0 + dt) for t0, dt in t] for t in self.times[traced]]


def run_rounds(ops, seconds: float, recorder=None) -> Tally:
    """Whole rounds until ``seconds`` have passed; with a recorder, rounds
    alternate untraced and traced and end on a traced one."""
    tally = Tally(len(ops))
    start = time.perf_counter()
    with tally.gauge:
        while True:
            traced = recorder is not None and tally.rounds[False] > tally.rounds[True]
            if traced:
                recorder.patch()
            try:
                for i, op in enumerate(ops):
                    if traced:
                        recorder.op_id = sum(tally.rounds.values()) * len(ops) + i
                    tally.gauge.active = True
                    result = execute(op)
                    tally.gauge.active = False
                    tally.add(i, op, *result, traced)
            finally:
                if traced:
                    recorder.unpatch()
            tally.rounds[traced] += 1
            if time.perf_counter() - start >= seconds and (
                recorder is None or tally.rounds[True] == tally.rounds[False]
            ):
                return tally


def percentile_ms(samples, q: int) -> float | None:
    """The q-th percentile, only if at least ten samples lie beyond it."""
    if len(samples) * (100 - q) < 1000:
        return None
    return statistics.quantiles(samples, n=100)[q - 1]


def rate_and_p50(ops, times) -> tuple[list, float, float]:
    """Operations that did not fail, each with its mean repetition time;
    operations per second, counting each once at that mean; and the median
    latency in ms over every repetition."""
    done = [(op, statistics.fmean(t)) for op, t in zip(ops, times) if t]
    rate = len(done) / sum(t for _, t in done)
    latencies_ms = [dt * 1e3 for t in times for dt in t]
    return done, rate, statistics.median(latencies_ms)


def end_to_end(ops, tally: Tally, setup_s: float, workload: str) -> tuple[dict, dict]:
    """The gated metrics, and the report under the names each workload uses,
    with the same figures unscaled ("raw") beside them."""
    scaled = tally.scaled()
    done, ops_per_s, p50 = rate_and_p50(ops, scaled)
    _, raw_rate, raw_p50 = rate_and_p50(ops, [[dt for _, dt in t] for t in tally.times[False]])
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    family = workload.split("-")[0]
    rate, p50_name = {
        "decide": ("verdicts_per_s", "verdict_p50_ms"),
        "verify": ("certs_per_s", "verify_p50_ms"),
        "equiv": ("equiv_checks_per_s", "equiv_p50_ms"),
    }[family]
    latencies_ms = [dt * 1e3 for t in scaled for dt in t]
    report = {rate: ops_per_s, f"{rate} (raw)": raw_rate,
              p50_name: p50, f"{p50_name} (raw)": raw_p50,
              "samples": len(latencies_ms), "speed scale": tally.gauge.scale()}
    if family == "decide":
        report["verdict_p99_ms"] = percentile_ms(latencies_ms, 99)
        report["nodes per round"] = tally.nodes[False] // tally.rounds[False]
    if family == "verify":
        steps = [(op.steps, t) for op, t in done if op.steps]
        report["replay_steps_per_s"] = sum(n for n, _ in steps) / sum(t for _, t in steps)
    return metrics, report


def per_layer(tally: Tally, recorder) -> dict:
    """Per traced round: calls and self time of each layer, choices per
    successor call, nodes; and the tracing overhead, as the mean traced
    against the mean untraced repetition of the same operations."""
    rounds = tally.rounds[True]

    def per_round(count):  # an exact count stays an integer
        return count // rounds if count % rounds == 0 else count / rounds

    out = {}
    for idx, name in enumerate(tracing.NAMES):
        out[f"{name}.calls"] = per_round(recorder.calls[idx])
        out[f"{name}.self_s"] = recorder.self_s[idx] / rounds
    succ = tracing.NAMES.index("modules.successor_choices")
    out["modules.successor_choices.choices_per_call"] = (
        recorder.choices / recorder.calls[succ] if recorder.calls[succ] else 0.0
    )
    out["engine.nodes"] = per_round(tally.nodes[True])
    pairs = [(statistics.fmean(u), statistics.fmean(t))
             for u, t in zip(tally.scaled(False), tally.scaled(True)) if u and t]
    out["trace.overhead_pct"] = 100.0 * (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not Path(tracelang.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"tracelang was imported from {tracelang.__file__}, not from src/", file=sys.stderr)
        return 2
    pristine = tracing.check_pristine()
    wrong_checks = self_test()

    build = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUPS):
        before = SpeedGauge.loop_s(10)
        t0 = time.perf_counter()
        ops = build(args.seed)
        took = time.perf_counter() - t0
        setups.append(took * 2 * REFERENCE_LOOP_S / (before + SpeedGauge.loop_s(10)))
    setup_s = statistics.median(setups)
    gc.collect()

    recorder = tracing.Recorder() if args.trace else None
    tally = run_rounds(ops, args.seconds, recorder)
    pristine += tracing.check_pristine()

    result = {
        "workload": args.workload,
        "correct": tally.wrong == 0 and not wrong_checks and not pristine,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": tally.rounds[False] + tally.rounds[True],
        "ops_per_round": len(ops),
        "failures": tally.failures,
        "self_test_misjudged": wrong_checks,
        "not_pristine": pristine,
        "recursion_limit": [LIMIT_AT_START, sys.getrecursionlimit()],
    }
    if recorder is None:
        result["metrics"], result["report"] = end_to_end(ops, tally, setup_s, args.workload)
    else:
        result["metrics"] = per_layer(tally, recorder)
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.write_spans(spans, {"workload": args.workload, "seed": args.seed})
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
