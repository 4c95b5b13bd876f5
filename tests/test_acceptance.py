"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The engine's yes/no verdicts are checked against independent brute-force
oracles on fixed grids of instances, certificates are re-verified and
attacked, and the search engine is cross-checked against the denotational
reference semantics.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import time

import pytest

from tracelang import terms as T
from tracelang.engine import (
    Evaluator,
    SearchConfig,
    Trace,
    eval_deltas,
    run_main_task,
    verify_witness,
    witness_length,
)
from tracelang.lab import UNKNOWN, denotational_deltas
from tracelang.parser import parse_program
from tracelang.problems import (
    ProblemId,
    build_instance,
    build_program,
    make_mod2_instance,
    make_st_instance,
    oracle,
)
from tracelang.structures import permute_structure, serialize_structure
from tracelang.witness_io import verify_witness_file, witness_to_json

from helpers import random_program, random_structure, structure_of


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@dataclasses.dataclass
class Record:
    pid: ProblemId
    instance: object
    program: object
    cfg: SearchConfig
    verdict: object
    expected: bool


def _run(pid, instance):
    program = build_program(pid, instance.vocabulary)
    cfg = SearchConfig.for_run(program, instance)
    verdict = run_main_task(program, instance, cfg)
    return Record(pid, instance, program, cfg, verdict, oracle(pid, instance))


def _agreement(records):
    ok = sum(
        1
        for r in records
        if r.verdict.kind != "bound-exceeded" and (r.verdict.kind == "yes") == r.expected
    )
    return ok, len(records)


@pytest.fixture(scope="module")
def corpus():
    """All grid runs, shared across criteria; records timing per family."""
    data: dict[str, list[Record]] = {}
    timing: dict[str, float] = {}

    start = time.perf_counter()
    data["even"] = [_run(ProblemId.EVEN, build_instance(ProblemId.EVEN, {"n": n})) for n in range(1, 8)]
    timing["even"] = time.perf_counter() - start

    start = time.perf_counter()
    data["size-four"] = [
        _run(ProblemId.SIZE_FOUR, build_instance(ProblemId.SIZE_FOUR, {"n": n})) for n in range(1, 7)
    ]
    timing["size-four"] = time.perf_counter() - start

    rng = random.Random(2024)
    same_size = []
    for i in range(50):
        n = rng.randint(2, 6)
        p_size = rng.randint(0, min(4, n))
        q_size = p_size if i % 2 == 0 else rng.randint(0, min(4, n))
        same_size.append(
            _run(
                ProblemId.SAME_SIZE,
                build_instance(
                    ProblemId.SAME_SIZE,
                    {"n": n, "p_size": p_size, "q_size": q_size},
                    seed=rng.randrange(1 << 30),
                ),
            )
        )
    data["same-size"] = same_size

    st = []
    for n in (1, 2, 3):
        pairs = [(u, v) for u in range(n) for v in range(n)]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            for s in range(n):
                for t in range(n):
                    st.append(_run(ProblemId.ST_CONNECTIVITY, make_st_instance(n, edges, s, t)))
    for i in range(50):
        st.append(
            _run(
                ProblemId.ST_CONNECTIVITY,
                build_instance(
                    ProblemId.ST_CONNECTIVITY,
                    {"n": rng.randint(4, 5), "edge_prob": rng.choice([0.15, 0.3, 0.5])},
                    seed=rng.randrange(1 << 30),
                ),
            )
        )
    data["st-conn"] = st

    data["same-gen"] = [
        _run(
            ProblemId.SAME_GENERATION,
            build_instance(ProblemId.SAME_GENERATION, {"n": rng.randint(1, 7)}, seed=rng.randrange(1 << 30)),
        )
        for _ in range(30)
    ]

    mod2 = []
    for nvars in (0, 1, 2, 3):
        triples = list(itertools.combinations_with_replacement(range(nvars), 3))
        candidates = [(i, j, k, p) for (i, j, k) in triples for p in (0, 1)]
        for count in (0, 1, 2, 3):
            for system in itertools.combinations(candidates, count):
                mod2.append(_run(ProblemId.MOD2_LINEAR, make_mod2_instance(nvars, list(system))))
    data["mod2"] = mod2

    return data, timing


def test_criterion_1_even_oracle_agreement(corpus):
    data, timing = corpus
    ok, total = _agreement(data["even"])
    passed = ok == total == 7 and timing["even"] < 10.0
    _report(1, "EVEN oracle agreement", passed, f"{ok}/{total} agree, {timing['even']:.2f}s (< 10s)")


def test_criterion_2_size_four_oracle_agreement(corpus):
    data, timing = corpus
    ok, total = _agreement(data["size-four"])
    passed = ok == total == 6 and timing["size-four"] < 5.0
    _report(2, "Size Four oracle agreement", passed, f"{ok}/{total} agree, {timing['size-four']:.2f}s (< 5s)")


def test_criterion_3_same_size_oracle_agreement(corpus):
    data, _ = corpus
    ok, total = _agreement(data["same-size"])
    _report(3, "Same Size oracle agreement", ok == total == 50, f"{ok}/{total} agree")


def test_criterion_4_st_connectivity_oracle_agreement(corpus):
    data, _ = corpus
    ok, total = _agreement(data["st-conn"])
    _report(
        4,
        "s-t connectivity vs BFS",
        ok == total,
        f"{ok}/{total} agree (exhaustive on <= 3 nodes plus 50 seeded 4-5 node graphs)",
    )


def test_criterion_5_same_generation_oracle_agreement(corpus):
    data, _ = corpus
    ok, total = _agreement(data["same-gen"])
    _report(5, "Same Generation vs depth oracle", ok == total == 30, f"{ok}/{total} agree")


def test_criterion_6_mod2_oracle_agreement(corpus):
    data, _ = corpus
    ok, total = _agreement(data["mod2"])
    _report(
        6,
        "mod-2 equations vs solvability",
        ok == total,
        f"{ok}/{total} agree (exhaustive, <= 3 vars, <= 3 equations)",
    )


def test_criterion_7_engine_vs_denotational_cross_check():
    rng = random.Random(4242)
    compared = disagreements = 0
    cases = 0
    while cases < 500:
        cases += 1
        s = random_structure(rng, max_domain=3)
        prog = random_program(rng, s, depth=4)
        cfg = SearchConfig(k=2, max_trace_length=5)
        base = Trace.initial(s)
        deno = denotational_deltas(prog, prog.main, base, cfg)
        found, complete = eval_deltas(prog, prog.main, base, cfg)
        if deno is UNKNOWN or not complete:
            continue
        compared += 1
        if {t.key() for t in found} != {t.key() for t in deno.extensions}:
            disagreements += 1
    passed = disagreements == 0 and compared >= 300
    _report(
        7,
        "search vs denotational semantics",
        passed,
        f"{compared}/500 comparable cases, {disagreements} disagreements",
    )


def _linear_fit(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return slope, r2


def test_criterion_8_certificate_round_trip_and_mutations(corpus):
    data, _ = corpus

    # (a) every yes-verdict witness re-verifies
    yes_records = [r for group in data.values() for r in group if r.verdict.kind == "yes"]
    reverified = sum(
        1 for r in yes_records if verify_witness(r.program, r.instance, r.verdict.witness, r.cfg)
    )

    # (b) replay time grows linearly with certificate length: a fixed domain,
    # growing chains of fresh guesses.  A replay step tests one element for
    # membership, a few microseconds of work, and this machine's speed
    # drifts by tens of percent for spells longer than a replay, so a
    # minimum of raw times scatters.  Each sample therefore times a batch of
    # replays of one length in process CPU time (``time.process_time``)
    # right after a batch of the longest certificate, the reference, and is
    # the ratio of the two: a spell slows both alike.  Every certificate is
    # built and warmed up first; each of the 9 rounds then samples every
    # length once, in an order shuffled by a seeded generator, with the
    # collector paused, and the fit is over the median ratio per length.
    # The slope is reported in seconds per step at the median reference time.
    import gc
    import statistics

    n = 120
    s = structure_of(tuple(f"d{i}" for i in range(n)), registers=("P",))
    certificates = {}
    for j in range(5, 41):
        prog = parse_program(
            "module GuessP { P(x) <~ adom(x) }\n"
            f"term: pow(GuessP ; BG(P != P), {j})",
            s.vocabulary,
        )
        cfg = SearchConfig.for_run(prog, s)
        verdict = run_main_task(prog, s, cfg)
        assert verdict.kind == "yes" and witness_length(verdict.witness) == j
        # the deterministic count next to the timing: replay expands exactly
        # one node per certificate step, and its checks expand none
        replayer = Evaluator(prog, s, cfg)
        replayer.replay(verdict.witness)
        assert replayer.nodes == j
        certificates[j] = (prog, verdict.witness, cfg)
    rng = random.Random(8)
    order = list(certificates)
    reference = certificates[max(order)]
    ratios: dict[int, list[float]] = {j: [] for j in order}
    references = []
    gc.disable()
    try:
        for j in order:
            prog, witness, cfg = certificates[j]
            _timed_replay(prog, s, witness, cfg)  # warm-up
        for _ in range(9):
            rng.shuffle(order)
            for j in order:
                prog, witness, cfg = certificates[j]
                references.append(_timed_replay(reference[0], s, *reference[1:]))
                ratios[j].append(_timed_replay(prog, s, witness, cfg) / references[-1])
    finally:
        gc.enable()
    points = sorted((j, statistics.median(r)) for j, r in ratios.items())
    slope, r2 = _linear_fit([p[0] for p in points], [p[1] for p in points])
    slope *= statistics.median(references)

    # (c) single-field mutations are rejected
    mutations_ok = _mutations_rejected()

    passed = reverified == len(yes_records) and len(points) >= 30 and r2 >= 0.9 and slope > 0 and mutations_ok
    _report(
        8,
        "NP certificate round trip",
        passed,
        f"{reverified}/{len(yes_records)} witnesses re-verify; "
        f"replay fit over {len(points)} points: slope={slope:.2e}s/step, R^2={r2:.3f}; "
        f"mutations rejected: {mutations_ok}",
    )


def _timed_replay(prog, s, witness, cfg, batch: int = 5) -> float:
    """Process CPU seconds per replay, over a batch of replays."""
    start = time.process_time()
    for _ in range(batch):
        assert verify_witness(prog, s, witness, cfg)
    return (time.process_time() - start) / batch


def _mutations_rejected() -> bool:
    instance = build_instance(ProblemId.EVEN, {"n": 4})
    program = build_program(ProblemId.EVEN, instance.vocabulary)
    cfg = SearchConfig.for_run(program, instance)
    verdict = run_main_task(program, instance, cfg)
    assert verdict.kind == "yes"
    from tracelang.problems import program_text

    ptext = program_text(ProblemId.EVEN)
    stext = serialize_structure(instance)
    doc = json.loads(witness_to_json(verdict.witness, ptext, stext, cfg.k))
    assert verify_witness_file(ptext, stext, json.dumps(doc))[0]

    def rejected(mutate) -> bool:
        clone = json.loads(json.dumps(doc))
        mutate(clone)
        ok, _ = verify_witness_file(ptext, stext, json.dumps(clone))
        return not ok

    elements = list(instance.domain)
    mutations = [
        lambda d: d.update(program="0" * 64),
        lambda d: d.update(input="0" * 64),
        lambda d: d.update(k=0),  # certificate no longer fits the claimed bound
        lambda d: d.update(final_length=d["final_length"] + 1),
        lambda d: d.update(final_length=d["final_length"] - 1),
        lambda d: d["choices"].pop(),
        lambda d: d["choices"].append(d["choices"][0]),
        lambda d: d["choices"][0].update(module="MarkOdd"),
        # repeat an already-used element: the freshness test must fire
        lambda d: d["choices"][2]["assignment"].update(P=d["choices"][0]["assignment"]["P"]),
        # write an element outside the deterministic answer set
        lambda d: d["choices"][1]["assignment"].update(
            O=[e for e in elements if e != d["choices"][1]["assignment"]["O"]][0]
        ),
    ]
    return all(rejected(m) for m in mutations)


def test_criterion_9_isomorphism_invariance(corpus):
    data, _ = corpus
    rng = random.Random(777)
    pool = (
        [r for r in data["even"] if len(r.instance.domain) <= 6]
        + [r for r in data["size-four"] if len(r.instance.domain) <= 6]
        + rng.sample(data["same-size"], 20)
        + rng.sample([r for r in data["st-conn"] if len(r.instance.domain) >= 2], 30)
        + rng.sample(data["same-gen"], 20)
        + rng.sample([r for r in data["mod2"] if len(r.instance.domain) <= 5], 19)
    )
    pool = pool[:100]
    assert len(pool) == 100
    unchanged = 0
    for record in pool:
        domain = list(record.instance.domain)
        image = domain[:]
        rng.shuffle(image)
        permuted = permute_structure(record.instance, dict(zip(domain, image)))
        verdict = run_main_task(record.program, permuted, record.cfg)
        if verdict.kind == record.verdict.kind:
            unchanged += 1
    _report(9, "isomorphism invariance", unchanged == 100, f"{unchanged}/100 verdict kinds unchanged")


def test_criterion_10_weak_idempotence_of_antidomain():
    rng = random.Random(31337)
    from helpers import random_core_term

    checked = 0
    attempts = 0
    failures = 0
    while checked < 100 and attempts < 4000:
        attempts += 1
        s = random_structure(rng, max_domain=3)
        prog = random_program(rng, s, depth=2)
        t = random_core_term(rng, sorted(prog.modules), rng.randint(0, 2))
        cfg = SearchConfig(k=2, max_trace_length=5)
        ev = Evaluator(prog, s, cfg)
        # build a random base trace by a few module steps
        base = Trace.initial(s)
        for _ in range(rng.randint(0, 2)):
            steps = ev._successors(rng.choice(sorted(prog.modules)), base)
            if not steps:
                break
            choice = rng.choice(steps)
            base = base.extend(choice)
        single, c1 = eval_deltas(prog, T.AntiDomain(t), base, cfg)
        if not c1 or not single:
            continue  # only bases where the anti-domain passes count
        checked += 1
        triple, c3 = eval_deltas(prog, T.AntiDomain(T.AntiDomain(T.AntiDomain(t))), base, cfg)
        if not c3 or [u.key() for u in triple] != [u.key() for u in single]:
            failures += 1
    passed = checked == 100 and failures == 0
    _report(
        10,
        "weak idempotence of anti-domain",
        passed,
        f"{checked} passing bases sampled, {failures} mismatches",
    )


def test_criterion_11_polynomial_witness_lengths(corpus):
    data, _ = corpus
    violations = 0
    total = 0
    for group in data.values():
        for r in group:
            if r.verdict.kind != "yes":
                continue
            total += 1
            n = len(r.instance.domain)
            if witness_length(r.verdict.witness) > n ** r.cfg.k:
                violations += 1
    _report(
        11,
        "polynomial witness length bound",
        violations == 0 and total > 0,
        f"{total} witnesses, {violations} over n^k",
    )
