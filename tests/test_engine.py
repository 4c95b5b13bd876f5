import dataclasses
import random
import sys

import pytest

from tracelang import engine, terms as T
from tracelang.engine import (
    Evaluator,
    SearchConfig,
    Trace,
    Witness,
    check_bg,
    check_eq,
    enumerate_witnesses,
    eval_deltas,
    holds_antidomain,
    run_main_task,
    verify_witness,
    witness_length,
)
from tracelang.errors import TraceLangError
from tracelang.modules import Choice
from tracelang.parser import parse_program

from helpers import random_program, random_structure, structure_of


def _program(text, structure):
    return parse_program(text, structure.vocabulary)


def _cfg(program, structure, **kw):
    return SearchConfig.for_run(program, structure, **kw)


def guess_program(structure):
    return _program("module GuessP { P(x) <~ adom(x) }\nterm: GuessP", structure)


def test_eval_id_yields_input_only():
    s = structure_of(("a",), registers=("P",))
    prog = guess_program(s)
    found, complete = eval_deltas(prog, T.Id(), Trace.initial(s), _cfg(prog, s))
    assert complete and [t.key() for t in found] == [Trace.initial(s).key()]


def test_eval_module_yields_one_extension_per_choice():
    s = structure_of(("a", "b"), registers=("P",))
    prog = guess_program(s)
    found, complete = eval_deltas(prog, prog.main, Trace.initial(s), _cfg(prog, s))
    assert complete and len(found) == 2
    assert sorted(t.last.register_value("P") for t in found) == ["a", "b"]
    assert all(len(t) == 2 for t in found)


def test_eval_seq_composes_two_deterministic_modules():
    # letters frozen by hand: blank, then R1=a, then R1=a and R2=a
    s = structure_of(("a",), registers=("R1", "R2"))
    prog = _program(
        "module First { R1(x) <~ adom(x) }\nmodule Second { R2(x) <~ R1(x) }\n"
        "term: First ; Second",
        s,
    )
    found, complete = eval_deltas(prog, prog.main, Trace.initial(s), _cfg(prog, s))
    assert complete and len(found) == 1
    (trace,) = found
    assert [letter.registers for letter in trace.letters] == [
        (None, None),
        ("a", None),
        ("a", "a"),
    ]


def test_holds_antidomain_three_cases():
    s = structure_of(("a", "b"), registers=("P", "R"))
    prog = _program(
        "module GuessP { P(x) <~ adom(x) }\nmodule CopyR { P(x) <~ R(x) }\nterm: GuessP",
        s,
    )
    cfg = _cfg(prog, s)
    base = Trace.initial(s)
    assert holds_antidomain(prog, T.Id(), base, cfg) is False
    assert holds_antidomain(prog, T.ModuleRef("GuessP"), base, cfg) is False
    # CopyR reads a blank register: no transition, so the anti-domain holds
    assert holds_antidomain(prog, T.ModuleRef("CopyR"), base, cfg) is True


def test_check_eq():
    s = structure_of(("t",), {"T": {("t",)}}, registers=("Reach", "Q"), arities={"T": 1})
    tr = Trace.initial(s.with_registers(("t", None)))
    assert check_eq("Reach", "T", tr)
    blank = Trace.initial(structure_of(("a",), registers=("P", "Q")))
    assert check_eq("P", "Q", blank)
    two = Trace.initial(
        structure_of(("a", "b"), registers=("P", "Q"), state={"P": "a", "Q": "b"})
    )
    assert not check_eq("P", "Q", two)


def test_check_bg():
    s = structure_of(("a", "b"), registers=("P", "O"))
    base = Trace.initial(s)
    assert check_bg("P", "O", base)  # no earlier letters: vacuous
    assert check_bg("P", "P", base)

    # after O held a, guessing P=a violates BG(P != O)
    mid = base.extend(s.with_registers((None, "a")), Choice("m", (("O", "a"),)))
    late = mid.extend(s.with_registers(("a", "a")), Choice("m", (("P", "a"),)))
    assert not check_bg("P", "O", late)
    fresh = mid.extend(s.with_registers(("b", "a")), Choice("m", (("P", "b"),)))
    assert check_bg("P", "O", fresh)


def test_check_bg_blank_equals_blank():
    s = structure_of(("a",), registers=("P", "Q"))
    tr = Trace.initial(s).extend(s, Choice("m", ()))
    # P blank now, Q blank earlier: the interpretations coincide
    assert not check_bg("P", "Q", tr)


def test_run_main_task_requires_blank_registers():
    s = structure_of(("a",), registers=("P",), state={"P": "a"})
    prog = guess_program(s)
    with pytest.raises(TraceLangError):
        run_main_task(prog, s)


def test_enumerate_witnesses_examples():
    s = structure_of(("a", "b", "c"), registers=("P",))
    prog = guess_program(s)
    assert len(enumerate_witnesses(prog, s)) == 3

    fail_prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: fail", s)
    assert enumerate_witnesses(fail_prog, s) == []

    s2 = structure_of(("u", "v"), {"U": {("u",)}}, registers=("R1", "R2"), arities={"U": 1})
    pipeline = _program(
        "module PickU { R1(x) <~ U(x) }\nmodule Copy { R2(x) <~ R1(x) }\nterm: PickU ; Copy",
        s2,
    )
    assert len(enumerate_witnesses(pipeline, s2)) == 1


def test_witness_round_trip_and_mutations():
    s = structure_of(("a", "b", "c", "d"), registers=("P",))
    prog = _program(
        "module GuessP { P(x) <~ adom(x) }\n"
        "term: pow(GuessP ; BG(P != P), 4) ; ~(GuessP ; BG(P != P))",
        s,
    )
    cfg = _cfg(prog, s)
    verdict = run_main_task(prog, s, cfg)
    assert verdict.kind == "yes"
    w = verdict.witness
    assert witness_length(w) == 4
    assert verify_witness(prog, s, w, cfg)

    # swapped assignment outside the fresh set: rejected
    swapped = list(w.choices)
    swapped[1] = Choice("GuessP", (("P", swapped[0].as_dict()["P"]),))
    assert not verify_witness(prog, s, Witness(tuple(swapped), w.final_length), cfg)

    # truncated by one step: rejected
    assert not verify_witness(prog, s, Witness(w.choices[:-1], w.final_length - 1), cfg)
    assert not verify_witness(prog, s, Witness(w.choices[:-1], w.final_length), cfg)

    # wrong module name: rejected
    renamed = (Choice("Nope", w.choices[0].assignment),) + w.choices[1:]
    assert not verify_witness(prog, s, Witness(renamed, w.final_length), cfg)

    # inconsistent final_length: rejected
    assert not verify_witness(
        prog, s, dataclasses.replace(w, final_length=w.final_length + 1), cfg
    )


def test_witness_length_id_only_program():
    s = structure_of(("a",), registers=("P",))
    prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: id ; test(P == P)", s)
    verdict = run_main_task(prog, s)
    assert verdict.kind == "yes" and witness_length(verdict.witness) == 0


def test_pref_union_prefers_defined_left():
    s = structure_of(("a",), registers=("P", "R"))
    prog = _program(
        "module GuessP { P(x) <~ adom(x) }\nmodule CopyR { P(x) <~ R(x) }\n"
        "term: GuessP <+ id",
        s,
    )
    found, _ = eval_deltas(prog, prog.main, Trace.initial(s), _cfg(prog, s))
    assert [len(t) for t in found] == [2]  # left arm, not id

    prog2 = _program(
        "module GuessP { P(x) <~ adom(x) }\nmodule CopyR { P(x) <~ R(x) }\n"
        "term: CopyR <+ id",
        s,
    )
    found2, _ = eval_deltas(prog2, prog2.main, Trace.initial(s), _cfg(prog2, s))
    assert [len(t) for t in found2] == [1]  # left undefined: falls through


def test_max_iterate_terminates_via_milestone_exclusion():
    # the guess module is always defined, so the iterate can never exit; all
    # unfoldings revisit a valuation and are rejected, so the term is
    # undefined, with no bound hit
    s = structure_of(("a", "b"), registers=("P",))
    prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: GuessP ^", s)
    cfg = _cfg(prog, s)
    verdict = run_main_task(prog, s, cfg)
    assert verdict.kind == "no"

    id_iter = _program("module GuessP { P(x) <~ adom(x) }\nterm: id ^", s)
    assert run_main_task(id_iter, s, cfg).kind == "no"


def test_max_iterate_exits_exactly_at_exhaustion():
    s = structure_of(("a", "b"), registers=("P",))
    prog = _program(
        "module GuessP { P(x) <~ adom(x) }\nterm: (GuessP ; BG(P != P)) ^", s
    )
    found, complete = eval_deltas(prog, prog.main, Trace.initial(s), _cfg(prog, s))
    assert complete
    # both orders of exhausting the two elements
    assert sorted(len(t) for t in found) == [3, 3]


def test_tests_are_diagonal():
    rng = random.Random(41)
    s = structure_of(("a", "b"), registers=("P", "Q"))
    prog = guess_program(s)
    cfg = _cfg(prog, s, max_antidomain_depth=8)
    base = Trace.initial(s)
    test_shaped = [
        T.EqTest("P", "Q"),
        T.BackGlobal("P", "Q"),
        T.Id(),
        T.AntiDomain(T.ModuleRef("GuessP")),
        T.AntiDomain(T.AntiDomain(T.ModuleRef("GuessP"))),
        T.Seq(T.Id(), T.EqTest("P", "P")),
    ]
    for t in test_shaped:
        found, complete = eval_deltas(prog, t, base, cfg)
        assert complete
        assert all(u.key() == base.key() for u in found)


def test_weak_idempotence_of_antidomain():
    s = structure_of(("a",), registers=("P", "R"))
    prog = _program(
        "module GuessP { P(x) <~ adom(x) }\nmodule CopyR { P(x) <~ R(x) }\nterm: GuessP",
        s,
    )
    cfg = _cfg(prog, s, max_antidomain_depth=8)
    base = Trace.initial(s)
    dead = T.ModuleRef("CopyR")  # undefined at base
    single, c1 = eval_deltas(prog, T.AntiDomain(dead), base, cfg)
    triple, c3 = eval_deltas(prog, T.AntiDomain(T.AntiDomain(T.AntiDomain(dead))), base, cfg)
    assert c1 and c3
    assert [t.key() for t in single] == [t.key() for t in triple] == [base.key()]


def test_node_budget_reports_bound_exceeded():
    s = structure_of(("a", "b", "c", "d", "e"), registers=("P",))
    prog = _program(
        "module GuessP { P(x) <~ adom(x) }\nterm: (GuessP ; BG(P != P))^ ; fail", s
    )
    cfg = _cfg(prog, s, node_budget=5)
    assert run_main_task(prog, s, cfg).kind == "bound-exceeded"


def test_antidomain_depth_cap_gives_bound_exceeded():
    s = structure_of(("a",), registers=("P",))
    prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: ~ GuessP", s)
    cfg = SearchConfig.for_run(prog, s, max_antidomain_depth=0)
    assert run_main_task(prog, s, cfg).kind == "bound-exceeded"


def test_trace_length_bound_blocks_deep_search():
    s = structure_of(("a", "b", "c"), registers=("P",))
    prog = _program(
        "module GuessP { P(x) <~ adom(x) }\nterm: GuessP ; GuessP ; GuessP ; fail", s
    )
    cfg = _cfg(prog, s, max_trace_length=2)
    assert run_main_task(prog, s, cfg).kind == "bound-exceeded"


def test_search_is_deterministic():
    rng = random.Random(43)
    for _ in range(30):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=3)
        cfg = SearchConfig(k=2, max_trace_length=5, max_antidomain_depth=10)
        v1 = Evaluator(prog, cfg).run(s)
        v2 = Evaluator(prog, cfg).run(s)
        assert v1.kind == v2.kind
        if v1.kind == "yes":
            assert v1.witness == v2.witness
            assert verify_witness(prog, s, v1.witness, cfg)


def test_st_conn_path_witness_counts_module_steps():
    from tracelang.problems import ProblemId, build_program, make_st_instance

    inst = make_st_instance(4, [(0, 1), (1, 2), (2, 3)], 0, 3)
    prog = build_program(ProblemId.ST_CONNECTIVITY, inst.vocabulary)
    verdict = run_main_task(prog, inst)
    assert verdict.kind == "yes"
    assert witness_length(verdict.witness) >= 3  # one letter per module step


def test_witness_limit_caps_enumeration():
    s = structure_of(("a", "b", "c", "d"), registers=("P",))
    prog = guess_program(s)
    cfg = SearchConfig.for_run(prog, s, witness_limit=2)
    assert len(Evaluator(prog, cfg).enumerate(s)) == 2


def test_element_constants_in_rule_bodies():
    s = structure_of(("a", "b"), {"E": {("a", "b"), ("b", "a")}}, registers=("P",))
    prog = _program('module PickFromA { P(y) <~ E("a", y) }\nterm: PickFromA', s)
    verdict = run_main_task(prog, s)
    assert verdict.kind == "yes"
    assert verdict.trace.last.register_value("P") == "b"

    # a constant outside the domain is rejected when the program meets a
    # concrete structure
    bad = _program('module PickFromA { P(y) <~ E("zz", y) }\nterm: PickFromA', s)
    with pytest.raises(TraceLangError):
        run_main_task(bad, s)


def test_replay_needs_exact_choice_stream():
    s = structure_of(("a", "b"), registers=("P",))
    prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: GuessP ; GuessP", s)
    cfg = _cfg(prog, s)
    verdict = run_main_task(prog, s, cfg)
    w = verdict.witness
    assert verify_witness(prog, s, w, cfg)
    longer = Witness(w.choices + (w.choices[0],), w.final_length + 1)
    assert not verify_witness(prog, s, longer, cfg)


def test_replay_stack_depth_is_flat_in_chain_length(monkeypatch):
    # A pow(t, j) certificate is a left-nested chain of j - 1 Seq nodes.  If
    # replay recursed once per level, the frame depth at each module step
    # would grow with j, and deep calls would cost more per step than shallow
    # ones, breaking linear replay time.
    s = structure_of(tuple(f"d{i}" for i in range(40)), registers=("P",))
    real_apply_choice = engine.apply_choice
    depths: list[int] = []

    def recording_apply_choice(*args, **kwargs):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        depths.append(depth)
        return real_apply_choice(*args, **kwargs)

    max_depth = {}
    for j in (5, 40):
        prog = _program(
            f"module GuessP {{ P(x) <~ adom(x) }}\nterm: pow(GuessP ; BG(P != P), {j})", s
        )
        cfg = _cfg(prog, s)
        verdict = run_main_task(prog, s, cfg)
        assert verdict.kind == "yes" and witness_length(verdict.witness) == j
        depths.clear()
        with monkeypatch.context() as m:
            m.setattr(engine, "apply_choice", recording_apply_choice)
            assert verify_witness(prog, s, verdict.witness, cfg)
        assert len(depths) == j
        max_depth[j] = max(depths)
    assert max_depth[5] == max_depth[40]


def _ref_check_bg(p, q, letters):
    target = letters[-1].interp(p)
    return all(earlier.interp(q) != target for earlier in letters[:-1])


def test_persistent_trace_matches_tuple_reference():
    # Random walks that extend one node into several siblings, including a
    # probe extension that is dropped before the real one (the order replay's
    # maximum iterate uses: the exists check first, then the step).  Every
    # node is checked against the letters and choices it was built from.
    rng = random.Random(47)
    for _ in range(25):
        s = structure_of(
            ("a", "b", "c"), {"U": {("a",), ("c",)}}, registers=("P", "Q"), arities={"U": 1}
        )
        root = Trace.initial(s)
        nodes = [(root, (s,), ())]
        for _ in range(60):
            node, letters, choices = rng.choice(nodes)
            values = tuple(rng.choice((None, "a", "b", "c")) for _ in range(2))
            choice = Choice("m", tuple(zip(("P", "Q"), values)))
            if rng.random() < 0.3:
                node.extend(s.with_registers(values), choice)  # probe, dropped
                values = tuple(rng.choice((None, "a", "b", "c")) for _ in range(2))
            letter = s.with_registers(values)
            nodes.append((node.extend(letter, choice), letters + (letter,), choices + (choice,)))
        # an equal chain with no shared ancestor, from an equal input
        twin = Trace.initial(structure_of(
            ("a", "b", "c"), {"U": {("a",), ("c",)}}, registers=("P", "Q"), arities={"U": 1}
        ))
        _, letters, choices = max(nodes, key=lambda n: len(n[1]))
        for letter, choice in zip(letters[1:], choices):
            twin = twin.extend(letter, choice)
        nodes.append((twin, letters, choices))
        # same valuations over a different EDB: never equal
        other = Trace.initial(structure_of(
            ("a", "b", "c"), {"U": {("b",)}}, registers=("P", "Q"), arities={"U": 1}
        ))
        nodes.append((other, (other.input,), ()))

        for trace, letters, choices in nodes:
            assert trace.letters == letters and trace.choices == choices
            assert trace.key() == tuple(letter.registers for letter in letters)
            assert len(trace) == len(letters) and trace.last is letters[-1]
            for p in ("P", "Q", "U"):
                for q in ("P", "Q", "U"):
                    assert check_bg(p, q, trace) == _ref_check_bg(p, q, letters)
                    assert check_eq(p, q, trace) == (
                        letters[-1].interp(p) == letters[-1].interp(q)
                    )
        for a, la, _ in rng.sample(nodes, 30):
            for b, lb, _ in nodes:
                same = la == lb
                assert (a == b) == same and (b == a) == same
                if same:
                    assert hash(a) == hash(b)


def test_st_conn_path_memory_is_linear_in_trace_length():
    # Extending a trace shares its prefix and CQ steps look edges up in an
    # index, so deciding a 1,200-node path stays far below the 200+ MiB that
    # whole-trace copies took.  The peak is counted by tracemalloc, not timed.
    import tracemalloc

    from tracelang.problems import ProblemId, build_program, make_st_instance

    n = 1200
    order = list(range(n))
    random.Random(1200).shuffle(order)
    edges = list(zip(order, order[1:]))
    for s, t, kind, nodes in ((order[0], order[-1], "yes", 2399), (order[1], order[0], "no", 2397)):
        inst = make_st_instance(n, edges, s, t)
        prog = build_program(ProblemId.ST_CONNECTIVITY, inst.vocabulary)
        tracemalloc.start()
        try:
            verdict = run_main_task(prog, inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.kind == kind and verdict.nodes == nodes
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
