import dataclasses
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies

from tracelang import engine, terms as T
from tracelang.cq import Atom, CQBody
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
    replay_failure,
    run_main_task,
    verify_witness,
    witness_length,
)
from tracelang.errors import InvalidParamsError, ParseError, TraceLangError
from tracelang.lab import UNKNOWN, is_defined
from tracelang.modules import Choice, ModuleDef, Rule, successor_choices
from tracelang.parser import MAX_NESTING, Program, parse_program, parse_term

from helpers import (
    frame_depth,
    near_the_default_limit,
    random_core_term,
    random_modules,
    random_program,
    random_structure,
    reference_replay_failure,
    structure_of,
)


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
    assert sorted(t.last for t in found) == [("a",), ("b",)]
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
    # a register against an EDB symbol, either side; blank is the empty set
    assert check_eq("T", "Reach", tr) and not check_eq("Q", "T", tr)
    assert not check_eq("Reach", "T", Trace.initial(s))
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
    mid = base.extend(Choice("m", (("O", "a"),)))
    late = mid.extend(Choice("m", (("P", "a"),)))
    assert not check_bg("P", "O", late)
    fresh = mid.extend(Choice("m", (("P", "b"),)))
    assert check_bg("P", "O", fresh)


def test_check_bg_blank_equals_blank():
    s = structure_of(("a",), registers=("P", "Q"))
    tr = Trace.initial(s).extend(Choice("m", ()))
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
    cfg = _cfg(prog, s)
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
    cfg = _cfg(prog, s)
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
        cfg = SearchConfig(k=2, max_trace_length=5)
        v1 = Evaluator(prog, s, cfg).run()
        v2 = Evaluator(prog, s, cfg).run()
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
    assert len(Evaluator(prog, s, cfg).enumerate()) == 2


def test_element_constants_in_rule_bodies():
    s = structure_of(("a", "b"), {"E": {("a", "b"), ("b", "a")}}, registers=("P",))
    prog = _program('module PickFromA { P(y) <~ E("a", y) }\nterm: PickFromA', s)
    verdict = run_main_task(prog, s)
    assert verdict.kind == "yes"
    assert verdict.witness.choices[-1] == Choice("PickFromA", (("P", "b"),))

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


def _record_apply_choice_depths(m, depths: list[int]) -> None:
    """Patch ``engine.apply_choice`` on ``m`` to append the frame depth of
    each call to ``depths``."""
    real_apply_choice = engine.apply_choice

    def recording_apply_choice(*args, **kwargs):
        depths.append(frame_depth())
        return real_apply_choice(*args, **kwargs)

    m.setattr(engine, "apply_choice", recording_apply_choice)


def test_replay_stack_depth_is_flat_in_chain_length(monkeypatch):
    # A pow(t, j) certificate is a left-nested chain of j - 1 Seq nodes.  If
    # replay recursed once per level, the frame depth at each module step
    # would grow with j, and deep calls would cost more per step than shallow
    # ones, breaking linear replay time.
    s = structure_of(tuple(f"d{i}" for i in range(40)), registers=("P",))
    depths: list[int] = []
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
            _record_apply_choice_depths(m, depths)
            assert verify_witness(prog, s, verdict.witness, cfg)
        assert len(depths) == j
        max_depth[j] = max(depths)
    assert max_depth[5] == max_depth[40]


def _replay_certificates():
    """The acceptance criterion-8 chain certificate (a fresh guess out of
    120 elements per step) and a mod-2 certificate, with their programs."""
    from tracelang.problems import ProblemId, build_program, make_mod2_instance

    chain = structure_of(tuple(f"d{i}" for i in range(120)), registers=("P",))
    mod2 = make_mod2_instance(3, [(0, 1, 2, 1), (0, 0, 1, 0)])
    out = []
    for prog, s in (
        (_program("module GuessP { P(x) <~ adom(x) }\nterm: pow(GuessP ; BG(P != P), 40)", chain), chain),
        (build_program(ProblemId.MOD2_LINEAR, mod2.vocabulary), mod2),
    ):
        verdict = run_main_task(prog, s)
        assert verdict.kind == "yes"
        out.append((prog, s, verdict.witness))
    return out


def test_replay_tests_each_choice_without_building_an_answer_set(monkeypatch):
    # Replay tests each recorded element with its rule's membership function.
    # With every way to an answer set patched to raise, both certificates
    # still replay.  The mod-2 program's universal checks search, and take
    # their successors from the brute-force oracle instead.
    from tracelang import cq, modules

    from helpers import naive_unary_cq

    def refuse(*_):
        raise AssertionError("replay built an answer set")

    for prog, s, witness in _replay_certificates():

        def oracle_successors(m, s, valuation, rules=prog.modules):
            letter = s.with_registers(valuation)
            answers = [sorted(naive_unary_cq(r.body, letter), key=letter.element_order) for r in rules[m.name].rules]
            return tuple(Choice(m.name, tuple(zip(m.heads, combo))) for combo in itertools.product(*answers))

        with monkeypatch.context() as m:
            m.setattr(cq, "evaluate_unary_cq", refuse)
            m.setattr(modules, "successor_choices", refuse)
            m.setattr(engine, "successor_choices", oracle_successors)
            for name, module in prog.compiled.items():
                m.setitem(prog.compiled, name, module._replace(answers=(refuse,) * len(module.answers)))
            trace = Evaluator(prog, s, _cfg(prog, s)).replay(witness)
        assert trace.choices == witness.choices


def test_search_replay_and_the_lab_build_no_structure_per_step(monkeypatch):
    # A trace keeps its one input structure and a register tuple per letter,
    # so no search, replay or lab evaluation derives a letter's structure.
    from tracelang import lab
    from tracelang.problems import ProblemId, build_program, make_st_instance
    from tracelang.structures import Structure

    def refuse(*_):
        raise AssertionError("a step built a Structure")

    _, (mod2, s2, witness) = _replay_certificates()
    path = make_st_instance(6, [(i, i + 1) for i in range(5)], 0, 5)
    st = build_program(ProblemId.ST_CONNECTIVITY, path.vocabulary)
    bases, cfg = [Trace.initial(path)], _cfg(st, path)
    with monkeypatch.context() as m:
        m.setattr(Structure, "with_registers", refuse)
        assert run_main_task(st, path).kind == "yes"
        assert verify_witness(mod2, s2, witness)
        assert lab.strongly_equivalent(st, st.main, T.Seq(T.Id(), st.main), bases, cfg) is True


def test_a_choice_is_applied_only_when_the_search_pops_it(monkeypatch):
    # A module pushes its choices unapplied; the first one popped succeeds,
    # so the other 99 are neither counted nor applied.
    s = structure_of(tuple(f"d{i}" for i in range(100)), registers=("P",))
    prog = guess_program(s)
    applied = []
    real_apply_choice = engine.apply_choice

    def counting_apply_choice(*args):
        applied.append(args)
        return real_apply_choice(*args)

    monkeypatch.setattr(engine, "apply_choice", counting_apply_choice)
    verdict = run_main_task(prog, s)
    assert verdict.kind == "yes" and verdict.nodes == 1
    assert len(applied) == 1


def test_a_choice_outside_the_answer_set_fails_with_its_reason():
    # a forged element fails its rule's membership test with the reason and
    # the choice index a replay has always given
    from tracelang.engine import replay_failure

    (chain, s, witness), (mod2, s2, witness2) = _replay_certificates()
    forged = list(witness.choices)
    forged[7] = Choice("GuessP", (("P", "zz"),))
    assert replay_failure(chain, s, Witness(tuple(forged), witness.final_length)) == (
        "at choice 7: choice P=zz is not in the answer set of GuessP"
    )
    # PickVar has two rules; the second one's element is no bit
    picks = [i for i, c in enumerate(witness2.choices) if c.module == "PickVar"]
    forged = list(witness2.choices)
    forged[picks[1]] = Choice("PickVar", (("Val", "v1"), ("Var", forged[picks[1]].as_dict()["Var"])))
    assert replay_failure(mod2, s2, Witness(tuple(forged), witness2.final_length)) == (
        f"at choice {picks[1]}: choice Val=v1 is not in the answer set of PickVar"
    )
    # a join: Step's element must be a successor of the node in Reach
    from tracelang.problems import ProblemId, build_program, make_st_instance

    path = make_st_instance(3, [(0, 1), (1, 2)], 0, 2)
    st = build_program(ProblemId.ST_CONNECTIVITY, path.vocabulary)
    verdict = run_main_task(st, path)
    a, b, c = path.domain
    assert [ch.as_dict() for ch in verdict.witness.choices][:2] == [{"Reach": a}, {"Next": b}]
    forged = list(verdict.witness.choices)
    forged[1] = Choice("Step", (("Next", c),))
    assert replay_failure(st, path, Witness(tuple(forged), verdict.witness.final_length)) == (
        f"at choice 1: choice Next={c} is not in the answer set of Step"
    )


def test_search_stack_depth_is_flat_in_path_length(monkeypatch):
    # st-conn walks a path with one iterate unfolding per edge.  Search keeps
    # its continuations and unfolding points on an explicit stack, so the
    # frame depth at each module step does not grow with the path.
    from tracelang.problems import ProblemId, build_program, make_st_instance

    depths: list[int] = []
    max_depth = {}
    for n in (50, 400):
        inst = make_st_instance(n, [(i, i + 1) for i in range(n - 1)], 0, n - 1)
        prog = build_program(ProblemId.ST_CONNECTIVITY, inst.vocabulary)
        depths.clear()
        with monkeypatch.context() as m:
            _record_apply_choice_depths(m, depths)
            assert run_main_task(prog, inst).kind == "yes"
        assert len(depths) >= n
        max_depth[n] = max(depths)
    assert max_depth[50] == max_depth[400]


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
            if rng.random() < 0.3:
                node.extend(Choice("m", tuple(zip(("P", "Q"), values))))  # probe, dropped
                values = tuple(rng.choice((None, "a", "b", "c")) for _ in range(2))
            choice = Choice("m", tuple(zip(("P", "Q"), values)))
            letter = s.with_registers(values)
            nodes.append((node.extend(choice), letters + (letter,), choices + (choice,)))
        # an equal chain with no shared ancestor, from an equal input
        twin = Trace.initial(structure_of(
            ("a", "b", "c"), {"U": {("a",), ("c",)}}, registers=("P", "Q"), arities={"U": 1}
        ))
        _, letters, choices = max(nodes, key=lambda n: len(n[1]))
        for choice in choices:
            twin = twin.extend(choice)
        nodes.append((twin, letters, choices))
        # same valuations over a different EDB: never equal
        other = Trace.initial(structure_of(
            ("a", "b", "c"), {"U": {("b",)}}, registers=("P", "Q"), arities={"U": 1}
        ))
        nodes.append((other, (other.input,), ()))

        for trace, letters, choices in nodes:
            assert trace.letters == letters and trace.choices == choices
            assert trace.key() == tuple(letter.registers for letter in letters)
            assert len(trace) == len(letters) and trace.last == letters[-1].registers
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


def _random_walk(rng, program, trace, steps):
    """Extend ``trace`` by up to ``steps`` random module steps."""
    for _ in range(steps):
        module = program.compiled[rng.choice(sorted(program.modules))]
        choices = successor_choices(module, trace.input, trace.last)
        if not choices:
            break
        choice = rng.choice(choices)
        trace = trace.extend(choice)
    return trace


def _random_one_rule_module(rng, name):
    """One rule: a head among P, Q, R, guessed from adom, U or a register,
    possibly through one edge."""
    source = rng.choice(["adom", "U", "P", "Q", "R"])
    if rng.random() < 0.5:
        atoms = (Atom(source, ("x",)),)
    else:
        atoms = (Atom(source, ("y",)), Atom("E", ("y", "x")))
    return ModuleDef(name, (Rule(rng.choice("PQR"), CQBody("x", atoms)),))


def _trace_of(s, valuations):
    """The trace over input ``s`` whose later letters hold ``valuations``,
    each made by a choice that writes every register."""
    trace = Trace.initial(s)
    for values in valuations:
        trace = trace.extend(Choice("m", tuple(zip(s.vocabulary.register_symbols, values))))
    return trace


def test_exists_table_agrees_with_a_fresh_evaluator_per_query():
    # One shared evaluator answers repeated module-bearing checks from its
    # table, keyed on the term's footprint; a fresh evaluator per query has
    # nothing tabled.  The traces are one random trace and every variant of
    # it that changes one register at one letter, so a register left out of
    # a key, or a history left out, shows as a stale answer.  Every query
    # comes over each of two inputs that differ only in their EDB, and the
    # shared evaluator is one per input.
    rng = random.Random(53)
    hits = 0
    for _ in range(40):
        inputs = [
            structure_of(
                ("a", "b"),
                {"U": u, "E": e},
                registers=("P", "Q", "R"),
                arities={"U": 1, "E": 2},
            )
            for u, e in (
                ({("a",)}, {("a", "b"), ("b", "a"), ("b", "b")}),
                ({("b",)}, {("a", "a"), ("a", "b")}),
            )
        ]
        modules = {f"M{i}": _random_one_rule_module(rng, f"M{i}") for i in range(4)}
        cfg = SearchConfig(k=2, max_trace_length=rng.randint(4, 6))
        terms = []
        for _ in range(4):
            names = rng.sample(sorted(modules), 2)
            t = random_core_term(rng, names, rng.randint(1, 3))
            # a leading module step sends the whole check to the table
            terms.append(T.Seq(T.ModuleRef(names[0]), t) if rng.random() < 0.7 else t)
        # the table keys on footprints compiled with the program: the queries
        # take each term as its core holds it, a checked subterm of its own
        main = T.Id()
        for t in terms:
            main = T.Seq(main, T.AntiDomain(t))
        prog = Program(inputs[0].vocabulary, modules, main)
        terms, node = [], prog.core
        while type(node) is T.Seq:
            terms.append(node.right.term)
            node = node.left
        assert len(terms) == 4 and all(id(t) in prog.footprint for t in terms)
        values = (None, "a", "b")
        base = [tuple(rng.choice(values) for _ in range(3)) for _ in range(rng.randint(1, 2))]
        variants = [base]
        for i, letter in enumerate(base):
            for r in range(3):
                for v in values:
                    if v != letter[r]:
                        changed = letter[:r] + (v,) + letter[r + 1 :]
                        variants.append(base[:i] + [changed] + base[i + 1 :])
        # and traces of other lengths, for the length bound
        variants += [base[:-1], base + [tuple(rng.choice(values) for _ in range(3))]]
        traces = [_trace_of(s, vs) for s in inputs for vs in variants]
        queries = [(t, tr) for t in terms for tr in traces]
        rng.shuffle(queries)
        shared = {id(s): Evaluator(prog, s, cfg) for s in inputs}
        for t, tr in queries:
            assert shared[id(tr.input)].exists(t, tr) == Evaluator(prog, tr.input, cfg).exists(t, tr)
        hits += sum(ev.table_hits for ev in shared.values())
        assert sum(ev.exists_calls for ev in shared.values()) >= len(queries)  # nested checks count too
    assert hits > 0


def _random_test_term(rng, depth):
    """Random module-free core term over the registers P, Q and the EDB U."""
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.choice(["id", "eq", "bg"])
        if kind == "id":
            return T.Id()
        p, q = rng.choice("PQU"), rng.choice("PQU")
        return T.EqTest(p, q) if kind == "eq" else T.BackGlobal(p, q)
    kind = rng.choice(["seq", "union", "anti", "iter"])
    if kind in ("seq", "union"):
        cls = T.Seq if kind == "seq" else T.PrefUnion
        return cls(_random_test_term(rng, depth - 1), _random_test_term(rng, depth - 1))
    cls = T.AntiDomain if kind == "anti" else T.MaxIterate
    return cls(_random_test_term(rng, depth - 1))


def _nested_search(ev, term, trace):
    """What ``exists`` answers by opening a nested search."""
    scope = engine._Scope()
    for _ in ev.iter_extensions(term, trace, scope):
        return True
    return None if scope.hit else False


def test_module_free_checks_match_the_oracle_and_the_nested_search():
    # A module-free check is evaluated directly on the trace: it agrees with
    # the denotational oracle and returns exactly what a nested search
    # returns, and expands no node.
    rng = random.Random(59)
    for _ in range(300):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=1)
        trace = _random_walk(rng, prog, Trace.initial(s), rng.randint(0, 4))
        t = _random_test_term(rng, rng.randint(1, 4))
        checked = Program(s.vocabulary, prog.modules, t)
        cfg = SearchConfig(k=2, max_trace_length=8)
        ev = Evaluator(checked, s, cfg)
        r = ev.exists(checked.core, trace)
        assert r == is_defined(prog, t, trace, cfg)
        assert r == _nested_search(Evaluator(checked, s, cfg), checked.core, trace)
        assert ev.nodes == 0 and not ev._table


def test_exists_matches_the_nested_search_on_terms_with_modules():
    # A check is first evaluated directly and handed to a search only when
    # it reaches a module: the answer and the nodes expanded are those of
    # the nested search, and agree with the oracle whenever the bounded
    # answer is definite.
    rng = random.Random(67)
    for _ in range(300):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=1)
        trace = _random_walk(rng, prog, Trace.initial(s), rng.randint(0, 2))
        t = random_core_term(rng, sorted(prog.modules), rng.randint(1, 4))
        checked = Program(s.vocabulary, prog.modules, t)
        cfg = SearchConfig(k=2, max_trace_length=5)
        oracle = is_defined(prog, t, trace, cfg)
        direct, searched = Evaluator(checked, s, cfg), Evaluator(checked, s, cfg)
        r = direct.exists(checked.core, trace)
        assert r == _nested_search(searched, checked.core, trace)
        assert direct.nodes == searched.nodes
        assert r is None or oracle is UNKNOWN or r == oracle


def _reference_extensions(ev, term, trace, scope):
    """The search with unfused unions: a recursive generator that checks the
    left arm of a ``<+`` with ``exists`` and then enumerates the arm it
    chose, so a left arm that holds is searched twice."""
    cls = type(term)
    if cls is T.ModuleRef:
        if trace.length >= ev.cfg.max_trace_length:
            scope.hit = True
            return
        for choice in ev._successors(term.name, trace):
            if ev.cfg.node_budget is not None and ev.nodes >= ev.cfg.node_budget:
                scope.hit = True
                return
            ev.nodes += 1
            yield trace.extend(choice)
    elif cls is T.Seq:
        for u in _reference_extensions(ev, term.left, trace, scope):
            yield from _reference_extensions(ev, term.right, u, scope)
    elif cls is T.PrefUnion:
        r = ev.exists(term.left, trace)
        if r is None:
            scope.hit = True
        else:
            yield from _reference_extensions(ev, term.left if r else term.right, trace, scope)
    elif cls is T.MaxIterate:
        yield from _reference_iterate(ev, term.term, trace, {trace.last}, scope)
    elif cls is T.AntiDomain:
        r = ev.exists(term.term, trace)
        if r is None:
            scope.hit = True
        elif not r:
            yield trace
    elif cls is T.Id or ev._test(term, trace):
        yield trace


def _reference_iterate(ev, body, trace, seen, scope):
    sub, stepped = engine._Scope(), False
    for u in _reference_extensions(ev, body, trace, sub):
        stepped = True
        key = u.last
        if key not in seen:
            seen.add(key)
            yield from _reference_iterate(ev, body, u, seen, scope)
            seen.discard(key)
    scope.hit = scope.hit or sub.hit
    if not stepped and not sub.hit:
        yield trace


def _union_term(rng, names, depth):
    """Random core term whose unions mostly have a module in their left arm."""
    if depth <= 0 or rng.random() < 0.2:
        return T.ModuleRef(rng.choice(names)) if rng.random() < 0.4 else random_core_term(rng, names, 0)
    sub = lambda: _union_term(rng, names, depth - 1)  # noqa: E731
    kind = rng.choice(["seq", "union", "union", "anti", "iter"])
    if kind == "seq":
        return T.Seq(sub(), sub())
    if kind == "union":
        left = T.Seq(T.ModuleRef(rng.choice(names)), sub()) if rng.random() < 0.7 else sub()
        return T.PrefUnion(left, sub())
    return (T.AntiDomain if kind == "anti" else T.MaxIterate)(sub())


def test_fused_unions_match_the_unfused_reference():
    # The search runs the left arm of a <+ in line, once; the reference
    # checks it with exists and then enumerates it.  Under length bounds
    # every verdict, witness, enumeration and extension set, completeness
    # included, is the same, and the search expands no more nodes; under
    # node budgets every definite answer is the same.
    rng = random.Random(71)
    fewer = 0
    for _ in range(400):
        s = random_structure(rng)
        modules = random_modules(rng)
        prog = Program(s.vocabulary, modules, _union_term(rng, sorted(modules), 4))
        trace = _random_walk(rng, prog, Trace.initial(s), rng.randint(0, 2))
        for budget in (None, rng.choice([3, 10, 30])):
            cfg = SearchConfig(k=2, max_trace_length=rng.randint(2, 5), node_budget=budget)
            ev, ref = Evaluator(prog, s, cfg), Evaluator(prog, s, cfg)
            verdict = ev.run()
            scope = engine._Scope()
            first = next(_reference_extensions(ref, prog.core, Trace.initial(s), scope), None)
            kind = "yes" if first is not None else "bound-exceeded" if scope.hit else "no"
            exts, complete = eval_deltas(prog, prog.main, trace, cfg)
            ref_ev, scope = Evaluator(prog, s, cfg), engine._Scope()
            ref_exts = list(_reference_extensions(ref_ev, prog.core, trace, scope))
            if budget is None:
                assert verdict.kind == kind and verdict.nodes <= ref.nodes
                fewer += verdict.nodes < ref.nodes
                if first is not None:
                    assert verdict.witness == Witness(first.choices, len(first))
                assert [t.key() for t in exts] == [t.key() for t in ref_exts]
                assert complete == (not scope.hit)
                witnesses = Evaluator(prog, s, cfg).enumerate()
                ref_ev, keys = Evaluator(prog, s, cfg), {}
                for t in _reference_extensions(ref_ev, prog.core, Trace.initial(s), engine._Scope()):
                    keys.setdefault(t.key(), Witness(t.choices, len(t)))
                assert witnesses == list(keys.values())[: cfg.witness_limit]
            else:
                if "bound-exceeded" not in (verdict.kind, kind):
                    assert verdict.kind == kind
                if complete and not scope.hit:
                    assert {t.key() for t in exts} == {t.key() for t in ref_exts}
    assert fewer > 0


def test_table_holds_no_inconclusive_answer():
    # Runs that hit the length bound or the node budget leave only definite
    # answers in the table.
    from tracelang.problems import ProblemId, build_program, make_mod2_instance

    inst = make_mod2_instance(3, [(0, 1, 2, 1), (0, 1, 1, 0), (2, 2, 0, 1)])
    prog = build_program(ProblemId.MOD2_LINEAR, inst.vocabulary)
    full = SearchConfig.for_run(prog, inst)
    for cfg in (
        dataclasses.replace(full, max_trace_length=7),
        dataclasses.replace(full, node_budget=150),
    ):
        ev = Evaluator(prog, inst, cfg)
        assert ev.run().kind == "bound-exceeded"
        assert ev._table and None not in ev._table.values()
    rng = random.Random(61)
    for _ in range(100):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=4)
        cfg = SearchConfig(
            k=2,
            max_trace_length=rng.randint(2, 4),
            node_budget=rng.choice([None, 5, 20]),
        )
        ev = Evaluator(prog, s, cfg)
        ev.run()
        assert None not in ev._table.values()


def test_st_conn_node_counts_are_exact():
    # Every st-conn check is module-free, so none is tabled and node counts
    # are those of the plain search.
    from tracelang.problems import ProblemId, build_program, make_st_instance

    n = 1200
    order = list(range(n))
    random.Random(1200).shuffle(order)
    edges = list(zip(order, order[1:]))
    for s, t, kind, nodes in ((order[0], order[-1], "yes", 2399), (order[1], order[0], "no", 2397)):
        inst = make_st_instance(n, edges, s, t)
        prog = build_program(ProblemId.ST_CONNECTIVITY, inst.vocabulary)
        ev = Evaluator(prog, inst, SearchConfig.for_run(prog, inst))
        verdict = ev.run()
        assert verdict.kind == kind and verdict.nodes == nodes
        assert ev.exists_calls > 0 and ev.table_hits == 0 and not ev._table


def test_mod2_counters_are_exact():
    # Pinned counters of one satisfiable and one unsatisfiable system, so
    # that a change to search order, tabling or counting fails here.
    from tracelang.problems import ProblemId, build_program, make_mod2_instance

    record = {"b0": ("RecordFalse", "FalseRec"), "b1": ("RecordTrue", "TrueRec")}
    witness = Witness(tuple(
        c
        for x, bit in (("v1", "b0"), ("v2", "b1"), ("v3", "b0"), ("v4", "b1"))
        for c in (Choice("PickVar", (("Var", x), ("Val", bit))), Choice(record[bit][0], ((record[bit][1], x),)))
    ), 9)
    for nvars, equations, expected in (
        (4, [(0, 1, 2, 1), (1, 2, 3, 0), (0, 2, 3, 1)], ("yes", witness, 201, 25, 1)),
        (3, [(0, 1, 2, 1), (2, 0, 1, 0)], ("no", None, 657, 88, 26)),
    ):
        inst = make_mod2_instance(nvars, equations)
        verdict = run_main_task(build_program(ProblemId.MOD2_LINEAR, inst.vocabulary), inst)
        got = (verdict.kind, verdict.witness, verdict.nodes, verdict.exists_calls, verdict.table_hits)
        assert got == expected


def test_resolved_tests_decide_as_the_name_lookups_do():
    # A program's core holds its == and BG tests with the positions of their
    # register sides.  Run as a program's term, searched or checked, each
    # decides as check_eq and check_bg decide by name, on random walks built
    # with Trace.extend over structures that order three registers at random
    # and hold unary EDB symbols of any size.
    rng = random.Random(83)
    modules = (
        "module GP { P(x) <~ adom(x) }\nmodule GQ { Q(x) <~ adom(x) }\n"
        "module GR { R(x) <~ U(x) }\nmodule Swap { P(x) <~ Q(x) ; Q(x) <~ P(x) }\n"
    )
    symbols = ("P", "Q", "R", "U", "W")
    decided = set()
    for _ in range(30):
        domain = ("a", "b", "c")[: rng.randint(1, 3)]
        edb = {name: {(e,) for e in domain if rng.random() < 0.6} for name in ("U", "W")}
        s = structure_of(domain, edb, registers=rng.sample(("P", "Q", "R"), 3), arities={"U": 1, "W": 1})
        walker = _program(modules + "term: id", s)
        traces = [_random_walk(rng, walker, Trace.initial(s), rng.randint(0, 5)) for _ in range(4)]
        index = s.vocabulary.register_index
        for p in symbols:
            for q in symbols:
                for test, check in ((f"{p} == {q}", check_eq), (f"BG({p} != {q})", check_bg)):
                    prog = _program(modules + "term: " + test, s)
                    assert prog.core.positions == (index.get(p), index.get(q))
                    cfg = SearchConfig(k=2, max_trace_length=10)
                    ev = Evaluator(prog, s, cfg)
                    for trace in traces:
                        holds = check(p, q, trace)
                        assert eval_deltas(prog, prog.main, trace, cfg) == ([trace] if holds else [], True)
                        assert ev.exists(prog.core, trace) is holds
                        decided.add((test, holds))
    assert len(decided) == 4 * len(symbols) ** 2 - len(symbols)  # only x == x never fails


def test_a_term_shared_by_two_vocabularies_runs_as_parsed_apart():
    # One term object compiled against vocabularies that order P and Q
    # apart: each program's core holds test nodes of its own, so a run after
    # both are compiled answers as a program parsed from text does.
    modules = "module GuessP { P(x) <~ adom(x) }\nmodule GuessQ { Q(x) <~ adom(x) }\n"
    for text in ("GuessP ; GuessQ ; BG(Q != P)", "GuessQ ; (P == Q <+ GuessP ; BG(P != Q) ; GuessQ)"):
        main = parse_term(text)
        for domain in (("a",), ("a", "b"), ("a", "b", "c")):
            inputs = [structure_of(domain, registers=regs) for regs in (("P", "Q"), ("Q", "P"))]
            shared = [Program(s.vocabulary, _program(modules + "term: id", s).modules, main) for s in inputs]
            for s, prog in zip(inputs, shared):
                apart = _program(modules + "term: " + text, s)
                a, b = run_main_task(prog, s), run_main_task(apart, s)
                assert (a.kind, a.witness, a.nodes) == (b.kind, b.witness, b.nodes)
                assert enumerate_witnesses(prog, s) == enumerate_witnesses(apart, s)


def test_footprint_of_a_term_that_touches_no_register():
    # The parser rejects a module with no rules, so a searched check always
    # reaches a module that writes a register.  The footprint is still
    # stored for every checked term: one that names no register keys on ().
    s = structure_of(("a", "b"), registers=("P",))
    with pytest.raises(TraceLangError):
        _program("module Noop { }\nterm: ~Noop", s)
    prog = Program(s.vocabulary, guess_program(s).modules, T.AntiDomain(T.Id()))
    cur, past = prog.footprint[id(prog.core.term)]
    assert cur(Trace.initial(s).last) == () and past is None


def test_public_calls_restore_the_recursion_limit(monkeypatch):
    # No public call changes the recursion limit, not even for its duration.
    s = structure_of(("a", "b"), registers=("P",))
    prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: GuessP ; BG(P != P)", s)
    cfg = _cfg(prog, s)
    bad_input = structure_of(("a",), {"E": {("a", "a")}}, registers=("P",))
    bad = _program('module Pick { P(y) <~ E("zz", y) }\nterm: Pick', bad_input)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1500)
    calls: list[int] = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    try:
        verdict = run_main_task(prog, s, cfg)
        assert sys.getrecursionlimit() == 1500
        assert verify_witness(prog, s, verdict.witness, cfg)
        assert sys.getrecursionlimit() == 1500
        assert not verify_witness(prog, s, Witness(verdict.witness.choices * 2, 5), cfg)
        assert sys.getrecursionlimit() == 1500
        assert len(enumerate_witnesses(prog, s, cfg)) == 2
        assert sys.getrecursionlimit() == 1500
        assert eval_deltas(prog, prog.main, Trace.initial(s), cfg)[1]
        assert sys.getrecursionlimit() == 1500
        assert holds_antidomain(prog, prog.main, Trace.initial(s), cfg) is False
        assert sys.getrecursionlimit() == 1500
        with pytest.raises(TraceLangError):  # raised inside Evaluator.run
            run_main_task(bad, bad_input)
        assert sys.getrecursionlimit() == 1500
        assert calls == []
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(old)


def test_default_bounds_of_a_deep_program_under_a_low_recursion_limit():
    # pow shares its halves, the compile walk and the search use explicit
    # stacks, so the default bounds and the run need no more than the
    # caller's limit, which they leave as it is.
    s = structure_of(("a", "b"), registers=("P",))
    prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: pow(id, 3000) ; GuessP", s)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1500)
    try:
        assert run_main_task(prog, s).kind == "yes"
        assert sys.getrecursionlimit() == 1500
    finally:
        sys.setrecursionlimit(old)


def test_length_bound_is_cut_and_k_must_be_nonnegative():
    s = structure_of(("a", "b", "c"), registers=("P",))
    prog = guess_program(s)
    assert _cfg(prog, s, k=0).max_trace_length == 3
    assert _cfg(prog, s, k=3).max_trace_length == 3**3 + 2
    assert _cfg(prog, s, k=10**9).max_trace_length == 2**62 + 2
    with pytest.raises(TraceLangError):
        _cfg(prog, s, k=-1)
    # a given length bound must hold the input letter
    for bad in (0, -1):
        with pytest.raises(InvalidParamsError, match="at least 1"):
            _cfg(prog, s, max_trace_length=bad)
    cfg = _cfg(prog, s, max_trace_length=1)
    assert cfg.max_trace_length == 1 and run_main_task(prog, s, cfg).kind == "bound-exceeded"


def test_a_deep_pow_of_a_test_decides_in_one_step():
    # pow(S == S, 30000) shares its halves and the compile step folds each
    # test sequenced with itself, so the core is S == S ; Start.
    s = structure_of(("a", "b"), {"S": {("a",)}}, registers=("Reach",))
    prog = _program("module Start { Reach(x) <~ S(x) }\nterm: pow(S == S, 30000) ; Start", s)
    assert prog.core == T.Seq(T.EqTest("S", "S"), T.ModuleRef("Start"))
    verdict = run_main_task(prog, s)
    assert verdict.kind == "yes" and verdict.nodes == 1
    assert verdict.witness.choices == (Choice("Start", (("Reach", "a"),)),)


def _nested_checks(n):
    """``n`` levels of ``~( . <+ id)`` around GuessP: check depth 2n, and
    2n levels of parentheses and prefix operators."""
    t = "GuessP"
    for _ in range(n):
        t = f"~({t} <+ id)"
    return t


def test_programs_at_the_nesting_bound_decide_at_the_default_limit():
    # The parser and the engine recurse once per nesting level, and the
    # bound keeps a program within it runnable at the default limit.
    s = structure_of(("a", "b"), registers=("P",))
    bound = MAX_NESTING
    for term, kind in (
        ("(" * bound + "GuessP ; BG(P != P)" + ")" * bound, "yes"),
        ("~" * bound + "GuessP", "yes"),
        (_nested_checks(bound // 2), "no"),
    ):
        text = f"module GuessP {{ P(x) <~ adom(x) }}\nterm: {term}"
        verdict = near_the_default_limit(lambda: run_main_task(_program(text, s), s))
        assert verdict.kind == kind
    assert _program(f"module GuessP {{ P(x) <~ adom(x) }}\nterm: {_nested_checks(bound // 2)}", s).check_depth == bound


def test_programs_past_the_nesting_bound_are_rejected():
    s = structure_of(("a", "b"), registers=("P",))
    guess = guess_program(s)
    deep = MAX_NESTING + 1
    for term in (
        "(" * deep + "GuessP" + ")" * deep,
        "~" * deep + "GuessP",
        "not " * deep + "GuessP",
        " <+ ".join(["GuessP"] * (deep + 1)),
        "GuessP" + "^" * deep,
    ):
        text = f"module GuessP {{ P(x) <~ adom(x) }}\nterm: {term}"
        with pytest.raises(ParseError):
            near_the_default_limit(lambda: _program(text, s))
    # a Program built directly is compiled the same way, and refused while
    # it is built, as are the terms a check compiles with a program's
    # modules: no check depth is configured, so that refusal is what keeps a
    # run, a replay or a check from recursing past the limit.  The checks
    # here nest one level deeper than the terms do (a term nested past the
    # bound is refused while it is built, see the next test).
    cfg, start = _cfg(guess, s), Trace.initial(s)
    anti = T.PrefUnion(T.ModuleRef("GuessP"), T.ModuleRef("GuessP"))
    union = T.ModuleRef("GuessP")
    for _ in range(deep - 1):
        anti = T.AntiDomain(anti)
    for _ in range(deep):
        union = T.PrefUnion(union, T.ModuleRef("GuessP"))
    for main in (anti, union):
        for call in (
            lambda: Program(s.vocabulary, guess.modules, main),
            lambda: eval_deltas(guess, main, start, cfg),
            lambda: holds_antidomain(guess, main, start, cfg),
        ):
            with pytest.raises(ParseError, match=f"TooDeep: universal checks nest {deep} levels deep"):
                near_the_default_limit(call)


def test_a_term_built_past_the_nesting_bound_is_refused_while_it_is_built():
    # desugar counts the nesting of a term built directly as the parser
    # counts it in text and refuses it past the bound, with TooDeep, instead
    # of recursing past the interpreter's limit
    s = structure_of(("a", "b"), registers=("P",))
    modules = guess_program(s).modules
    g = T.ModuleRef("GuessP")

    def nested(wrap, n):
        t = g
        for _ in range(n):
            t = wrap(t)
        return t

    def build(t):
        return near_the_default_limit(lambda: Program(s.vocabulary, modules, t))

    shapes = [
        T.AntiDomain,
        T.Not,
        T.Test,
        lambda t: T.Pow(t, 2),
        lambda t: T.Seq(g, t),
        lambda t: T.PrefUnion(g, T.PrefUnion(t, g)),
        lambda t: T.Seq(g, T.MaxIterate(T.Seq(t, g))),
        lambda t: T.PrefUnion(g, T.Seq(T.PrefUnion(t, g), g)),
        lambda t: T.If(T.EqTest("P", "P"), t, T.Id()),
        lambda t: T.PrefUnion(g, T.Seq(g, T.AntiDomain(t))),
        # the most Python frames a level costs: five
        lambda t: T.PrefUnion(g, T.Seq(g, T.If(t, T.Id(), T.Id()))),
    ]
    for wrap in shapes:
        # within the text bound, a shape whose checks nest deeper than its
        # text (``test(t)`` is ``~~t``, an ``if`` checks its condition) is
        # refused for its checks alone
        try:
            build(nested(wrap, MAX_NESTING))
        except ParseError as e:
            assert str(e).startswith("TooDeep: universal checks nest"), e
        with pytest.raises(ParseError, match="TooDeep"):
            build(nested(wrap, 2000))
    # the same bound as for text: ~ nested 100 deep builds, 101 deep does not
    assert build(nested(T.AntiDomain, MAX_NESTING)).check_depth == MAX_NESTING
    with pytest.raises(ParseError, match="TooDeep"):
        build(nested(T.AntiDomain, MAX_NESTING + 1))


def test_a_preferential_union_chain_searches_each_arm_once():
    # The search runs the left arm of each <+ in line, once, instead of
    # checking it in a nested search and then enumerating it: the first
    # step of the innermost arm succeeds through all 100 unions, with no
    # exists call, and tables each left arm as defined.
    s = structure_of(("a", "b"), registers=("P",))
    prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: " + " <+ ".join(["GuessP"] * 101), s)
    assert prog.check_depth == MAX_NESTING
    ev = Evaluator(prog, s, _cfg(prog, s))
    verdict = ev.run()
    assert verdict.kind == "yes" and verdict.nodes == 1
    assert verdict.witness == Witness((Choice("GuessP", (("P", "a"),)),), 2)
    assert ev.exists_calls == 0 and ev.table_hits == 0
    assert len(ev._table) == 100 and all(ev._table.values())


def test_a_long_written_out_chain_builds_and_decides_at_the_default_limit():
    # desugar walks the left spine of a ;/and chain in a loop, and search and
    # replay are flat in its length
    s = structure_of(("a", "b"), registers=("P",))
    for op in (" ; ", " and "):
        text = "module GuessP { P(x) <~ adom(x) }\nterm: " + op.join(["GuessP"] * 1500)
        prog = near_the_default_limit(lambda: _program(text, s))
        cfg = _cfg(prog, s, max_trace_length=1501)
        verdict = near_the_default_limit(lambda: run_main_task(prog, s, cfg))
        assert verdict.kind == "yes" and verdict.nodes == 1500
        assert near_the_default_limit(lambda: verify_witness(prog, s, verdict.witness, cfg))


# --- replay proves a true check by replaying it ------------------------------


def _certificate_mutants(rng, witness, prog, s):
    """Single-field mutants of ``witness``: its final length, one choice's
    module or one assigned element, a dropped choice or an extra one."""
    choices, n = witness.choices, witness.final_length
    out = [Witness(choices, n + rng.choice((-1, 1)))]
    if choices:
        i = rng.randrange(len(choices))
        c = choices[i]
        module = rng.choice(sorted(set(prog.modules) - {c.module}) or ["Ghost"])
        j = rng.randrange(len(c.assignment))
        reg, value = c.assignment[j]
        element = rng.choice([e for e in s.domain if e != value] or [value])
        assignment = c.assignment[:j] + ((reg, element),) + c.assignment[j + 1 :]
        out += [
            Witness(choices[:i] + (Choice(module, c.assignment),) + choices[i + 1 :], n),
            Witness(choices[:i] + (Choice(c.module, assignment),) + choices[i + 1 :], n),
            Witness(choices[:i] + choices[i + 1 :], n - 1),
            Witness(choices[:i] + (rng.choice(choices),) + choices[i:], n + 1),
        ]
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(strategies.integers(0, 2**32 - 1))
def test_replay_fails_exactly_as_the_exists_first_reference(seed):
    # Replay proves a true union arm or iterate step by replaying it, and
    # searches only where that replay fails; the reference searches every
    # arm and step first.  On every witness and mutant, under the bound the
    # witness was found with and under one it just fits, both give the same
    # answer, reason and choice index included.
    rng = random.Random(seed)
    s = random_structure(rng)
    if rng.random() < 0.5:
        prog = random_program(rng, s, depth=rng.randint(2, 5))
    else:
        modules = random_modules(rng)
        prog = Program(s.vocabulary, modules, _union_term(rng, sorted(modules), 4))
    cfg = SearchConfig(k=2, max_trace_length=rng.randint(2, 6), witness_limit=4)
    for witness in enumerate_witnesses(prog, s, cfg):
        # a length bound the witness just fits leaves some checks inconclusive
        tight = dataclasses.replace(cfg, max_trace_length=witness.final_length)
        for w in [witness] + _certificate_mutants(rng, witness, prog, s):
            for c in (cfg, tight):
                assert replay_failure(prog, s, w, c) == reference_replay_failure(Evaluator(prog, s, c), w)


def _top_level_checks(ev):
    """Record on ``ev`` each check it asks ``exists`` outside any other
    check, as ``(term, answer)`` pairs, in a list returned."""
    asked, real, depth = [], ev.exists, [0]

    def exists(term, trace):
        depth[0] += 1
        try:
            r = real(term, trace)
        finally:
            depth[0] -= 1
        if not depth[0]:
            asked.append((term, r))
        return r

    ev.exists = exists
    return asked


def _arms_and_steps(core):
    """The ids of the left arms of unions and the bodies of iterates in
    ``core``: the checks replay proves by replaying them."""
    ids, work = set(), [core]
    while work:
        t = work.pop()
        if type(t) in (T.Seq, T.PrefUnion):
            work += (t.left, t.right)
            if type(t) is T.PrefUnion:
                ids.add(id(t.left))
        elif type(t) in (T.AntiDomain, T.MaxIterate):
            work.append(t.term)
            if type(t) is T.MaxIterate:
                ids.add(id(t.term))
    return ids


def test_replay_searches_no_true_arm_or_step_of_a_valid_certificate():
    # st-conn on a 100-node path (199 choices) and a 10-variable mod-2
    # system: replay asks no union arm or iterate step that answers True,
    # where the reference asks every one; st-conn replays one node per
    # choice.  Pinned: (nodes, exists calls) of replay, then the reference.
    from tracelang.problems import ProblemId, build_program, make_mod2_instance, make_st_instance

    path = make_st_instance(100, [(i, i + 1) for i in range(99)], 0, 99)
    st_conn = build_program(ProblemId.ST_CONNECTIVITY, path.vocabulary)
    rng = random.Random(5)
    value = [rng.randrange(2) for _ in range(10)]
    equations = []
    for _ in range(14):
        i, j, k = sorted(rng.sample(range(10), 3))
        equations.append((i, j, k, (value[i] + value[j] + value[k]) % 2))
    system = make_mod2_instance(10, equations)
    mod2 = build_program(ProblemId.MOD2_LINEAR, system.vocabulary)
    record = (("RecordFalse", "FalseRec"), ("RecordTrue", "TrueRec"))
    choices = tuple(
        c
        for v, bit in enumerate(value)
        for c in (
            Choice("PickVar", (("Var", f"v{v + 1}"), ("Val", f"b{bit}"))),
            Choice(record[bit][0], ((record[bit][1], f"v{v + 1}"),)),
        )
    )
    for prog, s, witness, expected in (
        (st_conn, path, run_main_task(st_conn, path).witness, (199, 103, 395, 297)),
        (mod2, system, Witness(choices, 21), (71, 12, 186, 27)),
    ):
        cfg = _cfg(prog, s)
        ev, ref = Evaluator(prog, s, cfg), Evaluator(prog, s, cfg)
        asked, ref_asked = _top_level_checks(ev), _top_level_checks(ref)
        ev.replay(witness)
        assert reference_replay_failure(ref, witness) is None
        proved = _arms_and_steps(prog.core)
        assert not [t for t, r in asked if r and id(t) in proved]
        assert [t for t, r in ref_asked if r and id(t) in proved]
        assert (ev.nodes, ev.exists_calls, ref.nodes, ref.exists_calls) == expected
        if prog is st_conn:
            assert ev.nodes == len(witness.choices) == 199


def test_replay_into_unions_nested_to_the_bound_at_the_default_limit():
    # Replay recurses into the left arm of a union; unions nested to the
    # bound replay a valid certificate and a mutant whose failure every
    # arm re-raises, from 200 frames deep at the default limit.
    s = structure_of(("a", "b"), {"Q": {("a",)}}, registers=("P",))
    arm = "GuessP ; P == Q"
    term = arm
    for _ in range(MAX_NESTING):
        term = f"({term}) <+ ({arm})"
    prog = _program(f"module GuessP {{ P(x) <~ adom(x) }}\nterm: {term}", s)
    assert prog.check_depth == MAX_NESTING
    cfg = _cfg(prog, s)
    for element, reason in (("a", None), ("b", "at choice 1: equality test P == Q fails")):
        w = Witness((Choice("GuessP", (("P", element),)),), 2)
        assert near_the_default_limit(lambda: replay_failure(prog, s, w, cfg)) == reason
        assert reference_replay_failure(Evaluator(prog, s, cfg), w) == reason


def test_a_built_evaluator_reads_no_symbol_by_name(monkeypatch):
    # An evaluator binds the value of each unary EDB symbol when it is
    # built; after that, search and replay read every test side by
    # position or from that binding, never through ``_value``.
    from tracelang.problems import ProblemId, build_program, make_mod2_instance, make_st_instance, program_text
    from tracelang.structures import serialize_structure
    from tracelang.witness_io import verify_witness_file, witness_to_json

    built, after = [], []
    value, init = engine._value, Evaluator.__init__
    building = False

    def counted_value(symbol, trace):
        (built if building else after).append(symbol)
        return value(symbol, trace)

    def counted_init(self, *args):
        nonlocal building
        building = True
        try:
            init(self, *args)
        finally:
            building = False

    monkeypatch.setattr(engine, "_value", counted_value)
    monkeypatch.setattr(Evaluator, "__init__", counted_init)
    # every node but the target linked to every other: thousands of tests
    # compare ``Reach`` with the EDB symbol ``T``
    dense = make_st_instance(8, [(i, j) for i in range(7) for j in range(7) if i != j], 0, 7)
    unsat = make_mod2_instance(3, [(0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 2, 1)])
    mod2 = make_mod2_instance(3, [(0, 1, 2, 1), (0, 0, 1, 0)])
    for pid, s, kind in (
        (ProblemId.ST_CONNECTIVITY, dense, "no"),
        (ProblemId.MOD2_LINEAR, unsat, "no"),
        (ProblemId.MOD2_LINEAR, mod2, "yes"),
    ):
        assert run_main_task(build_program(pid, s.vocabulary), s).kind == kind
    text, structure = program_text(ProblemId.MOD2_LINEAR), serialize_structure(mod2)
    witness = run_main_task(parse_program(text, mod2.vocabulary), mod2).witness
    assert verify_witness_file(text, structure, witness_to_json(witness, text, structure, 2))[0]
    assert len(after) == 0
    assert built
