import dataclasses
import random
import sys

import pytest

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
    run_main_task,
    verify_witness,
    witness_length,
)
from tracelang.errors import TraceLangError
from tracelang.lab import UNKNOWN, is_defined
from tracelang.modules import Choice, ModuleDef, Rule, apply_choice, successor_choices
from tracelang.parser import Program, parse_program

from helpers import random_core_term, random_program, random_structure, structure_of


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


def _random_walk(rng, program, trace, steps):
    """Extend ``trace`` by up to ``steps`` random module steps."""
    for _ in range(steps):
        module = program.modules[rng.choice(sorted(program.modules))]
        choices = successor_choices(module, trace.last)
        if not choices:
            break
        choice = rng.choice(choices)
        trace = trace.extend(apply_choice(trace.last, choice), choice)
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
    """The trace over input ``s`` whose later letters hold ``valuations``."""
    trace = Trace.initial(s)
    for values in valuations:
        trace = trace.extend(s.with_registers(values), Choice("m", ()))
    return trace


def test_exists_table_agrees_with_a_fresh_evaluator_per_query():
    # One shared evaluator answers repeated module-bearing checks from its
    # table, keyed on the term's footprint; a fresh evaluator per query has
    # nothing tabled.  The traces are one random trace and every variant of
    # it that changes one register at one letter, so a register left out of
    # a key, or a history left out, shows as a stale answer.  Every query
    # comes over each of two inputs that differ only in their EDB.
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
        cfg = SearchConfig(
            k=2, max_trace_length=rng.randint(4, 6), max_antidomain_depth=rng.randint(1, 3)
        )
        terms = []
        for _ in range(4):
            names = rng.sample(sorted(modules), 2)
            t = random_core_term(rng, names, rng.randint(1, 3))
            # a leading module step sends the whole check to the table
            terms.append(T.Seq(T.ModuleRef(names[0]), t) if rng.random() < 0.7 else t)
        # the table keys on footprints compiled with the program: each term
        # is a checked subterm of its core, kept as the same object
        main = T.Id()
        for t in terms:
            main = T.Seq(main, T.AntiDomain(t))
        prog = Program(inputs[0].vocabulary, modules, main)
        assert all(id(t) in prog.footprint for t in terms)
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
        queries = [(t, tr, d) for t in terms for tr in traces for d in (1, 2)]
        rng.shuffle(queries)
        shared = Evaluator(prog, cfg)
        for t, tr, d in queries:
            assert shared.exists(t, tr, d) == Evaluator(prog, cfg).exists(t, tr, d)
        hits += shared.table_hits
        assert shared.exists_calls >= len(queries)  # nested checks count too
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


def _nested_search(ev, term, trace, depth):
    """What ``exists`` answers by opening a nested search."""
    if depth > ev.cfg.max_antidomain_depth:
        return None
    scope = engine._Scope()
    for _ in ev.iter_extensions(term, trace, scope, depth):
        return True
    return None if scope.hit else False


def test_module_free_checks_match_the_oracle_and_the_nested_search():
    # A module-free check is evaluated directly on the trace.  At ample depth
    # it agrees with the denotational oracle; at every depth, a lowered one
    # included, it returns exactly what a nested search returns.
    rng = random.Random(59)
    for _ in range(300):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=1)
        trace = _random_walk(rng, prog, Trace.initial(s), rng.randint(0, 4))
        t = _random_test_term(rng, rng.randint(1, 4))
        ample = 1 + Program(prog.vocabulary, prog.modules, t).check_depth
        cfg = SearchConfig(k=2, max_trace_length=8, max_antidomain_depth=ample)
        ev = Evaluator(prog, cfg)
        assert ev.exists(t, trace) == is_defined(prog, t, trace, cfg)
        for max_depth in range(ample + 1):
            low = Evaluator(prog, dataclasses.replace(cfg, max_antidomain_depth=max_depth))
            r = low.exists(t, trace)
            assert r is None or r == is_defined(prog, t, trace, cfg)
            assert r == _nested_search(low, t, trace, 1)
            assert low.nodes == 0 and not low._table


def test_exists_matches_the_nested_search_on_terms_with_modules():
    # A check is first evaluated directly and handed to a search only when
    # it reaches a module: the answer and the nodes expanded are those of
    # the nested search, at every depth bound, and agree with the oracle
    # whenever the bounded answer is definite.
    rng = random.Random(67)
    for _ in range(300):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=1)
        trace = _random_walk(rng, prog, Trace.initial(s), rng.randint(0, 2))
        t = random_core_term(rng, sorted(prog.modules), rng.randint(1, 4))
        depth = Program(prog.vocabulary, prog.modules, t).check_depth
        cfg = SearchConfig(k=2, max_trace_length=5, max_antidomain_depth=1 + depth)
        oracle = is_defined(prog, t, trace, cfg)
        for max_depth in range(cfg.max_antidomain_depth + 1):
            low = dataclasses.replace(cfg, max_antidomain_depth=max_depth)
            direct, searched = Evaluator(prog, low), Evaluator(prog, low)
            r = direct.exists(t, trace)
            assert r == _nested_search(searched, t, trace, 1)
            assert direct.nodes == searched.nodes
            assert r is None or oracle is UNKNOWN or r == oracle


def test_table_holds_no_inconclusive_answer():
    # Runs that hit the length bound, the check depth bound or the node
    # budget leave only definite answers in the table.
    from tracelang.problems import ProblemId, build_program, make_mod2_instance

    inst = make_mod2_instance(3, [(0, 1, 2, 1), (0, 1, 1, 0), (2, 2, 0, 1)])
    prog = build_program(ProblemId.MOD2_LINEAR, inst.vocabulary)
    full = SearchConfig.for_run(prog, inst)
    for cfg in (
        dataclasses.replace(full, max_trace_length=7),
        dataclasses.replace(full, max_antidomain_depth=1),
        dataclasses.replace(full, node_budget=150),
    ):
        ev = Evaluator(prog, cfg)
        assert ev.run(inst).kind == "bound-exceeded"
        assert ev._table and None not in ev._table.values()
    rng = random.Random(61)
    for _ in range(100):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=4)
        cfg = SearchConfig(
            k=2,
            max_trace_length=rng.randint(2, 4),
            max_antidomain_depth=rng.randint(1, 3),
            node_budget=rng.choice([None, 5, 20]),
        )
        ev = Evaluator(prog, cfg)
        ev.run(s)
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
        ev = Evaluator(prog, SearchConfig.for_run(prog, inst))
        verdict = ev.run(inst)
        assert verdict.kind == kind and verdict.nodes == nodes
        assert ev.exists_calls > 0 and ev.table_hits == 0 and not ev._table


def test_footprint_of_a_term_that_touches_no_register():
    # The parser rejects a module with no rules, so a searched check always
    # reaches a module that writes a register.  The footprint is still
    # stored for every checked term: one that names no register keys on ().
    s = structure_of(("a", "b"), registers=("P",))
    with pytest.raises(TraceLangError):
        _program("module Noop { }\nterm: ~Noop", s)
    prog = Program(s.vocabulary, guess_program(s).modules, T.AntiDomain(T.Id()))
    cur, past = prog.footprint[id(prog.core.term)]
    assert cur(Trace.initial(s).last.registers) == () and past is None


def test_public_calls_restore_the_recursion_limit():
    s = structure_of(("a", "b"), registers=("P",))
    prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: GuessP ; BG(P != P)", s)
    cfg = _cfg(prog, s)
    bad_input = structure_of(("a",), {"E": {("a", "a")}}, registers=("P",))
    bad = _program('module Pick { P(y) <~ E("zz", y) }\nterm: Pick', bad_input)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1500)
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
    finally:
        sys.setrecursionlimit(old)


def test_default_bounds_of_a_deep_program_under_a_low_recursion_limit():
    # Desugaring and the check-depth walk recurse once per sequence level;
    # the default bounds are computed with the limit raised, and the
    # caller's limit is given back.
    s = structure_of(("a", "b"), registers=("P",))
    prog = _program("module GuessP { P(x) <~ adom(x) }\nterm: pow(id, 3000) ; GuessP", s)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1500)
    try:
        assert _cfg(prog, s).max_antidomain_depth == 1
        assert sys.getrecursionlimit() == 1500
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


def test_a_deep_pow_of_a_test_decides_in_one_step():
    # pow(S == S, 30000) shares its halves and the compile step folds each
    # test sequenced with itself, so the core is S == S ; Start.
    s = structure_of(("a", "b"), {"S": {("a",)}}, registers=("Reach",))
    prog = _program("module Start { Reach(x) <~ S(x) }\nterm: pow(S == S, 30000) ; Start", s)
    assert prog.core == T.Seq(T.EqTest("S", "S"), T.ModuleRef("Start"))
    verdict = run_main_task(prog, s)
    assert verdict.kind == "yes" and verdict.nodes == 1
    assert verdict.witness.choices == (Choice("Start", (("Reach", "a"),)),)
