import random

import pytest

from tracelang import terms as T
from tracelang.engine import Evaluator, SearchConfig, Trace
from tracelang.lab import (
    UNKNOWN,
    before_after_equivalent,
    denotational_deltas,
    is_defined,
    strongly_equivalent,
)
from tracelang.parser import parse_program

from helpers import random_program, random_structure, structure_of


def _setup():
    s = structure_of(("a", "b"), registers=("P", "R"))
    prog = parse_program(
        "module GuessP { P(x) <~ adom(x) }\nmodule CopyR { P(x) <~ R(x) }\nterm: GuessP",
        s.vocabulary,
    )
    return s, prog, SearchConfig.for_run(prog, s)


def test_denotational_id_and_antidomain():
    s, prog, cfg = _setup()
    base = Trace.initial(s)
    assert denotational_deltas(prog, T.Id(), base, cfg).extensions == {base}
    dead = T.ModuleRef("CopyR")  # undefined: register body over a blank
    assert denotational_deltas(prog, T.AntiDomain(dead), base, cfg).extensions == {base}


def test_is_defined_examples():
    s, prog, cfg = _setup()
    base = Trace.initial(s)
    assert is_defined(prog, T.Id(), base, cfg) is True
    assert is_defined(prog, T.AntiDomain(T.Id()), base, cfg) is False
    assert is_defined(prog, T.ModuleRef("GuessP"), base, cfg) is True


def test_a_module_that_does_not_compile_is_refused():
    # a program built directly can name an undefined module, or one with a
    # rule that does not compile; the lab refuses both as bad input
    from tracelang.cq import Atom, CQBody
    from tracelang.errors import TraceLangError
    from tracelang.modules import ModuleDef, Rule
    from tracelang.parser import Program

    s = structure_of(("a", "b"), registers=("P",))
    bad = ModuleDef("Bad", (Rule("P", CQBody("x", (Atom("Nope", ("x",)),))),))
    prog = Program(s.vocabulary, {"Bad": bad}, T.ModuleRef("Bad"))
    assert prog.diagnostics
    for name in ("Bad", "Ghost"):
        with pytest.raises(TraceLangError):
            is_defined(prog, T.ModuleRef(name), Trace.initial(s), SearchConfig())


def test_strong_equivalence_examples():
    s, prog, cfg = _setup()
    bases = [Trace.initial(s)]
    guess = T.ModuleRef("GuessP")
    dead = T.ModuleRef("CopyR")

    assert strongly_equivalent(prog, guess, guess, bases, cfg) is True
    # anti-domain is weakly idempotent where the single negation is defined
    assert strongly_equivalent(
        prog, T.AntiDomain(T.AntiDomain(T.AntiDomain(dead))), T.AntiDomain(dead), bases, cfg
    ) is True
    # but a double negation never equals a process
    assert strongly_equivalent(prog, T.AntiDomain(T.AntiDomain(guess)), guess, bases, cfg) is False
    # undefined terms are never equal, even to themselves
    fail = T.AntiDomain(T.Id())
    assert strongly_equivalent(prog, fail, fail, bases, cfg) is False


def test_strong_equivalence_id_neutral():
    s, prog, cfg = _setup()
    bases = [Trace.initial(s)]
    guess = T.ModuleRef("GuessP")
    assert strongly_equivalent(prog, guess, T.Seq(guess, T.Id()), bases, cfg) is True


def test_before_after_examples():
    s, prog, cfg = _setup()
    bases = [Trace.initial(s)]
    guess = T.ModuleRef("GuessP")
    assert before_after_equivalent(prog, guess, T.Seq(guess, T.Id()), bases, cfg) is True

    # appending a register change breaks the endpoint projection
    s2 = structure_of(("a",), registers=("P", "R"))
    prog2 = parse_program(
        "module GuessP { P(x) <~ adom(x) }\nmodule SetR { R(x) <~ adom(x) }\nterm: GuessP",
        s2.vocabulary,
    )
    cfg2 = SearchConfig.for_run(prog2, s2)
    bases2 = [Trace.initial(s2)]
    g, extra = T.ModuleRef("GuessP"), T.ModuleRef("SetR")
    assert before_after_equivalent(prog2, g, T.Seq(g, extra), bases2, cfg2) is False


def test_strong_implies_before_after_on_random_pairs():
    rng = random.Random(47)
    checked = 0
    while checked < 60:
        s = random_structure(rng)
        prog = random_program(rng, s, depth=3)
        other = random_program(rng, s, depth=3)
        if set(other.modules) - set(prog.modules):
            continue
        cfg = SearchConfig(k=2, max_trace_length=5)
        bases = [Trace.initial(s)]
        strong = strongly_equivalent(prog, prog.main, other.main, bases, cfg)
        if strong is UNKNOWN:
            continue
        checked += 1
        if strong is True:
            assert before_after_equivalent(prog, prog.main, other.main, bases, cfg) is True


def test_denotational_agrees_with_engine_on_random_cases():
    rng = random.Random(53)
    agreements = 0
    for _ in range(200):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=3)
        cfg = SearchConfig(k=2, max_trace_length=5)
        base = Trace.initial(s)
        deno = denotational_deltas(prog, prog.main, base, cfg)
        found, complete = Evaluator(prog, cfg).extensions(prog.core, base)
        if deno is UNKNOWN or not complete:
            continue
        assert {t.key() for t in found} == {t.key() for t in deno.extensions}
        agreements += 1
    assert agreements >= 100  # bounds rarely interfere at this scale


def test_verdict_matches_denotational_definedness():
    # run_main_task's yes/no must agree with the reference semantics'
    # emptiness check whenever neither side is cut off by a bound
    rng = random.Random(61)
    from tracelang.engine import run_main_task

    compared = 0
    for _ in range(150):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=4)
        cfg = SearchConfig(k=2, max_trace_length=5)
        defined = is_defined(prog, prog.main, Trace.initial(s), cfg)
        verdict = run_main_task(prog, s, cfg)
        if defined is UNKNOWN or verdict.kind == "bound-exceeded":
            continue
        compared += 1
        assert (verdict.kind == "yes") == defined
    assert compared >= 100


def test_extensions_extend_their_base():
    rng = random.Random(59)
    for _ in range(50):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=3)
        cfg = SearchConfig(k=2, max_trace_length=5)
        base = Trace.initial(s)
        deno = denotational_deltas(prog, prog.main, base, cfg)
        if deno is UNKNOWN:
            continue
        for ext in deno.extensions:
            assert ext.letters[: len(base)] == base.letters
