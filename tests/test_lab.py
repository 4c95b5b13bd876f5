import random
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from tracelang import terms as T
from tracelang.engine import SearchConfig, Trace, eval_deltas
from tracelang.errors import ParseError, TraceLangError
from tracelang.lab import (
    UNKNOWN,
    DeltaSet,
    before_after_equivalent,
    denotational_deltas,
    is_defined,
    strongly_equivalent,
)
from tracelang.modules import Choice
from tracelang.parser import MAX_NESTING, Program, parse_program, parse_term
from tracelang.problems import (
    ProblemId,
    build_instance,
    build_program,
    make_counting_instance,
    make_same_size_instance,
    make_st_instance,
)

from helpers import near_the_default_limit, random_program, random_structure, structure_of


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


def test_a_delta_set_holds_only_extensions_of_its_base():
    s = structure_of(("a", "b"), registers=("P", "R"))
    start = Trace.initial(s)
    at_a, at_b = (start.extend(Choice("GuessP", (("P", v),))) for v in ("a", "b"))
    longer = at_a.extend(Choice("GuessP", (("P", "b"),)))
    assert DeltaSet(at_a, frozenset((at_a, longer))).extensions == {at_a, longer}
    # another base of the same length, and a trace shorter than the base
    for base, ext in ((at_b, longer), (at_a, start)):
        with pytest.raises(ValueError, match="extension does not extend its base"):
            DeltaSet(base, frozenset((ext,)))


def test_is_defined_examples():
    s, prog, cfg = _setup()
    base = Trace.initial(s)
    assert is_defined(prog, T.Id(), base, cfg) is True
    assert is_defined(prog, T.AntiDomain(T.Id()), base, cfg) is False
    assert is_defined(prog, T.ModuleRef("GuessP"), base, cfg) is True


def test_a_module_that_does_not_compile_is_refused():
    # a program with a rule that does not compile cannot be built; a lab
    # query term can still name a module the program lacks, and the lab
    # refuses it as bad input before it evaluates anything, as eval_deltas
    # does, even where evaluation would never reach the module
    from tracelang.cq import Atom, CQBody
    from tracelang.errors import UnknownModuleError, UnknownSymbolError
    from tracelang.modules import ModuleDef, Rule
    from tracelang.parser import Program

    s = structure_of(("a", "b"), registers=("P",))
    bad = ModuleDef("Bad", (Rule("P", CQBody("x", (Atom("Nope", ("x",)),))),))
    with pytest.raises(UnknownSymbolError):
        Program(s.vocabulary, {"Bad": bad}, T.ModuleRef("Bad"))
    prog = Program(s.vocabulary, {}, T.Id())
    base, cfg = Trace.initial(s), SearchConfig()
    for ghost in (T.ModuleRef("Ghost"), T.Seq(T.Fail(), T.ModuleRef("Ghost"))):
        for query in (
            lambda: is_defined(prog, ghost, base, cfg),
            lambda: strongly_equivalent(prog, ghost, T.Fail(), [base], cfg),
            lambda: eval_deltas(prog, ghost, base, cfg),
        ):
            with pytest.raises(UnknownModuleError, match="^term references undefined module Ghost$"):
                query()


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
        found, complete = eval_deltas(prog, prog.main, base, cfg)
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


def _counting_extend(monkeypatch):
    """Patch ``Trace.extend`` to count its calls into the returned list."""
    built = [0]
    real = Trace.extend

    def extend(self, *args):
        built[0] += 1
        return real(self, *args)

    monkeypatch.setattr(Trace, "extend", extend)
    return built


def _bundled_cases():
    """(program, structure) for small instances of bundled problems, each
    parsed from its text as a user would."""
    cases = [
        (ProblemId.EVEN, make_counting_instance(ProblemId.EVEN, 4)),
        (ProblemId.EVEN, make_counting_instance(ProblemId.EVEN, 3)),
        (ProblemId.SIZE_FOUR, make_counting_instance(ProblemId.SIZE_FOUR, 4)),
        (ProblemId.SAME_SIZE, make_same_size_instance(4, ["d1", "d2"], ["d3", "d4"])),
        (ProblemId.ST_CONNECTIVITY, make_st_instance(4, [(0, 1), (1, 2), (2, 3)], 0, 3)),
        (ProblemId.MOD2_LINEAR, build_instance(ProblemId.MOD2_LINEAR, seed=3)),
    ]
    return [(build_program(pid, s.vocabulary), s) for pid, s in cases]


def test_each_shared_subterm_is_evaluated_once_per_trace(monkeypatch):
    # main and id ; main share main, and ~~~main and ~main share ~main: each
    # check builds the traces of one evaluation of main, not two
    built = _counting_extend(monkeypatch)
    for prog, s in _bundled_cases():
        cfg, bases = SearchConfig.for_run(prog, s), [Trace.initial(s)]
        main = prog.main
        built[0] = 0
        is_defined(prog, main, bases[0], cfg)
        alone = built[0]
        assert alone > 0
        for check, t, g in (
            (strongly_equivalent, main, T.Seq(T.Id(), main)),
            (before_after_equivalent, T.AntiDomain(T.AntiDomain(T.AntiDomain(main))), T.AntiDomain(main)),
        ):
            built[0] = 0
            check(prog, t, g, bases, cfg)
            assert built[0] == alone
    # equal terms parsed apart are hash-consed into one
    prog, s = _bundled_cases()[0]
    cfg, bases = SearchConfig.for_run(prog, s), [Trace.initial(s)]
    t, g = parse_term("GuessP ; GuessP"), parse_term("GuessP ; GuessP")
    assert t is not g
    built[0] = 0
    assert is_defined(prog, t, bases[0], cfg) is True
    alone = built[0]
    built[0] = 0
    assert strongly_equivalent(prog, t, g, bases, cfg) is True
    assert built[0] == alone == 4 + 16


def test_a_pow_of_a_test_checks_the_test_once(monkeypatch):
    # pow shares its binary powers, and the lab evaluates each of them once
    # on the one trace a test keeps
    import tracelang.lab as lab

    calls = []
    real = lab.check_eq
    monkeypatch.setattr(lab, "check_eq", lambda *args: calls.append(args) or real(*args))
    s, prog, cfg = _setup()
    term = T.Seq(T.Pow(T.EqTest("P", "P"), 10**6), T.ModuleRef("GuessP"))
    assert len(denotational_deltas(prog, term, Trace.initial(s), cfg).extensions) == 2
    assert len(calls) == 1


def test_the_choice_cache_is_kept_per_input():
    # one vocabulary, one program; the first two steps of st-conn read the
    # same valuations on both inputs, but only one input reaches T
    reach = make_st_instance(3, [(0, 1), (1, 2)], 0, 2)
    unreach = make_st_instance(3, [(0, 1)], 0, 2)
    prog = build_program(ProblemId.ST_CONNECTIVITY, reach.vocabulary)
    cfg = SearchConfig.for_run(prog, reach)
    main = prog.main
    both = [Trace.initial(reach), Trace.initial(unreach)]
    assert strongly_equivalent(prog, main, T.Seq(T.Id(), main), both[:1], cfg) is True
    assert strongly_equivalent(prog, main, T.Seq(T.Id(), main), both, cfg) is False
    assert before_after_equivalent(prog, T.AntiDomain(main), T.AntiDomain(main), both[::-1], cfg) is False


def test_strong_equivalence_to_id_then_the_term_mirrors_definedness():
    # t and id ; t have the same extensions, so the strong check answers as
    # the definedness of t does, and ~~~t against ~t as its negation; the one
    # difference: a term that is defined on a cut-off search is UNKNOWN to
    # an equivalence check, which needs whole extension sets
    rng = random.Random(67)
    decided = 0
    for _ in range(400):
        s = random_structure(rng)
        prog = random_program(rng, s, depth=4)
        cfg = SearchConfig(k=2, max_trace_length=5)
        base, t = Trace.initial(s), prog.main
        defined = is_defined(prog, t, base, cfg)
        complete = denotational_deltas(prog, t, base, cfg) is not UNKNOWN
        strong = strongly_equivalent(prog, t, T.Seq(T.Id(), t), [base], cfg)
        inverse = before_after_equivalent(prog, T.AntiDomain(T.AntiDomain(T.AntiDomain(t))), T.AntiDomain(t), [base], cfg)
        if defined is UNKNOWN:
            assert strong is UNKNOWN and inverse is UNKNOWN
            continue
        assert inverse is (not defined)
        if complete:
            assert strong is defined
            decided += 1
        else:
            assert defined is True and strong is UNKNOWN
    assert decided >= 100


def test_a_check_at_the_nesting_bound_runs_at_the_default_limit():
    # the lab recurses once per term level, so every term a program accepts
    # checks at the default limit, also from 200 frames deep.  An ``if``
    # nests three checks per level and a ``dia`` two, so 33 and 50 levels
    # are the deepest within the bound, and one more is refused.
    s, prog, cfg = _setup()
    base = [Trace.initial(s)]
    bound = MAX_NESTING
    ifs = lambda n: "if " * n + "GuessP" + " then id else id" * n  # noqa: E731
    dias = lambda n: "dia(" * n + "GuessP" + ", id)" * n  # noqa: E731
    for text in (
        "~" * bound + "GuessP",
        "(" * bound + "GuessP ; P == P" + ")" * bound,
        ifs(bound // 3),
        dias(bound // 2),
    ):
        t = parse_term(text)
        for check in (strongly_equivalent, before_after_equivalent):
            assert near_the_default_limit(lambda: check(prog, t, T.Seq(T.Id(), t), base, cfg)) is not UNKNOWN
    for text in (ifs(bound // 3 + 1), dias(bound // 2 + 1)):
        with pytest.raises(ParseError, match="TooDeep"):
            strongly_equivalent(prog, parse_term(text), T.Id(), base, cfg)


def test_a_long_path_is_decided_at_the_default_limit():
    # the lab walks the unfoldings of a maximum iterate from a worklist, so
    # its stack does not grow with the trace: st-conn on a 1,200-node path
    n = 1200
    order = list(range(n))
    random.Random(1200).shuffle(order)
    edges = list(zip(order, order[1:]))
    for s, t, defined in ((order[0], order[-1], True), (order[1], order[0], False)):
        inst = make_st_instance(n, edges, s, t)
        prog = build_program(ProblemId.ST_CONNECTIVITY, inst.vocabulary)
        cfg = SearchConfig.for_run(prog, inst)
        assert near_the_default_limit(lambda: is_defined(prog, prog.main, Trace.initial(inst), cfg)) is defined


# The vocabulary and modules of the refusal property: registers P and Q, a
# unary EDB symbol U and a binary one E.
_REFUSAL_INPUT = structure_of(("a", "b"), {"U": {("a",)}, "E": {("a", "b")}}, registers=("P", "Q"))
_REFUSAL_PROGRAM = parse_program(
    "module GuessP { P(x) <~ adom(x) }\nmodule Step { Q(y) <~ P(x), E(x, y) }\nterm: GuessP",
    _REFUSAL_INPUT.vocabulary,
)
# the registers and unary EDB symbol, then an undeclared, a binary and the
# reserved symbol, none of which a test may name
_SYMBOLS = st.sampled_from(["P", "Q", "U", "P", "Q", "U", "Nope", "E", "adom"])
_LEAF_TERMS = st.one_of(
    st.just(T.Id()),
    st.just(T.Fail()),
    st.sampled_from(["GuessP", "Step", "Ghost"]).map(T.ModuleRef),
    st.builds(T.EqTest, _SYMBOLS, _SYMBOLS),
    st.builds(T.BackGlobal, _SYMBOLS, _SYMBOLS),
)


def _nest(t, n, kind):
    """``t`` under ``n`` levels of one kind of check: prefix ``~`` nests in
    text, a ``^`` chain or the left spine of a ``<+`` chain does not."""
    for _ in range(n):
        t = T.AntiDomain(t) if kind == "~" else T.MaxIterate(t) if kind == "^" else T.PrefUnion(t, T.Id())
    return t


def _inner_terms(inner):
    return st.one_of(
        st.builds(T.Seq, inner, inner),
        st.builds(T.PrefUnion, inner, inner),
        st.builds(T.AntiDomain, inner),
        st.builds(T.MaxIterate, inner),
        st.builds(T.If, inner, inner, inner),
        st.builds(T.Dia, inner, inner),
        st.builds(T.Pow, inner, st.integers(0, 3)),
        st.builds(_nest, inner, st.integers(MAX_NESTING - 5, MAX_NESTING + 5), st.sampled_from("~^+")),
    )


_QUERY_TERMS = st.recursive(_LEAF_TERMS, _inner_terms, max_leaves=6)


def _refusal(query):
    """The class and message of the ``TraceLangError`` ``query()`` raises,
    or ``None``."""
    try:
        query()
    except TraceLangError as e:
        return type(e), str(e)
    return None


@settings(max_examples=150, deadline=timedelta(seconds=2), derandomize=True)
@given(_QUERY_TERMS, _QUERY_TERMS)
def test_the_lab_refuses_exactly_what_a_program_refuses(t, g):
    prog, base = _REFUSAL_PROGRAM, Trace.initial(_REFUSAL_INPUT)
    cfg = SearchConfig(k=2, max_trace_length=3, node_budget=500)
    refused = [_refusal(lambda u=u: Program(prog.vocabulary, prog.modules, u)) for u in (t, g)]
    assert _refusal(lambda: is_defined(prog, t, base, cfg)) == refused[0]
    assert _refusal(lambda: strongly_equivalent(prog, t, g, [base], cfg)) == (refused[0] or refused[1])
