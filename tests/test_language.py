import random
import time

import pytest

from tracelang import terms as T
from tracelang.engine import Evaluator, SearchConfig, Trace, run_main_task
from tracelang.errors import (
    ArityError,
    HeadVarUnusedError,
    NonUnarySymbolError,
    ParseError,
    UnknownModuleError,
    UnknownSymbolError,
    VocabularyMismatchError,
)
from tracelang.lab import UNKNOWN, denotational_deltas
from tracelang.parser import Program, parse_program, parse_term, validate_program
from tracelang.structures import Vocabulary
from tracelang.terms import desugar, pretty

from helpers import (
    random_core_term,
    random_modules,
    random_structure,
    random_surface_term,
    structure_of,
)


VOCAB = Vocabulary((("T", 2), ("U", 1)), ("P", "Q", "Reach"), 3)


def test_parse_module_and_term():
    program = parse_program(
        "module GuessP { P(x) <~ adom(x) }\nterm: GuessP ; BG(P != P)", VOCAB
    )
    assert program.main == T.Seq(T.ModuleRef("GuessP"), T.BackGlobal("P", "P"))


def test_precedence_seq_binds_tighter_than_union():
    assert parse_term("a ; b <+ c") == T.PrefUnion(
        T.Seq(T.ModuleRef("a"), T.ModuleRef("b")), T.ModuleRef("c")
    )
    assert parse_term("~ a ; b") == T.Seq(T.AntiDomain(T.ModuleRef("a")), T.ModuleRef("b"))
    assert parse_term("a ; b ^") == T.Seq(T.ModuleRef("a"), T.MaxIterate(T.ModuleRef("b")))
    assert parse_term("(a ; b)^") == T.MaxIterate(T.Seq(T.ModuleRef("a"), T.ModuleRef("b")))


def test_non_unary_symbol_in_test_rejected():
    with pytest.raises(NonUnarySymbolError):
        parse_program("module M { P(x) <~ adom(x) }\nterm: M ; Reach == T", VOCAB)


def test_unknown_module_rejected():
    with pytest.raises(UnknownModuleError):
        parse_program("term: Ghost", VOCAB)


def test_rule_parse_errors():
    with pytest.raises(ParseError):
        parse_program("module M { P(x) <~ adom(X) }\nterm: M", VOCAB)  # uppercase variable
    with pytest.raises(ParseError):
        parse_program("module M { P(x) adom(x) }\nterm: M", VOCAB)


def test_desugar_while():
    # (test(c) ; t)^ ; ~test(c)
    term = parse_term("while P == Q do M")
    phi = T.AntiDomain(T.AntiDomain(T.EqTest("P", "Q")))
    assert desugar(term) == T.Seq(
        T.MaxIterate(T.Seq(phi, T.ModuleRef("M"))), T.AntiDomain(phi)
    )


def test_desugar_repeat():
    # t ; (~test(c) ; t)^ ; test(c)
    term = parse_term("repeat M until P == Q")
    phi = T.AntiDomain(T.AntiDomain(T.EqTest("P", "Q")))
    body = T.ModuleRef("M")
    assert desugar(term) == T.Seq(
        body, T.Seq(T.MaxIterate(T.Seq(T.AntiDomain(phi), body)), phi)
    )


def test_desugar_pow():
    # binary powers that share their halves, not n - 1 chained copies
    g = T.ModuleRef("G")
    assert desugar(T.Pow(g, 0)) == T.Id()
    assert desugar(T.Pow(g, 1)) == g
    x = T.Seq(g, g)
    four = desugar(T.Pow(g, 4))
    assert four == T.Seq(x, x)
    assert four.left is four.right and four.left.left is four.left.right


def test_desugar_basics():
    assert desugar(T.Skip()) == T.Id()
    assert desugar(T.Fail()) == T.AntiDomain(T.Id())
    assert desugar(T.Not(T.Id())) == T.AntiDomain(T.Id())
    assert desugar(T.And(T.Id(), T.Id())) == T.Seq(T.Id(), T.Id())
    assert desugar(T.Or(T.Id(), T.Id())) == T.PrefUnion(T.Id(), T.Id())
    m = T.ModuleRef("M")
    assert desugar(T.If(T.EqTest("P", "Q"), m, T.Skip())) == T.PrefUnion(
        T.Seq(T.AntiDomain(T.AntiDomain(T.EqTest("P", "Q"))), m), T.Id()
    )
    assert desugar(T.Dia(m, T.EqTest("P", "Q"))) == T.AntiDomain(
        T.AntiDomain(T.Seq(m, T.EqTest("P", "Q")))
    )


def test_test_and_dom_desugar_identically():
    inner = T.EqTest("P", "Q")
    assert desugar(T.Test(inner)) == desugar(T.Dom(inner))


def _distinct_nodes(term: T.Term) -> list[T.Term]:
    seen: dict[int, T.Term] = {}
    stack = [term]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(v for v in vars(node).values() if isinstance(v, T.Term))
    return list(seen.values())


def test_desugar_idempotent_on_core_terms():
    rng = random.Random(31)
    for _ in range(200):
        t = random_core_term(rng, ["M0", "M1"], rng.randint(0, 4))
        core = desugar(t)
        assert all(isinstance(node, T.CORE_TYPES) for node in _distinct_nodes(core))
        assert desugar(core) == core


def test_pretty_parse_round_trip_on_random_surface_terms():
    rng = random.Random(37)
    for _ in range(300):
        t = random_surface_term(rng, rng.randint(0, 4))
        assert parse_term(pretty(t)) == t, pretty(t)


def test_validate_program_diagnostics():
    from tracelang.modules import ModuleDef, Rule
    from tracelang.cq import Atom, CQBody
    from tracelang.parser import Program

    # ModuleDef refuses a duplicate rule head; a program built directly
    # carries every other diagnostic
    prog = Program(
        VOCAB,
        {"M": ModuleDef("M", (Rule("P", CQBody("x", (Atom("adom", ("x",)),))),))},
        T.BackGlobal("P", "Nope"),
    )
    codes = {d.code for d in validate_program(prog)}
    assert "UnknownSymbol" in codes

    prog2 = Program(VOCAB, {}, T.Seq(T.ModuleRef("Ghost"), T.EqTest("P", "T")))
    codes2 = {d.code for d in validate_program(prog2)}
    assert {"UnknownModule", "NonUnarySymbolInTest"} <= codes2


@pytest.mark.parametrize(
    "rule, error",
    [
        ("Nope(x) <~ adom(x)", UnknownSymbolError),  # the head is no register
        ("P(x) <~ adom(y)", HeadVarUnusedError),
        ("P(x) <~ T(x)", ArityError),
        ("P(x) <~ Undeclared(x)", UnknownSymbolError),
    ],
)
def test_a_bad_rule_is_refused_with_its_line(rule, error):
    text = f"module Ok {{ Q(x) <~ adom(x) }}\nmodule Bad {{\n  {rule}\n}}\nterm: Ok ; Bad\n"
    with pytest.raises(error) as info:
        parse_program(text, VOCAB)
    assert type(info.value) is error and info.value.line == 3


def test_a_run_on_a_structure_of_another_vocabulary_is_refused():
    program = parse_program("module A { P(x) <~ adom(x) }\nterm: A", VOCAB)
    with pytest.raises(VocabularyMismatchError):
        run_main_task(program, structure_of(("a", "b"), registers=("P",)))


def test_bundled_programs_validate():
    from tracelang.problems import ProblemId, build_instance, build_program

    for pid in ProblemId:
        inst = build_instance(pid)
        program = build_program(pid, inst.vocabulary)
        assert validate_program(program) == []


def test_multiline_terms_and_comments_parse():
    text = """
# a comment
module A { P(x) <~ adom(x) }
term: A ;
      (A <+ id)    # trailing comment
"""
    program = parse_program(text, VOCAB)
    assert program.main == T.Seq(T.ModuleRef("A"), T.PrefUnion(T.ModuleRef("A"), T.Id()))


def test_compiled_core_agrees_with_the_lab_on_the_plain_desugaring():
    # The engine runs the compiled core, where a test sequenced with itself
    # is folded; the lab evaluates the plain desugaring.  Their extension
    # sets and completeness agree (as in acceptance criterion 7).
    rng = random.Random(4343)
    compared = folded = 0
    for _ in range(400):
        s = random_structure(rng, max_domain=2)
        modules = random_modules(rng)
        main = random_surface_term(rng, rng.randint(2, 4), sorted(modules), ("P", "Q", "U"), max_pow=6)
        prog = Program(s.vocabulary, modules, main)
        assert validate_program(prog) == []
        folded += prog.core != desugar(prog.main)
        cfg = SearchConfig(k=2, max_trace_length=5)
        base = Trace.initial(s)
        deno = denotational_deltas(prog, prog.main, base, cfg)
        found, complete = Evaluator(prog, cfg).extensions(prog.core, base)
        assert complete == (deno is not UNKNOWN)
        if complete:
            compared += 1
            assert {t.key() for t in found} == {t.key() for t in deno.extensions}
    assert compared >= 300 and folded >= 25, (compared, folded)


def test_a_huge_pow_compiles_to_a_log_size_core():
    start = time.perf_counter()
    program = parse_program("module M { P(x) <~ adom(x) }\nterm: pow(M, 1000000000)", VOCAB)
    elapsed = time.perf_counter() - start
    # 29 squarings, one Seq per further set bit of 10**9, and the module
    nodes = len(_distinct_nodes(program.core))
    assert nodes <= 2 * 30 + 1, nodes
    assert elapsed < 0.5 and program.check_depth == 0


def test_an_invalid_program_built_directly_fails_its_run():
    s = structure_of(("a",), registers=("P", "Q", "Reach"), arities={"T": 2, "U": 1})
    prog = Program(s.vocabulary, {}, T.Seq(T.ModuleRef("Ghost"), T.EqTest("P", "T")))
    assert [d.code for d in validate_program(prog)] == ["UnknownModule", "NonUnarySymbolInTest"]
    with pytest.raises(UnknownSymbolError):
        run_main_task(prog, s)
