import itertools
import random

import pytest

from tracelang.cq import Atom, CQBody, evaluate_unary_cq
from tracelang.errors import DuplicateSymbolError, StaleChoiceError
from tracelang.modules import Choice, ModuleDef, Rule, apply_choice, check_choice, successor_choices
from tracelang.structures import structures_equal

from helpers import compiled, random_modules, random_structure, structure_of


def _module(name, *rules):
    return ModuleDef(name, tuple(Rule(h, b) for h, b in rules))


def _after(s, c):
    """The letter that ``c`` makes from ``s``."""
    return s.with_registers(apply_choice(s, s.registers, c))


def guess_p():
    return _module("GuessP", ("P", CQBody("x", (Atom("adom", ("x",)),))))


def test_guess_choices_enumerate_domain_in_order():
    s = structure_of(("a", "b", "c"), registers=("P",))
    choices = successor_choices(compiled(guess_p(), s.vocabulary), s, s.registers)
    assert [c.as_dict() for c in choices] == [{"P": "a"}, {"P": "b"}, {"P": "c"}]


def test_choices_come_in_declaration_order_and_rule_order():
    # One rule: its answers, in element declaration order; a one-element
    # answer set: one choice; two rules: the product in rule order, the
    # first rule's element varying slowest.
    domain = ("d", "b", "e", "a", "c")
    s = structure_of(
        domain,
        {"U": {(e,) for e in domain}, "W": {("e",)}, "V": {("a",), ("b",)}},
        registers=("P", "Q"),
    )

    def choices(*rules):
        m = _module("M", *((h, CQBody("x", (Atom(sym, ("x",)),))) for h, sym in rules))
        return [c.assignment for c in successor_choices(compiled(m, s.vocabulary), s, s.registers)]

    assert choices(("P", "U")) == [(("P", e),) for e in domain]
    assert choices(("Q", "W")) == [(("Q", "e"),)]
    assert choices(("Q", "V"), ("P", "U")) == [(("Q", q), ("P", p)) for q in ("b", "a") for p in domain]


def test_empty_answer_set_makes_module_undefined():
    # one register filled, the other blank: the pair-picking module has no
    # transition at all
    s = structure_of(("p1",), registers=("P", "Q", "PickP", "PickQ"), state={"P": "p1"})
    m = _module(
        "PickPQ",
        ("PickP", CQBody("x", (Atom("P", ("x",)),))),
        ("PickQ", CQBody("x", (Atom("Q", ("x",)),))),
    )
    m2 = compiled(m, s.vocabulary)
    assert successor_choices(m2, s, s.registers) == ()
    assert [_after(s, c) for c in successor_choices(m2, s, s.registers)] == []


def test_blank_register_body_gives_no_choices():
    s = structure_of(("a",), registers=("P", "R"))
    m = _module("CopyR", ("P", CQBody("x", (Atom("R", ("x",)),))))
    assert successor_choices(compiled(m, s.vocabulary), s, s.registers) == ()


def test_apply_choice_writes_only_named_registers():
    s = structure_of(("a", "b"), registers=("P", "Q"), state={"Q": "b"})
    (choice,) = [c for c in successor_choices(compiled(guess_p(), s.vocabulary), s, s.registers) if c.as_dict() == {"P": "a"}]
    assert apply_choice(s, s.registers, choice) == ("a", "b")
    out = _after(s, choice)
    assert out.register_value("P") == "a"
    assert out.register_value("Q") == "b"  # inertia
    assert not structures_equal(out, s)


def test_apply_choice_noop_write_keeps_structure_equal():
    s = structure_of(("a",), registers=("P",), state={"P": "a"})
    m = _module("KeepP", ("P", CQBody("x", (Atom("P", ("x",)),))))
    (only,) = [_after(s, c) for c in successor_choices(compiled(m, s.vocabulary), s, s.registers)]
    assert structures_equal(only, s)  # self-loops are legal outcomes


def test_check_choice_validates_against_answer_sets():
    m = _module("PickU", ("P", CQBody("x", (Atom("U", ("x",)),))))
    s2 = structure_of(("a", "b"), {"U": {("a",)}}, registers=("P", "Q"), arities={"U": 1})
    m2 = compiled(m, s2.vocabulary)
    check_choice(m2, s2, s2.registers, Choice("PickU", (("P", "a"),)))
    with pytest.raises(StaleChoiceError, match="P=b is not in the answer set of PickU"):
        check_choice(m2, s2, s2.registers, Choice("PickU", (("P", "b"),)))
    for wrong in ((("Q", "a"),), (("P", "a"), ("Q", "a")), (("P", "a"), ("P", "a")), ()):
        with pytest.raises(StaleChoiceError, match="writes the wrong registers"):
            check_choice(m2, s2, s2.registers, Choice("PickU", wrong))


def test_duplicate_heads_rejected():
    body = CQBody("x", (Atom("adom", ("x",)),))
    with pytest.raises(DuplicateSymbolError):
        _module("Bad", ("P", body), ("P", body))


def test_deterministic_module_has_one_successor():
    s = structure_of(("a", "b"), registers=("P", "R"), state={"R": "a"})
    copy = _module("Copy", ("P", CQBody("x", (Atom("R", ("x",)),))))
    assert len([_after(s, c) for c in successor_choices(compiled(copy, s.vocabulary), s, s.registers)]) == 1


def test_successor_count_is_product_of_answer_sets():
    rng = random.Random(23)
    for _ in range(150):
        s = random_structure(rng)
        if rng.random() < 0.5:
            s = s.with_registers(
                tuple(rng.choice((None,) + s.domain) for _ in s.vocabulary.register_symbols)
            )
        for m in random_modules(rng).values():
            expected = 1
            for rule in m.rules:
                expected *= len(evaluate_unary_cq(rule.body, s))
            assert len(successor_choices(compiled(m, s.vocabulary), s, s.registers)) == (expected if expected else 0)


def test_inertia_on_random_modules():
    rng = random.Random(29)
    for _ in range(100):
        s = random_structure(rng)
        for m in random_modules(rng).values():
            written = {r.head for r in m.rules}
            for succ in (_after(s, c) for c in successor_choices(compiled(m, s.vocabulary), s, s.registers)):
                assert succ.edb == s.edb and succ.domain == s.domain
                for reg in s.vocabulary.register_symbols:
                    if reg not in written:
                        assert succ.register_value(reg) == s.register_value(reg)


def test_choices_cover_cartesian_product():
    s = structure_of(("a", "b"), registers=("P", "Q"))
    m = _module(
        "Both",
        ("P", CQBody("x", (Atom("adom", ("x",)),))),
        ("Q", CQBody("x", (Atom("adom", ("x",)),))),
    )
    combos = {tuple(sorted(c.as_dict().items())) for c in successor_choices(compiled(m, s.vocabulary), s, s.registers)}
    expected = {
        (("P", p), ("Q", q)) for p, q in itertools.product(("a", "b"), repeat=2)
    }
    assert combos == expected
