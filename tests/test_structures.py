import random

import pytest
from hypothesis import given, settings, strategies as st

from tracelang.errors import (
    ArityError,
    DuplicateSymbolError,
    NotABijectionError,
    ParseError,
    UnknownSymbolError,
)
from tracelang.structures import (
    parse_structure,
    permute_structure,
    serialize_structure,
    structures_equal,
)

from helpers import structure_of


def test_parse_basic():
    s = parse_structure("domain a b\nedb E 2\n a b\nreg P")
    assert s.domain == ("a", "b")
    assert s.edb["E"] == frozenset({("a", "b")})
    assert s.register_value("P") is None


def test_parse_empty_edb():
    s = parse_structure("domain a\nreg P Q")
    assert s.edb == {}
    assert s.register_value("P") is None and s.register_value("Q") is None


def test_parse_arity_mismatch():
    with pytest.raises(ArityError):
        parse_structure("domain a\nedb E 2\n a a a")


def test_parse_rejects_undeclared_elements_and_dupes():
    with pytest.raises(UnknownSymbolError):
        parse_structure("domain a\nedb E 1\n b")
    with pytest.raises(DuplicateSymbolError):
        parse_structure("domain a\nedb E 1\nedb E 2")
    with pytest.raises(DuplicateSymbolError):
        parse_structure("domain a\nreg P\nreg P")
    with pytest.raises(ParseError):
        parse_structure("reg P")  # no domain line
    with pytest.raises(DuplicateSymbolError):
        parse_structure("domain a\nreg adom")


def test_parse_state_lines_and_comments():
    s = parse_structure("# input\ndomain a b\nreg P Q\nstate P=a\nstate Q=_\n")
    assert s.register_value("P") == "a"
    assert s.register_value("Q") is None


def test_serialize_round_trip_is_identity():
    text = "domain a b\nedb E 2\n a b\nreg P"
    s = parse_structure(text)
    out = serialize_structure(s)
    assert structures_equal(parse_structure(out), s)
    assert serialize_structure(parse_structure(out)) == out


def test_serialize_orders_tuples_by_declared_element_order():
    s = structure_of(("a", "b"), {"E": {("b", "a"), ("a", "b")}})
    out = serialize_structure(s)
    assert out.index("a b") < out.index("b a")


def test_serialize_deterministic_for_equal_structures():
    s1 = structure_of(("a", "b"), {"E": {("a", "b"), ("b", "a")}}, registers=("P",))
    s2 = structure_of(("a", "b"), {"E": {("b", "a"), ("a", "b")}}, registers=("P",))
    assert structures_equal(s1, s2)
    assert serialize_structure(s1) == serialize_structure(s2)


def test_permute_identity_and_swap():
    s = structure_of(("a", "b"), {"E": {("a", "b")}}, registers=("P",), state={"P": "a"})
    same = permute_structure(s, {"a": "a", "b": "b"})
    assert structures_equal(s, same)
    swapped = permute_structure(s, {"a": "b", "b": "a"})
    assert swapped.edb["E"] == frozenset({("b", "a")})
    assert swapped.register_value("P") == "b"
    back = permute_structure(swapped, {"a": "b", "b": "a"})
    assert structures_equal(back, s)


def test_permute_rejects_non_bijections():
    s = structure_of(("a", "b"))
    with pytest.raises(NotABijectionError):
        permute_structure(s, {"a": "a", "b": "a"})
    with pytest.raises(NotABijectionError):
        permute_structure(s, {"a": "b"})


def test_structures_equal_examples():
    s = structure_of(("a", "b"), {"E": {("a", "b")}}, registers=("P",))
    assert structures_equal(s, s)
    assert not structures_equal(s, s.with_registers(("a",)))
    assert not structures_equal(s, permute_structure(s, {"a": "b", "b": "a"}))


def test_structures_equal_is_equivalence_on_random_triples():
    rng = random.Random(7)
    pool = []
    for _ in range(12):
        regs = rng.choice([(), ("P",), ("P", "Q")])
        n = rng.randint(1, 3)
        domain = tuple("abc"[:n])
        edb = {"E": {(x, y) for x in domain for y in domain if rng.random() < 0.4}}
        pool.append(structure_of(domain, edb, registers=regs, arities={"E": 2}))
    for _ in range(200):
        a, b, c = (rng.choice(pool) for _ in range(3))
        try:
            ab, bc, ac = structures_equal(a, b), structures_equal(b, c), structures_equal(a, c)
        except Exception:
            continue  # mixed vocabularies are out of scope here
        assert structures_equal(a, a)
        assert ab == structures_equal(b, a)
        if ab and bc:
            assert ac


@st.composite
def _structures(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    domain = tuple(f"e{i}" for i in range(n))
    pairs = [(x, y) for x in domain for y in domain]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=6)) if pairs else set()
    regs = ("P", "Q")
    values = {r: draw(st.sampled_from((None,) + domain)) for r in regs}
    return structure_of(
        domain,
        {"E": edges},
        registers=regs,
        arities={"E": 2},
        state={r: v for r, v in values.items() if v is not None},
    )


@given(_structures())
@settings(max_examples=60, deadline=None)
def test_parse_serialize_round_trip_property(s):
    assert structures_equal(parse_structure(serialize_structure(s)), s)
