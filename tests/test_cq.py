import itertools
import random

import pytest

from tracelang.cq import Atom, CQBody, Const, evaluate_unary_cq, free_and_bound_vars
from tracelang.errors import ArityError, HeadVarUnusedError, UnknownSymbolError
from tracelang.structures import permute_structure

from helpers import naive_unary_cq, random_structure, structure_of


def test_distance_two_answer_set():
    # one element at distance two from X along E; expected set computed by
    # the brute-force oracle and frozen
    s = structure_of(
        ("a", "b", "c"),
        {"X": {("a",)}, "E": {("a", "b"), ("b", "c")}},
        arities={"X": 1, "E": 2},
    )
    body = CQBody("x2", (Atom("X", ("x1",)), Atom("E", ("x1", "z")), Atom("E", ("z", "x2"))))
    assert naive_unary_cq(body, s) == frozenset({"c"})
    assert evaluate_unary_cq(body, s) == frozenset({"c"})


def test_adom_body_returns_whole_domain():
    s = structure_of(("a", "b", "c"))
    body = CQBody("x", (Atom("adom", ("x",)),))
    assert evaluate_unary_cq(body, s) == {"a", "b", "c"}


def test_blank_register_body_is_empty():
    s = structure_of(("a",), registers=("R",))
    body = CQBody("x", (Atom("R", ("x",)),))
    assert evaluate_unary_cq(body, s) == frozenset()


def test_errors():
    s = structure_of(("a",))
    with pytest.raises(UnknownSymbolError):
        evaluate_unary_cq(CQBody("x", (Atom("Nope", ("x",)),)), s)
    s2 = structure_of(("a",), {"E": {("a", "a")}})
    with pytest.raises(ArityError):
        evaluate_unary_cq(CQBody("x", (Atom("E", ("x",)),)), s2)


def test_free_and_bound_vars():
    body = CQBody("x2", (Atom("X", ("x1",)), Atom("E", ("x1", "z")), Atom("E", ("z", "x2"))))
    assert free_and_bound_vars(body) == ("x2", frozenset({"x1", "z"}))
    body2 = CQBody("x", (Atom("adom", ("x",)),))
    assert free_and_bound_vars(body2) == ("x", frozenset())
    with pytest.raises(HeadVarUnusedError):
        free_and_bound_vars(CQBody("x", (Atom("E", ("y", "z")),)))


def _random_body(rng):
    symbols = ["adom", "U", "P", "Q", "E"]
    pool = ["x", "y", "z", "w"]
    atoms = [Atom("U", ("x",)) if rng.random() < 0.5 else Atom("E", ("x", rng.choice(pool)))]
    for _ in range(rng.randint(0, 3)):
        symbol = rng.choice(symbols)
        if symbol == "E":
            atoms.append(Atom("E", (rng.choice(pool), rng.choice(pool))))
        else:
            atoms.append(Atom(symbol, (rng.choice(pool),)))
    return CQBody("x", tuple(atoms))


def test_agrees_with_naive_oracle_on_random_cases():
    rng = random.Random(11)
    for _ in range(300):
        s = random_structure(rng, max_domain=4)
        if rng.random() < 0.5:
            s = s.with_registers(
                tuple(rng.choice((None,) + s.domain) for _ in s.vocabulary.register_symbols)
            )
        body = _random_body(rng)
        assert evaluate_unary_cq(body, s) == naive_unary_cq(body, s)


def test_monotone_in_edb():
    rng = random.Random(13)
    for _ in range(100):
        s = random_structure(rng)
        body = _random_body(rng)
        before = evaluate_unary_cq(body, s)
        extra = {(x, y) for x in s.domain for y in s.domain if rng.random() < 0.3}
        bigger = structure_of(
            s.domain,
            {"U": s.edb["U"], "E": s.edb["E"] | extra},
            registers=s.vocabulary.register_symbols,
            arities={"U": 1, "E": 2},
        ).with_registers(s.registers)
        assert before <= evaluate_unary_cq(body, bigger)


def test_isomorphism_equivariance():
    rng = random.Random(17)
    for _ in range(100):
        s = random_structure(rng)
        body = _random_body(rng)
        perm = list(s.domain)
        rng.shuffle(perm)
        pi = dict(zip(s.domain, perm))
        left = evaluate_unary_cq(body, permute_structure(s, pi))
        right = frozenset(pi[e] for e in evaluate_unary_cq(body, s))
        assert left == right


def _join_structure(rng):
    """Unary, binary and ternary EDB tables plus two registers."""
    n = rng.randint(1, 4)
    domain = tuple("abcd"[:n])
    return structure_of(
        domain,
        {
            "U": {(e,) for e in domain if rng.random() < 0.5},
            "E": {t for t in itertools.product(domain, repeat=2) if rng.random() < 0.4},
            "F": {t for t in itertools.product(domain, repeat=3) if rng.random() < 0.25},
        },
        registers=("P", "Q"),
        arities={"U": 1, "E": 2, "F": 3},
    )


_ARITY = {"adom": 1, "U": 1, "P": 1, "Q": 1, "E": 2, "F": 3}


def _random_join_body(rng, domain):
    """Bodies with constants, variables repeated within one atom (``E(x, x)``)
    and register atoms anywhere in the atom order."""

    def arg():
        return Const(rng.choice(domain)) if rng.random() < 0.2 else rng.choice("xyzw")

    atoms = []
    for _ in range(rng.randint(1, 4)):
        symbol = rng.choice(("adom", "U", "P", "Q", "E", "E", "F", "F"))
        arity = _ARITY[symbol]
        if arity > 1 and rng.random() < 0.3:
            args = (rng.choice("xyzw"),) * arity
        else:
            args = tuple(arg() for _ in range(arity))
        atoms.append(Atom(symbol, args))
    if "x" not in CQBody("x", tuple(atoms)).variables():
        symbol = rng.choice(("U", "P", "E", "F"))
        args = [arg() for _ in range(_ARITY[symbol])]
        args[rng.randrange(len(args))] = "x"
        atoms.insert(rng.randint(0, len(atoms)), Atom(symbol, tuple(args)))
    return CQBody("x", tuple(atoms))


def _random_letter(rng, s):
    return s.with_registers(tuple(rng.choice((None,) + s.domain) for _ in range(2)))


def test_indexed_join_agrees_with_naive_oracle():
    rng = random.Random(19)
    shapes = {"const": 0, "repeated": 0, "ternary": 0, "reg_first": 0, "reg_after_edb": 0}
    for _ in range(400):
        s = _random_letter(rng, _join_structure(rng))
        body = _random_join_body(rng, s.domain)
        assert evaluate_unary_cq(body, s) == naive_unary_cq(body, s), body
        symbols = [a.symbol for a in body.atoms]
        shapes["const"] += any(isinstance(a, Const) for atom in body.atoms for a in atom.args)
        shapes["repeated"] += any(len(set(atom.args)) < len(atom.args) for atom in body.atoms)
        shapes["ternary"] += "F" in symbols
        registers = [i for i, x in enumerate(symbols) if x in ("P", "Q")]
        edbs = [i for i, x in enumerate(symbols) if x in ("E", "F")]
        if registers and edbs:
            shapes["reg_first"] += registers[0] < edbs[0]
            shapes["reg_after_edb"] += registers[-1] > edbs[0]
    assert min(shapes.values()) >= 20, shapes


def test_letters_of_one_structure_share_an_index_of_the_edb_only():
    # The index is built once per EDB table and shared by every letter that
    # with_registers derives; evaluating the letters in alternation shows it
    # never keeps a register value from the letter that built it.
    rng = random.Random(23)
    for _ in range(40):
        s = _join_structure(rng)
        letters = [_random_letter(rng, s) for _ in range(4)]
        bodies = [_random_join_body(rng, s.domain) for _ in range(4)]
        for _ in range(3):
            for body in bodies:
                for letter in letters:
                    assert evaluate_unary_cq(body, letter) == naive_unary_cq(body, letter)
