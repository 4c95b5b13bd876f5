import io
import itertools
import keyword
import random
import re
import tokenize

import pytest
from hypothesis import given, settings, strategies as st

from tracelang.cq import Atom, CQBody, Const, compile_body, evaluate_unary_cq
from tracelang.errors import ArityError, UnknownSymbolError
from tracelang.structures import Structure, Vocabulary, permute_structure

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
    # The index is built once per EDB table and kept on the structure, which
    # a run evaluates under the valuation of every letter of its trace;
    # evaluating the valuations in alternation shows it never keeps a
    # register value from the valuation that built it.
    rng = random.Random(23)
    for _ in range(40):
        s = _join_structure(rng)
        letters = [_random_letter(rng, s) for _ in range(4)]
        bodies = [_random_join_body(rng, s.domain) for _ in range(4)]
        for _ in range(3):
            for body in bodies:
                query = compile_body(body, s.vocabulary)
                for letter in letters:
                    assert query.answers(s, letter.registers) == naive_unary_cq(body, letter)
                    assert evaluate_unary_cq(body, letter) == naive_unary_cq(body, letter)


# Names that would break or inject code if generated source spelled them out.
_TRICKY = st.sampled_from(
    ['"', "'", "\\", "\n", "a'b", '"); __import__("os"); ("', "__import__", "import", "lambda",
     "None", "def", "out", "s", "r", "v0", "a0", "ta0", "make", "_index", "answers"]
)
_NAMES = _TRICKY | st.text(min_size=1, max_size=6)
# every identifier the generator writes
_GENERATED = re.compile(r"(make|answers|member|out|add|set|s|r|_index|_|[avuf]\d+|ta\d+|_dindex|domain|edb|registers|get)\Z")


@st.composite
def _cases(draw):
    """A structure over arbitrary symbol names and elements, and a body over
    arbitrary variable names and constants."""
    u, e, p, q, *variables = draw(st.lists(_NAMES.filter(lambda n: n != "adom"), min_size=7, max_size=7, unique=True))
    domain = tuple(draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True)))
    vocab = Vocabulary(((u, 1), (e, 2)), (p, q), len(domain))
    pairs = list(itertools.product(domain, repeat=2))
    edb = {
        u: {(x,) for x in draw(st.lists(st.sampled_from(domain), unique=True))},
        e: set(draw(st.lists(st.sampled_from(pairs), unique=True))),
    }
    registers = tuple(draw(st.sampled_from((None, *domain))) for _ in range(2))
    s = Structure(vocab, domain, edb, registers)
    arg = st.sampled_from(variables) | st.builds(Const, st.sampled_from(domain) | _NAMES)
    atoms = []
    for symbol in draw(st.lists(st.sampled_from(("adom", u, e, p, q)), min_size=1, max_size=4)):
        atoms.append(Atom(symbol, tuple(draw(arg) for _ in range(2 if symbol == e else 1))))
    head = variables[0]
    if head not in CQBody(head, tuple(atoms)).variables():
        atoms.insert(draw(st.integers(0, len(atoms))), Atom(draw(st.sampled_from(("adom", u, p))), (head,)))
    return s, CQBody(head, tuple(atoms))


def _renamed(s, body):
    """The same structure and body with every name and constant replaced,
    one to one, by a plain one."""
    names = {"adom": "adom"}
    for name in (*(n for n, _ in s.vocabulary.edb_symbols), *s.vocabulary.register_symbols):
        names[name] = f"Sym{len(names)}"
    values: dict = {}

    def rename(a):
        if isinstance(a, Const):
            return Const(values.setdefault(a.value, f"c{len(values)}"))
        return values.setdefault(("var", a), f"x{len(values)}")

    atoms = tuple(Atom(names[atom.symbol], tuple(map(rename, atom.args))) for atom in body.atoms)
    vocab = Vocabulary(
        tuple((names[n], k) for n, k in s.vocabulary.edb_symbols),
        tuple(names[n] for n in s.vocabulary.register_symbols),
        s.vocabulary.domain_size,
    )
    return vocab, CQBody(rename(body.head_var), atoms)


@given(_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_generated_code_agrees_with_the_oracle_and_names_nothing(case):
    s, body = case
    query = compile_body(body, s.vocabulary)
    answers = naive_unary_cq(body, s)
    assert query.answers(s, s.registers) == answers
    assert evaluate_unary_cq(body, s) == answers
    for element in (*s.domain, "not an element"):
        assert query.member(s, s.registers, element) == (element in answers)
    # The source holds no string literal, and every identifier in it is the
    # generator's own: no symbol name or constant reaches it as text, so a
    # body whose names and constants are all replaced has the same source.
    assert not {'"', "'", "\\"} & set(query.source)
    tokens = tokenize.generate_tokens(io.StringIO(query.source).readline)
    assert all(
        keyword.iskeyword(t.string) or _GENERATED.match(t.string)
        for t in tokens
        if t.type == tokenize.NAME
    ), query.source
    vocab, renamed = _renamed(s, body)
    assert compile_body(renamed, vocab).source == query.source


def test_a_long_body_is_cut_into_nested_functions():
    # CPython refuses more than 20 nested loops in one function; a chain of
    # 300 joins still compiles, and finds the walks of 300 steps on a cycle
    s = structure_of(("a", "b", "c"), {"E": {("a", "b"), ("b", "c"), ("c", "a")}})
    atoms = tuple(Atom("E", (f"x{i}", f"x{i + 1}")) for i in range(300))
    for head in ("x0", "x150", "x300"):
        query = compile_body(CQBody(head, atoms), s.vocabulary)
        assert query.answers(s, s.registers) == {"a", "b", "c"} and query.member(s, s.registers, "a")
    s2 = structure_of(("a", "b", "c"), {"E": {("a", "b"), ("b", "c")}})
    assert compile_body(CQBody("x0", atoms), s2.vocabulary).answers(s2, s2.registers) == set()
