"""Properties of the untrusted inputs: program text, structure text,
witness JSON and whole witness files.  Whatever the input, the library answers with a value
or a ``TraceLangError``, within a small time budget per example."""

import copy
import json
from datetime import timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from tracelang.engine import Evaluator, SearchConfig
from tracelang.errors import ChoiceMismatchError, ParseError, TraceLangError
from tracelang.parser import MAX_NESTING, parse_program, parse_term
from tracelang.terms import desugar
from tracelang.structures import parse_structure
from tracelang.witness_io import text_hash, verify_witness_file, witness_from_json

STRUCTURE = "domain a b\nedb E 2\n a b\nreg P Q\n"
VOCABULARY = parse_structure(STRUCTURE).vocabulary
MODULES = "module GuessP { P(x) <~ adom(x) }\nmodule Step { Q(y) <~ P(x), E(x, y) }\n"
PROGRAM = MODULES + "term: GuessP ; BG(P != P) ; Step\n"

budget = settings(max_examples=150, deadline=timedelta(seconds=2), derandomize=True)

# words of the program language, so that random text gets past the tokenizer
_WORDS = st.sampled_from(
    [
        "module", "term", ":", "{", "}", "(", ")", ",", ";", "<~", "<+", "^", "~", "==",
        "!=", "not", "and", "or", "if", "then", "else", "while", "do", "repeat", "until",
        "test", "dom", "dia", "pow", "BG", "id", "skip", "fail", "GuessP", "Step", "P",
        "Q", "E", "adom", "x", "y", '"a"', "2", "\n",
    ]
)


def _assert_parses_or_refuses(text):
    try:
        program = parse_program(text, VOCABULARY)
    except TraceLangError:
        return
    assert program.check_depth <= MAX_NESTING


@budget
@given(st.text(max_size=200) | st.lists(_WORDS, max_size=60).map(" ".join))
def test_program_text_raises_only_tracelang_errors(text):
    _assert_parses_or_refuses(text)


# one level of nesting around a term ``t``
_WRAPPERS = st.sampled_from(
    [
        "({})", "~{}", "not {}", "{}^", "test({})", "dom({})", "dia({}, Step)", "pow({}, 3)",
        "{} ; GuessP", "GuessP ; ({})", "{} <+ Step", "{} or id", "{} and BG(P != Q)",
        "if P == Q then {} else id", "while P == Q do {}", "repeat {} until P == P",
    ]
)


@budget
@given(
    st.integers(0, 3 * MAX_NESTING // 2).flatmap(lambda n: st.lists(_WRAPPERS, min_size=n, max_size=n)),
    st.sampled_from(["GuessP", "id", "P == Q"]),
)
def test_deeply_nested_terms_raise_only_tracelang_errors(wrappers, core):
    term = core
    for wrapper in wrappers:
        term = wrapper.format(term)
    _assert_parses_or_refuses(MODULES + "term: " + term + "\n")


@budget
@given(
    st.integers(MAX_NESTING - 20, 3 * MAX_NESTING // 2).flatmap(
        lambda n: st.lists(_WRAPPERS, min_size=n, max_size=n)
    ),
    st.sampled_from(["GuessP", "id", "P == Q"]),
)
def test_desugar_refuses_no_term_the_parser_accepts(wrappers, core):
    # desugar bounds the nesting of a term as the parser counts it in text,
    # so a parsed term is never too deep for it
    term = core
    for wrapper in wrappers:
        term = wrapper.format(term)
    try:
        parsed = parse_term(term)
    except ParseError:
        return
    desugar(parsed)


# words and separators of the structure language, so that random text gets
# past the line tokenizer
_STRUCTURE_WORDS = st.sampled_from(
    [
        "domain", "edb", "reg", "state", "a", "b", "c", "E", "P", "Q", "0", "1", "2", "-1",
        "P=a", "Q=_", "P=", "=b", "_", "#", " ", "  ", "\n", "\n  ", "\t",
    ]
)


@budget
@given(st.text(max_size=200) | st.lists(_STRUCTURE_WORDS, max_size=60).map("".join))
def test_structure_text_raises_only_tracelang_errors(text):
    try:
        parse_structure(text)
    except TraceLangError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

# a certificate of PROGRAM, and the places where a mutant changes one field
_VALID = {
    "program": text_hash(PROGRAM),
    "input": text_hash(STRUCTURE),
    "k": 2,
    "choices": [{"module": "GuessP", "assignment": {"P": "a"}}, {"module": "Step", "assignment": {"Q": "b"}}],
    "final_length": 3,
}
_PLACES = [("k",), ("final_length",), ("choices",), ("choices", 1)] + [
    ("choices", i, field) for i in (0, 1) for field in ("module", "assignment")
] + [("choices", 0, "assignment", "P"), ("choices", 0, "assignment", "Q"), ("choices", 1, "assignment", "Q")]


@st.composite
def _mutants(draw):
    doc = copy.deepcopy(_VALID)
    *path, last = draw(st.sampled_from(_PLACES))
    target = doc
    for step in path:
        target = target[step]
    target[last] = draw(st.sampled_from(["a", "b", "GuessP", "Step", 0, 1, 3]) | _JSON)
    return json.dumps(doc)


@budget
@given(st.text(max_size=200) | _JSON.map(json.dumps) | _mutants())
def test_witness_json_raises_only_parse_errors(text):
    try:
        witness_from_json(text)
    except ParseError:
        pass


@budget
@given(st.text(max_size=200) | _JSON.map(json.dumps))
def test_a_witness_file_that_is_no_certificate_is_refused(text):
    ok, reason = verify_witness_file(PROGRAM, STRUCTURE, text)
    assert ok is False and isinstance(reason, str) and reason


def test_the_certificate_the_mutants_change_replays():
    assert verify_witness_file(PROGRAM, STRUCTURE, json.dumps(_VALID)) == (True, "witness replays cleanly")


@budget
@given(_mutants())
@example(json.dumps({**_VALID, "final_length": 1}))
def test_a_single_field_mutant_gets_a_verdict(text):
    ok, reason = verify_witness_file(PROGRAM, STRUCTURE, text)
    assert isinstance(reason, str)
    assert ok is (reason == "witness replays cleanly")
    # replayed directly, a mutant that parses replays, as it verifies, or
    # raises ChoiceMismatchError, and nothing else
    try:
        witness, doc = witness_from_json(text)
    except ParseError:
        return
    structure = parse_structure(STRUCTURE)
    program = parse_program(PROGRAM, structure.vocabulary)
    replayer = Evaluator(program, structure, SearchConfig.for_run(program, structure, k=doc["k"]))
    try:
        replayer.replay(witness)
    except ChoiceMismatchError:
        assert not ok
    else:
        assert ok


def test_a_witness_nested_past_the_recursion_limit_is_a_parse_error():
    text = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ParseError):
        witness_from_json(text)
    assert verify_witness_file(PROGRAM, STRUCTURE, text)[0] is False
