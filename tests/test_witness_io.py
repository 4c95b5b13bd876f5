import json

import pytest

from tracelang.engine import SearchConfig, Witness, replay_failure, run_main_task
from tracelang.errors import ParseError
from tracelang.modules import Choice
from tracelang.parser import parse_program
from tracelang.structures import parse_structure
from tracelang.witness_io import text_hash, verify_witness_file, witness_from_json, witness_to_json

PROGRAM = "module GuessP { P(x) <~ adom(x) }\nterm: id\n"  # final_length 1
STRUCTURE = "domain a b\nreg P\n"


def _certificate(k: int) -> dict:
    structure = parse_structure(STRUCTURE)
    verdict = run_main_task(parse_program(PROGRAM, structure.vocabulary), structure)
    return json.loads(witness_to_json(verdict.witness, PROGRAM, STRUCTURE, k))


@pytest.mark.parametrize("field", ["k", "final_length"])
def test_boolean_integer_fields_are_rejected(field):
    # JSON true decodes to a bool, which is an int subclass; it must not
    # stand in for the integer 1
    doc = _certificate(k=1)
    assert doc[field] == 1
    assert verify_witness_file(PROGRAM, STRUCTURE, json.dumps(doc)) == (
        True,
        "witness replays cleanly",
    )
    doc[field] = True
    with pytest.raises(ParseError):
        witness_from_json(json.dumps(doc))
    ok, reason = verify_witness_file(PROGRAM, STRUCTURE, json.dumps(doc))
    assert not ok and repr(field) in reason


GUESS = "module GuessP { P(x) <~ adom(x) }\n"
CHECKED_TERM = "pow(GuessP ; BG(P != P), 2) ; ~(GuessP ; BG(P != P))"
CHECKED = f"{GUESS}term: {CHECKED_TERM}\n"
CHECKED_INPUT = "domain a b\nreg P\n"


def _checked_certificate() -> dict:
    structure = parse_structure(CHECKED_INPUT)
    verdict = run_main_task(parse_program(CHECKED, structure.vocabulary), structure)
    return json.loads(witness_to_json(verdict.witness, CHECKED, CHECKED_INPUT, 2))


def test_huge_k_gives_the_answer_of_k_2():
    # the length bound is cut long before the power would be built, and the
    # anti-domain check at the end stays conclusive
    doc = _checked_certificate()
    mutant = json.loads(json.dumps(doc))
    mutant["choices"][1]["assignment"]["P"] = mutant["choices"][0]["assignment"]["P"]
    for case in (doc, mutant):
        answers = set()
        for k in (2, 10**9):
            case["k"] = k
            answers.add(verify_witness_file(CHECKED, CHECKED_INPUT, json.dumps(case)))
        assert len(answers) == 1
    assert verify_witness_file(CHECKED, CHECKED_INPUT, json.dumps(doc))[0]


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_rejected(k):
    doc = _checked_certificate()
    doc["k"] = k
    with pytest.raises(ParseError):
        witness_from_json(json.dumps(doc))
    ok, reason = verify_witness_file(CHECKED, CHECKED_INPUT, json.dumps(doc))
    assert not ok and "k must be at least 1" in reason


def test_replay_failures_say_where_and_why():
    def reason(edit):
        doc = _checked_certificate()
        edit(doc)
        ok, why = verify_witness_file(CHECKED, CHECKED_INPUT, json.dumps(doc))
        assert not ok
        return why

    def stale(doc):
        doc["choices"][1]["assignment"]["P"] = "zz"

    def wrong_module(doc):
        doc["choices"][1]["module"] = "Nope"

    def longer(doc):
        doc["final_length"] += 1

    def repeated(doc):
        doc["choices"][1]["assignment"]["P"] = doc["choices"][0]["assignment"]["P"]

    def shorter(doc):
        doc["choices"].pop()
        doc["final_length"] -= 1

    def extra(doc):
        doc["choices"].append(doc["choices"][0])
        doc["final_length"] += 1

    def wrong_register(doc):
        doc["choices"][0]["assignment"] = {"Q": "a"}

    assert reason(stale) == (
        "replay failed at choice 1: choice P=zz is not in the answer set of GuessP"
    )
    assert reason(wrong_module) == (
        "replay failed at choice 1: certificate names module Nope, derivation needs GuessP"
    )
    assert reason(longer) == (
        "replay failed at choice 0: final_length does not match the number of choices"
    )
    # a failing test after a step: two choices were replayed before it
    assert reason(repeated) == "replay failed at choice 2: history test BG(P != P) fails"
    assert reason(shorter) == (
        "replay failed at choice 1: certificate has fewer choices than the derivation needs"
    )
    assert reason(extra) == (
        "replay failed at choice 2: certificate has more choices than the derivation uses"
    )
    assert reason(wrong_register) == (
        "replay failed at choice 0: choice for GuessP writes the wrong registers"
    )

    def replayed(term, values, structure=CHECKED_INPUT, max_trace_length=None):
        # a certificate of GuessP guesses, replayed under the given bound
        s = parse_structure(structure)
        program = parse_program(f"{GUESS}term: {term}\n", s.vocabulary)
        witness = Witness(tuple(Choice("GuessP", (("P", v),)) for v in values), 1 + len(values))
        cfg = SearchConfig.for_run(program, s, max_trace_length=max_trace_length)
        return replay_failure(program, s, witness, cfg)

    assert replayed(CHECKED_TERM, "ab", max_trace_length=2) == (
        "at choice 0: certificate exceeds the configured length bound"
    )
    # the bound leaves room for the one choice there is, not for the second
    # one the derivation needs
    assert replayed(CHECKED_TERM, "a", max_trace_length=2) == (
        "at choice 1: certificate has fewer choices than the derivation needs"
    )
    assert replayed(CHECKED_TERM, "ab", structure="domain a b c\nreg P\n") == (
        "at choice 2: anti-domain test fails"
    )
    assert replayed(CHECKED_TERM, "ab", max_trace_length=3) == "at choice 2: anti-domain check inconclusive"
    assert replayed("GuessP <+ id", "", max_trace_length=1) == "at choice 0: union arm check inconclusive"
    assert replayed("GuessP^", "", max_trace_length=1) == "at choice 0: iterate exit check inconclusive"
    assert replayed("(P == P)^", "") == "at choice 0: iterate revisits a milestone valuation"
    assert replayed("GuessP ; P == Q", "a", structure="domain a b\nreg P Q\n") == (
        "at choice 1: equality test P == Q fails"
    )


def test_a_certificate_of_a_program_a_run_refuses_is_invalid():
    # a run refuses a constant outside the input's domain, and so does
    # replay, before it re-derives anything
    program = 'module Pick { P(x) <~ adom(x) }\nmodule Bad { P(y) <~ adom(y), P("zz") }\nterm: Pick ; (Bad <+ id)\n'
    doc = {
        "program": text_hash(program),
        "input": text_hash(STRUCTURE),
        "k": 2,
        "choices": [{"module": "Pick", "assignment": {"P": "a"}}],
        "final_length": 2,
    }
    ok, reason = verify_witness_file(program, STRUCTURE, json.dumps(doc))
    assert not ok and "UnknownElement" in reason
