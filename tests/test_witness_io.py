import json

import pytest

from tracelang.engine import run_main_task
from tracelang.errors import ParseError
from tracelang.parser import parse_program
from tracelang.structures import parse_structure
from tracelang.witness_io import verify_witness_file, witness_from_json, witness_to_json

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
