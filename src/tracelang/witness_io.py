"""Witness files: JSON certificates tied to their program and input texts.

Format::

    {
      "program": "<sha-256 hex of the program file text>",
      "input": "<sha-256 hex of the structure file text>",
      "k": 2,
      "choices": [{"module": "GuessP", "assignment": {"P": "d1"}}, ...],
      "final_length": 5
    }

``k`` must be at least 1.  Verification checks both hashes before replaying
a single step, so a certificate cannot be applied to inputs it was not
produced from.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .engine import SearchConfig, Witness, replay_failure
from .errors import ParseError, TraceLangError
from .modules import Choice
from .parser import parse_program
from .structures import parse_structure


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def witness_to_json(witness: Witness, program_text: str, structure_text: str, k: int) -> str:
    doc = {
        "program": text_hash(program_text),
        "input": text_hash(structure_text),
        "k": k,
        "choices": [
            {"module": c.module, "assignment": dict(sorted(c.assignment))} for c in witness.choices
        ],
        "final_length": witness.final_length,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def witness_from_json(text: str) -> tuple[Witness, dict[str, Any]]:
    """Parse a witness document; returns the witness and the raw fields."""
    doc = _document(text)
    return _witness(doc), doc


def _document(text: str) -> dict[str, Any]:
    """A witness document's fields, checked; ``ParseError`` at the first bad one."""
    try:
        doc = json.loads(text)
    # a ValueError also for an integer of over 4,300 digits, a RecursionError
    # for arrays or objects nested past the interpreter's recursion limit
    except (ValueError, RecursionError) as e:
        raise ParseError(f"witness file is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("witness file is not a JSON object")
    for field, typ in (
        ("program", str),
        ("input", str),
        ("k", int),
        ("choices", list),
        ("final_length", int),
    ):
        # a JSON true or false is a Python bool, and bool is a subclass of int
        if field not in doc or not isinstance(doc[field], typ) or isinstance(doc[field], bool):
            raise ParseError(f"witness file lacks a valid {field!r} field")
    if doc["k"] < 1:
        raise ParseError(f"witness file has k = {doc['k']}; k must be at least 1")
    for entry in doc["choices"]:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("module"), str)
            or not isinstance(entry.get("assignment"), dict)
            or not all(isinstance(v, str) for v in entry["assignment"].values())
        ):
            raise ParseError("witness choice entries need a module and an assignment of elements")
    return doc


def _witness(doc: dict[str, Any]) -> Witness:
    """The witness of a document that :func:`_document` has checked."""
    choices = [Choice(e["module"], tuple(sorted(e["assignment"].items()))) for e in doc["choices"]]
    return Witness(tuple(choices), doc["final_length"])


def verify_witness_file(
    program_text: str, structure_text: str, witness_text: str
) -> tuple[bool, str]:
    """Full verification of a witness document against its source texts.

    Returns (ok, reason).  A malformed document is reported first, then a
    hash mismatch, which skips building the choices and the replay.
    """
    try:
        doc = _document(witness_text)
    except ParseError as e:
        return False, str(e)
    if doc["program"] != text_hash(program_text):
        return False, "hash mismatch: witness was produced for a different program"
    if doc["input"] != text_hash(structure_text):
        return False, "hash mismatch: witness was produced for a different input"
    witness = _witness(doc)
    try:
        structure = parse_structure(structure_text)
        program = parse_program(program_text, structure.vocabulary)
        cfg = SearchConfig.for_run(program, structure, k=doc["k"])
        # a replay refuses a constant outside the input's domain, as a run does
        failure = replay_failure(program, structure, witness, cfg)
    except TraceLangError as e:
        return False, f"cannot parse inputs: {e}"
    if failure is None:
        return True, "witness replays cleanly"
    return False, f"replay failed {failure}"

