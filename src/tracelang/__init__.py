"""tracelang: a small language of nondeterministic guess-and-check programs
over finite relational structures.

Programs are algebraic terms built from atomic "modules" (conjunctive-query
guesses that write single-element registers), sequencing, preferential union,
anti-domain tests, maximum iteration and history tests.  The engine decides
whether some sequence of guesses executes a term successfully from an input
structure, emits a replayable certificate of the guesses when it does, and
re-verifies such certificates deterministically.
"""

from .errors import (
    ArityError,
    ChoiceMismatchError,
    DuplicateSymbolError,
    HeadVarUnusedError,
    InvalidParamsError,
    NotABijectionError,
    NonUnarySymbolError,
    ParseError,
    SignatureMismatchError,
    StaleChoiceError,
    TraceLangError,
    UnknownModuleError,
    UnknownSymbolError,
    VocabularyMismatchError,
)
from .structures import (
    BLANK,
    Structure,
    Vocabulary,
    parse_structure,
    permute_structure,
    serialize_structure,
    structures_equal,
)
from .cq import Atom, CQBody, Const, evaluate_unary_cq
from .modules import Choice, ModuleDef, Rule, apply_choice, successor_choices
from .terms import (
    AntiDomain,
    BackGlobal,
    EqTest,
    Id,
    MaxIterate,
    ModuleRef,
    PrefUnion,
    Seq,
    desugar,
    pretty,
)
from .parser import Program, parse_program, parse_term
from .engine import (
    Evaluator,
    SearchConfig,
    Trace,
    Verdict,
    Witness,
    check_bg,
    check_eq,
    enumerate_witnesses,
    eval_deltas,
    holds_antidomain,
    run_main_task,
    verify_witness,
    witness_length,
)
from .lab import (
    UNKNOWN,
    DeltaSet,
    before_after_equivalent,
    denotational_deltas,
    is_defined,
    strongly_equivalent,
)
from .problems import ProblemId, build_instance, build_program, oracle, program_text

__all__ = [name for name in dir() if not name.startswith("_")]
