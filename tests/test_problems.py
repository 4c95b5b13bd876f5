import pytest

from tracelang import terms as T
from tracelang.errors import InvalidParamsError, SignatureMismatchError
from tracelang.problems import (
    ProblemId,
    build_instance,
    build_program,
    make_mod2_instance,
    make_st_instance,
    oracle,
    program_text,
)
from tracelang.structures import serialize_structure


def test_even_program_desugars_to_iterate_then_exhaustion_test():
    program = build_program(ProblemId.EVEN)
    core = program.core
    assert isinstance(core, T.Seq)
    assert isinstance(core.left, T.MaxIterate)
    assert isinstance(core.right, T.AntiDomain)


def test_size_four_uses_pow():
    program = build_program(ProblemId.SIZE_FOUR)
    assert "pow(" in program_text(ProblemId.SIZE_FOUR)
    # four-fold unfolding of the fresh-guess block
    core = program.core
    names = []

    def walk(t):
        if isinstance(t, T.Seq):
            walk(t.left)
            walk(t.right)
        elif isinstance(t, T.ModuleRef):
            names.append(t.name)

    walk(core.left if isinstance(core, T.Seq) else core)
    assert names.count("GuessP") == 4


def test_all_programs_validate_cleanly():
    for pid in ProblemId:
        program = build_program(pid, build_instance(pid).vocabulary)
        assert program.compiled.keys() == program.modules.keys()


def test_same_generation_has_no_binary_registers():
    # generation equality is expressed through coexistence in one structure:
    # all registers stay monadic by construction
    program = build_program(ProblemId.SAME_GENERATION)
    assert all(
        program.vocabulary.arity(r) == 1 for r in program.vocabulary.register_symbols
    )


def test_build_instance_even():
    inst = build_instance(ProblemId.EVEN, {"n": 4}, seed=9)
    assert len(inst.domain) == 4
    assert inst.edb == {}


def test_build_instance_complete_digraph():
    inst = build_instance(ProblemId.ST_CONNECTIVITY, {"n": 3, "edge_prob": 1.0}, seed=2)
    assert len(inst.edb["E"]) == 6  # all ordered pairs, no self-loops
    assert len(inst.edb["S"]) == 1 and len(inst.edb["T"]) == 1


def test_build_instance_seeded_determinism():
    a = build_instance(ProblemId.MOD2_LINEAR, {"nvars": 3, "neqs": 2}, seed=7)
    b = build_instance(ProblemId.MOD2_LINEAR, {"nvars": 3, "neqs": 2}, seed=7)
    assert serialize_structure(a) == serialize_structure(b)
    c = build_instance(ProblemId.MOD2_LINEAR, {"nvars": 3, "neqs": 2}, seed=8)
    assert serialize_structure(a) != serialize_structure(c)


def test_build_instance_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        build_instance(ProblemId.EVEN, {"n": 0})
    with pytest.raises(InvalidParamsError):
        build_instance(ProblemId.SAME_SIZE, {"n": 2, "p_size": 5, "q_size": 0})
    with pytest.raises(InvalidParamsError):
        build_instance(ProblemId.ST_CONNECTIVITY, {"n": 2, "edge_prob": 1.5})
    with pytest.raises(InvalidParamsError):
        build_instance(ProblemId.MOD2_LINEAR, {"nvars": 0, "neqs": 1})


def test_oracle_even():
    assert oracle(ProblemId.EVEN, build_instance(ProblemId.EVEN, {"n": 6}))
    assert not oracle(ProblemId.EVEN, build_instance(ProblemId.EVEN, {"n": 5}))


def test_oracle_st_conn_path():
    inst = make_st_instance(3, [(0, 1), (1, 2)], 0, 2)
    assert oracle(ProblemId.ST_CONNECTIVITY, inst)
    assert not oracle(ProblemId.ST_CONNECTIVITY, make_st_instance(3, [(0, 1)], 0, 2))


def test_oracle_mod2_contradiction():
    inst = make_mod2_instance(3, [(0, 1, 2, 0), (0, 1, 2, 1)])
    assert not oracle(ProblemId.MOD2_LINEAR, inst)
    assert oracle(ProblemId.MOD2_LINEAR, make_mod2_instance(3, [(0, 1, 2, 0)]))
    assert oracle(ProblemId.MOD2_LINEAR, make_mod2_instance(0, []))


def test_oracle_signature_mismatch():
    even = build_instance(ProblemId.EVEN, {"n": 3})
    with pytest.raises(SignatureMismatchError):
        oracle(ProblemId.ST_CONNECTIVITY, even)
