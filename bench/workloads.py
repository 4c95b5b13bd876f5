"""The four workloads: seeded inputs, the calls into tracelang, and the check
of every output against the benchmark's own reference.

A workload's set-up builds one *round*: a fixed list of operations.  A run
repeats whole rounds, so every run attempts the same mix of operations and
fails the same share of them.  The seed decides the inputs (equations,
labellings, graphs, trees, certificate orders); the sizes and the mix of
satisfiable/unsatisfiable, reachable/unreachable and valid/mutant inputs are
fixed, so that one seed costs about as much as another.

Every call goes through a module attribute (``engine.run_main_task``, not a
name imported from it), so that a traced run sees the wrappers.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from tracelang import engine, lab, parser, problems, structures, witness_io
from tracelang import terms as T

import reference as ref

# outcomes of one operation
OK = "ok"
ERROR = "error"  # the call raised
WRONG = "wrong"  # a definite answer that contradicts the reference
INCONCLUSIVE = "inconclusive"  # bound-exceeded or UNKNOWN where the reference is definite


@dataclass
class Op:
    """One call into the program and the check of its output.

    ``check`` returns None when the output is right, else (WRONG or
    INCONCLUSIVE, reason).  ``steps`` is the number of choices a valid
    certificate replays.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[tuple[str, str]]]
    steps: int = 0


PROBLEM = problems.ProblemId


def structure_text(domain, relations, registers) -> str:
    """Structure file text; ``relations`` is [(name, arity, tuples)]."""
    lines = ["domain " + " ".join(domain)]
    for name, arity, tuples in relations:
        lines.append(f"edb {name} {arity}")
        lines += ["  " + " ".join(t) for t in tuples]
    lines.append("reg " + " ".join(registers))
    return "\n".join(lines) + "\n"


def _load(program_text: str, text: str):
    structure = structures.parse_structure(text)
    return parser.parse_program(program_text, structure.vocabulary), structure


def witness_choices(witness) -> list[tuple[str, dict]]:
    return [(c.module, dict(c.assignment)) for c in witness.choices]


def verdict_check(expected: bool, witness_claim):
    """Check of a ``run_main_task`` verdict against the reference; a yes must
    come with a witness whose claim ``witness_claim(choices)`` holds."""

    def check(verdict):
        if verdict.kind == "bound-exceeded":
            return INCONCLUSIVE, "bound-exceeded where the reference is definite"
        want = "yes" if expected else "no"
        if verdict.kind != want:
            return WRONG, f"verdict {verdict.kind}, reference {want}"
        if expected:
            if verdict.witness is None:
                return WRONG, "yes without a witness"
            reason = witness_claim(witness_choices(verdict.witness))
            if reason:
                return WRONG, reason
        return None

    return check


# --- mod-2 equation systems --------------------------------------------------

MOD2_REGISTERS = ("Var", "Val", "TrueRec", "FalseRec", "E1", "E2", "E3")


def mod2_system(rng: random.Random, nvars: int, neqs: int, planted: int | None):
    """Equations ((i, j, k), parity) over ``nvars`` variables.

    With ``planted`` (an assignment as a bit mask) the system has that
    assignment as its only solution, so the search's cost to find it depends
    on the assignment, which a round cycles through, not on the seed.  With
    None it is unsatisfiable: a system of full rank plus one of its triples,
    reordered, with the opposite parity.
    """
    full_rank = neqs if planted is not None else neqs - 1
    if full_rank < nvars:
        raise ValueError("too few equations for a system of full rank")
    bits = [(planted or 0) >> v & 1 for v in range(nvars)]
    while True:
        eqs = []
        for _ in range(full_rank):
            triple = tuple(sorted(rng.randrange(nvars) for _ in range(3)))
            eqs.append((triple, sum(bits[v] for v in triple) & 1))
        if ref.gf2_rank(eqs) == nvars:
            break
    if planted is None:
        (i, j, k), parity = rng.choice(eqs)
        eqs.append(((j, i, k), 1 - parity))
    if (ref.solve_gf2(nvars, eqs) is not None) != (planted is not None):
        raise RuntimeError("mod-2 generator disagrees with GF(2) elimination")
    return eqs


def mod2_text(nvars: int, eqs) -> tuple[list[str], str]:
    names = [f"v{i + 1}" for i in range(nvars)]
    rows = {0: [], 1: []}
    for triple, parity in eqs:
        rows[parity].append(tuple(names[v] for v in triple))
    text = structure_text(
        names + ["b0", "b1"],
        [
            ("V", 1, [(v,) for v in names]),
            ("Eq0", 3, rows[0]),
            ("Eq1", 3, rows[1]),
            ("Bits", 1, [("b0",), ("b1",)]),
            ("BitOne", 1, [("b1",)]),
        ],
        MOD2_REGISTERS,
    )
    return names, text


# (variables, equations, satisfiable, instances per round).  A satisfiable
# class plants every assignment equally often.  Unsatisfiable systems make
# the search exhaust every order of every assignment, so their cost grows as
# n! * 2^n: there are none at five variables, where one would cost a second
# and carry most of the round's seed-to-seed spread.
DECIDE_MOD2_ROUND = (
    (3, 4, True, 64),
    (3, 4, False, 20),
    (4, 5, True, 16),
    (4, 5, False, 4),
    (5, 6, True, 8),
)


def decide_mod2(seed: int) -> list[Op]:
    rng = random.Random(seed)
    programs: dict = {}
    ops = []
    for nvars, neqs, sat, count in DECIDE_MOD2_ROUND:
        for i in range(count):
            eqs = mod2_system(rng, nvars, neqs, i % (1 << nvars) if sat else None)
            names, text = mod2_text(nvars, eqs)
            structure = structures.parse_structure(text)
            vocab = structure.vocabulary
            if vocab not in programs:
                programs[vocab] = parser.parse_program(
                    problems.program_text(PROBLEM.MOD2_LINEAR), vocab
                )
            program = programs[vocab]
            expected = ref.solve_gf2(nvars, eqs) is not None
            ops.append(Op(
                f"mod2-{nvars}v-{'sat' if sat else 'unsat'}",
                lambda p=program, s=structure: engine.run_main_task(p, s),
                verdict_check(expected, lambda ch, n=names, e=eqs: ref.check_mod2_witness(ch, n, e)),
            ))
    rng.shuffle(ops)
    return ops


# --- long directed paths -----------------------------------------------------

# (nodes, targets) per round: lengths 8x apart.  The longest path, a third
# of the round's time, is reachable only.  The middle length comes twice, so
# that the round's median latency sits inside four operations of equal cost.
PATH_ROUND = (
    (200, ("reach", "unreach")),
    (336, ("reach",)),
    (566, ("reach", "unreach")),
    (566, ("reach", "unreach")),
    (951, ("reach", "unreach")),
    (1600, ("reach",)),
)
# pow(S == S, j) ; Start: the term is deeper than the interpreter's recursion
# limit even after the engine raises it to 20,000
DEEP_POWERS = (25_000, 30_000)
ST_REGISTERS = ("Reach", "Next")


def path_instance(rng: random.Random, n: int, chords: int = 0):
    """Nodes n0..n{n-1}; the path visits them in a seeded order.  Chords
    point backward along the path, so the path stays the only route."""
    names = [f"n{i}" for i in range(n)]
    order = [names[i] for i in rng.sample(range(n), n)]
    edges = [(order[i], order[i + 1]) for i in range(n - 1)]
    for _ in range(chords):
        i = rng.randrange(2, n)
        edges.append((order[i], order[rng.randrange(i - 1)]))
    return names, order, edges


def st_text(names, edges, s, t) -> str:
    return structure_text(
        names, [("E", 2, edges), ("S", 1, [(s,)]), ("T", 1, [(t,)])], ST_REGISTERS
    )


def decide_path(seed: int) -> list[Op]:
    rng = random.Random(seed)
    program_text = problems.program_text(PROBLEM.ST_CONNECTIVITY)
    ops = []
    for n, kinds in PATH_ROUND:
        names, order, edges = path_instance(rng, n)
        # reachable: end to end; unreachable: the target sits just before the source
        cases = {"reach": (order[0], order[-1]), "unreach": (order[1], order[0])}
        for label in kinds:
            s, t = cases[label]
            program, structure = _load(program_text, st_text(names, edges, s, t))
            expected = ref.bfs_path(edges, s, t) is not None
            ops.append(Op(
                f"path-{n}-{label}",
                lambda p=program, st=structure: engine.run_main_task(p, st),
                verdict_check(expected, lambda ch, e=edges, s=s, t=t: ref.check_path_witness(ch, e, s, t)),
            ))
    names, order, edges = path_instance(rng, PATH_ROUND[0][0])
    text = st_text(names, edges, order[0], order[-1])
    for j in DEEP_POWERS:
        program, structure = _load(
            f"module Start {{ Reach(x) <~ S(x) }}\nterm: pow(S == S, {j}) ; Start\n", text
        )
        want = [("Start", {"Reach": order[0]})]
        ops.append(Op(
            f"deep-pow-{j}",
            lambda p=program, st=structure: engine.run_main_task(p, st),
            verdict_check(True, lambda ch, w=want: None if ch == w else "deep-term witness is not one Start step"),
        ))
    rng.shuffle(ops)
    return ops


# --- certificates --------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def certificate(program_text: str, text: str, choices, k: int = 2) -> dict:
    """Witness document in the documented JSON format."""
    return {
        "program": sha256(program_text),
        "input": sha256(text),
        "k": k,
        "choices": [{"module": m, "assignment": dict(a)} for m, a in choices],
        "final_length": 1 + len(choices),
    }


def mutants(doc: dict, index: int, mutate_choice) -> list[tuple[str, dict]]:
    """Three single-field mutants, each of which must be rejected: a hash,
    the final length, and one choice (``mutate_choice`` edits the copy).
    The choice is the middle one, so that a mutant's replay costs the same
    whatever the seed."""
    hashed = copy.deepcopy(doc)
    field = ("program", "input")[index % 2]
    hashed[field] = hashed[field][:-1] + ("0" if hashed[field][-1] != "0" else "1")
    longer = copy.deepcopy(doc)
    longer["final_length"] += 1
    changed = copy.deepcopy(doc)
    mutate_choice(changed["choices"])
    return [(f"{field}-hash", hashed), ("final-length", longer), ("choice", changed)]


MOD2_CERT_VARS = (10, 12, 14, 16)  # beyond what the search decides in a run
PATH_CERT_LENGTHS = (100, 200, 400)
CHAIN_LENGTHS = (15, 30, 60, 120)
CHAIN_DOMAIN = 120


def _mod2_certificate(rng, nvars):
    eqs = mod2_system(rng, nvars, nvars + 4, rng.randrange(1 << nvars))
    names, text = mod2_text(nvars, eqs)
    value = ref.solve_gf2(nvars, eqs)
    choices = []
    for v in rng.sample(range(nvars), nvars):
        choices.append(("PickVar", {"Var": names[v], "Val": "b1" if value[v] else "b0"}))
        if value[v]:
            choices.append(("RecordTrue", {"TrueRec": names[v]}))
        else:
            choices.append(("RecordFalse", {"FalseRec": names[v]}))
    if ref.check_mod2_witness(choices, names, eqs):
        raise RuntimeError("GF(2) solution does not satisfy its system")
    picks = [i for i, c in enumerate(choices) if c[0] == "PickVar"]
    at = picks[len(picks) // 2]

    def flip_bit(cs):  # the recorded truth value no longer matches the bit
        a = cs[at]["assignment"]
        a["Val"] = "b0" if a["Val"] == "b1" else "b1"

    return problems.program_text(PROBLEM.MOD2_LINEAR), text, choices, flip_bit


def _path_certificate(rng, n):
    names, order, edges = path_instance(rng, n, chords=n // 4)
    s, t = order[0], order[-1]
    text = st_text(names, edges, s, t)
    path = ref.bfs_path(edges, s, t)
    choices = [("Start", {"Reach": s})]
    for v in path[1:]:
        choices += [("Step", {"Next": v}), ("Commit", {"Reach": v})]
    if ref.check_path_witness(choices, edges, s, t):
        raise RuntimeError("BFS path is not a path witness")
    m = len(path) // 2

    def skip_node(cs):  # Step to the node after next: not an edge
        cs[1 + 2 * (m - 1)]["assignment"]["Next"] = path[m + 1]

    return problems.program_text(PROBLEM.ST_CONNECTIVITY), text, choices, skip_node


def _chain_certificate(rng, j):
    domain = [f"e{i}" for i in range(CHAIN_DOMAIN)]
    text = structure_text(domain, [], ("P",))
    program_text = f"module GuessP {{ P(x) <~ adom(x) }}\nterm: pow(GuessP ; BG(P != P), {j})\n"
    choices = [("GuessP", {"P": e}) for e in rng.sample(domain, j)]
    if ref.check_chain_witness(choices, j, domain):
        raise RuntimeError("sampled chain repeats an element")
    p = j // 2

    def repeat_element(cs):  # P takes the value it had one step earlier
        cs[p]["assignment"]["P"] = cs[p - 1]["assignment"]["P"]

    return program_text, text, choices, repeat_element


def cert_check(valid: bool):
    def check(result):
        ok, reason = result
        if ok and not valid:
            return WRONG, "accepted a mutant"
        if valid and not ok:
            return WRONG, f"rejected a valid certificate: {reason}"
        return None

    return check


def verify_certs(seed: int) -> list[Op]:
    rng = random.Random(seed)
    made = (
        [("mod2", _mod2_certificate(rng, n)) for n in MOD2_CERT_VARS]
        + [("path", _path_certificate(rng, n)) for n in PATH_CERT_LENGTHS]
        + [("chain", _chain_certificate(rng, j)) for j in CHAIN_LENGTHS]
    )
    ops = []
    for index, (family, (program_text, text, choices, mutate)) in enumerate(made):
        doc = certificate(program_text, text, choices)
        cases = [("valid", doc)] + mutants(doc, index, mutate)
        for label, case in cases:
            valid = label == "valid"
            wtext = json.dumps(case, indent=2, sort_keys=True) + "\n"
            ops.append(Op(
                f"cert-{family}-{label}",
                lambda p=program_text, s=text, w=wtext: witness_io.verify_witness_file(p, s, w),
                cert_check(valid),
                steps=len(choices) if valid else 0,
            ))
    rng.shuffle(ops)
    return ops


# --- equivalence lab -----------------------------------------------------------


def _counting(pid, n):
    registers = {PROBLEM.SIZE_FOUR: ("P",), PROBLEM.EVEN: ("P", "O", "E")}[pid]
    expected = n == 4 if pid is PROBLEM.SIZE_FOUR else n % 2 == 0
    return structure_text([f"d{i}" for i in range(n)], [], registers), expected


def _same_size(rng, n, p_size, q_size):
    domain = [f"d{i}" for i in range(n)]
    p = rng.sample(domain, p_size)
    q = rng.sample(domain, q_size)
    text = structure_text(
        domain, [("P", 1, [(e,) for e in p]), ("Q", 1, [(e,) for e in q])],
        ("PickP", "PickQ", "OldP", "OldQ"),
    )
    return text, p_size == q_size


# Small graphs and trees have fixed shapes; the seed relabels their nodes,
# so that their cost does not depend on the seed.  The instance counts put
# the lab's median latency between the two checks of one size-four
# instance, which cost the same, not between two unlike instances.
SMALL_GRAPHS = (  # (edges over nodes 0..3, s, t)
    (((0, 1), (1, 2), (2, 3)), 0, 3),  # a path: reachable
    (((0, 1), (1, 2), (2, 0), (2, 3)), 1, 3),  # through a cycle: reachable
    (((0, 1), (1, 0), (2, 3)), 0, 3),  # two components: unreachable
    (((0, 1), (1, 2), (3, 0)), 2, 3),  # the edge points away: unreachable
    (((0, 1), (1, 2)), 2, 2),  # s = t: the program's skip branch
)
SMALL_TREES = (  # (parent of each of nodes 0..4, a, b); node 0 is the root
    ((None, 0, 0, 1, 2), 3, 4),  # both at depth 2
    ((None, 0, 1, 2, 3), 1, 4),  # depths 1 and 4
    ((None, 0, 0, 1, 1), 3, 2),  # depths 2 and 1
    ((None, 0, 1, 0, 3), 2, 4),  # both at depth 2
)


def _small_graph(rng, shape):
    edges, s, t = shape
    label = rng.sample([f"d{i}" for i in range(4)], 4)
    edges = [(label[u], label[v]) for u, v in edges]
    text = st_text(sorted(label), edges, label[s], label[t])
    return text, ref.bfs_path(edges, label[s], label[t]) is not None


def _small_tree(rng, shape):
    parents, a, b = shape
    names = [f"d{i}" for i in range(len(parents))]
    label = rng.sample(names, len(names))
    text = structure_text(
        names,
        [
            ("E", 2, [(label[p], label[c]) for c, p in enumerate(parents) if p is not None]),
            ("Root", 1, [(label[0],)]),
            ("A", 1, [(label[a],)]),
            ("B", 1, [(label[b],)]),
        ],
        ("ReachA", "ReachB", "NextA", "NextB"),
    )
    return text, ref.tree_depth(parents, a) == ref.tree_depth(parents, b)


def _small_mod2(rng, nvars, neqs, planted):
    eqs = mod2_system(rng, nvars, neqs, planted)
    return mod2_text(nvars, eqs)[1], ref.solve_gf2(nvars, eqs) is not None


def _equiv_instances(rng):
    """(problem, structure text, reference answer) for one round."""
    out = []
    for n in (3, 4, 5):
        out.append((PROBLEM.SIZE_FOUR, *_counting(PROBLEM.SIZE_FOUR, n)))
    for n in (3, 4):
        out.append((PROBLEM.EVEN, *_counting(PROBLEM.EVEN, n)))
    for p_size, q_size in ((2, 2), (2, 1), (1, 2)):
        out.append((PROBLEM.SAME_SIZE, *_same_size(rng, 4, p_size, q_size)))
    for shape in SMALL_GRAPHS:
        out.append((PROBLEM.ST_CONNECTIVITY, *_small_graph(rng, shape)))
    for shape in SMALL_TREES:
        out.append((PROBLEM.SAME_GENERATION, *_small_tree(rng, shape)))
    for planted in (0b011, None, 0b101, None, 0b110, None):
        out.append((PROBLEM.MOD2_LINEAR, *_small_mod2(rng, 3, 4, planted)))
    return out


def equiv_check(expected: bool):
    def check(result):
        if result is lab.UNKNOWN:
            return INCONCLUSIVE, "UNKNOWN where the reference is definite"
        if result is not expected:
            return WRONG, f"equivalence {result!r}, reference {expected}"
        return None

    return check


def equiv_lab(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for pid, text, defined in _equiv_instances(rng):
        program, structure = _load(problems.program_text(pid), text)
        cfg = engine.SearchConfig.for_run(program, structure)
        bases = [engine.Trace.initial(structure)]
        main = program.main
        # main and id ; main have the same extensions, and both are defined
        # exactly on yes-instances; ~~~main and ~main are both defined (as
        # the identity) exactly on no-instances
        ops.append(Op(
            f"strong-{pid.value}",
            lambda p=program, t=main, g=T.Seq(T.Id(), main), b=bases, c=cfg: lab.strongly_equivalent(p, t, g, b, c),
            equiv_check(defined),
        ))
        ops.append(Op(
            f"before-after-{pid.value}",
            lambda p=program, t=T.AntiDomain(T.AntiDomain(T.AntiDomain(main))), g=T.AntiDomain(main), b=bases, c=cfg: (
                lab.before_after_equivalent(p, t, g, b, c)
            ),
            equiv_check(not defined),
        ))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "decide-mod2": decide_mod2,
    "decide-path": decide_path,
    "verify-certs": verify_certs,
    "equiv-lab": equiv_lab,
}
