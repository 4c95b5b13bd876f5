"""Bundled example problems: programs, seeded instance generators, oracles.

Each problem pairs a program in the trace language with an independent
brute-force oracle; the engine's verdict on a generated instance must agree
with the oracle.  The cardinality problems guess fresh elements until none
are left; the reachability problems propagate node registers along edges; the
mod-2 equations problem guesses a truth assignment into the trace history and
then asserts, by an anti-domain test, that no violated equation can be found.

Notes on the encodings:

* ``same-size`` exhausts fresh pairs and then checks each side separately
  for leftover fresh elements (a pair-picking module alone cannot detect
  one-sided exhaustion, since its bodies query only the fixed input).
* ``st-conn`` and ``same-gen`` special-case the degenerate instances
  (source equals target, both nodes at the root) with a leading test, since
  the propagation loops must run at least one step.
* ``same-gen`` stores tree edges as (parent, child); the step rule
  ``Next(x) <~ Reach(y), E(x, y)`` therefore walks from a node to its
  parent, toward the root.
* ``mod2-lineq`` keeps two extra non-variable elements forming a coin
  relation ``Bits``; picking a bit decides a variable's truth value, which
  is recorded by writing the variable into ``TrueRec`` or ``FalseRec``.  The
  violation finder binds an equation tuple in three steps and tests the
  recorded parities through history lookups.
"""

from __future__ import annotations

import random
from collections import deque
from enum import Enum
from typing import Iterable, Mapping, Optional

from .errors import InvalidParamsError, SignatureMismatchError
from .parser import Program, parse_program
from .structures import Structure, Vocabulary, blank_registers


class ProblemId(Enum):
    SIZE_FOUR = "size-four"
    SAME_SIZE = "same-size"
    EVEN = "even"
    ST_CONNECTIVITY = "st-conn"
    SAME_GENERATION = "same-gen"
    MOD2_LINEAR = "mod2-lineq"

    @classmethod
    def from_string(cls, name: str) -> "ProblemId":
        for pid in cls:
            if pid.value == name:
                return pid
        raise InvalidParamsError(f"unknown problem {name!r}")


_FRESH_GUESS = "GuessP ; BG(P != E) ; BG(P != O)"

_PROGRAMS: dict[ProblemId, str] = {
    ProblemId.SIZE_FOUR: """\
# Succeeds iff the domain has exactly four elements: guess a never-seen
# element four times, then demand that no fifth guess is possible.
module GuessP { P(x) <~ adom(x) }
term: pow(GuessP ; BG(P != P), 4) ; ~(GuessP ; BG(P != P))
""",
    ProblemId.SAME_SIZE: """\
# Succeeds iff the unary inputs P and Q have the same number of elements.
# Pick fresh pairs until one side runs dry, then check that neither side
# still has a fresh element.
module PickPQ { PickP(x) <~ P(x) ; PickQ(x) <~ Q(x) }
module PickOnlyP { PickP(x) <~ P(x) }
module PickOnlyQ { PickQ(x) <~ Q(x) }
module Store { OldP(x) <~ PickP(x) ; OldQ(x) <~ PickQ(x) }
term: (PickPQ ; BG(PickP != OldP) ; BG(PickQ != OldQ) ; Store)^
      ; ~(PickOnlyP ; BG(PickP != OldP))
      ; ~(PickOnlyQ ; BG(PickQ != OldQ))
""",
    ProblemId.EVEN: """\
# Succeeds iff the domain size is even: alternate guessing fresh elements
# into an odd slot and an even slot until no fresh element remains, then
# demand that another odd guess is impossible.
module GuessP { P(x) <~ adom(x) }
module MarkOdd { O(x) <~ P(x) }
module MarkEven { E(x) <~ P(x) }
term: (GUESS ; MarkOdd ; GUESS ; MarkEven)^ ; ~(GUESS ; MarkOdd)
""".replace("GUESS", _FRESH_GUESS),
    ProblemId.ST_CONNECTIVITY: """\
# Succeeds iff T is reachable from S along edges.  The loop extends a
# frontier register one edge at a time, never revisiting a node.
module Start { Reach(x) <~ S(x) }
module Step { Next(y) <~ Reach(x), E(x, y) }
module Commit { Reach(x) <~ Next(x) }
term: if S == T then skip
      else (Start ; repeat (Step ; BG(Next != Reach) ; Commit) until Reach == T)
""",
    ProblemId.SAME_GENERATION: """\
# Succeeds iff A and B sit at the same depth of the tree: walk both toward
# the root in lock step and require simultaneous arrival.
module Start { ReachA(x) <~ A(x) ; ReachB(x) <~ B(x) }
module Step { NextA(x) <~ ReachA(y), E(x, y) ; NextB(v) <~ ReachB(w), E(v, w) }
module Commit { ReachA(x) <~ NextA(x) ; ReachB(x) <~ NextB(x) }
term: if (A == Root and B == Root) then skip
      else (Start ; repeat (Step ; Commit) until (ReachA == Root and ReachB == Root))
""",
    ProblemId.MOD2_LINEAR: """\
# Succeeds iff the mod-2 equation system is solvable.  Assign every variable
# a truth value (coin = which bit the Val register draws), recording true
# variables in TrueRec and false ones in FalseRec; then assert that no
# equation with mismatched parity can be exhibited.
module PickVar { Var(x) <~ V(x) ; Val(y) <~ Bits(y) }
module RecordTrue { TrueRec(x) <~ Var(x) }
module RecordFalse { FalseRec(x) <~ Var(x) }
module BindZero1 { E1(x) <~ Eq0(x, y, z) }
module BindZero2 { E2(y) <~ Eq0(x, y, z), E1(x) }
module BindZero3 { E3(z) <~ Eq0(x, y, z), E1(x), E2(y) }
module BindOne1 { E1(x) <~ Eq1(x, y, z) }
module BindOne2 { E2(y) <~ Eq1(x, y, z), E1(x) }
module BindOne3 { E3(z) <~ Eq1(x, y, z), E1(x), E2(y) }
term: (PickVar ; BG(Var != Var) ; ((Val == BitOne ; RecordTrue) <+ RecordFalse))^
      ; ~(  (BindZero1 ; BindZero2 ; BindZero3 ;
              (  (T1 ; T2 ; T3)
              <+ (T1 ; F2 ; F3)
              <+ (F1 ; T2 ; F3)
              <+ (F1 ; F2 ; T3)))
         <+ (BindOne1 ; BindOne2 ; BindOne3 ;
              (  (F1 ; F2 ; F3)
              <+ (T1 ; T2 ; F3)
              <+ (T1 ; F2 ; T3)
              <+ (F1 ; T2 ; T3)))
         )
""".replace("T1", "~BG(E1 != TrueRec)")
    .replace("T2", "~BG(E2 != TrueRec)")
    .replace("T3", "~BG(E3 != TrueRec)")
    .replace("F1", "BG(E1 != TrueRec)")
    .replace("F2", "BG(E2 != TrueRec)")
    .replace("F3", "BG(E3 != TrueRec)"),
}

_REGISTERS: dict[ProblemId, tuple[str, ...]] = {
    ProblemId.SIZE_FOUR: ("P",),
    ProblemId.SAME_SIZE: ("PickP", "PickQ", "OldP", "OldQ"),
    ProblemId.EVEN: ("P", "O", "E"),
    ProblemId.ST_CONNECTIVITY: ("Reach", "Next"),
    ProblemId.SAME_GENERATION: ("ReachA", "ReachB", "NextA", "NextB"),
    ProblemId.MOD2_LINEAR: ("Var", "Val", "TrueRec", "FalseRec", "E1", "E2", "E3"),
}

_EDB_SIGNATURE: dict[ProblemId, tuple[tuple[str, int], ...]] = {
    ProblemId.SIZE_FOUR: (),
    ProblemId.SAME_SIZE: (("P", 1), ("Q", 1)),
    ProblemId.EVEN: (),
    ProblemId.ST_CONNECTIVITY: (("E", 2), ("S", 1), ("T", 1)),
    ProblemId.SAME_GENERATION: (("E", 2), ("Root", 1), ("A", 1), ("B", 1)),
    ProblemId.MOD2_LINEAR: (("V", 1), ("Eq0", 3), ("Eq1", 3), ("Bits", 1), ("BitOne", 1)),
}


def program_text(pid: ProblemId) -> str:
    """Source text of the bundled program for a problem."""
    return _PROGRAMS[pid]


_program_cache: dict[tuple[ProblemId, Vocabulary], Program] = {}


def build_program(pid: ProblemId, vocabulary: Optional[Vocabulary] = None) -> Program:
    """Parse the bundled program against a vocabulary (defaults to the
    vocabulary of a small default instance)."""
    if vocabulary is None:
        vocabulary = build_instance(pid).vocabulary
    key = (pid, vocabulary)
    if key not in _program_cache:
        _program_cache[key] = parse_program(program_text(pid), vocabulary)
    return _program_cache[key]


# ---------------------------------------------------------------------------
# Direct instance constructors (used by generators and exhaustive sweeps)
# ---------------------------------------------------------------------------


def _instance(pid: ProblemId, domain: tuple[str, ...], edb: Mapping[str, Iterable[tuple]]) -> Structure:
    vocab = Vocabulary(_EDB_SIGNATURE[pid], _REGISTERS[pid])
    tables = {name: frozenset(edb.get(name, ())) for name, _ in _EDB_SIGNATURE[pid]}
    return Structure(vocab, domain, tables, blank_registers(vocab))


def _elements(n: int) -> tuple[str, ...]:
    return tuple(f"d{i + 1}" for i in range(n))


def make_counting_instance(pid: ProblemId, n: int) -> Structure:
    if n < 1:
        raise InvalidParamsError("domain size must be at least 1")
    return _instance(pid, _elements(n), {})


def make_same_size_instance(n: int, p_set: Iterable[str], q_set: Iterable[str]) -> Structure:
    domain = _elements(n)
    p_set, q_set = set(p_set), set(q_set)
    if not p_set <= set(domain) or not q_set <= set(domain):
        raise InvalidParamsError("P and Q must be subsets of the domain")
    return _instance(
        ProblemId.SAME_SIZE,
        domain,
        {"P": {(e,) for e in p_set}, "Q": {(e,) for e in q_set}},
    )


def make_st_instance(n: int, edges: Iterable[tuple[int, int]], s: int, t: int) -> Structure:
    """Digraph on ``n`` nodes with 0-based edge index pairs."""
    domain = _elements(n)
    if not (0 <= s < n and 0 <= t < n):
        raise InvalidParamsError("source and target must be node indices")
    return _instance(
        ProblemId.ST_CONNECTIVITY,
        domain,
        {
            "E": {(domain[u], domain[v]) for u, v in edges},
            "S": {(domain[s],)},
            "T": {(domain[t],)},
        },
    )


def make_same_gen_instance(parents: list[Optional[int]], a: int, b: int) -> Structure:
    """Tree given by a parent index per node (exactly one None = root)."""
    n = len(parents)
    domain = _elements(n)
    roots = [i for i, p in enumerate(parents) if p is None]
    if len(roots) != 1:
        raise InvalidParamsError("a tree has exactly one root")
    edges = {(domain[p], domain[c]) for c, p in enumerate(parents) if p is not None}
    return _instance(
        ProblemId.SAME_GENERATION,
        domain,
        {"E": edges, "Root": {(domain[roots[0]],)}, "A": {(domain[a],)}, "B": {(domain[b],)}},
    )


def make_mod2_instance(nvars: int, equations: Iterable[tuple[int, int, int, int]]) -> Structure:
    """System over ``nvars`` variables; equations are (i, j, k, parity)."""
    if nvars < 0:
        raise InvalidParamsError("nvars must be nonnegative")
    variables = tuple(f"v{i + 1}" for i in range(nvars))
    domain = variables + ("b0", "b1")
    eq0, eq1 = set(), set()
    for i, j, k, parity in equations:
        if not all(0 <= x < nvars for x in (i, j, k)) or parity not in (0, 1):
            raise InvalidParamsError(f"bad equation ({i},{j},{k},{parity})")
        triple = (variables[i], variables[j], variables[k])
        (eq1 if parity else eq0).add(triple)
    return _instance(
        ProblemId.MOD2_LINEAR,
        domain,
        {
            "V": {(v,) for v in variables},
            "Eq0": eq0,
            "Eq1": eq1,
            "Bits": {("b0",), ("b1",)},
            "BitOne": {("b1",)},
        },
    )


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

_DEFAULT_PARAMS: dict[ProblemId, dict] = {
    ProblemId.SIZE_FOUR: {"n": 4},
    ProblemId.SAME_SIZE: {"n": 4, "p_size": 2, "q_size": 2},
    ProblemId.EVEN: {"n": 4},
    ProblemId.ST_CONNECTIVITY: {"n": 3, "edge_prob": 0.5},
    ProblemId.SAME_GENERATION: {"n": 5},
    ProblemId.MOD2_LINEAR: {"nvars": 3, "neqs": 2},
}


def build_instance(pid: ProblemId, params: Optional[Mapping] = None, seed: int = 0) -> Structure:
    """Reproducible instance for the problem; identical (params, seed) pairs
    yield identical structures."""
    merged = dict(_DEFAULT_PARAMS[pid])
    merged.update(params or {})
    rng = random.Random(seed)
    if pid in (ProblemId.EVEN, ProblemId.SIZE_FOUR):
        return make_counting_instance(pid, merged["n"])
    if pid is ProblemId.SAME_SIZE:
        n, ps, qs = merged["n"], merged["p_size"], merged["q_size"]
        if not (0 <= ps <= n and 0 <= qs <= n):
            raise InvalidParamsError("set sizes must be between 0 and n")
        domain = _elements(n)
        return make_same_size_instance(n, rng.sample(domain, ps), rng.sample(domain, qs))
    if pid is ProblemId.ST_CONNECTIVITY:
        n, prob = merged["n"], merged["edge_prob"]
        if n < 1 or not 0.0 <= prob <= 1.0:
            raise InvalidParamsError("need n >= 1 and 0 <= edge_prob <= 1")
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < prob
        ]
        return make_st_instance(n, edges, rng.randrange(n), rng.randrange(n))
    if pid is ProblemId.SAME_GENERATION:
        n = merged["n"]
        if n < 1:
            raise InvalidParamsError("need n >= 1")
        parents: list[Optional[int]] = [None] + [rng.randrange(i) for i in range(1, n)]
        return make_same_gen_instance(parents, rng.randrange(n), rng.randrange(n))
    if pid is ProblemId.MOD2_LINEAR:
        nvars, neqs = merged["nvars"], merged["neqs"]
        if nvars < 0 or neqs < 0 or (nvars == 0 and neqs > 0):
            raise InvalidParamsError("need nvars >= 0 and no equations without variables")
        equations = []
        for _ in range(neqs):
            triple = sorted(rng.randrange(nvars) for _ in range(3))
            equations.append((*triple, rng.randrange(2)))
        return make_mod2_instance(nvars, equations)
    raise InvalidParamsError(f"unknown problem {pid}")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SignatureMismatchError(message)


def _unary_set(s: Structure, name: str) -> frozenset[str]:
    return frozenset(t[0] for t in s.edb[name])


def _singleton(s: Structure, name: str) -> str:
    values = _unary_set(s, name)
    _require(len(values) == 1, f"{name} must be a singleton")
    (value,) = values
    return value


def oracle(pid: ProblemId, s: Structure) -> bool:
    """Brute-force ground truth, independent of the term semantics."""
    have = dict(s.vocabulary.edb_symbols)
    for name, arity in _EDB_SIGNATURE[pid]:
        _require(have.get(name) == arity, f"instance lacks {name}/{arity}")

    if pid is ProblemId.SIZE_FOUR:
        return len(s.domain) == 4
    if pid is ProblemId.EVEN:
        return len(s.domain) % 2 == 0
    if pid is ProblemId.SAME_SIZE:
        return len(_unary_set(s, "P")) == len(_unary_set(s, "Q"))
    if pid is ProblemId.ST_CONNECTIVITY:
        src = _singleton(s, "S")
        dst = _singleton(s, "T")
        adj: dict[str, set[str]] = {}
        for u, v in s.edb["E"]:
            adj.setdefault(u, set()).add(v)
        seen, frontier = {src}, deque([src])
        while frontier:
            u = frontier.popleft()
            if u == dst:
                return True
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return dst in seen
    if pid is ProblemId.SAME_GENERATION:
        parent: dict[str, str] = {}
        for p, c in s.edb["E"]:
            _require(c not in parent, "node with two parents is not a tree")
            parent[c] = p
        root = _singleton(s, "Root")
        a = _singleton(s, "A")
        b = _singleton(s, "B")
        _require(root not in parent, "the root has no parent")

        def depth(node: str) -> int:
            d = 0
            while node != root:
                _require(node in parent and d <= len(s.domain), "not a tree rooted at Root")
                node = parent[node]
                d += 1
            return d

        return depth(a) == depth(b)
    if pid is ProblemId.MOD2_LINEAR:
        variables = sorted(_unary_set(s, "V"))
        _require(len(variables) <= 20, "exhaustive oracle is capped at 20 variables")
        constraints = [(t, 0) for t in s.edb["Eq0"]] + [(t, 1) for t in s.edb["Eq1"]]
        for t, _ in constraints:
            _require(all(v in set(variables) for v in t), "equation over non-variables")
        for mask in range(1 << len(variables)):
            sigma = {v: (mask >> i) & 1 for i, v in enumerate(variables)}
            if all(sigma[x] ^ sigma[y] ^ sigma[z] == parity for (x, y, z), parity in constraints):
                return True
        return False
    raise SignatureMismatchError(f"unknown problem {pid}")
