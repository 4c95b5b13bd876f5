"""Search engine for the main task and deterministic certificate replay.

A term is evaluated on a trace (a nonempty string of structures) by
depth-first search over module choices.  Anti-domain tests, the left arm of a
preferential union, and maximum-iterate exit checks each open a nested
exhaustive search over a fresh choice of guesses; those checks are
three-valued under the configured bounds, and any inconclusive check turns a
would-be "no" into "bound-exceeded", never into a wrong answer.

A successful search yields a witness: the ordered list of module choices
along the accepting trace.  Replaying a witness re-runs the term with every
guess dictated by the certificate, so the derivation is deterministic and
needs no backtracking.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    ChoiceMismatchError,
    NonUnarySymbolError,
    StaleChoiceError,
    TraceLangError,
    UnknownSymbolError,
    VocabularyMismatchError,
)
from .modules import Choice, apply_choice, successor_choices
from .parser import Program, check_constants, validate_program
from .structures import ADOM, Structure
from . import terms as T


class Trace:
    """Nonempty string of structures; the first letter is the input.

    A trace is a persistent parent-pointer chain.  Each node holds its parent
    (``None`` at the input letter), its ``last`` letter, the module ``choice``
    that produced that letter, its ``length``, the ``input`` letter, the
    history ``hist`` and a hash computed once.  Extending shares the whole
    prefix, so ``extend`` costs O(R) for R registers however long the trace
    is, and siblings extended from one node share it too.  ``letters``,
    ``choices`` and ``key()`` are read-only views built on demand by walking
    the chain, in O(length).

    Letters share the input's domain and EDB tables and differ only in their
    register valuations.  ``hist`` holds, per register, the values it held at
    all letters except the last, as an immutable ``int`` bitmask: bit 0 for
    blank, bit i+1 for domain element i.  It makes history tests one bit test.
    """

    __slots__ = ("parent", "last", "choice", "length", "input", "hist", "_hash")

    def __init__(
        self,
        parent: Optional["Trace"],
        last: Structure,
        choice: Optional[Choice],
        length: int,
        input: Structure,
        hist: tuple[int, ...],
        hash_: int,
    ):
        self.parent = parent
        self.last = last
        self.choice = choice
        self.length = length
        self.input = input
        self.hist = hist
        self._hash = hash_

    @classmethod
    def initial(cls, input_structure: Structure) -> "Trace":
        nregs = len(input_structure.vocabulary.register_symbols)
        return cls(
            None, input_structure, None, 1, input_structure, (0,) * nregs,
            hash(input_structure.registers),
        )

    def _chain(self) -> list["Trace"]:
        """The nodes from the input letter to this one."""
        nodes = []
        node = self
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes

    @property
    def letters(self) -> tuple[Structure, ...]:
        return tuple(node.last for node in self._chain())

    @property
    def choices(self) -> tuple[Choice, ...]:
        """The module choice that produced each non-input letter."""
        return tuple(node.choice for node in self._chain()[1:])

    def __len__(self) -> int:
        return self.length

    def extend(self, letter: Structure, choice: Choice) -> "Trace":
        prev = self.last
        # a plain loop: a generator expression costs a frame on every step;
        # a mask that already has the bit is kept, not copied
        hist = []
        for h, v in zip(self.hist, prev.registers):
            bit = _value_bit(v, prev)
            hist.append(h if h & bit else h | bit)
        return Trace(
            self, letter, choice, self.length + 1, self.input, tuple(hist),
            hash((self._hash, letter.registers)),
        )

    def key(self) -> tuple:
        """Content key: the valuation of every letter (EDB is fixed per run)."""
        return tuple(node.last.registers for node in self._chain())

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        if self.length != other.length or self._hash != other._hash:
            return False
        a, b = self, other
        while a is not b:  # walk back to a shared ancestor, if any
            if a.last.registers != b.last.registers:
                return False
            if a.parent is None:
                return a.input == b.input
            a, b = a.parent, b.parent
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<Trace len={len(self)}>"


def _value_bit(value: Optional[str], letter: Structure) -> int:
    """History bit of a register value: bit 0 for blank, i+1 for element i."""
    return 1 if value is None else 2 << letter.element_order(value)


def _interp(symbol: str, letter: Structure) -> frozenset[str]:
    if symbol == ADOM:
        raise NonUnarySymbolError("adom cannot be used in equality or history tests")
    return letter.interp(symbol)


def check_eq(p: str, q: str, trace: Trace) -> bool:
    """True iff the set interpretations of ``p`` and ``q`` coincide at the
    last letter (a blank register is the empty set)."""
    last = trace.last
    rindex = last.vocabulary.register_index
    pi, qi = rindex.get(p), rindex.get(q)
    if pi is not None and qi is not None:
        return last.registers[pi] == last.registers[qi]
    return _interp(p, last) == _interp(q, last)


def check_bg(p: str, q: str, trace: Trace) -> bool:
    """True iff the current interpretation of ``p`` differs from the
    interpretation of ``q`` at every strictly earlier letter."""
    last = trace.last
    rindex = last.vocabulary.register_index
    pi, qi = rindex.get(p), rindex.get(q)
    if pi is not None and qi is not None:
        # register vs register: singleton-or-blank sets are equal iff the
        # stored values are, blank included
        return not trace.hist[qi] & _value_bit(last.registers[pi], last)
    target = _interp(p, last)
    if qi is not None:
        if not target:
            return not trace.hist[qi] & 1
        if len(target) == 1:
            (e,) = target
            return not trace.hist[qi] & _value_bit(e, last)
        return True  # register interpretations never have two elements
    past = _interp(q, last)  # EDB: constant along the trace
    return len(trace) < 2 or past != target


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for the search.

    ``max_trace_length`` counts letters including the input.  The default is
    ``max(2, n) ** k + 2``: the polynomial bound on added letters, plus the
    input letter, plus one letter of headroom so that exhaustion probes (a
    guess that must be materialized before a freshness test can reject it)
    stay conclusive at very small domains.  ``max_antidomain_depth`` caps the
    nesting of universal checks and defaults to the static requirement of the
    term, so it only bites when explicitly lowered.
    """

    k: int = 2
    max_trace_length: int = 101
    max_antidomain_depth: int = 8
    witness_limit: int = 1000
    node_budget: Optional[int] = None

    @classmethod
    def for_run(
        cls,
        program: Program,
        input_structure: Structure,
        k: int = 2,
        max_trace_length: Optional[int] = None,
        max_antidomain_depth: Optional[int] = None,
        witness_limit: int = 1000,
        node_budget: Optional[int] = None,
    ) -> "SearchConfig":
        n = len(input_structure.domain)
        if max_trace_length is None:
            max_trace_length = max(2, n) ** k + 2
        if max_antidomain_depth is None:
            max_antidomain_depth = max(1, T.antidomain_depth(program.core))
        return cls(k, max_trace_length, max_antidomain_depth, witness_limit, node_budget)


@dataclass(frozen=True)
class Witness:
    """Replayable certificate: the module choices of one accepting trace."""

    choices: tuple[Choice, ...]
    final_length: int


def witness_length(w: Witness) -> int:
    """Number of letters the witness adds to the input."""
    return w.final_length - 1


@dataclass(frozen=True)
class Verdict:
    kind: str  # 'yes' | 'no' | 'bound-exceeded'
    witness: Optional[Witness]
    nodes: int
    trace: Optional[Trace] = None


class _Scope:
    """Sticky bound-hit flag for one exhaustiveness question."""

    __slots__ = ("hit",)

    def __init__(self):
        self.hit = False


class _ReplayFail(Exception):
    pass


class _Chooser:
    __slots__ = ("choices", "pos")

    def __init__(self, choices: tuple[Choice, ...]):
        self.choices = choices
        self.pos = 0

    def take(self) -> Choice:
        if self.pos >= len(self.choices):
            raise ChoiceMismatchError("certificate has fewer choices than the derivation needs")
        c = self.choices[self.pos]
        self.pos += 1
        return c

    def exhausted(self) -> bool:
        return self.pos == len(self.choices)


class Evaluator:
    """Evaluates core terms of one program under one bound configuration."""

    def __init__(self, program: Program, cfg: SearchConfig):
        self.program = program
        self.cfg = cfg
        self.nodes = 0
        # successors depend only on the frontier letter, which recurs a lot
        # across branches of the search
        self._succ: dict[tuple, tuple] = {}
        if sys.getrecursionlimit() < 20000:
            sys.setrecursionlimit(20000)

    def _successors(self, name: str, letter) -> tuple:
        key = (name, letter.registers)
        cached = self._succ.get(key)
        if cached is None:
            cached = tuple(
                (apply_choice(letter, c), c)
                for c in successor_choices(self.program.modules[name], letter)
            )
            self._succ[key] = cached
        return cached

    # --- search ----------------------------------------------------------

    def iter_extensions(self, term: T.Term, trace: Trace, scope: _Scope, depth: int = 0) -> Iterator[Trace]:
        """Yield every bounded extension of ``trace`` on which ``term``
        succeeds under some sequence of guesses; set ``scope.hit`` when the
        enumeration is incomplete because a bound was reached."""
        match term:
            case T.Id():
                yield trace
            case T.ModuleRef(name):
                if len(trace) + 1 > self.cfg.max_trace_length:
                    scope.hit = True
                    return
                for letter, choice in self._successors(name, trace.last):
                    if self.cfg.node_budget is not None and self.nodes >= self.cfg.node_budget:
                        scope.hit = True
                        return
                    self.nodes += 1
                    yield trace.extend(letter, choice)
            case T.Seq(a, b):
                for u in self.iter_extensions(a, trace, scope, depth):
                    yield from self.iter_extensions(b, u, scope, depth)
            case T.AntiDomain(a):
                r = self.exists(a, trace, depth + 1)
                if r is False:
                    yield trace
                elif r is None:
                    scope.hit = True
            case T.PrefUnion(a, b):
                r = self.exists(a, trace, depth + 1)
                if r is True:
                    yield from self.iter_extensions(a, trace, scope, depth)
                elif r is False:
                    yield from self.iter_extensions(b, trace, scope, depth)
                else:
                    scope.hit = True
            case T.MaxIterate(a):
                yield from self._iterate(a, trace, {trace.last.registers}, scope, depth)
            case T.EqTest(p, q):
                if check_eq(p, q, trace):
                    yield trace
            case T.BackGlobal(p, q):
                if check_bg(p, q, trace):
                    yield trace
            case _:
                raise TypeError(f"term is not in core form: {term!r}")

    def _iterate(
        self, body: T.Term, trace: Trace, seen: set, scope: _Scope, depth: int
    ) -> Iterator[Trace]:
        # Unfold the body while it can make a step; exit exactly when it is
        # (provably) undefined at the frontier.  Unfoldings that revisit a
        # milestone valuation are rejected outright, which both enforces the
        # no-loop rule and makes the unfolding space finite.  ``seen`` holds
        # the milestones of the current unfolding path: one set per iterate,
        # each key added before recursing and discarded after, also when the
        # consumer closes the generator early.
        sub = _Scope()
        any_step = False
        for u in self.iter_extensions(body, trace, sub, depth):
            any_step = True
            key = u.last.registers
            if key in seen:
                continue
            seen.add(key)
            try:
                yield from self._iterate(body, u, seen, scope, depth)
            finally:
                seen.discard(key)
        if sub.hit:
            scope.hit = True
        if not any_step and not sub.hit:
            yield trace

    def exists(self, term: T.Term, trace: Trace, depth: int = 1):
        """Three-valued: is there any bounded extension on which ``term``
        succeeds?  ``None`` means the bounded search was inconclusive."""
        if depth > self.cfg.max_antidomain_depth:
            return None
        sub = _Scope()
        for _ in self.iter_extensions(term, trace, sub, depth):
            return True
        return None if sub.hit else False

    def extensions(self, term: T.Term, trace: Trace) -> tuple[list[Trace], bool]:
        """Eager enumeration: (all extensions found, enumeration complete?)."""
        scope = _Scope()
        found = list(self.iter_extensions(term, trace, scope, 0))
        return found, not scope.hit

    # --- verdicts ----------------------------------------------------------

    def run(self, input_structure: Structure) -> Verdict:
        _check_input(self.program, input_structure)
        trace = Trace.initial(input_structure)
        scope = _Scope()
        for result in self.iter_extensions(self.program.core, trace, scope, 0):
            return Verdict(
                "yes",
                Witness(result.choices, len(result)),
                self.nodes,
                trace=result,
            )
        return Verdict("bound-exceeded" if scope.hit else "no", None, self.nodes)

    def enumerate(self, input_structure: Structure) -> list[Witness]:
        _check_input(self.program, input_structure)
        trace = Trace.initial(input_structure)
        scope = _Scope()
        seen: set = set()
        out: list[Witness] = []
        for result in self.iter_extensions(self.program.core, trace, scope, 0):
            key = result.key()
            if key in seen:
                continue
            seen.add(key)
            out.append(Witness(result.choices, len(result)))
            if len(out) >= self.cfg.witness_limit:
                break
        return out

    # --- replay ------------------------------------------------------------

    def replay(self, input_structure: Structure, witness: Witness) -> Trace:
        """Deterministically re-derive the witness trace; raises on failure.

        Every guess is dictated by the certificate; at each point exactly one
        rule applies, so no search over choices happens.  Universal checks
        (anti-domain, union arms, iterate exits) are re-established by the
        same bounded procedure the search uses.  Replay's Python stack depth
        does not grow with the length of a sequence chain: a ``pow(t, j)``
        certificate replays at the same depth for every ``j``.
        """
        if witness.final_length != 1 + len(witness.choices):
            raise _ReplayFail("final_length does not match the number of choices")
        if witness.final_length > self.cfg.max_trace_length:
            raise _ReplayFail("certificate exceeds the configured length bound")
        chooser = _Chooser(witness.choices)
        trace = self._replay(self.program.core, Trace.initial(input_structure), chooser, 0)
        if not chooser.exhausted():
            raise _ReplayFail("certificate has more choices than the derivation uses")
        if len(trace) != witness.final_length:
            raise _ReplayFail("replayed trace length differs from final_length")
        return trace

    def _replay(self, term: T.Term, trace: Trace, chooser: _Chooser, depth: int) -> Trace:
        # Sequencing and the chosen union arm are replayed from a worklist,
        # left part before right part, so the Python stack stays flat however
        # long a ``Seq`` chain (e.g. a desugared ``pow``) is.
        work = [term]
        while work:
            match work.pop():
                case T.Id():
                    pass
                case T.ModuleRef(name):
                    if len(trace) + 1 > self.cfg.max_trace_length:
                        raise _ReplayFail("length bound reached during replay")
                    choice = chooser.take()
                    if choice.module != name:
                        raise ChoiceMismatchError(
                            f"certificate names module {choice.module}, derivation needs {name}"
                        )
                    try:
                        letter = apply_choice(trace.last, choice, self.program.modules[name])
                    except StaleChoiceError as e:
                        raise ChoiceMismatchError(str(e)) from None
                    self.nodes += 1
                    trace = trace.extend(letter, choice)
                case T.Seq(a, b):
                    work.append(b)
                    work.append(a)
                case T.AntiDomain(a):
                    r = self.exists(a, trace, depth + 1)
                    if r is not False:
                        raise _ReplayFail(
                            "anti-domain test fails" if r else "anti-domain check inconclusive"
                        )
                case T.PrefUnion(a, b):
                    r = self.exists(a, trace, depth + 1)
                    if r is None:
                        raise _ReplayFail("union arm check inconclusive")
                    work.append(a if r else b)
                case T.MaxIterate(a):
                    seen = {trace.last.registers}
                    while True:
                        r = self.exists(a, trace, depth + 1)
                        if r is False:
                            break
                        if r is None:
                            raise _ReplayFail("iterate exit check inconclusive")
                        trace = self._replay(a, trace, chooser, depth)
                        key = trace.last.registers
                        if key in seen:
                            raise _ReplayFail("iterate revisits a milestone valuation")
                        seen.add(key)
                case T.EqTest(p, q):
                    if not check_eq(p, q, trace):
                        raise _ReplayFail(f"equality test {p} == {q} fails")
                case T.BackGlobal(p, q):
                    if not check_bg(p, q, trace):
                        raise _ReplayFail(f"history test BG({p} != {q}) fails")
                case other:
                    raise TypeError(f"term is not in core form: {other!r}")
        return trace


def _check_input(program: Program, input_structure: Structure) -> None:
    if input_structure.vocabulary != program.vocabulary:
        raise VocabularyMismatchError("input structure does not match the program vocabulary")
    diags = validate_program(program) + check_constants(program, input_structure.domain)
    if diags:
        raise UnknownSymbolError(f"program is not valid: {diags[0]}")


# --- module-level convenience surface ---------------------------------------


def eval_deltas(
    program: Program, term: T.Term, trace: Trace, cfg: SearchConfig
) -> tuple[list[Trace], bool]:
    """All bounded extensions of ``trace`` on which ``term`` succeeds, plus a
    flag telling whether the enumeration is complete (no bound was hit)."""
    return Evaluator(program, cfg).extensions(T.desugar(term), trace)


def holds_antidomain(program: Program, term: T.Term, trace: Trace, cfg: SearchConfig):
    """Three-valued anti-domain test: True iff no bounded extension lets
    ``term`` succeed; None when the bounded search is inconclusive."""
    r = Evaluator(program, cfg).exists(T.desugar(term), trace)
    if r is None:
        return None
    return not r


def run_main_task(
    program: Program, input_structure: Structure, cfg: Optional[SearchConfig] = None
) -> Verdict:
    """Decide whether some sequence of guesses executes the program's term
    successfully from the input (registers must start blank)."""
    if any(v is not None for v in input_structure.registers):
        raise TraceLangError("the main task starts from a blank register valuation")
    if cfg is None:
        cfg = SearchConfig.for_run(program, input_structure)
    return Evaluator(program, cfg).run(input_structure)


def enumerate_witnesses(
    program: Program, input_structure: Structure, cfg: Optional[SearchConfig] = None
) -> list[Witness]:
    """Distinct witnesses (one per accepting trace) in search order, up to
    ``cfg.witness_limit``."""
    if cfg is None:
        cfg = SearchConfig.for_run(program, input_structure)
    return Evaluator(program, cfg).enumerate(input_structure)


def verify_witness(
    program: Program,
    input_structure: Structure,
    witness: Witness,
    cfg: Optional[SearchConfig] = None,
) -> bool:
    """Replay a certificate; True iff the deterministic derivation succeeds
    and consumes exactly the recorded choices."""
    if cfg is None:
        cfg = SearchConfig.for_run(program, input_structure)
    try:
        Evaluator(program, cfg).replay(input_structure, witness)
        return True
    except (_ReplayFail, ChoiceMismatchError):
        return False
