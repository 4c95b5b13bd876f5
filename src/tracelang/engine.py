"""Search engine for the main task and deterministic certificate replay.

A term is evaluated on a trace (a nonempty string of structures) by
depth-first search over module choices.  Anti-domain tests, the left arm of a
preferential union, and maximum-iterate exit checks are universal checks:
does any extension of the trace let the checked term succeed?  They are
three-valued under the configured bounds, and any inconclusive check turns a
would-be "no" into "bound-exceeded", never into a wrong answer.

A check is first evaluated directly on the trace, as a test that keeps the
trace or fails; a term with no module in it is always decided so, with no
nested search.  A check that reaches a module opens a nested exhaustive
search over a fresh choice of guesses, and its definite answers are tabled
per evaluator on the term's footprint: the registers its modules and tests
can read or write, the history of the registers its history tests look back
on, the trace length and the check depth.  The footprint getters come from
the program's compile step (``Program.footprint``), which also gives the
default check depth, so a run walks no term to find them.  A check answered
directly or from the table expands no node.

A successful search yields a witness: the ordered list of module choices
along the accepting trace.  Replaying a witness re-runs the term with every
guess dictated by the certificate, so the derivation is deterministic and
needs no backtracking.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .errors import (
    ChoiceMismatchError,
    InvalidParamsError,
    NonUnarySymbolError,
    StaleChoiceError,
    TraceLangError,
    UnknownSymbolError,
    VocabularyMismatchError,
)
from .modules import Choice, apply_choice, successor_choices
from .parser import Program, check_constants
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


_LENGTH_CAP = 1 << 62


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for the search.

    ``max_trace_length`` counts letters including the input.  The default is
    ``max(2, n) ** k + 2``: the polynomial bound on added letters, plus the
    input letter, plus one letter of headroom so that exhaustion probes (a
    guess that must be materialized before a freshness test can reject it)
    stay conclusive at very small domains.  No search builds a trace near
    ``2 ** 62`` letters, so the default is cut there: no answer changes, and
    a huge ``k`` costs no more than ``k = 62``.
    ``max_antidomain_depth`` caps the nesting of universal checks and
    defaults to the static requirement of the term, so it only bites when
    explicitly lowered.
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
        if k < 0:
            raise InvalidParamsError(f"the length-bound exponent k must be nonnegative, got {k}")
        if max_trace_length is None:
            # max(2, n) ** 62 >= 2 ** 62, so capping k first bounds the power
            power = max(2, len(input_structure.domain)) ** min(k, 62)
            max_trace_length = min(power, _LENGTH_CAP) + 2
        if max_antidomain_depth is None:
            max_antidomain_depth = max(1, program.check_depth)
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


# What ``Evaluator._test`` answers when only a search can decide a check.
_SEARCH = object()


class _Chooser:
    __slots__ = ("choices", "pos")

    def __init__(self, choices: tuple[Choice, ...]):
        self.choices = choices
        self.pos = 0

    def peek(self) -> Choice:
        """The next choice; ``pos`` moves past it only once it is applied."""
        if self.pos >= len(self.choices):
            raise ChoiceMismatchError("certificate has fewer choices than the derivation needs")
        return self.choices[self.pos]

    def exhausted(self) -> bool:
        return self.pos == len(self.choices)


# Search nests one generator per sequence level and per iterate unfolding.
_RECURSION_LIMIT = 20000


@contextmanager
def _deep_stack():
    """Raise the interpreter's recursion limit for one public call and give
    the caller's limit back afterwards, also when the call raises."""
    old = sys.getrecursionlimit()
    if old < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class Evaluator:
    """Evaluates core terms of one program under one bound configuration.

    ``nodes`` counts module steps actually expanded.  ``exists_calls``
    counts universal checks and ``table_hits`` those answered from the
    table, which expand no node.
    """

    def __init__(self, program: Program, cfg: SearchConfig):
        self.program = program
        self.cfg = cfg
        self.nodes = 0
        self.exists_calls = 0
        self.table_hits = 0
        # Per input: successors depend only on the frontier letter, which
        # recurs a lot across branches of the search, and the table holds
        # the definite answers of module-bearing checks.
        self._input: Optional[Structure] = None
        self._succ: dict[tuple, tuple] = {}
        self._table: dict[tuple, bool] = {}

    def _bind(self, input_structure: Structure) -> None:
        """Drop the per-input caches when the input changes."""
        if input_structure is not self._input:
            self._input = input_structure
            self._succ.clear()
            self._table.clear()

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
        succeeds?  ``None`` means the bounded search was inconclusive.

        The term is first evaluated directly on the trace, which decides it
        unless a module must be expanded.  Otherwise a definite answer (True,
        or False from a complete search) is tabled on the term's footprint
        from the program's compile step; ``None`` is never stored.  A term
        from outside the program has no footprint and is searched untabled.
        """
        self.exists_calls += 1
        if depth > self.cfg.max_antidomain_depth:
            return None
        r = self._test(term, trace, depth)
        if r is not _SEARCH:
            return r
        if trace.input is not self._input:
            self._bind(trace.input)
        fp = self.program.footprint.get(id(term))
        key = None
        if fp is not None:
            cur, past = fp
            # Registers outside the footprint stay unchanged and unread along
            # every extension (milestone comparisons included), so the answer
            # depends only on this key.
            key = (
                id(term),
                cur(trace.last.registers),
                past(trace.hist) if past is not None else None,
                trace.length,
                depth,
            )
            r = self._table.get(key)
            if r is not None:
                self.table_hits += 1
                return r
        sub = _Scope()
        for _ in self.iter_extensions(term, trace, sub, depth):
            r = True
            break
        else:
            r = None if sub.hit else False
        if r is not None and key is not None:
            self._table[key] = r
        return r

    def _test(self, term: T.Term, trace: Trace, depth: int):
        """Evaluate ``term`` directly on ``trace`` as a three-valued test:
        exactly what a nested search at ``depth`` would return, without one,
        or ``_SEARCH`` when the evaluation reaches a module, which only a
        search can expand.  A sequence is true when all its parts are, else
        its first part that is not; it is walked from a worklist, so a long
        chain stays flat.  Nodes are told apart by type tests, which cost
        about half as much as class patterns on this hot path."""
        max_depth = self.cfg.max_antidomain_depth
        work = [term]
        while work:
            t = work.pop()
            cls = type(t)
            if cls is T.Seq:
                work.append(t.right)
                work.append(t.left)
                continue
            if cls is T.BackGlobal:
                r = check_bg(t.current, t.past, trace)
            elif cls is T.AntiDomain:
                r = None if depth >= max_depth else self._test(t.term, trace, depth + 1)
                if r is not None and r is not _SEARCH:
                    r = not r
            elif cls is T.EqTest:
                r = check_eq(t.left, t.right, trace)
            elif cls is T.ModuleRef:
                return _SEARCH
            elif cls is T.Id:
                continue
            elif cls is T.PrefUnion:
                r = None if depth >= max_depth else self._test(t.left, trace, depth + 1)
                if r is None or r is _SEARCH:
                    return r
                work.append(t.left if r else t.right)
                continue
            elif cls is T.MaxIterate:
                r = self._test(t.term, trace, depth)
                if r is not None and r is not _SEARCH:
                    r = not r
            else:
                raise TypeError(f"term is not in core form: {t!r}")
            if r is not True:
                return r
        return True

    def extensions(self, term: T.Term, trace: Trace) -> tuple[list[Trace], bool]:
        """Eager enumeration: (all extensions found, enumeration complete?)."""
        self._bind(trace.input)
        with _deep_stack():
            scope = _Scope()
            found = list(self.iter_extensions(term, trace, scope, 0))
        return found, not scope.hit

    # --- verdicts ----------------------------------------------------------

    def run(self, input_structure: Structure) -> Verdict:
        self._bind(input_structure)
        with _deep_stack():
            _check_input(self.program, input_structure)
            scope = _Scope()
            # the search generator is dropped, and so closed, inside the block
            result = next(
                self.iter_extensions(self.program.core, Trace.initial(input_structure), scope, 0),
                None,
            )
        if result is not None:
            return Verdict(
                "yes",
                Witness(result.choices, len(result)),
                self.nodes,
                trace=result,
            )
        return Verdict("bound-exceeded" if scope.hit else "no", None, self.nodes)

    def enumerate(self, input_structure: Structure) -> list[Witness]:
        self._bind(input_structure)
        with _deep_stack():
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

        A failure's message starts with ``at choice i:``, where ``i`` is the
        number of choices replayed before it (the index of the failing one).
        """
        chooser = _Chooser(witness.choices)
        try:
            with _deep_stack():
                if witness.final_length != 1 + len(witness.choices):
                    raise _ReplayFail("final_length does not match the number of choices")
                if witness.final_length > self.cfg.max_trace_length:
                    raise _ReplayFail("certificate exceeds the configured length bound")
                trace = self._replay(self.program.core, Trace.initial(input_structure), chooser, 0)
            if not chooser.exhausted():
                raise _ReplayFail("certificate has more choices than the derivation uses")
            if len(trace) != witness.final_length:
                raise _ReplayFail("replayed trace length differs from final_length")
        except (_ReplayFail, ChoiceMismatchError) as e:
            raise type(e)(f"at choice {chooser.pos}: {e}") from None
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
                    choice = chooser.peek()
                    if choice.module != name:
                        raise ChoiceMismatchError(
                            f"certificate names module {choice.module}, derivation needs {name}"
                        )
                    try:
                        letter = apply_choice(trace.last, choice, self.program.modules[name])
                    except StaleChoiceError as e:
                        raise ChoiceMismatchError(str(e)) from None
                    chooser.pos += 1
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
    """The program was validated when it was built; only the constants
    depend on the input's domain."""
    if input_structure.vocabulary != program.vocabulary:
        raise VocabularyMismatchError("input structure does not match the program vocabulary")
    diags = [*program.diagnostics, *check_constants(program, input_structure.domain)]
    if diags:
        raise UnknownSymbolError(f"program is not valid: {diags[0]}")


# --- module-level convenience surface ---------------------------------------


def eval_deltas(
    program: Program, term: T.Term, trace: Trace, cfg: SearchConfig
) -> tuple[list[Trace], bool]:
    """All bounded extensions of ``trace`` on which ``term`` succeeds, plus a
    flag telling whether the enumeration is complete (no bound was hit)."""
    compiled = replace(program, main=term)
    return Evaluator(compiled, cfg).extensions(compiled.core, trace)


def holds_antidomain(program: Program, term: T.Term, trace: Trace, cfg: SearchConfig):
    """Three-valued anti-domain test: True iff no bounded extension lets
    ``term`` succeed; None when the bounded search is inconclusive."""
    compiled = replace(program, main=term)
    with _deep_stack():
        r = Evaluator(compiled, cfg).exists(compiled.core, trace)
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
    return replay_failure(program, input_structure, witness, cfg) is None


def replay_failure(
    program: Program,
    input_structure: Structure,
    witness: Witness,
    cfg: Optional[SearchConfig] = None,
) -> Optional[str]:
    """Replay a certificate; None when it replays cleanly, else why not, as
    ``at choice i: <reason>`` with ``i`` the number of choices replayed
    before the failure."""
    if cfg is None:
        cfg = SearchConfig.for_run(program, input_structure)
    try:
        Evaluator(program, cfg).replay(input_structure, witness)
        return None
    except (_ReplayFail, ChoiceMismatchError) as e:
        return str(e)
