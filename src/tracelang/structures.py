"""Finite relational structures over a split vocabulary.

The vocabulary separates fixed input relations (EDB, any arity) from monadic
"registers" whose interpretation changes along a computation.  A register
holds either one domain element or the blank marker, represented as ``None``
(spelled ``_`` in structure files).  Structures are immutable.  A trace
keeps one structure, its input, and one register valuation tuple per letter
(see ``engine.Trace``), never a structure per letter.

Structure file format (line oriented, ``#`` starts a comment)::

    domain a b c          # exactly one line, declares the elements in order
    edb E 2               # declares an EDB symbol with its arity ...
      a b                 # ... followed by indented tuple lines
      b c
    reg P Q               # declares monadic registers (one or more lines)
    state P=a             # optional: register valuation, blank spelled _
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import (
    ArityError,
    DuplicateSymbolError,
    NonUnarySymbolError,
    NotABijectionError,
    ParseError,
    UnknownSymbolError,
    VocabularyMismatchError,
)

BLANK: Optional[str] = None

ADOM = "adom"

_TOKEN_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.'-]*\Z")


def _check_token(tok: str, what: str, line: int | None = None) -> str:
    if not _TOKEN_RE.match(tok):
        raise ParseError(f"invalid {what} token {tok!r}", line)
    return tok


@dataclass(frozen=True)
class Vocabulary:
    """Relational signature: EDB symbols with arities and register names.
    It fixes no domain, so a program compiled against it runs on structures
    of every domain size.

    ``register_index`` maps each register to its position, ``arities`` each
    declared symbol to its arity and ``unary_symbols`` holds those of arity
    1; all three are derived, not fields."""

    edb_symbols: tuple[tuple[str, int], ...]
    register_symbols: tuple[str, ...]

    def __post_init__(self):
        arities: dict[str, int] = {}
        for name, arity in (*self.edb_symbols, *((r, 1) for r in self.register_symbols)):
            if name in arities:
                raise DuplicateSymbolError(f"symbol {name} declared twice")
            if name == ADOM:
                raise DuplicateSymbolError(f"{ADOM} is reserved and may not be declared")
            if arity < 1:
                raise ArityError(f"symbol {name} has arity {arity}; must be >= 1")
            arities[name] = arity
        # plain attributes, not properties: the engine reads them per test
        object.__setattr__(self, "register_index", {n: i for i, n in enumerate(self.register_symbols)})
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "unary_symbols", frozenset(n for n, a in arities.items() if a == 1))

    def arity(self, symbol: str) -> int:
        if symbol == ADOM:
            return 1
        if symbol not in self.arities:
            raise UnknownSymbolError(f"unknown symbol {symbol}")
        return self.arities[symbol]

    def is_declared(self, symbol: str) -> bool:
        return symbol in self.arities

    def is_unary(self, symbol: str) -> bool:
        """True for declared symbols of arity 1 (register or unary EDB)."""
        return symbol in self.unary_symbols


class Structure:
    """Domain, EDB tables and a register valuation.

    Immutable.  ``registers`` is a tuple aligned with
    ``vocabulary.register_symbols``; entries are an element or ``None``.
    """

    __slots__ = ("vocabulary", "domain", "edb", "registers", "_dindex", "_usets", "_index")

    def __init__(
        self,
        vocabulary: Vocabulary,
        domain: tuple[str, ...],
        edb: Mapping[str, frozenset[tuple[str, ...]]],
        registers: tuple[Optional[str], ...],
    ):
        if len(set(domain)) != len(domain):
            raise DuplicateSymbolError("domain elements must be distinct")
        if len(registers) != len(vocabulary.register_symbols):
            raise ParseError("register valuation length does not match vocabulary")
        dset = set(domain)
        for name, arity in vocabulary.edb_symbols:
            for tup in edb.get(name, frozenset()):
                if len(tup) != arity:
                    raise ArityError(f"tuple {tup} does not match arity {arity} of {name}")
                for e in tup:
                    if e not in dset:
                        raise UnknownSymbolError(f"element {e} in {name} not in domain")
        for reg, val in zip(vocabulary.register_symbols, registers):
            if val is not None and val not in dset:
                raise UnknownSymbolError(f"register {reg} holds {val}, not a domain element")
        object.__setattr__(self, "vocabulary", vocabulary)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(
            self,
            "edb",
            {name: frozenset(edb.get(name, frozenset())) for name, _ in vocabulary.edb_symbols},
        )
        object.__setattr__(self, "registers", registers)
        object.__setattr__(self, "_dindex", {e: i for i, e in enumerate(domain)})
        object.__setattr__(self, "_usets", {})  # unary EDB interp cache
        object.__setattr__(self, "_index", {})  # EDB hash indexes of ``cq``

    def __setattr__(self, *_):
        raise AttributeError("Structure is immutable")

    def register_value(self, name: str) -> Optional[str]:
        try:
            return self.registers[self.vocabulary.register_index[name]]
        except KeyError:
            raise UnknownSymbolError(f"unknown register {name}") from None

    def element_order(self, element: str) -> int:
        return self._dindex[element]

    def interp(self, symbol: str) -> frozenset[str]:
        """Set interpretation of a unary symbol (blank register = empty set)."""
        if symbol == ADOM:
            return frozenset(self.domain)
        idx = self.vocabulary.register_index.get(symbol)
        if idx is not None:
            v = self.registers[idx]
            return frozenset() if v is None else frozenset((v,))
        cached = self._usets.get(symbol)
        if cached is not None:
            return cached
        if self.vocabulary.arity(symbol) != 1:
            raise NonUnarySymbolError(f"{symbol} is not unary")
        value = self._usets[symbol] = frozenset(t[0] for t in self.edb[symbol])
        return value

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return self.vocabulary == other.vocabulary and structures_equal(self, other)

    def __hash__(self):
        return hash((self.domain, self.registers, tuple(sorted((k, v) for k, v in self.edb.items()))))

    def __repr__(self):
        regs = ", ".join(
            f"{r}={v if v is not None else '_'}"
            for r, v in zip(self.vocabulary.register_symbols, self.registers)
        )
        return f"<Structure |dom|={len(self.domain)} {regs}>"


def blank_registers(vocabulary: Vocabulary) -> tuple[Optional[str], ...]:
    return (None,) * len(vocabulary.register_symbols)


def structures_equal(a: Structure, b: Structure) -> bool:
    """True iff domains, EDB tables and register valuations all coincide."""
    if a.vocabulary != b.vocabulary:
        raise VocabularyMismatchError("structures have different vocabularies")
    if a.registers != b.registers or a.domain != b.domain:
        return False
    if a.edb is b.edb:
        return True
    return a.edb == b.edb


def permute_structure(s: Structure, pi: Mapping[str, str]) -> Structure:
    """Rename every element occurrence by the bijection ``pi`` on the domain."""
    dset = set(s.domain)
    if set(pi.keys()) != dset or set(pi.values()) != dset:
        raise NotABijectionError("renaming is not a bijection on the domain")
    edb = {
        name: frozenset(tuple(pi[e] for e in tup) for tup in tuples)
        for name, tuples in s.edb.items()
    }
    registers = tuple(None if v is None else pi[v] for v in s.registers)
    return Structure(s.vocabulary, s.domain, edb, registers)


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_structure(text: str) -> Structure:
    """Parse the structure file format described in the module docstring.

    Registers default to blank; ``state`` lines override.
    """
    domain: list[str] | None = None
    edb_decls: list[tuple[str, int]] = []
    edb_tuples: dict[str, set[tuple[str, ...]]] = {}
    registers: list[str] = []
    states: list[tuple[str, Optional[str], int]] = []
    current_edb: str | None = None
    seen_symbols: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        indented = line[0] in " \t"
        parts = line.split()
        if indented:
            if current_edb is None:
                raise ParseError("indented tuple line outside an edb block", lineno)
            name = current_edb
            arity = dict(edb_decls)[name]
            if len(parts) != arity:
                raise ArityError(
                    f"tuple {' '.join(parts)} has {len(parts)} components; {name} has arity {arity}",
                    lineno,
                )
            edb_tuples[name].add(tuple(_check_token(p, "element", lineno) for p in parts))
            continue
        keyword = parts[0]
        if keyword == "domain":
            if domain is not None:
                raise DuplicateSymbolError("more than one domain line", lineno)
            domain = [_check_token(p, "element", lineno) for p in parts[1:]]
            if len(set(domain)) != len(domain):
                raise DuplicateSymbolError("domain elements must be distinct", lineno)
            current_edb = None
        elif keyword == "edb":
            if len(parts) != 3:
                raise ParseError("expected: edb <Name> <arity>", lineno)
            name = _check_token(parts[1], "symbol", lineno)
            try:
                arity = int(parts[2])
            except ValueError:
                raise ParseError(f"arity {parts[2]!r} is not an integer", lineno) from None
            if name in seen_symbols:
                raise DuplicateSymbolError(f"symbol {name} declared twice", lineno)
            seen_symbols.add(name)
            edb_decls.append((name, arity))
            edb_tuples[name] = set()
            current_edb = name
        elif keyword == "reg":
            for name in parts[1:]:
                _check_token(name, "symbol", lineno)
                if name in seen_symbols:
                    raise DuplicateSymbolError(f"symbol {name} declared twice", lineno)
                seen_symbols.add(name)
                registers.append(name)
            current_edb = None
        elif keyword == "state":
            if len(parts) != 2 or "=" not in parts[1]:
                raise ParseError("expected: state <R>=<element or _>", lineno)
            reg, _, val = parts[1].partition("=")
            states.append((reg, None if val == "_" else val, lineno))
            current_edb = None
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if domain is None:
        raise ParseError("missing domain line")
    vocab = Vocabulary(tuple(edb_decls), tuple(registers))
    valuation = list(blank_registers(vocab))
    rindex = vocab.register_index
    for reg, val, lineno in states:
        if reg not in rindex:
            raise UnknownSymbolError(f"state line names unknown register {reg}", lineno)
        if val is not None and val not in set(domain):
            raise UnknownSymbolError(f"state value {val} not in domain", lineno)
        valuation[rindex[reg]] = val
    return Structure(
        vocab,
        tuple(domain),
        {name: frozenset(tuples) for name, tuples in edb_tuples.items()},
        tuple(valuation),
    )


def serialize_structure(s: Structure) -> str:
    """Deterministic text form: declaration order, tuples sorted by element order.

    ``parse_structure(serialize_structure(s))`` reconstructs ``s`` exactly,
    including mid-trace register valuations (via ``state`` lines).
    """
    out: list[str] = ["domain " + " ".join(s.domain)]
    order = s.element_order
    for name, _arity in s.vocabulary.edb_symbols:
        out.append(f"edb {name} {_arity}")
        for tup in sorted(s.edb[name], key=lambda t: tuple(order(e) for e in t)):
            out.append("  " + " ".join(tup))
    if s.vocabulary.register_symbols:
        out.append("reg " + " ".join(s.vocabulary.register_symbols))
    for reg, val in zip(s.vocabulary.register_symbols, s.registers):
        out.append(f"state {reg}={val if val is not None else '_'}")
    return "\n".join(out) + "\n"

