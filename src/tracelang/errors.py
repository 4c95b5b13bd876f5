"""Exception hierarchy shared across the package."""


class TraceLangError(Exception):
    """Base class for all errors raised by tracelang."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(TraceLangError):
    """Malformed structure or program text."""


class ArityError(TraceLangError):
    """A tuple or atom does not match the declared arity of its symbol."""


class UnknownSymbolError(TraceLangError):
    """Reference to an undeclared symbol or domain element."""


class DuplicateSymbolError(TraceLangError):
    """A symbol, element or rule head is declared more than once."""


class NotABijectionError(TraceLangError):
    """The supplied renaming is not a bijection on the domain."""


class VocabularyMismatchError(TraceLangError):
    """Two structures do not share a vocabulary."""


class HeadVarUnusedError(TraceLangError):
    """A query head variable does not occur in the query body."""


class NonUnarySymbolError(TraceLangError):
    """An equality or history test names a symbol that is not unary."""


class UnknownModuleError(TraceLangError):
    """A term references a module that is not defined."""


class ChoiceMismatchError(TraceLangError):
    """A certificate does not replay."""


class StaleChoiceError(ChoiceMismatchError):
    """A choice is applied to a structure where it is not available."""


class InvalidParamsError(TraceLangError):
    """Instance generator parameters are out of range."""


class SignatureMismatchError(TraceLangError):
    """A structure does not match the relational signature of a problem."""
