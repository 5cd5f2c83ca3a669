"""Exception types shared across the package."""


class SfnfaError(Exception):
    """Base class for all package errors."""


class ParseError(SfnfaError):
    """A JSON automaton document does not match the canonical schema."""


class PreconditionViolation(SfnfaError, ValueError):
    """An input automaton does not meet a construction's precondition."""


class NonReturningViolation(PreconditionViolation):
    """An operation required a non-returning automaton but the start state
    has in-transitions; ``transition`` is one of them as ``(src, symbol,
    dst)``, its symbol an index into ``alphabet``."""

    def __init__(self, message, transition, alphabet):
        super().__init__(message)
        self.transition = transition
        self.alphabet = alphabet


class SuffixFreeViolation(PreconditionViolation):
    """Strict mode: the input language is not suffix-free; ``witness`` is a
    pair of symbol-index words over ``alphabet``, one a proper suffix of the
    other, both accepted."""

    def __init__(self, message, witness, alphabet):
        super().__init__(message)
        self.witness = witness
        self.alphabet = alphabet


class ParameterOutOfRange(SfnfaError):
    """A witness family or fooling-set family parameter is outside its
    admissible range."""


class SearchBudgetExceeded(SfnfaError):
    """Fooling-set search refused an automaton matrix over its cell cap."""


class BudgetExceeded(SfnfaError):
    """Exhaustive minimal-NFA search refused a state ceiling that would
    exceed the enumeration budget."""


class CertificateError(SfnfaError):
    """A certificate the package produced failed its own re-check."""
