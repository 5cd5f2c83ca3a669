"""Exception types shared across the package."""


class SfnfaError(Exception):
    """Base class for all package errors."""


class ParseError(SfnfaError):
    """A JSON automaton document does not match the canonical schema."""


class PreconditionViolation(SfnfaError, ValueError):
    """An input automaton does not meet a construction's precondition."""


class NonReturningViolation(PreconditionViolation):
    """An operation required a non-returning automaton but the start state
    has in-transitions."""

    def __init__(self, message, transition=None):
        super().__init__(message)
        self.transition = transition


class SuffixFreeViolation(PreconditionViolation):
    """Strict mode: the input language is not suffix-free."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ParameterOutOfRange(SfnfaError):
    """A witness family or fooling-set family parameter is outside its
    admissible range."""


class SearchBudgetExceeded(SfnfaError):
    """Fooling-set search gave up; ``best_size`` carries the largest set
    found before the budget ran out."""

    def __init__(self, message, best_size=0):
        super().__init__(message)
        self.best_size = best_size


class BudgetExceeded(SfnfaError):
    """Exhaustive minimal-NFA search refused a state ceiling that would
    exceed the enumeration budget."""


class CertificateError(SfnfaError):
    """A certificate the package produced failed its own re-check."""
