"""State-optimal NFA constructions and certified state-complexity bounds
for suffix-free regular languages."""

from ._kernel import IMPL as kernel_impl
from .automata import (
    Alphabet,
    Nfa,
    Word,
    accepts,
    alphabet,
    canonical_dfa,
    empty_nfa,
    enumerate_words,
    equivalent,
    lambda_nfa,
    make_nfa,
    remove_lambda,
    trim,
)
from .bounds import (
    ComplexityReport,
    FoolingSet,
    LowerBoundKind,
    Operation,
    certify,
    formula_value,
    nsc_exhaustive,
    paper_fooling_set,
    search_fooling_set,
    verify_fooling_set,
)
from .constructions import (
    complement_sf,
    concat_sf,
    intersect_sf,
    reverse_nfa,
    star_sf,
    union_sf,
)
from .errors import (
    BudgetExceeded,
    NonReturningViolation,
    ParameterOutOfRange,
    ParseError,
    PreconditionViolation,
    SearchBudgetExceeded,
    SfnfaError,
    SuffixFreeViolation,
)
from .serialize import from_json, load, to_dot, to_json
from .suffixfree import SuffixFreeness, is_non_returning, is_suffix_free
from .witnesses import Family, WitnessSpec, build

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Nfa", "Word", "accepts", "alphabet", "canonical_dfa",
    "empty_nfa", "enumerate_words", "equivalent", "lambda_nfa", "make_nfa",
    "remove_lambda", "trim",
    "ComplexityReport", "FoolingSet", "LowerBoundKind", "Operation", "certify",
    "formula_value", "nsc_exhaustive", "paper_fooling_set", "search_fooling_set",
    "verify_fooling_set",
    "complement_sf", "concat_sf", "intersect_sf", "reverse_nfa", "star_sf", "union_sf",
    "BudgetExceeded", "NonReturningViolation", "ParameterOutOfRange",
    "ParseError", "PreconditionViolation", "SearchBudgetExceeded", "SfnfaError",
    "SuffixFreeViolation",
    "from_json", "load", "to_dot", "to_json",
    "SuffixFreeness", "is_non_returning", "is_suffix_free",
    "Family", "WitnessSpec", "build", "kernel_impl",
]
