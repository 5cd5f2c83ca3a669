"""Suffix-freeness and the non-returning structural property.

A language is suffix-free when no member is a proper suffix of another
member, equivalently L and Sigma+ . L are disjoint.  Non-returning (no
in-transitions on the start state) is necessary but not sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Nfa,
    Word,
    accepts,
    bits,
    is_empty,
    least_word,
    product_intersection,
)
from .errors import CertificateError, PreconditionViolation


@dataclass(frozen=True)
class SuffixFreeness:
    """Verdict plus, when not suffix-free, a witness pair
    (shorter, longer) of accepted words with shorter a proper suffix of
    longer."""

    suffix_free: bool
    witness: tuple[Word, Word] | None = None


def start_in_transition(a: Nfa) -> tuple[int, int | None, int] | None:
    """A transition into the start state, or None if there is none."""
    return next((t for t in a.transitions if t[2] == a.start), None)


def is_non_returning(a: Nfa) -> bool:
    """True iff no transition targets the start state."""
    if a.has_lambda:
        raise PreconditionViolation("is_non_returning requires a lambda-free NFA")
    return start_in_transition(a) is None


def _proper_suffix_language(a: Nfa) -> Nfa:
    """Lambda-free NFA for Sigma+ . L(a).

    Two junk states are prepended: state 0 consumes the first (mandatory)
    junk symbol into state 1, state 1 loops on every symbol and can also
    start simulating L(a) via copies of the start state's out-transitions.
    """
    k = a.alphabet.size
    offset = 2
    trans = set()
    for x in range(k):
        trans.add((0, x, 1))
        trans.add((1, x, 1))
        for q in bits(a.succ[a.start][x]):
            trans.add((1, x, q + offset))
    for src, sym, dst in a.transitions:
        trans.add((src + offset, sym, dst + offset))
    finals = set(q + offset for q in a.finals)
    if a.start in a.finals:  # lambda in L: any nonempty junk word qualifies
        finals.add(1)
    return Nfa(a.state_count + offset, a.alphabet, 0, frozenset(finals), frozenset(trans))


def is_suffix_free(a: Nfa) -> SuffixFreeness:
    """Decide suffix-freeness of L(a); on failure return the
    length-lexicographically least witness (least longer word first, then
    least accepted proper suffix of it)."""
    if a.has_lambda:
        raise PreconditionViolation("is_suffix_free requires a lambda-free NFA")
    overlap = product_intersection(a, _proper_suffix_language(a))
    if is_empty(overlap):
        return SuffixFreeness(True)
    longer = least_word(overlap)
    if longer is None:
        raise CertificateError("the suffix overlap is non-empty but accepts no word")
    for i in range(len(longer), 0, -1):  # shortest proper suffix first
        shorter = longer[i:]
        if accepts(a, shorter):
            return SuffixFreeness(False, (shorter, longer))
    raise CertificateError(
        f"overlap word {a.alphabet.text(longer)!r} has no accepted proper suffix")
