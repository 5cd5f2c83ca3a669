"""Suffix-freeness and the non-returning structural property.

A language is suffix-free when no member is a proper suffix of another
member, equivalently L and Sigma+ . L are disjoint.  Non-returning (no
in-transitions on the start state) is necessary but not sufficient.

``is_suffix_free`` decides the disjointness by one breadth-first walk over
pairs of a state of the automaton for L and a state of one for Sigma+ . L,
which the walk simulates from the same successor masks without building it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import or_

from .automata import Nfa, Word, accepts, step
from .errors import CertificateError, PreconditionViolation


@dataclass(frozen=True)
class SuffixFreeness:
    """Verdict plus, when not suffix-free, a witness pair
    (shorter, longer) of accepted words with shorter a proper suffix of
    longer."""

    suffix_free: bool
    witness: tuple[Word, Word] | None = None


def start_in_transition(a: Nfa) -> tuple[int, int | None, int] | None:
    """The least transition ``(src, symbol, dst)`` into the start state, a
    lambda edge after the symbols of its source, or None if there is none."""
    bit = 1 << a.start
    if reduce(or_, chain(a.lam, *a.succ), 0) & bit:  # some edge enters the start
        for src, (row, lam) in enumerate(zip(a.succ, a.lam)):
            for x, mask in (*enumerate(row), (None, lam)):
                if mask & bit:
                    return src, x, a.start
    return None


def is_non_returning(a: Nfa) -> bool:
    """True iff no transition targets the start state."""
    if a.has_lambda:
        raise PreconditionViolation("is_non_returning requires a lambda-free NFA")
    return start_in_transition(a) is None


def _least_overlap(a: Nfa) -> Word | None:
    """The length-lexicographically least word of L(a) ∩ Sigma+ . L(a), or
    None when the two are disjoint.

    The automaton for Sigma+ . L(a) has the states of a and two more: J0,
    where nothing is read yet, and J1, inside the junk prefix.  J0 steps to
    J1 on every symbol; J1 steps to J1 and to the start's successors; a
    state of a steps as in a.  Its finals are a's, and J1 when a accepts
    the empty word.  With J0 and J1 as bits n and n + 1 of a mask, the walk
    keeps, for each state p of a, the mask of the q paired with p.

    Each entry holds the pairs that its word reaches and no shorter or
    lexicographically smaller word does.  It is expanded symbol by symbol,
    so two pairs that share a least word step together and the successor
    entries come out in length-lexicographic order of their words.  A
    queue of single pairs would not do: a pair reached from the first of
    two such pairs on a later symbol would be given that symbol's word.
    """
    n, k = a.state_count, a.alphabet.size
    succ, final_mask = a.succ, a.final_mask
    j0, j1 = 1 << n, 1 << (n + 1)
    rows = [*succ, [j1] * k, [j1 | m for m in succ[a.start]]]
    suffix_finals = final_mask | (j1 if final_mask >> a.start & 1 else 0)
    seen = [0] * n
    seen[a.start] = j0
    entries = [[(a.start, j0)]]
    links = [(-1, -1)]  # each entry's parent entry and symbol
    for i, entry in enumerate(entries):  # grows as entries are found: a BFS queue
        for x in range(k):
            reached: dict[int, int] = {}
            for p, qs in entry:
                qs = step(rows, qs, x)
                if qs:
                    ps = succ[p][x]
                    while ps:
                        low = ps & -ps
                        p2 = low.bit_length() - 1
                        reached[p2] = reached.get(p2, 0) | qs
                        ps ^= low
            new = []
            for p, qs in reached.items():
                qs &= ~seen[p]
                if qs:
                    seen[p] |= qs
                    new.append((p, qs))
            if not new:
                continue
            links.append((i, x))
            if any(final_mask >> p & 1 and qs & suffix_finals for p, qs in new):
                word = []
                j = len(links) - 1
                while j:
                    j, sym = links[j]
                    word.append(sym)
                return tuple(reversed(word))
            entries.append(new)
    return None


def is_suffix_free(a: Nfa) -> SuffixFreeness:
    """Decide suffix-freeness of L(a); on failure return the
    length-lexicographically least witness (least longer word first, then
    least accepted proper suffix of it).  Both words of the witness are
    re-checked by ``accepts``."""
    if a.has_lambda:
        raise PreconditionViolation("is_suffix_free requires a lambda-free NFA")
    longer = _least_overlap(a)
    if longer is None:
        return SuffixFreeness(True)
    for i in range(len(longer), 0, -1):  # shortest proper suffix first
        shorter = longer[i:]
        if accepts(a, shorter):
            break
    else:
        raise CertificateError(
            f"overlap word {a.alphabet.text(longer)!r} has no accepted proper suffix")
    if not accepts(a, longer):
        raise CertificateError(f"overlap word {a.alphabet.text(longer)!r} is not accepted")
    return SuffixFreeness(False, (shorter, longer))
