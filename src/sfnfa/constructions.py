"""State-optimal NFA constructions for suffix-free languages.

Every construction here relies structurally only on the non-returning
property (no in-transitions on the start state), which is what suffix-free
inputs guarantee.  Pass ``strict=True`` to additionally verify full
suffix-freeness of the inputs; the default checks only the cheap
structural precondition.
"""

from __future__ import annotations

from .automata import (
    Dfa,
    Nfa,
    bits,
    determinize_with_subsets,
    product_intersection_with_pairs,
    trim_with_indices,
)
from .errors import (
    CertificateError,
    NonReturningViolation,
    PreconditionViolation,
    SuffixFreeViolation,
)
from .suffixfree import is_suffix_free, start_in_transition


def _require_non_returning(a: Nfa, role: str) -> None:
    transition = start_in_transition(a)
    if transition is not None:
        raise NonReturningViolation(
            f"{role} automaton has an in-transition to its start state",
            transition=transition,
        )


def _require_lambda_free(a: Nfa, role: str) -> None:
    if a.has_lambda:
        raise PreconditionViolation(f"{role} automaton must be lambda-free")


def _require_same_alphabet(a: Nfa, b: Nfa) -> None:
    if a.alphabet.labels != b.alphabet.labels:
        raise PreconditionViolation("both automata must share one alphabet")


def _require_suffix_free(a: Nfa, role: str) -> None:
    verdict = is_suffix_free(a)
    if not verdict.suffix_free:
        raise SuffixFreeViolation(
            f"{role} language is not suffix-free", witness=verdict.witness
        )


def union_sf(a: Nfa, b: Nfa, strict: bool = False) -> Nfa:
    """Union on m+n-1 states by merging the two start states.

    The merged start (index 0) carries the out-transitions of both original
    starts; it is final iff either original start was final (only possible
    when lambda belongs to one input language).
    """
    _require_lambda_free(a, "left")
    _require_lambda_free(b, "right")
    _require_same_alphabet(a, b)
    _require_non_returning(a, "left")
    _require_non_returning(b, "right")
    if strict:
        _require_suffix_free(a, "left")
        _require_suffix_free(b, "right")

    a_map = _skip_start_map(a, offset=1)
    b_map = _skip_start_map(b, offset=a.state_count)
    trans = set()
    for src, sym, dst in a.transitions:
        trans.add((0 if src == a.start else a_map[src], sym, a_map[dst]))
    for src, sym, dst in b.transitions:
        trans.add((0 if src == b.start else b_map[src], sym, b_map[dst]))
    finals = {a_map[q] for q in a.finals if q != a.start}
    finals |= {b_map[q] for q in b.finals if q != b.start}
    if a.start in a.finals or b.start in b.finals:
        finals.add(0)
    return Nfa(
        a.state_count + b.state_count - 1,
        a.alphabet,
        0,
        frozenset(finals),
        frozenset(trans),
    )


def _skip_start_map(a: Nfa, offset: int) -> dict[int, int]:
    """Renumber non-start states densely starting at ``offset``."""
    out = {}
    nxt = offset
    for q in range(a.state_count):
        if q != a.start:
            out[q] = nxt
            nxt += 1
    return out


def concat_sf(a: Nfa, b: Nfa, strict: bool = False) -> Nfa:
    """Catenation on m+n-1 states: drop b's start and bridge a's finals.

    Every final state of ``a`` gains copies of the out-transitions of b's
    start.  Finals are b's finals; when lambda belongs to L(b), a's finals
    stay final too (the witness languages never hit this corner, but total
    correctness requires it).
    """
    _require_lambda_free(a, "left")
    _require_lambda_free(b, "right")
    _require_same_alphabet(a, b)
    _require_non_returning(b, "right")
    if strict:
        _require_suffix_free(a, "left")
        _require_suffix_free(b, "right")

    b_map = _skip_start_map(b, offset=a.state_count)
    trans = set(a.transitions)
    for src, sym, dst in b.transitions:
        if src != b.start:
            trans.add((b_map[src], sym, b_map[dst]))
    for x in range(b.alphabet.size):
        for dst in bits(b.succ[b.start][x]):
            for f in a.finals:
                trans.add((f, x, b_map[dst]))
    finals = {b_map[q] for q in b.finals if q != b.start}
    if b.start in b.finals:
        finals |= set(a.finals)
    return Nfa(
        a.state_count + b.state_count - 1,
        a.alphabet,
        a.start,
        frozenset(finals),
        frozenset(trans),
    )


def intersect_sf_with_pairs(a: Nfa, b: Nfa, strict: bool = False):
    """Intersection via the trimmed reachable product; also returns the
    (p, q) origin pair of every surviving state."""
    _require_lambda_free(a, "left")
    _require_lambda_free(b, "right")
    _require_same_alphabet(a, b)
    _require_non_returning(a, "left")
    _require_non_returning(b, "right")
    if strict:
        _require_suffix_free(a, "left")
        _require_suffix_free(b, "right")

    product, pairs = product_intersection_with_pairs(a, b)
    # Reachability alone already excludes the mixed-start pairs (s1, q) and
    # (p, s2); check the theorem rather than pruning them specially.
    for p, q in pairs[1:]:
        if p == a.start or q == b.start:
            raise CertificateError(f"mixed-start pair {(p, q)} is reachable in the product")
    trimmed, useful = trim_with_indices(product)
    # The canonical empty automaton carries no origin pair.
    kept = tuple(pairs[i] for i in useful) or (None,)
    bound = max(a.state_count * b.state_count - (a.state_count + b.state_count) + 2, 1)
    if trimmed.state_count > bound:
        raise CertificateError(
            f"intersection has {trimmed.state_count} states, above its bound {bound}")
    return trimmed, kept


def intersect_sf(a: Nfa, b: Nfa, strict: bool = False) -> Nfa:
    return intersect_sf_with_pairs(a, b, strict=strict)[0]


def star_sf(a: Nfa, strict: bool = False) -> Nfa:
    """Kleene star on the same m states: finals replicate the start's
    out-transitions and the start becomes final."""
    _require_lambda_free(a, "input")
    _require_non_returning(a, "input")
    if strict:
        _require_suffix_free(a, "input")
    trans = set(a.transitions)
    for x in range(a.alphabet.size):
        for dst in bits(a.succ[a.start][x]):
            for f in a.finals:
                trans.add((f, x, dst))
    finals = frozenset(a.finals | {a.start})
    return Nfa(a.state_count, a.alphabet, a.start, finals, frozenset(trans))


def reverse_nfa(a: Nfa, strict: bool = False) -> Nfa:
    """Reversal on m+1 states: flip every transition and make the old start
    final; a fresh start takes the flipped out-transitions of the old finals,
    and is final when the old start was."""
    _require_lambda_free(a, "input")
    if strict:
        _require_suffix_free(a, "input")
    new_start = a.state_count
    trans = {(dst, sym, src) for src, sym, dst in a.transitions}
    trans |= {(new_start, sym, src) for src, sym, dst in a.transitions if dst in a.finals}
    finals = {a.start, new_start} if a.start in a.finals else {a.start}
    return Nfa(a.state_count + 1, a.alphabet, new_start, frozenset(finals), frozenset(trans))


def complement_sf(a: Nfa, strict: bool = False) -> Dfa:
    """Complement as a complete DFA on at most 2^(m-1)+1 states.

    Determinization of a non-returning NFA can only reach {start}, subsets
    avoiding the start, and the empty sink; swapping finals afterwards
    yields the complement.
    """
    _require_lambda_free(a, "input")
    _require_non_returning(a, "input")
    if strict:
        _require_suffix_free(a, "input")
    dfa, subsets = determinize_with_subsets(a)
    for sub in subsets:
        if a.start in sub and len(sub) > 1:
            raise CertificateError(
                f"subset {sorted(sub)} holds the start of a non-returning automaton "
                "and another state")
    bound = 2 ** (a.state_count - 1) + 1
    if dfa.state_count > bound:
        raise CertificateError(f"complement has {dfa.state_count} states, above its bound {bound}")
    finals = frozenset(q for q in range(dfa.state_count) if q not in dfa.finals)
    return Dfa(dfa.state_count, dfa.alphabet, dfa.start, finals, dfa.table, sink=dfa.sink)
