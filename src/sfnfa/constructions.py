"""State-optimal NFA constructions for suffix-free languages.

Every construction here relies structurally only on the non-returning
property (no in-transitions on the start state), which is what suffix-free
inputs guarantee.  Pass ``strict=True`` to additionally verify full
suffix-freeness of the inputs; the default checks only the cheap
structural precondition.  Each construction builds the successor masks of
its result from those of its inputs.
"""

from __future__ import annotations

from operator import or_

from .automata import (
    Nfa,
    _subset_walk,
    bits,
    product_intersection_with_pairs,
    pred_rows,
    step,
    trim,
)
from .errors import (
    CertificateError,
    NonReturningViolation,
    PreconditionViolation,
    SuffixFreeViolation,
)
from .suffixfree import is_suffix_free, start_in_transition


def _require(strict: bool, *operands: tuple[str, Nfa, bool]) -> None:
    """Check the ``(role, automaton, must be non-returning)`` operands of a
    construction in this order: each is lambda-free, they share one
    alphabet, each that must be is non-returning, and with ``strict`` each
    is suffix-free."""
    for role, a, _ in operands:
        if a.has_lambda:
            raise PreconditionViolation(f"{role} automaton must be lambda-free")
    if len({a.alphabet.labels for _, a, _ in operands}) > 1:
        raise PreconditionViolation("both automata must share one alphabet")
    for role, a, non_returning in operands:
        transition = start_in_transition(a) if non_returning else None
        if transition is not None:
            raise NonReturningViolation(
                f"{role} automaton has an in-transition to its start state",
                transition, a.alphabet)
    for role, a, _ in operands if strict else ():
        verdict = is_suffix_free(a)
        if not verdict.suffix_free:
            raise SuffixFreeViolation(f"{role} language is not suffix-free",
                                      verdict.witness, a.alphabet)


def union_sf(a: Nfa, b: Nfa, strict: bool = False) -> Nfa:
    """Union on m+n-1 states by merging the two start states.

    The merged start (index 0) carries the out-transitions of both original
    starts; it is final iff either original start was final (only possible
    when lambda belongs to one input language).
    """
    _require(strict, ("left", a, True), ("right", b, True))
    sa, sb, ma = a.start, b.start, a.state_count
    # a's other states become 1 .. ma-1 and b's ma .. ma+nb-2.
    a_rows, a_finals = _drop_start(a, 1)
    b_rows, b_finals = _drop_start(b, ma)
    merged = tuple(map(or_, a_rows[sa], b_rows[sb]))
    succ = (merged, *a_rows[:sa], *a_rows[sa + 1:], *b_rows[:sb], *b_rows[sb + 1:])
    final_mask = a_finals | b_finals | (a.final_mask >> sa & 1) | (b.final_mask >> sb & 1)
    n = ma + b.state_count - 1
    return Nfa(n, a.alphabet, 0, final_mask, succ, (0,) * n)


def _drop_start(x: Nfa, shift: int) -> tuple[list[tuple[int, ...]], int]:
    """x's successor rows, one per state, and its final mask without the
    start's bit, the other states numbered densely from ``shift`` in order."""
    s, low = x.start, (1 << x.start) - 1

    def move(mask: int) -> int:  # the bits above s move down by one
        return ((mask & low) | (mask >> (s + 1) << s)) << shift

    return [tuple(map(move, row)) for row in x.succ], move(x.final_mask)


def concat_sf(a: Nfa, b: Nfa, strict: bool = False) -> Nfa:
    """Catenation on m+n-1 states: drop b's start and bridge a's finals.

    Every final state of ``a`` gains copies of the out-transitions of b's
    start.  Finals are b's finals; when lambda belongs to L(b), a's finals
    stay final too (the witness languages never hit this corner, but total
    correctness requires it).
    """
    _require(strict, ("left", a, False), ("right", b, True))
    sb, ma = b.start, a.state_count
    b_rows, final_mask = _drop_start(b, ma)
    bridge = b_rows[sb]
    succ = (*[tuple(map(or_, row, bridge)) if a.final_mask >> q & 1 else row
              for q, row in enumerate(a.succ)],
            *b_rows[:sb], *b_rows[sb + 1:])
    if b.final_mask >> sb & 1:
        final_mask |= a.final_mask
    n = ma + b.state_count - 1
    return Nfa(n, a.alphabet, a.start, final_mask, succ, (0,) * n)


def intersect_sf(a: Nfa, b: Nfa, strict: bool = False) -> Nfa:
    """Intersection via the trimmed reachable product, on at most
    mn-(m+n)+2 states."""
    _require(strict, ("left", a, True), ("right", b, True))
    product, pairs = product_intersection_with_pairs(a, b)
    # Reachability alone already excludes the mixed-start pairs (s1, q) and
    # (p, s2); check the theorem rather than pruning them specially.
    for p, q in pairs[1:]:
        if p == a.start or q == b.start:
            raise CertificateError(f"mixed-start pair {(p, q)} is reachable in the product")
    trimmed = trim(product)
    bound = max(a.state_count * b.state_count - (a.state_count + b.state_count) + 2, 1)
    if trimmed.state_count > bound:
        raise CertificateError(
            f"intersection has {trimmed.state_count} states, above its bound {bound}")
    return trimmed


def star_sf(a: Nfa, strict: bool = False) -> Nfa:
    """Kleene star on the same m states: finals replicate the start's
    out-transitions and the start becomes final."""
    _require(strict, ("input", a, True))
    first = a.succ[a.start]
    succ = tuple(tuple(map(or_, row, first)) if a.final_mask >> q & 1 else row
                 for q, row in enumerate(a.succ))
    return Nfa(a.state_count, a.alphabet, a.start, a.final_mask | 1 << a.start, succ, a.lam)


def reverse_nfa(a: Nfa, strict: bool = False) -> Nfa:
    """Reversal on m+1 states: flip every transition and make the old start
    final; a fresh start takes the flipped out-transitions of the old finals,
    and is final when the old start was."""
    _require(strict, ("input", a, False))
    n = a.state_count
    pred = pred_rows(a)
    succ = (*map(tuple, pred), tuple(step(pred, a.final_mask, x) for x in range(a.alphabet.size)))
    final_mask = 1 << a.start
    if a.final_mask >> a.start & 1:
        final_mask |= 1 << n
    return Nfa(n + 1, a.alphabet, n, final_mask, succ, (0,) * (n + 1))


def complement_sf(a: Nfa, strict: bool = False) -> Nfa:
    """Complement as a complete DFA on at most 2^(m-1)+1 states: an ``Nfa``
    with one successor bit per cell.

    Determinization of a non-returning NFA can only reach {start}, subsets
    avoiding the start, and the empty set; swapping finals afterwards
    yields the complement.
    """
    _require(strict, ("input", a, True))
    start = 1 << a.start
    table, order = _subset_walk(a.succ, start)
    for sub in order:
        if sub & start and sub != start:
            raise CertificateError(
                f"subset {list(bits(sub))} holds the start of a non-returning automaton "
                "and another state")
    bound = 2 ** (a.state_count - 1) + 1
    if len(order) > bound:
        raise CertificateError(f"complement has {len(order)} states, above its bound {bound}")
    final_mask = 0
    succ = []
    for i, (row, sub) in enumerate(zip(table, order)):
        if not sub & a.final_mask:
            final_mask |= 1 << i
        succ.append(tuple([1 << j for j in row]))
    return Nfa(len(order), a.alphabet, 0, final_mask, tuple(succ), (0,) * len(order))
