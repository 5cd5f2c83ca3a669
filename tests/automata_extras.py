"""Automaton helpers that only the tests use: DFA membership, complement
and conversion to an NFA, the subset construction and the product without
their state maps, and the left quotient by one symbol."""

from __future__ import annotations

from sfnfa.automata import (
    Dfa,
    Nfa,
    Word,
    bits,
    determinize_with_subsets,
    product_intersection_with_pairs,
    step,
)
from sfnfa.constructions import _require_lambda_free


def dfa_accepts(d: Dfa, w: Word) -> bool:
    q = d.start
    for c in w:
        q = d.table[q][c]
    return q in d.finals


def dfa_to_nfa(d: Dfa) -> Nfa:
    trans = frozenset(
        (q, x, d.table[q][x]) for q in range(d.state_count) for x in range(d.alphabet.size)
    )
    return Nfa(d.state_count, d.alphabet, d.start, d.finals, trans)


def dfa_complement(d: Dfa) -> Dfa:
    finals = frozenset(q for q in range(d.state_count) if q not in d.finals)
    return Dfa(d.state_count, d.alphabet, d.start, finals, d.table)


def determinize(a: Nfa) -> Dfa:
    return determinize_with_subsets(a)[0]


def product_intersection(a: Nfa, b: Nfa) -> Nfa:
    return product_intersection_with_pairs(a, b)[0]


def left_quotient_symbol(a: Nfa, c: int, drop_symbol: bool = False) -> Nfa:
    """Quotient {w : c.w in L(a)} via a fresh start that simulates reading
    c first.  ``drop_symbol`` deletes all remaining c-transitions, which
    restricts the result to the sub-alphabet without c."""
    _require_lambda_free(a, "input")
    if not 0 <= c < a.alphabet.size:
        raise ValueError("quotient symbol out of range")
    new_start = a.state_count
    after_c = a.succ[a.start][c]
    trans = set(a.transitions)
    for x in range(a.alphabet.size):
        for dst in bits(step(a.succ, after_c, x)):
            trans.add((new_start, x, dst))
    if drop_symbol:
        trans = {(s, x, d) for s, x, d in trans if x != c}
    finals_out = set(a.finals)
    if after_c & a.final_mask:
        finals_out.add(new_start)
    return Nfa(a.state_count + 1, a.alphabet, new_start, frozenset(finals_out), frozenset(trans))
