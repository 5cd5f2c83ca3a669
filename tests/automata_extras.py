"""Automaton helpers that only the tests use: the subset construction and
the product without their state maps, the left quotient by one symbol, and
complement witnesses whose complement DFA has 2^(m-1)+1 states."""

from __future__ import annotations

from sfnfa.automata import (
    Nfa,
    _subset_walk,
    bits,
    make_nfa,
    product_intersection_with_pairs,
    step,
)
from sfnfa.constructions import _require, complement_sf


def determinize(a: Nfa) -> Nfa:
    """The subset construction of a lambda-free NFA, as a complete DFA: an
    ``Nfa`` with one successor bit per cell.  The empty set, when reached,
    is a state like any other."""
    table, order = _subset_walk(a.succ, 1 << a.start)
    final_mask = sum(1 << i for i, sub in enumerate(order) if sub & a.final_mask)
    succ = tuple(tuple(1 << r for r in row) for row in table)
    return Nfa(len(order), a.alphabet, 0, final_mask, succ, (0,) * len(order))


def product_intersection(a: Nfa, b: Nfa) -> Nfa:
    return product_intersection_with_pairs(a, b)[0]


def left_quotient_symbol(a: Nfa, c: int, drop_symbol: bool = False) -> Nfa:
    """Quotient {w : c.w in L(a)} via a fresh start that simulates reading
    c first.  ``drop_symbol`` deletes all remaining c-transitions, which
    restricts the result to the sub-alphabet without c."""
    _require(False, ("input", a, False))
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
    return Nfa.from_edges(a.state_count + 1, a.alphabet, new_start, finals_out, trans)


# Binary cores K (start 0) for which the suffix-free c·K has a complement
# DFA of 2^(m-1)+1 states and a fooling set of 2^(m-1) pairs, found by a
# seeded hill climb on the fooling-set bound: (states, finals, edges).
COMPLEMENT_CORES = {
    3: (2, [1], [(0, "a", 0), (0, "a", 1), (0, "b", 1), (1, "a", 0)]),
    4: (3, [0, 2], [(0, "a", 0), (0, "a", 1), (1, "a", 0), (1, "a", 2), (1, "b", 2),
                    (2, "a", 2), (2, "b", 1)]),
    5: (4, [3], [(0, "a", 1), (0, "b", 0), (1, "a", 3), (1, "b", 2), (2, "a", 2),
                 (2, "b", 1), (2, "b", 3), (3, "a", 0), (3, "a", 3), (3, "b", 1)]),
    6: (5, [1, 3], [(0, "a", 1), (0, "b", 2), (1, "a", 3), (1, "b", 1), (2, "a", 0),
                    (2, "a", 3), (3, "a", 2), (3, "b", 4), (4, "a", 4), (4, "b", 0)]),
}


def complement_witness(m: int) -> Nfa:
    """``complement_sf`` of the m-state c·K of ``COMPLEMENT_CORES[m]``: a c
    edge from a fresh start 0 into the core's start, the core's states moved
    up by one."""
    states, finals, edges = COMPLEMENT_CORES[m]
    moved = [(src + 1, x, dst + 1) for src, x, dst in edges]
    return complement_sf(make_nfa(states + 1, "abc", 0, [q + 1 for q in finals],
                                  [(0, "c", 1), *moved]))
