"""Test oracle: the exhaustive minimal-NFA search without a stop.

The package's former ``nsc_exhaustive`` loop, kept as a reference for the
search that stops at the size of an NFA it already holds.  It enumerates
every k from 1 to ``max_states`` until a candidate is equivalent to the
input, including the input's own size, and raises ``BudgetExceeded`` at
the first k whose table space exceeds the budget.
"""

from __future__ import annotations

from sfnfa import _kernel
from sfnfa.automata import Nfa, accepts, canonical_dfa
from sfnfa.bounds import (
    _TABLE_BUDGET,
    _candidate_nfa,
    _default_ceiling,
    _final_mask_options,
    _sample_trie,
)
from sfnfa.errors import BudgetExceeded


def nsc_without_stop(a: Nfa, max_states: int) -> int | None:
    sigma = a.alphabet.size
    ceiling = _default_ceiling(sigma)
    if max_states > ceiling:
        raise BudgetExceeded(
            f"max_states {max_states} exceeds the ceiling {ceiling} for a "
            f"{sigma}-symbol alphabet"
        )
    target = canonical_dfa(a)
    for k in range(1, max_states + 1):
        if (1 << k) ** (k * sigma) > _TABLE_BUDGET:
            raise BudgetExceeded(f"table space for k={k} exceeds the budget")
        parents, symbols, node_words = _sample_trie(sigma, 2 * k)
        labels = [accepts(a, w) for w in node_words]
        survivors = _kernel.filter_tables(k, sigma, parents, symbols, labels)
        for cells, f_max in survivors:
            for fmask in _final_mask_options(
                cells, k, sigma, parents, symbols, labels, f_max
            ):
                cand = _candidate_nfa(a, k, cells, fmask)
                if canonical_dfa(cand) == target:
                    return k
    return None
