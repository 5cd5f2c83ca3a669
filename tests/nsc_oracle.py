"""Test oracle: the exhaustive minimal-NFA search without a stop.

The package's former ``nsc_exhaustive`` loop, kept as a reference for the
search that stops at the size of an NFA it already holds and decides each
survivor with one product walk.  It enumerates every k from 1 to
``max_states`` until a candidate is equivalent to the input, including the
input's own size, and raises ``BudgetExceeded`` at the first k whose table
space exceeds the budget.  Each survivor of the table search is built as
one NFA per final set consistent with the sample, and each is compared with
the input through the frozenset canonical DFA of ``set_oracle``.
"""

from __future__ import annotations

from sfnfa import _kernel
from sfnfa.automata import Nfa, accepts, bits, step
from sfnfa.bounds import _TABLE_BUDGET, _default_ceiling, _sample_trie
from sfnfa.errors import BudgetExceeded

import set_oracle


def _candidate_nfa(a: Nfa, k: int, cells: tuple[int, ...], finals_mask: int) -> Nfa:
    s = a.alphabet.size
    trans = set()
    for st in range(k):
        for x in range(s):
            for dst in bits(cells[st * s + x]):
                trans.add((st, x, dst))
    finals = frozenset(q for q in range(k) if finals_mask >> q & 1)
    return Nfa.from_edges(k, a.alphabet, 0, finals, trans)


def _final_mask_options(cells, k, s, parents, symbols, labels, f_max):
    """All subsets of f_max consistent with the sample labels, largest
    first.  Needed because the bounded sample cannot always distinguish
    final-set choices that only diverge on longer words."""
    rows = [cells[st * s:(st + 1) * s] for st in range(k)]
    reach = [1]
    for i in range(1, len(parents)):
        reach.append(step(rows, reach[parents[i]], symbols[i]))
    accept_masks = [reach[i] for i in range(len(parents)) if labels[i]]
    options = []
    sub = f_max
    while True:
        if all(sub & am for am in accept_masks):
            options.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & f_max
    return options


def survivor_equivalent(a: Nfa, k, cells, f_max, parents, symbols, labels, target) -> bool:
    """Whether some final-set option of one survivor gives an NFA whose
    oracle canonical DFA is ``target``."""
    return any(
        set_oracle.canonical_dfa(_candidate_nfa(a, k, cells, fmask)) == target
        for fmask in _final_mask_options(
            cells, k, a.alphabet.size, parents, symbols, labels, f_max)
    )


def trie_words(parents, symbols) -> list[tuple[int, ...]]:
    """The word of each node of a ``_sample_trie``, from its parent's."""
    words = [()]
    for parent, x in zip(parents[1:], symbols[1:]):
        words.append(words[parent] + (x,))
    return words


def sample(a: Nfa, k: int):
    """The word trie of the size-k search and its labels by ``accepts``."""
    parents, symbols = _sample_trie(a.alphabet.size, 2 * k)
    return parents, symbols, [accepts(a, w) for w in trie_words(parents, symbols)]


def nsc_without_stop(a: Nfa, max_states: int) -> int | None:
    sigma = a.alphabet.size
    ceiling = _default_ceiling(sigma)
    if max_states > ceiling:
        raise BudgetExceeded(
            f"max_states {max_states} exceeds the ceiling {ceiling} for a "
            f"{sigma}-symbol alphabet"
        )
    target = set_oracle.canonical_dfa(a)
    for k in range(1, max_states + 1):
        if (1 << k) ** (k * sigma) > _TABLE_BUDGET:
            raise BudgetExceeded(f"table space for k={k} exceeds the budget")
        parents, symbols, labels = sample(a, k)
        survivors = _kernel.filter_tables(k, sigma, parents, symbols, labels)
        for cells, f_max in survivors:
            if survivor_equivalent(a, k, cells, f_max, parents, symbols, labels, target):
                return k
    return None
