"""Test oracle for ``sfnfa._kernel.filter_tables``: the brute-force filter,
vectorized with numpy.

It enumerates every transition table of a k-state NFA (start fixed at
state 0) over s symbols.  A table is encoded as an integer of k-bit
groups: cell ``j = state*s + symbol`` holds the successor set of that
(state, symbol) as a bitmask.  All tables are filtered simultaneously
against a labeled word trie: a table survives when some choice of final
states reproduces the sample labels, and the maximal consistent final mask
is reported alongside it.  The tables and each node's reachable states are
computed once per trie and kept for the next call on the same trie.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=2)
def _tables_and_reach(k, s, parents, symbols):
    """The cell arrays of every table and the reach array of every trie
    node, read-only.  They depend on the trie and not on its labels, so
    calls that differ only in labels share them; at k=3 over two symbols
    they take about 35 MB."""
    ncells = k * s
    full = (1 << k) - 1
    idx = np.arange((1 << k) ** ncells, dtype=np.int64)
    cells = [((idx >> (k * j)) & full).astype(np.uint8) for j in range(ncells)]
    del idx
    reach = [np.ones_like(cells[0])]
    for i in range(1, len(parents)):
        pm = reach[parents[i]]
        x = symbols[i]
        nm = np.zeros_like(pm)
        for st in range(k):
            nm |= np.where((pm >> st) & 1, cells[st * s + x], 0).astype(np.uint8)
        reach.append(nm)
    for arr in cells + reach:
        arr.setflags(write=False)
    return cells, reach


def filter_tables(num_states, num_symbols, parents, symbols, accepts, cap=200000):
    """Return ``[(cells, finals_mask), ...]`` for every sample-consistent
    transition table, in ascending table-encoding order.

    ``parents``/``symbols``/``accepts`` describe the word trie in BFS order
    with the root (the empty word) at index 0.
    """
    k, s = num_states, num_symbols
    full = (1 << k) - 1
    cells, reach = _tables_and_reach(k, s, tuple(parents), tuple(symbols))
    # The root's reach mask {start} counts against the finals when the
    # empty word is rejected.
    forbidden = np.zeros_like(cells[0])
    for i, accepted in enumerate(accepts):
        if not accepted:
            forbidden |= reach[i]
    finals = (~forbidden) & full
    viable = np.ones(len(forbidden), dtype=bool)
    for i, accepted in enumerate(accepts):
        if accepted:
            viable &= (reach[i] & finals) != 0
    hits = np.nonzero(viable)[0]
    out = []
    for t in hits[:cap]:
        cell_vals = tuple(int(c[t]) for c in cells)
        out.append((cell_vals, int(finals[t])))
    return out
