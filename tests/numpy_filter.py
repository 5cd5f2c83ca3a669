"""Test oracle for ``sfnfa._kernel.filter_tables``: the brute-force filter,
vectorized with numpy.

It enumerates every transition table of a k-state NFA (start fixed at
state 0) over s symbols.  A table is encoded as an integer of k-bit
groups: cell ``j = state*s + symbol`` holds the successor set of that
(state, symbol) as a bitmask.  All tables are filtered simultaneously
against a labeled word trie: a table survives when some choice of final
states reproduces the sample labels, and the maximal consistent final mask
is reported alongside it.
"""

from __future__ import annotations

import numpy as np


def filter_tables(num_states, num_symbols, parents, symbols, accepts, cap=200000):
    """Return ``[(cells, finals_mask), ...]`` for every sample-consistent
    transition table, in ascending table-encoding order.

    ``parents``/``symbols``/``accepts`` describe the word trie in BFS order
    with the root (the empty word) at index 0.
    """
    k, s = num_states, num_symbols
    ncells = k * s
    full = (1 << k) - 1
    n_tables = (1 << k) ** ncells
    idx = np.arange(n_tables, dtype=np.int64)
    cells = [((idx >> (k * j)) & full).astype(np.uint8) for j in range(ncells)]
    del idx

    nnodes = len(parents)
    reach = [None] * nnodes
    reach[0] = np.full(n_tables, 1, dtype=np.uint8)
    # The root's reach mask {start} counts against the finals when the
    # empty word is rejected.
    forbidden = np.full(n_tables, 0 if accepts[0] else 1, dtype=np.uint8)
    accept_nodes = []
    if accepts[0]:
        accept_nodes.append(0)
    for i in range(1, nnodes):
        pm = reach[parents[i]]
        x = symbols[i]
        nm = np.zeros(n_tables, dtype=np.uint8)
        for st in range(k):
            cell = cells[st * s + x]
            nm |= np.where((pm >> st) & 1, cell, 0).astype(np.uint8)
        reach[i] = nm
        if accepts[i]:
            accept_nodes.append(i)
        else:
            forbidden |= nm

    finals = (~forbidden) & full
    viable = np.ones(n_tables, dtype=bool)
    for i in accept_nodes:
        viable &= (reach[i] & finals) != 0
    hits = np.nonzero(viable)[0]
    out = []
    for t in hits[:cap]:
        cell_vals = tuple(int(cells[j][t]) for j in range(ncells))
        out.append((cell_vals, int(finals[t])))
    return out
