"""The candidate-NFA filter behind the exhaustive minimal-NFA search.

A transition table of a k-state NFA (start fixed at state 0) over s
symbols has one cell ``j = state*s + symbol`` per (state, symbol), holding
that pair's successor set as a k-bit mask; the table's encoding is the
integer ``sum(cells[j] << (k * j))``.  A table survives a labeled word
trie when some choice of final states reproduces the labels, and the
maximal consistent final mask is reported alongside it.
"""

from __future__ import annotations

from itertools import product

IMPL = "pure"


def filter_tables(num_states, num_symbols, parents, symbols, accepts, cap=200000):
    """Return ``[(cells, finals_mask), ...]`` for every sample-consistent
    transition table, in ascending table-encoding order, at most ``cap``.

    ``parents``/``symbols``/``accepts`` describe the word trie in BFS order
    with the root (the empty word) at index 0.

    A depth-first search walks the trie in node order and assigns a cell
    only when a node's reach first needs it, branching over its 2^k values
    there.  The forbidden mask is the union of the rejected nodes' reaches;
    the maximal final mask is its complement.  A branch is cut as soon as
    an accepted node's reach lies inside the forbidden mask.  Computed
    reaches never change and the forbidden mask only grows, so no table
    below the cut survives: the pruning is exact.  Once the mask is full,
    every later reach lies inside it, so the branch is cut if an accepted
    node is still to come and kept whole, with no further cell assigned,
    if none is.  At the end of the trie, every cell no node needed takes
    each of its values.

    The cost follows the number of branches, not the table space: it is
    small when cuts come early, and largest when most tables survive the
    sample (nearly every word accepted), since each survivor walks the
    trie past its last assigned cell.
    """
    k, s = num_states, num_symbols
    nvals = 1 << k
    full = nvals - 1
    n = len(parents)
    # inside[f] has bit r set for every reach mask r that lies inside f.
    inside = [sum(1 << r for r in range(nvals) if r & f == r) for f in range(nvals)]
    cells = [-1] * (k * s)
    # columns[r * s + x] lists the cells that state set r reads on symbol x.
    columns = [tuple(st * s + x for st in range(k) if r >> st & 1)
               for r in range(nvals) for x in range(s)]
    reach = [1] * n
    # accepted_after[i] tells whether an accepted node comes after node i.
    accepted_after = [False] * n
    for i in range(n - 2, -1, -1):
        accepted_after[i] = accepted_after[i + 1] or bool(accepts[i + 1])
    found = []

    def walk(i, forbidden, accepted):
        # accepted has bit r set when some accepted node so far has reach r.
        while i < n:
            nm = 0
            for j in columns[reach[parents[i]] * s + symbols[i]]:
                c = cells[j]
                if c < 0:
                    for v in range(nvals):
                        cells[j] = v
                        walk(i, forbidden, accepted)
                    cells[j] = -1
                    return
                nm |= c
            reach[i] = nm
            if accepts[i]:
                accepted |= 1 << nm
            else:
                forbidden |= nm
            if accepted & inside[forbidden]:
                return
            if forbidden == full:
                # Every later reach lies inside the mask: a later accepted
                # node cuts the branch, and without one no cell matters.
                if not accepted_after[i]:
                    found.append((tuple(cells), 0))
                return
            i += 1
        found.append((tuple(cells), full & ~forbidden))

    # The root's reach is {start}.
    if accepts[0]:
        walk(1, 0, 1 << 1)
    else:
        walk(1, 1, 0)

    out = []
    for partial, finals in found:
        free = [j for j, c in enumerate(partial) if c < 0]
        table = list(partial)
        for values in product(range(nvals), repeat=len(free)):
            for j, v in zip(free, values):
                table[j] = v
            out.append((tuple(table), finals))
    # Reversed cells compare like encodings: the last cell is most significant.
    out.sort(key=lambda survivor: survivor[0][::-1])
    return out[:cap]
