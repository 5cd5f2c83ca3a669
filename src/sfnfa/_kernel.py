"""The candidate-NFA filter behind the exhaustive minimal-NFA search.

A transition table of a k-state NFA (start fixed at state 0) over s
symbols has one cell ``j = state*s + symbol`` per (state, symbol), holding
that pair's successor set as a k-bit mask; the table's encoding is the
integer ``sum(cells[j] << (k * j))``.  A table survives a labeled word
trie when some choice of final states reproduces the labels, and the
maximal consistent final mask is reported alongside it.  The survivors
are found by a depth-first search over cell values that processes each
trie node as soon as its reach is known and branches only when no node
can be processed.
"""

from __future__ import annotations

from itertools import product

IMPL = "pure"


def filter_tables(num_states, num_symbols, parents, symbols, accepts, cap=200000):
    """Return ``[(cells, finals_mask), ...]`` for every sample-consistent
    transition table, in ascending table-encoding order, at most ``cap``.

    ``parents``/``symbols``/``accepts`` describe the word trie in BFS order
    with the root (the empty word) at index 0.

    A propagating depth-first search assigns cells one at a time.  A node
    is processed as soon as its reach is known: its parent has been
    processed and every cell it reads is assigned.  A node that reads an
    unassigned cell waits on that one cell, and assigning the cell looks
    again at its waiting nodes only.  The search branches, over the 2^k
    values of one cell, only when no node is ready: on the first
    unassigned cell of the lowest-index waiting node.  Every node below
    that one has been processed, so it is the cell a walk in node order
    would branch on in the same state, and every cut comes at the same
    point as in that walk or earlier.

    The forbidden mask is the union of the rejected nodes' reaches; the
    maximal final mask is its complement.  A branch is cut as soon as an
    accepted node's reach lies inside the forbidden mask.  Computed
    reaches never change and the forbidden mask only grows, so no table
    below the cut survives: the pruning is exact.  Once the mask is full,
    every reach lies inside it, so an accepted node processed already
    would have cut the branch; if the sample has an accepted node it is
    still to come and the branch is cut, and if it has none the branch is
    kept whole, with final mask 0 and no further cell assigned.  When no
    node is left to process, every cell no node read takes each of its
    values.

    The cost follows the number of branches and the nodes processed in
    them, not the table space.  It is largest when most tables survive
    the sample (nearly every word accepted): each survivor then processes
    the nodes that follow its last assigned cell.
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
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        kids[parents[i]].append(i)
    reach = [0] * n
    rejected_only = not any(accepts)
    found = []

    def settle(todo, waits, waiting, forbidden, accepted):
        # todo lists nodes whose parent is processed; it grows as they are.
        # waits[j] has bit i set when node i waits on cell j, and waiting
        # is the union of waits.  accepted has bit r set when some accepted
        # node so far has reach r.
        for i in todo:
            nm = 0
            for j in columns[reach[parents[i]] * s + symbols[i]]:
                c = cells[j]
                if c < 0:
                    waits[j] |= 1 << i
                    waiting |= 1 << i
                    break
                nm |= c
            else:
                reach[i] = nm
                if accepts[i]:
                    if inside[forbidden] >> nm & 1:
                        return
                    accepted |= 1 << nm
                elif nm & ~forbidden:
                    forbidden |= nm
                    if accepted & inside[forbidden]:
                        return
                    if forbidden == full:
                        if rejected_only:
                            found.append((tuple(cells), 0))
                        return
                todo.extend(kids[i])
        if not waiting:
            found.append((tuple(cells), full & ~forbidden))
            return
        i = (waiting & -waiting).bit_length() - 1
        for j in columns[reach[parents[i]] * s + symbols[i]]:
            if cells[j] < 0:
                break
        woken = waits[j]
        waits[j] = 0
        waiting &= ~woken
        nodes = []
        while woken:
            low = woken & -woken
            nodes.append(low.bit_length() - 1)
            woken ^= low
        for v in range(nvals):
            cells[j] = v
            settle(nodes[:], waits.copy(), waiting, forbidden, accepted)
        cells[j] = -1

    # The root's reach is {start}.
    reach[0] = 1
    if accepts[0]:
        settle(kids[0][:], [0] * (k * s), 0, 0, 1 << 1)
    else:
        settle(kids[0][:], [0] * (k * s), 0, 1, 0)

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
