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

from heapq import merge
from itertools import islice, product

IMPL = "pure"
# The most survivors ``filter_tables`` returns; a search that keeps this
# many may have dropped some.
SURVIVOR_CAP = 200000


def filter_tables(num_states, num_symbols, parents, symbols, accepts):
    """Return ``[(cells, finals_mask), ...]`` for every sample-consistent
    transition table, in ascending table-encoding order: the first
    ``SURVIVOR_CAP`` of them, read at call time, and no table past those
    is built.

    ``parents``/``symbols``/``accepts`` describe the word trie in BFS order
    with the root (the empty word) at index 0.

    A propagating depth-first search assigns cells one at a time.  A node
    is processed as soon as its reach is known: its parent has been
    processed and every cell it reads is assigned.  A node that reads an
    unassigned cell waits on the first such cell, and assigning the cell
    looks again at its waiting nodes only.  The search branches, over the
    2^k values of one cell, only when no node is ready: on the first
    unassigned cell of the lowest-index waiting node.  Every node below
    that one has been processed or has reach 0, so it is the cell a walk in
    node order would branch on in the same state, and every cut comes at
    the same point as in that walk or earlier.

    The forbidden mask is the union of the rejected nodes' reaches; the
    maximal final mask is its complement.  A rejected node that waits has
    already read some assigned cells, and its reach will hold their
    values, so they join the forbidden mask before any leaf.  They are
    kept as the pending reach, and ``blocked`` is the forbidden mask with
    the pending reach added; it is used only for cuts.  An accepted node
    that waits adds nothing.  A branch is cut as soon as an accepted
    node's reach lies inside ``blocked``, checked when an accepted node is
    processed and whenever ``blocked`` grows.  Computed reaches and
    assigned cells never change below a branch point and ``blocked`` only
    grows, so no table below the cut survives: the pruning is exact.  At
    a leaf every waiting node has been processed, so ``blocked`` equals
    the forbidden mask there.  Once the forbidden mask is full, every
    reach lies inside it, so an accepted node processed already would have
    cut the branch; if the sample has an accepted node it is still to come
    and the branch is cut, and if it has none the branch is kept whole,
    with final mask 0 and no further cell assigned.

    A node with reach 0 reads no cell, and neither does any node below it,
    so its whole subtree has reach 0.  ``live[i]`` holds when some node of
    i's subtree, i included, is accepted.  Such an accepted node can never
    reach a final state, so the branch is cut; otherwise the subtree is
    skipped without processing it.  When no node is left to process, every
    cell no node read takes each of its values.

    The cost follows the number of branches and the nodes processed in
    them, not the table space.  It is largest when most tables survive
    the sample (nearly every word accepted): each survivor then processes
    the nodes that follow its last assigned cell.
    """
    k, s = num_states, num_symbols
    nvals = 1 << k
    full = nvals - 1
    n = len(parents)
    # inside[f] has bit r set for every reach mask r that lies inside f, and
    # columns[x][r] lists the cells that state set r reads on symbol x; both
    # double with each state added.
    inside = [1]
    columns = [[()] for _ in range(s)]
    for st in range(k):
        inside += [f | f << (1 << st) for f in inside]
        for x, col in enumerate(columns):
            col += [cs + (st * s + x,) for cs in col]
    cells = [-1] * (k * s)
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        kids[parents[i]].append(i)
    # by_reach[i][r]: the cells node i reads when its parent's reach is r.
    by_reach = list(map(columns.__getitem__, symbols))
    reach = [0] * n
    # live[i]: some node of i's subtree, i included, is accepted.  A parent
    # comes before its children in BFS order.
    live = list(accepts)
    for i in range(n - 1, 0, -1):
        if live[i]:
            live[parents[i]] = True
    rejected_only = not any(accepts)
    found = []

    def settle(todo, waits, waiting, forbidden, blocked, accepted):
        # todo lists nodes whose parent is processed; it grows as they are.
        # waits[j] has bit i set when node i waits on cell j, and waiting
        # is the union of waits.  blocked is forbidden joined with the
        # pending reach: the assigned cells that rejected waiting nodes
        # read.  accepted has bit r set when some accepted node so far has
        # reach r.
        for i in todo:
            nm = 0
            for j in by_reach[i][reach[parents[i]]]:
                c = cells[j]
                if c < 0:
                    break
                nm |= c
            else:
                if not nm:
                    # Every node below has reach 0 too.
                    if live[i]:
                        return
                    continue
                reach[i] = nm
                if accepts[i]:
                    if inside[blocked] >> nm & 1:
                        return
                    accepted |= 1 << nm
                elif nm & ~forbidden:
                    forbidden |= nm
                    if nm & ~blocked:
                        blocked |= nm
                        if accepted & inside[blocked]:
                            return
                    if forbidden == full:
                        if rejected_only:
                            found.append((tuple(cells), 0))
                        return
                todo.extend(kids[i])
                continue
            # Node i waits on cell j, its first unassigned one.
            waits[j] |= 1 << i
            waiting |= 1 << i
            if not accepts[i]:
                for j in by_reach[i][reach[parents[i]]]:
                    c = cells[j]
                    if c > 0:
                        nm |= c
                if nm & ~blocked:
                    blocked |= nm
                    if accepted & inside[blocked]:
                        return
        if not waiting:
            found.append((tuple(cells), full & ~forbidden))
            return
        i = (waiting & -waiting).bit_length() - 1
        for j in by_reach[i][reach[parents[i]]]:
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
            settle(nodes[:], waits.copy(), waiting, forbidden, blocked, accepted)
        cells[j] = -1

    # The root's reach is {start}.
    reach[0] = 1
    if accepts[0]:
        settle(kids[0][:], [0] * (k * s), 0, 0, 0, 1 << 1)
    else:
        settle(kids[0][:], [0] * (k * s), 0, 1, 1, 0)

    def expand(partial, finals):
        # Every value of each unassigned cell, the most significant (last)
        # cell slowest, so the tables come out in ascending encoding order.
        free = [j for j, c in enumerate(partial) if c < 0][::-1]
        table = list(partial)
        for values in product(range(nvals), repeat=len(free)):
            for j, v in zip(free, values):
                table[j] = v
            yield tuple(table), finals

    # Two leaves differ in an assigned cell, so their tables are disjoint:
    # the leaves with no unassigned cell, one table each, are sorted into
    # one merge input (a dense sample leaves about 150,000 of them, too
    # many to merge one by one), each other leaf's expansions are another,
    # and the merge stops after SURVIVOR_CAP tables.  Reversed cells compare
    # like encodings: the last cell is most significant.
    def key(survivor):
        return survivor[0][::-1]

    whole = sorted((leaf for leaf in found if -1 not in leaf[0]), key=key)
    expanded = [expand(*leaf) for leaf in found if -1 in leaf[0]]
    return list(islice(merge(whole, *expanded, key=key), SURVIVOR_CAP))
