"""Lower-bound machinery: fooling-set certificates, fooling-set search,
an exhaustive minimal-NFA oracle for tiny instances, and the certification
reports tying upper and lower bounds together.  The paper's fooling pairs
live beside the witness families they fool, in ``witnesses``."""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice

from . import _kernel
from .automata import (
    Nfa,
    _live_blocks,
    _minimal,
    _moore,
    _subset_dfa,
    accepts,  # no longer called here; the benchmark's tracer wraps it at this name
    alphabet,
    bits,
    canonical_dfa,
    gather,
    lambda_nfa,
    pred_rows,
    reachable_sets,
    remove_lambda,
    step,
    trim,
)
from .constructions import (
    complement_sf,
    concat_sf,
    intersect_sf,
    reverse_nfa,
    star_sf,
    union_sf,
)
from .errors import (
    BudgetExceeded,
    CertificateError,
    ParameterOutOfRange,
    SearchBudgetExceeded,
)
from .witnesses import Family, WitnessSpec, build, fooling_pairs


@dataclass(frozen=True)
class FoolingSet:
    """An ordered list of (x, w) label-string pairs.

    Verified against a language L it certifies that a minimal NFA for L
    needs at least ``len(pairs)`` states: every x_i w_i belongs to L and
    for i != j at least one cross product x_i w_j, x_j w_i does not.
    """

    pairs: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json_pairs(self) -> list[list[str]]:
        return [list(p) for p in self.pairs]


def _label_walker(rows, start: int, index: Callable[[str], int]) -> Callable[[str], int]:
    """``read(text)``: the state set reached from ``start`` by reading the
    label string ``text`` along ``rows``.  Each state set met keeps a row of
    its successors by label, and a label is looked up in the alphabet only
    for a step not taken before."""
    row_of: dict[int, dict[str, int]] = {}

    def read(text: str) -> int:
        mask = start
        for ch in text:
            row = row_of.get(mask)
            if row is None:
                row = row_of[mask] = {}
            nxt = row.get(ch)
            if nxt is None:
                nxt = row[ch] = step(rows, mask, index(ch))
            mask = nxt
        return mask

    return read


def verify_fooling_set(a: Nfa, p: FoolingSet) -> bool:
    """Check both fooling-set conditions against L(a).

    Each x is read forward from the start and each w backward from the
    finals of the lambda-free automaton, giving f_i, the states x_i reaches,
    and b_i, the states from which w_i reaches a final state; then x_i·w_j
    is in L(a) iff f_i & b_j is non-zero.  The walks keep one successor
    row per state set met, so a step already taken is read from a dict.  A
    label outside the alphabet raises ``ValueError``.

    Every pair needs f_i & b_i non-zero.  Then, with f_at[q] the pairs
    whose f holds state q and b_at[q] those whose b does, the union of
    b_at over f_i is the set of j with x_i·w_j in L(a), and the union of
    f_at over b_i the set of j with x_j·w_i in L(a).  The set is fooling
    iff their intersection is {i} for every i, which costs time linear in
    the states of the masks, not quadratic in the pairs.
    """
    a = remove_lambda(a)
    index = a.alphabet.index
    fwd = _label_walker(a.succ, 1 << a.start, index)
    bwd = _label_walker(pred_rows(a), a.final_mask, index)
    masks = [(fwd(x), bwd(w[::-1])) for x, w in p.pairs]
    if not all(f & b for f, b in masks):
        return False
    f_at = [0] * a.state_count
    b_at = [0] * a.state_count
    bit = 1
    for f, b in masks:
        while f:
            low = f & -f
            f_at[low.bit_length() - 1] |= bit
            f ^= low
        while b:
            low = b & -b
            b_at[low.bit_length() - 1] |= bit
            b ^= low
        bit <<= 1
    return all(
        gather(b_at, f) & gather(f_at, b) == 1 << i for i, (f, b) in enumerate(masks)
    )


def paper_fooling_set(family: Family, m: int, n: int | None = None) -> FoolingSet:
    """The paper's fooling set for the language whose bound ``family``
    witnesses, at (m, n): ``ParameterOutOfRange`` where ``WitnessSpec``
    refuses (m, n) or the paper gives the family no fooling set."""
    return FoolingSet(fooling_pairs(WitnessSpec(family, m, n)))


# The most matrix cells the exact clique search takes on.  It recurses once
# per clique member, so the cap has to stay below Python's recursion limit.
_CELL_CAP = 512
# The most nodes the cover search spends, a branch or a listed prime grid
# each, before it gives no answer.
_COVER_NODES = 20000


def _automaton_matrix(t: Nfa):
    """The automaton matrix of the trim lambda-free ``t`` (see
    ``search_fooling_set``), or ``SearchBudgetExceeded`` past _CELL_CAP
    cells: ``(rows, cols, cells, in_row, in_col, support)``, rows and
    columns as (word, state set), a column's word read backwards, cells as
    the (i, j) whose row and column meet, ``in_row[i]``, ``in_col[j]`` the
    bitmasks of the cells of row i and of column j, and ``support[i]`` the
    bitmask of the columns that row i meets."""
    # On a trim automaton every row and every column holds a cell, so more
    # than _CELL_CAP of either already exceeds the cap.
    rows = list(islice(reachable_sets(t.succ, 1 << t.start), _CELL_CAP + 1))
    cols = list(islice(reachable_sets(pred_rows(t), t.final_mask), _CELL_CAP + 1))
    # The cells are listed only once rows and columns are under the cap.
    if max(len(rows), len(cols)) > _CELL_CAP or len(
        cells := [(i, j) for i, (_, r) in enumerate(rows)
                  for j, (_, c) in enumerate(cols) if r & c]
    ) > _CELL_CAP:
        raise SearchBudgetExceeded(
            f"the automaton matrix has more than {_CELL_CAP} cells, the search cap")
    in_row = [0] * len(rows)
    in_col = [0] * len(cols)
    support = [0] * len(rows)
    for v, (i, j) in enumerate(cells):
        in_row[i] |= 1 << v
        in_col[j] |= 1 << v
        support[i] |= 1 << j
    return rows, cols, cells, in_row, in_col, support


def _fooling_cells(t: Nfa, limit: int | None):
    """The automaton matrix of the trim lambda-free ``t``, the cells of a
    maximum clique of compatible cells (see ``search_fooling_set``), and
    their verified fooling set, None when L(t) is empty."""
    matrix = rows, cols, cells, in_row, in_col, support = _automaton_matrix(t)
    if not cells:
        return matrix, [], None
    # Cell (i, j) clashes with the cells whose row meets column j and whose
    # column meets row i, which includes (i, j) itself.
    meets_col = [sum(in_row[i] for i, (_, r) in enumerate(rows) if r & c) for _, c in cols]
    meets_row = [gather(in_col, s) for s in support]
    full = (1 << len(cells)) - 1
    adj = [full & ~(meets_col[j] & meets_row[i]) for i, j in cells]
    fooling = [cells[v] for v in _max_clique_exact(adj, limit=limit)]
    text = t.alphabet.text
    fs = FoolingSet(tuple(
        (text(rows[i][0]), text(cols[j][0][::-1]))  # a column's word is read backwards
        for i, j in fooling
    ))
    if not verify_fooling_set(t, fs):
        raise CertificateError("search produced an unverifiable fooling set")
    return matrix, fooling, fs


def search_fooling_set(a: Nfa) -> FoolingSet | None:
    """The largest fooling set of L(a) over all words, or None when L(a) is
    empty, from the automaton matrix of Kameda and Weiner (1970).

    Rows are the state sets reachable from the start, columns the state
    sets from which a final state is reachable, each with the word that
    first reaches it.  x·w is in L(a) iff the row of x meets the column of
    w, so every fooling pair lies in a cell (r, c) with r & c non-zero, and
    two cells (r_i, c_i), (r_j, c_j) are compatible unless r_i & c_j and
    r_j & c_i are both non-zero.  A maximum clique of compatible cells is a
    maximum fooling set (Birget 1992); the clique search is exact.  The
    set is re-checked by ``verify_fooling_set`` before it is returned.
    """
    return _fooling_cells(trim(remove_lambda(a)), None)[2]


def _max_clique_exact(adj: list[int], *, limit: int | None = None) -> list[int]:
    """A maximum clique, ascending, by branch and bound over bitmasks.  The
    search returns as soon as its best clique has ``limit`` members.

    The first best clique is greedy: the highest candidate, then the
    highest one adjacent to every member so far.  The bound is the greedy
    colouring of Tomita and Seki's MCQ (DMTCS 2003).  The candidates are
    split into colour classes, each an independent set taken greedily in
    ascending vertex order, so a clique among the candidates of the first
    c classes has at most c members.  The search branches on the
    candidates from the last class back, dropping each one after its
    branch, and ends the loop at the first whose class number added to the
    clique cannot beat the best clique.
    """
    n = len(adj)
    goal = n if limit is None else limit
    best: list[int] = []
    cand = (1 << n) - 1
    while cand and len(best) < goal:
        v = cand.bit_length() - 1
        best.append(v)
        cand &= adj[v]
    if len(best) >= goal:
        return sorted(best)
    # apart[v]: the vertices that may share v's colour class.
    apart = [~(a | 1 << v) for v, a in enumerate(adj)]

    def expand(clique: list[int], cand_mask: int) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = clique
        classes = []
        uncoloured = cand_mask
        while uncoloured:
            free = uncoloured
            members = 0
            while free:
                low = free & -free
                free &= apart[low.bit_length() - 1]
                members |= low
            uncoloured ^= members
            classes.append(members)
        for colour in range(len(classes), 0, -1):
            members = classes[colour - 1]
            while members:
                if len(best) >= goal or len(clique) + colour <= len(best):
                    return
                v = members.bit_length() - 1
                members ^= 1 << v
                expand(clique + [v], cand_mask & adj[v])
                cand_mask ^= 1 << v

    expand([], (1 << n) - 1)
    return sorted(best)


def search_cover(t: Nfa, matrix, fooling: list[tuple[int, int]], target: Nfa) -> Nfa | None:
    """An NFA for L(t) with one state per cell of ``fooling``, the cells of
    a verified fooling set in ``matrix``, the automaton matrix of the trim
    lambda-free ``t`` (both from ``_fooling_cells``), or None when the
    search finds none within _COVER_NODES nodes.  ``target`` is the
    canonical DFA of L(t).

    The NFA is built from a cover of the automaton matrix by grids, as in
    Kameda and Weiner (1970), read as grids by Tamm (ICALP 2016).  A grid is
    a set of rows times a set of columns whose cells all meet; a prime grid
    is one that no other grid contains, and its columns are the
    intersection of its rows' supports.  Two cells of a fooling set never
    share a grid, so a cover by len(fooling) grids gives each fooling cell a
    grid of its own.  The search branches on the fooling cells, the one
    with the fewest prime grids through it first, picks one such grid for
    each, allows at most one grid that holds the row of the empty word, and
    cuts a branch once the grids left to it cannot cover every cell.  Each
    grid of a cover is a state: the start is the grid holding the empty
    word's row, the finals the grids holding its column, and a grid p steps
    to a grid q on x when every row of p has a non-empty x-successor and
    each is a row of q (the intersection rule).  The NFA is kept only if
    its canonical DFA equals ``target``, so whatever cover is tried, the
    answer is exact: an NFA of len(fooling) states meets the bound of that
    many pairs.
    """
    if not fooling:
        return None
    rows, _, cells, in_row, in_col, support = matrix
    sigma = t.alphabet.size
    row_of = {r: i for i, (_, r) in enumerate(rows)}
    # next_row[i][x]: the row that row i steps to on x, or -1 for the empty set.
    next_row = [[row_of.get(step(t.succ, r, x), -1) for x in range(sigma)]
                for _, r in rows]
    nodes = _COVER_NODES

    def spent() -> bool:
        nonlocal nodes
        nodes -= 1
        return nodes < 0

    def prime_grids(i: int, j: int) -> list[tuple[int, int, int]] | None:
        """The prime grids through cell (i, j) as bitmasks (cells, rows,
        columns), most cells first.  Their column sets are the support of
        row i cut by supports of rows through column j."""
        through = [s for s in support if s >> j & 1]
        found = [support[i]]
        seen = set(found)
        for c in found:  # grows as column sets are found
            for s in through:
                if (d := c & s) not in seen:
                    if spent():
                        return None
                    seen.add(d)
                    found.append(d)
        grids = []
        for c in found:
            in_rows = row_cells = col_cells = 0
            for r, s in enumerate(support):
                if s & c == c:
                    in_rows |= 1 << r
                    row_cells |= in_row[r]
            for col in bits(c):
                col_cells |= in_col[col]
            grids.append((row_cells & col_cells, in_rows, c))
        return sorted(grids, key=lambda g: -g[0].bit_count())

    options = []
    for i, j in fooling:
        grids = prime_grids(i, j)
        if grids is None:
            return None
        options.append(grids)
    options.sort(key=len)
    # reach[d]: the cells that the grids of options[d:] can cover.
    reach = [0] * (len(options) + 1)
    for d in range(len(options) - 1, -1, -1):
        reach[d] = reach[d + 1]
        for mask, _, _ in options[d]:
            reach[d] |= mask
    full = (1 << len(cells)) - 1
    chosen: list[tuple[int, int, int]] = []

    def build() -> Nfa:
        succ = []
        for _, from_rows, _ in chosen:
            row = []
            for x in range(sigma):
                nxt = {next_row[r][x] for r in bits(from_rows)}
                need = 0 if -1 in nxt else sum(1 << r for r in nxt)
                row.append(sum(1 << q for q, (_, to_rows, _) in enumerate(chosen)
                               if need and not need & ~to_rows))
            succ.append(tuple(row))
        # Row 0 is the empty word's and column 0 its column.
        start, = (p for p, (_, in_rows, _) in enumerate(chosen) if in_rows & 1)
        final_mask = sum(1 << p for p, (_, _, c) in enumerate(chosen) if c & 1)
        return Nfa(len(chosen), t.alphabet, start, final_mask, tuple(succ), (0,) * len(chosen))

    def cover(d: int, covered: int, has_start: int) -> Nfa | None:
        if spent() or covered | reach[d] != full:
            return None
        if d == len(options):
            nfa = build()
            return nfa if canonical_dfa(nfa) == target else None
        for grid in options[d]:
            starts = grid[1] & 1
            if starts and has_start:
                continue
            chosen.append(grid)
            found = cover(d + 1, covered | grid[0], has_start | starts)
            chosen.pop()
            if found is not None:
                return found
        return None

    return cover(0, 0, 0)


# Exhaustive search ceilings: the full table space (2^k)^(k * sigma) has to
# stay enumerable; beyond these the tool degrades to fooling sets only.
_TABLE_BUDGET = 1 << 24


def _default_ceiling(alphabet_size: int) -> int:
    return 3 if alphabet_size <= 2 else 2


def _sample_trie(alphabet_size: int, depth: int) -> tuple[list[int], list[int]]:
    """BFS word trie of every word of length <= depth: each node's parent
    index and edge symbol, the root first with -1 for both."""
    parents = [-1]
    symbols = [-1]
    level = [0]
    for _ in range(depth):
        nxt = []
        for node in level:
            for x in range(alphabet_size):
                parents.append(node)
                symbols.append(x)
                nxt.append(len(parents) - 1)
        level = nxt
    return parents, symbols


def _survivor_equivalent(cells, k: int, target: Nfa) -> bool:
    """Whether some final set makes the table ``cells`` (start state 0)
    accept L(target), for a complete target DFA.

    The walk visits the pairs (S, q) reachable from ({0}, {target.start}),
    S stepped along the cells and the one-bit q through the target; they do
    not depend on the final set F.  The candidate is equivalent iff S & F is
    non-zero exactly at the pairs whose q is final.  A pair with a non-final
    q forbids every state of S, and one with a final q needs a state of S
    outside the forbidden set; taking F as every state not forbidden, the
    candidate is equivalent iff any F makes it so.  A final q whose S is
    already forbidden ends the walk, as the forbidden set only grows."""
    s = target.alphabet.size
    rows = [cells[st * s:(st + 1) * s] for st in range(k)]
    succ, final_mask = target.succ, target.final_mask
    pair = (1, 1 << target.start)
    seen = {pair}
    queue = [pair]
    forbidden = 0
    needs = []
    for states, q in queue:  # grows as pairs are discovered: a BFS queue
        if q & final_mask:
            if not states & ~forbidden:
                return False
            needs.append(states)
        else:
            forbidden |= states
        for x, r in enumerate(succ[q.bit_length() - 1]):
            pair = (step(rows, states, x), r)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return all(states & ~forbidden for states in needs)


def nsc_exhaustive(a: Nfa, max_states: int) -> int | None:
    """Least k <= max_states with a k-state lambda-free NFA with one start
    state for L(a), or None when every such NFA has more states.

    The trimmed lambda-free input and the canonical DFA without its dead
    state are such NFAs; the smaller of their sizes, the stop, is the
    answer unless a smaller size works.  The canonical DFA is built in the
    stages of ``canonical_dfa``: the subset table, its Moore blocks, and
    the numbering of the blocks into an ``Nfa``.  The first two always run,
    and the live states are counted on the blocks (``_live_blocks``); the
    numbering runs once, only when a cover is tried or a size is left to
    enumerate.  Three floors rule sizes out: every k with 2^k - 1 below the
    live states of the minimal DFA, since a k-state NFA reaches at most
    2^k - 1 non-empty state sets and each live state is the language of one
    of them (the subset floor, which settles live <= 2 at once, before any
    automaton is built);
    every k up to the length of the shortest accepted word, read off the
    first final set of ``reachable_sets`` on the trimmed input; and every k
    below a verified fooling set, searched once on the trimmed input with a
    limit of min(stop, max_states + 1) pairs, and none past its cell cap; a
    set above the stop raises ``CertificateError``.  When the fooling set is
    the largest floor and below the stop, ``search_cover`` may meet it with
    an NFA of that size, from the clique's cells in the same automaton
    matrix and the canonical DFA numbered from the blocks.  The sizes left
    below the stop are enumerated: tables are filtered against all words of
    length <= 2k, labeled by walking the canonical DFA, and each survivor is
    decided by one walk of its product with that DFA
    (``_survivor_equivalent``).  The state ceiling and the table budget
    apply only to a size about to be enumerated, and a table search that
    reaches the survivor cap raises ``BudgetExceeded`` rather than answer
    from a list that may be truncated.
    """
    sigma = a.alphabet.size
    table, final = _subset_dfa(a)
    block = _moore(table, final)
    live = _live_blocks(table, final, block)
    # The subset floor: every k < live.bit_length() has 2^k - 1 < live.  It
    # is live itself for live <= 2, and the live states are then minimal.
    low = live.bit_length()
    if low == live:
        return live if live <= max_states else None
    trimmed = trim(remove_lambda(a))
    known = min(trimmed.state_count, live)
    # The breadth-first walk meets the sets in length-lexicographic order
    # of their words, so the first final one is a shortest accepted word's.
    shortest = next((len(w) for w, states in reachable_sets(trimmed.succ, 1 << trimmed.start)
                     if states & trimmed.final_mask), None)
    if shortest is not None:
        low = max(low, shortest + 1)
    target = None
    if low < known and low <= max_states:
        try:
            matrix, fooling, fs = _fooling_cells(trimmed, min(known, max_states + 1))
        except SearchBudgetExceeded:
            fs = None
        # ``known`` is the size of an NFA for L(a), so a larger set is a
        # contradiction.
        if fs is not None and len(fs) > known:
            raise CertificateError(
                f"a fooling set of {len(fs)} pairs exceeds an NFA of {known} states"
            )
        if fs is not None and len(fs) >= low:
            low = len(fs)
            if low < known and low <= max_states:
                target = _minimal(a.alphabet, table, final, block)
                if search_cover(trimmed, matrix, fooling, target) is not None:
                    return low
    sizes = range(low, min(known, max_states + 1))
    if sizes and target is None:
        target = _minimal(a.alphabet, table, final, block)
    ceiling = _default_ceiling(sigma)
    for k in sizes:
        if k > ceiling:
            raise BudgetExceeded(
                f"the table search for k={k} exceeds the ceiling {ceiling} "
                f"for a {sigma}-symbol alphabet"
            )
        if (1 << k) ** (k * sigma) > _TABLE_BUDGET:
            raise BudgetExceeded(f"table space for k={k} exceeds the budget")
        parents, symbols = _sample_trie(sigma, 2 * k)
        # Each trie node's target state, from its parent's; the target is
        # equivalent to a, so the node's word is in L(a) iff it is final.
        state = [1 << target.start]
        for i in range(1, len(parents)):
            state.append(step(target.succ, state[parents[i]], symbols[i]))
        labels = [bool(q & target.final_mask) for q in state]
        survivors = _kernel.filter_tables(k, sigma, parents, symbols, labels)
        if len(survivors) >= _kernel.SURVIVOR_CAP:
            raise BudgetExceeded(
                f"the table search for k={k} kept {_kernel.SURVIVOR_CAP} survivors, "
                "its cap"
            )
        if any(_survivor_equivalent(cells, k, target) for cells, _ in survivors):
            return k
    return known if known <= max_states else None


class Operation(enum.Enum):
    UNION = "union"
    CATENATION = "catenation"
    INTERSECTION = "intersection"
    STAR = "star"
    REVERSAL = "reversal"
    COMPLEMENTATION = "complementation"


class LowerBoundKind(enum.Enum):
    FOOLING_SET = "FoolingSet"
    NONE = "None"


@dataclass(frozen=True)
class ComplexityReport:
    operation: Operation
    m: int
    n: int | None
    constructed_size: int
    lower_bound: int
    lower_bound_kind: LowerBoundKind
    formula_value: int
    tight: bool
    fooling_set: FoolingSet | None = None
    note: str | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "operation": self.operation.value,
            "m": self.m,
            "n": self.n,
            "constructed": self.constructed_size,
            "lower_bound": self.lower_bound,
            "lower_bound_kind": self.lower_bound_kind.value,
            "formula_value": self.formula_value,
            "tight": self.tight,
            "fooling_set": self.fooling_set.to_json_pairs() if self.fooling_set else None,
            "note": self.note,
        }


# The lower-bound methods of an operation: the paper's fooling set of its
# witness family, or the exact fooling-set search over the automaton matrix.
PAPER = "paper"
SEARCH = "search"


@dataclass(frozen=True)
class OperationSpec:
    """One operation of the paper's summary table.  ``lower`` is ``PAPER``
    (the operation is then expected TIGHT), ``SEARCH`` or None.
    ``construct(*operands, strict)`` looks the construction up among this
    module's globals at call time, so a rebinding of them is seen."""

    witness: Family
    construct: Callable[..., Nfa]
    formula: Callable[[int, int | None], int]
    formula_text: str
    lower: str | None
    note: str | None = None
    lambda_at_m1: bool = False  # {λ} stands in below the family's minimum m

    @property
    def binary(self) -> bool:
        return self.witness.is_pair

    @property
    def min_m(self) -> int:
        """Least m: 1 where {λ} stands in, else the witness family's."""
        return 1 if self.lambda_at_m1 else self.witness.min_m

    @property
    def expects_tight(self) -> bool:
        return self.lower == PAPER


# In the order of the paper's summary table.
OPERATIONS: dict[Operation, OperationSpec] = {
    Operation.CATENATION: OperationSpec(
        Family.CONCAT_PAIR, lambda a, b, strict: concat_sf(a, b, strict=strict),
        lambda m, n: m + n - 1, "m+n-1", PAPER),
    Operation.UNION: OperationSpec(
        Family.UNION_PAIR, lambda a, b, strict: union_sf(a, b, strict=strict),
        lambda m, n: m + n - 1, "m+n-1", PAPER),
    Operation.INTERSECTION: OperationSpec(
        Family.INTERSECT_PAIR, lambda a, b, strict: intersect_sf(a, b, strict=strict),
        lambda m, n: m * n - (m + n) + 2, "mn-(m+n)+2", PAPER),
    Operation.STAR: OperationSpec(
        Family.STAR, lambda a, strict: star_sf(a, strict=strict),
        lambda m, n: m, "m", PAPER, lambda_at_m1=True),
    Operation.REVERSAL: OperationSpec(
        Family.REVERSAL, lambda a, strict: reverse_nfa(a, strict=strict),
        lambda m, n: m + 1, "m+1", SEARCH,
        note="m+1 lower bound paper-proved, not machine-certified"),
    Operation.COMPLEMENTATION: OperationSpec(
        Family.LEMMA_L1, lambda a, strict: complement_sf(a, strict=strict),
        lambda m, n: 2 ** (m - 1) + 1, "2^(m-1)+1", None,
        note="2^(m-1)-1 lower bound needs an external witness family"),
}


def formula_value(op: Operation, m: int, n: int | None) -> int:
    return OPERATIONS[op].formula(m, n)


def certify(op: Operation, m: int, n: int | None = None, seed: int = 0) -> ComplexityReport:
    """Build witnesses, apply the construction, and certify the result's
    state complexity against the per-operation formula.  Unary operations
    ignore ``n``.  ``seed`` is still accepted but has no effect: the
    fooling-set search is exact and deterministic."""
    spec = OPERATIONS[op]
    if not spec.binary:
        n = None
    elif n is None:
        raise ParameterOutOfRange(f"{op.value} requires n")
    paper = None
    if m == spec.min_m < spec.witness.min_m:
        # {λ}, fooled by its one pair (λ, λ).
        operands, paper = (lambda_nfa(alphabet("ab")),), FoolingSet((("", ""),))
    else:
        built = build(WitnessSpec(spec.witness, m, n))
        operands = built if spec.binary else (built,)
    # After the build, which refuses an m or n whose formula could be huge.
    formula = spec.formula(m, n)
    result = spec.construct(*operands, strict=False)
    fs = None
    if spec.lower == PAPER:
        fs = paper or paper_fooling_set(spec.witness, m, n)
        fs = fs if verify_fooling_set(result, fs) else None
    elif spec.lower == SEARCH:
        fs = search_fooling_set(result)
    lower = len(fs) if fs else 0
    return ComplexityReport(
        op, m, n, result.state_count, lower,
        LowerBoundKind.FOOLING_SET if fs else LowerBoundKind.NONE,
        formula, spec.expects_tight and lower == result.state_count == formula,
        fooling_set=fs, note=spec.note,
    )
