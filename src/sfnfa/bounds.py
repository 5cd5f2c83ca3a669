"""Lower-bound machinery: fooling-set certificates, fooling-set search,
an exhaustive minimal-NFA oracle for tiny instances, and the certification
reports tying upper and lower bounds together."""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice

from . import _kernel
from .automata import (
    Dfa,
    Nfa,
    accepts,  # no longer called here; the benchmark's tracer wraps it at this name
    alphabet,
    canonical_dfa,
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
from .witnesses import Family, WitnessSpec, build


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
    # at[q] = (f_at[q], b_at[q]), so step(at, mask, 1) is the union of b_at
    # over mask and step(at, mask, 0) that of f_at.
    at = list(zip(f_at, b_at))
    return all(
        step(at, f, 1) & step(at, b, 0) == 1 << i for i, (f, b) in enumerate(masks)
    )


class FoolingFamily(enum.Enum):
    LEMMA_L1 = "lemma-l1"
    LEMMA_L2 = "lemma-l2"
    UNION = "union"
    CATENATION = "catenation"
    INTERSECTION = "intersection"
    STAR = "star"


def paper_fooling_set(family: FoolingFamily, m: int, n: int | None = None) -> FoolingSet:
    """The explicit symbolic fooling-set family for each tight operation,
    instantiated at (m, n)."""
    def need(cond, msg):
        if not cond:
            raise ParameterOutOfRange(msg)

    if family is FoolingFamily.LEMMA_L1:
        need(m >= 2, "lemma-l1 needs m >= 2")
        pairs = [("", "b")] + [("b" + "a" * i, "a" * (m - 1 - i)) for i in range(m - 1)]
    elif family is FoolingFamily.LEMMA_L2:
        need(m >= 3, "lemma-l2 needs m >= 3")
        pairs = [("", "bb")]
        pairs += [("b" + "a" * i, "a" * (m - 2 - i) + "b") for i in range(m - 2)]
        pairs += [("b" + "a" * (m - 2) + "b", "")]
    elif family is FoolingFamily.UNION:
        need(m >= 2 and n is not None and n >= 2, "union needs m, n >= 2")
        pairs = [("", "b" + "a" * (m - 1))]
        pairs += [("b" + "a" * i, "a" * (m - 1 - i)) for i in range(m - 1)]
        pairs += [("a" + "b" * j, "b" * (n - 1 - j)) for j in range(n - 1)]
    elif family is FoolingFamily.CATENATION:
        need(m >= 2 and n is not None and n >= 2, "catenation needs m, n >= 2")
        total = m + n - 2
        pairs = [("a" * i, "a" * (total - i)) for i in range(total + 1)]
    elif family is FoolingFamily.INTERSECTION:
        need(m >= 2 and n is not None and n >= 2, "intersection needs m, n >= 2")
        pairs = [("", "c")]
        for i in range(1, m):
            for j in range(1, n):
                pairs.append(
                    ("c" + "a" * i + "b" * j, "a" * (m - 1 - i) + "b" * (n - 1 - j))
                )
    elif family is FoolingFamily.STAR:
        if m == 1:
            pairs = [("", "")]
        else:
            pairs = [("", "b")] + [
                ("b" + "a" * i, "a" * (m - 1 - i)) for i in range(m - 1)
            ]
    else:
        raise ParameterOutOfRange(f"unknown fooling family: {family}")
    return FoolingSet(tuple(pairs))


# The most matrix cells the exact clique search takes on.  It recurses once
# per clique member, so the cap has to stay below Python's recursion limit.
_CELL_CAP = 512


def search_fooling_set(a: Nfa, *, limit: int | None = None) -> FoolingSet | None:
    """The largest fooling set of L(a) over all words, or None when L(a) is
    empty, from the reduced automaton matrix of Kameda and Weiner (1970).
    With a ``limit`` >= 1 it returns the first set of ``limit`` pairs the
    clique search reaches, so a set of min(limit, maximum) pairs.

    Rows are the state sets reachable from the start, columns the state
    sets from which a final state is reachable, each with the word that
    first reaches it.  x·w is in L(a) iff the row of x meets the column of
    w, so every fooling pair lies in a cell (r, c) with r & c non-zero, and
    two cells (r_i, c_i), (r_j, c_j) are compatible unless r_i & c_j and
    r_j & c_i are both non-zero.  A maximum clique of compatible cells is a
    maximum fooling set (Birget 1992); the clique search is exact.  The
    set is re-checked by ``verify_fooling_set`` before it is returned.
    """
    t = trim(remove_lambda(a))
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
            f"the automaton matrix has more than {_CELL_CAP} cells, the search cap",
            best_size=1,
        )
    if not cells:
        return None

    # Cell (i, j) clashes with the cells whose row meets column j and whose
    # column meets row i, which includes (i, j) itself.
    in_row = [0] * len(rows)
    in_col = [0] * len(cols)
    for v, (i, j) in enumerate(cells):
        in_row[i] |= 1 << v
        in_col[j] |= 1 << v
    meets_col = [sum(in_row[i] for i, (_, r) in enumerate(rows) if r & c) for _, c in cols]
    meets_row = [sum(in_col[j] for j, (_, c) in enumerate(cols) if r & c) for _, r in rows]
    full = (1 << len(cells)) - 1
    adj = [full & ~(meets_col[j] & meets_row[i]) for i, j in cells]

    text = a.alphabet.text
    fs = FoolingSet(tuple(
        (text(rows[i][0]), text(cols[j][0][::-1]))  # a column's word is read backwards
        for i, j in map(cells.__getitem__, _max_clique_exact(adj, limit=limit))
    ))
    if not verify_fooling_set(a, fs):
        raise CertificateError("search produced an unverifiable fooling set")
    return fs


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


# Exhaustive search ceilings: the full table space (2^k)^(k * sigma) has to
# stay enumerable; beyond these the tool degrades to fooling sets only.
_TABLE_BUDGET = 1 << 24
# A table search that keeps this many survivors may have dropped some.
_SURVIVOR_CAP = 200000


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


def _survivor_equivalent(cells, k: int, target: Dfa) -> bool:
    """Whether some final set makes the table ``cells`` (start state 0)
    accept L(target), for a complete target DFA.

    The walk visits the pairs (S, q) reachable from ({0}, target.start),
    where S steps along the cell masks and q through the target; the pairs
    do not depend on the final set F.  The candidate is equivalent iff
    S & F is non-zero exactly at the pairs whose q is final.  A pair with a
    non-final q forbids every state of S, and a pair with a final q needs
    one state of S outside the forbidden set; taking F as every state not
    forbidden, the candidate is equivalent iff any F makes it so.  A pair
    with a final q whose S is already inside the forbidden set ends the
    walk, as the forbidden set only grows."""
    s = target.alphabet.size
    rows = [cells[st * s:(st + 1) * s] for st in range(k)]
    table, finals = target.table, target.finals
    pair = (1, target.start)
    seen = {pair}
    queue = [pair]
    forbidden = 0
    needs = []
    for states, q in queue:  # grows as pairs are discovered: a BFS queue
        if q in finals:
            if not states & ~forbidden:
                return False
            needs.append(states)
        else:
            forbidden |= states
        for x, r in enumerate(table[q]):
            pair = (step(rows, states, x), r)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return all(states & ~forbidden for states in needs)


def _shortest_accepted_length(d: Dfa) -> int | None:
    """The BFS depth of the final state nearest d's start: the length of
    the shortest accepted word, or None for the empty language."""
    seen = {d.start}
    level = [d.start]
    depth = 0
    while level:
        if not d.finals.isdisjoint(level):
            return depth
        nxt = []
        for q in level:
            for r in d.table[q]:
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        level = nxt
        depth += 1
    return None


def _fooling_floor(a: Nfa, known: int, max_states: int) -> int:
    """The size of a verified fooling set of L(a), at most
    min(known, max_states + 1), or 0 past the search's cell cap.  ``known``
    is the size of an NFA for L(a), so a larger set is a contradiction."""
    try:
        fs = search_fooling_set(a, limit=min(known, max_states + 1))
    except SearchBudgetExceeded:
        return 0
    floor = len(fs) if fs else 0
    if floor > known:
        raise CertificateError(
            f"a fooling set of {floor} pairs exceeds an NFA of {known} states"
        )
    return floor


def nsc_exhaustive(a: Nfa, max_states: int) -> int | None:
    """Least k <= max_states with a k-state lambda-free NFA equivalent to
    L(a), by exhaustive enumeration with start fixed at state 0.

    Two such NFAs are already at hand: the trimmed lambda-free input, and
    the canonical DFA without its dead state.  The search stops at the
    smaller of their sizes, so only smaller sizes are enumerated and an
    input that is already minimal never has its own size searched.  Every
    NFA for L(a) has at least as many states as a fooling set has pairs,
    so sizes below a verified fooling set (the floor) are skipped too.  A
    k-state NFA with a non-empty language accepts a word of length at most
    k - 1, so every k up to the length of the shortest accepted word, read
    off the canonical DFA, is skipped as well.  The floor is searched once,
    on the trimmed lambda-free input, which the search then takes as it
    is, before the first k >= 2 to be enumerated, and with a limit of
    min(stop, max_states + 1) pairs, which bounds the clique search; a
    search over its cell cap gives no floor.  The remaining sizes are
    enumerated: candidate tables are filtered against all words of length
    <= 2k, labeled by walking the canonical DFA, by the propagating table
    search, and each survivor is decided by one walk of its product with
    the canonical DFA, which finds the largest final set that can work and
    checks it (``_survivor_equivalent``).  The table budget is
    checked at every k up to and including the stop, and a table search
    that reaches the survivor cap raises ``BudgetExceeded`` rather than
    answer from a list that may be truncated.
    """
    sigma = a.alphabet.size
    ceiling = _default_ceiling(sigma)
    if max_states > ceiling:
        raise BudgetExceeded(
            f"max_states {max_states} exceeds the ceiling {ceiling} for a "
            f"{sigma}-symbol alphabet"
        )
    target = canonical_dfa(a)
    live = max(target.state_count - (target.sink is not None), 1)
    trimmed = trim(remove_lambda(a))
    known = min(trimmed.state_count, live)
    shortest = _shortest_accepted_length(target)
    floor = None
    for k in range(1, max_states + 1):
        if (1 << k) ** (k * sigma) > _TABLE_BUDGET:
            raise BudgetExceeded(f"table space for k={k} exceeds the budget")
        if k == known:
            return k
        if shortest is not None and k <= shortest:
            continue
        if k >= 2:
            if floor is None:
                floor = _fooling_floor(trimmed, known, max_states)
            if k < floor:
                continue
        parents, symbols = _sample_trie(sigma, 2 * k)
        # Each trie node's target state, from its parent's; the target is
        # equivalent to a, so the node's word is in L(a) iff it is final.
        state = [target.start]
        for i in range(1, len(parents)):
            state.append(target.table[state[parents[i]]][symbols[i]])
        labels = [q in target.finals for q in state]
        survivors = _kernel.filter_tables(
            k, sigma, parents, symbols, labels, cap=_SURVIVOR_CAP
        )
        if len(survivors) >= _SURVIVOR_CAP:
            raise BudgetExceeded(
                f"the table search for k={k} kept {_SURVIVOR_CAP} survivors, "
                "its cap"
            )
        if any(_survivor_equivalent(cells, k, target) for cells, _ in survivors):
            return k
    return None


class Operation(enum.Enum):
    UNION = "union"
    CATENATION = "catenation"
    INTERSECTION = "intersection"
    STAR = "star"
    REVERSAL = "reversal"
    COMPLEMENTATION = "complementation"


class LowerBoundKind(enum.Enum):
    FOOLING_SET = "FoolingSet"
    EXHAUSTIVE = "Exhaustive"
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


# The lower-bound method of an operation without a paper fooling family:
# the exact fooling-set search over the reduced automaton matrix.
SEARCH = "search"


@dataclass(frozen=True)
class OperationSpec:
    """One operation of the paper's summary table.  ``lower`` is a paper
    fooling family (the operation is then expected TIGHT), ``SEARCH`` or
    None.  ``construct(*operands, strict)`` looks the construction up among
    this module's globals at call time, so a rebinding of them is seen."""

    witness: Family
    construct: Callable[..., Nfa | Dfa]
    formula: Callable[[int, int | None], int]
    formula_text: str
    lower: FoolingFamily | str | None
    note: str | None = None
    lambda_at_m1: bool = False  # {λ} stands in below the family's minimum m

    @property
    def binary(self) -> bool:
        return self.witness.is_pair

    @property
    def expects_tight(self) -> bool:
        return isinstance(self.lower, FoolingFamily)


# In the order of the paper's summary table.
OPERATIONS: dict[Operation, OperationSpec] = {
    Operation.CATENATION: OperationSpec(
        Family.CONCAT_PAIR, lambda a, b, strict: concat_sf(a, b, strict=strict),
        lambda m, n: m + n - 1, "m+n-1", FoolingFamily.CATENATION),
    Operation.UNION: OperationSpec(
        Family.UNION_PAIR, lambda a, b, strict: union_sf(a, b, strict=strict),
        lambda m, n: m + n - 1, "m+n-1", FoolingFamily.UNION),
    Operation.INTERSECTION: OperationSpec(
        Family.INTERSECT_PAIR, lambda a, b, strict: intersect_sf(a, b, strict=strict),
        lambda m, n: m * n - (m + n) + 2, "mn-(m+n)+2", FoolingFamily.INTERSECTION),
    Operation.STAR: OperationSpec(
        Family.STAR, lambda a, strict: star_sf(a, strict=strict),
        lambda m, n: m, "m", FoolingFamily.STAR, lambda_at_m1=True),
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
    formula = spec.formula(m, n)
    if spec.lambda_at_m1 and m == 1:
        operands = (lambda_nfa(alphabet("ab")),)
    else:
        built = build(WitnessSpec(spec.witness, m, n))
        operands = built if spec.binary else (built,)
    result = spec.construct(*operands, strict=False)
    fs = None
    if isinstance(spec.lower, FoolingFamily):
        fs = paper_fooling_set(spec.lower, m, n)
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
