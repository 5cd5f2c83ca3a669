"""Core automata representations and algorithms.

States are dense integer indices ``0 .. state_count-1``; a set of states is
an int bitmask with bit q for state q.  An ``Nfa`` is a frozen set of
``(src, symbol, dst)`` triples (``symbol`` an alphabet index, or ``None`` for
a lambda edge), indexed as successor masks.  All values are immutable, so
automata can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Word = tuple[int, ...]
LAMBDA = None


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of single-character symbol labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("alphabet labels must be distinct")
        for lab in self.labels:
            if len(lab) != 1:
                raise ValueError(f"alphabet label must be one character: {lab!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"symbol {label!r} not in alphabet {self.labels}") from None

    def word(self, text: str) -> Word:
        """Parse a label string into a word of symbol indices."""
        return tuple(self.index(ch) for ch in text)

    def text(self, word: Word) -> str:
        labels = self.labels
        return "".join([labels[i] for i in word])


def alphabet(labels: str) -> Alphabet:
    """Shorthand: ``alphabet("ab")`` builds the two-letter alphabet a, b."""
    return Alphabet(tuple(labels))


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton, possibly with lambda edges.
    Derived, not compared: ``succ[q][x]`` and ``lam[q]`` are the successor
    masks of state q on symbol x and on lambda, ``final_mask`` the finals."""

    state_count: int
    alphabet: Alphabet
    start: int
    finals: frozenset[int]
    transitions: frozenset[tuple[int, int | None, int]]
    succ: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    lam: tuple[int, ...] = field(init=False, repr=False, compare=False)
    final_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k = self.state_count, self.alphabet.size
        if n <= 0:
            raise ValueError("state_count must be positive")
        if not 0 <= self.start < n:
            raise ValueError("start state out of range")
        final_mask = 0
        for q in self.finals:
            if not 0 <= q < n:
                raise ValueError("final state out of range")
            final_mask |= 1 << q
        succ = [[0] * k for _ in range(n)]
        lam = [0] * n
        for src, sym, dst in self.transitions:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError("transition endpoint out of range")
            if sym is None:
                lam[src] |= 1 << dst
            elif 0 <= sym < k:
                succ[src][sym] |= 1 << dst
            else:
                raise ValueError("transition symbol out of range")
        object.__setattr__(self, "succ", tuple(map(tuple, succ)))
        object.__setattr__(self, "lam", tuple(lam))
        object.__setattr__(self, "final_mask", final_mask)

    @property
    def has_lambda(self) -> bool:
        return any(self.lam)


def bits(mask: int):
    """The states of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def step(rows, mask: int, x: int) -> int:
    """The union of ``rows[q][x]`` over the states q of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1][x]
        mask ^= low
    return out


def make_nfa(states, labels, start, finals, edges) -> Nfa:
    """Build an Nfa from label-string edges ``(src, "a"|None, dst)``."""
    alpha = Alphabet(tuple(labels))
    trans = frozenset(
        (src, None if sym is None else alpha.index(sym), dst) for src, sym, dst in edges
    )
    return Nfa(states, alpha, start, frozenset(finals), trans)


def empty_nfa(alpha: Alphabet) -> Nfa:
    """The canonical automaton for the empty language."""
    return Nfa(1, alpha, 0, frozenset(), frozenset())


def lambda_nfa(alpha: Alphabet) -> Nfa:
    """The one-state automaton for {lambda}."""
    return Nfa(1, alpha, 0, frozenset({0}), frozenset())


def _reach(adj, mask: int) -> int:
    """The states reachable from ``mask`` along ``adj``, where ``adj[q]`` is
    the mask of q's successors."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        new = adj[low.bit_length() - 1] & ~mask
        mask |= new
        todo |= new
    return mask


def remove_lambda(a: Nfa) -> Nfa:
    """Equivalent lambda-free NFA on the same state set.

    delta'(p, x) is the union of delta(q, x) over the closure of p, and p
    becomes final when its closure meets the final set.
    """
    if not a.has_lambda:
        return a
    trans = set()
    finals = set()
    for p in range(a.state_count):
        closure = _reach(a.lam, 1 << p)
        if closure & a.final_mask:
            finals.add(p)
        for x in range(a.alphabet.size):
            trans.update((p, x, r) for r in bits(step(a.succ, closure, x)))
    return Nfa(a.state_count, a.alphabet, a.start, frozenset(finals), frozenset(trans))


def trim(a: Nfa) -> Nfa:
    """Restrict to useful states (reachable and co-reachable).

    Returns the canonical one-state empty automaton when the language is
    empty.  Surviving states keep their relative order.
    """
    return trim_with_indices(a)[0]


def _adjacency(a: Nfa) -> tuple[list[int], list[int]]:
    """Each state's successor and predecessor masks, over every label."""
    fwd = [0] * a.state_count
    bwd = [0] * a.state_count
    for src, _sym, dst in a.transitions:
        fwd[src] |= 1 << dst
        bwd[dst] |= 1 << src
    return fwd, bwd


def trim_with_indices(a: Nfa) -> tuple[Nfa, tuple[int, ...]]:
    """``trim`` and the original index of each surviving state, which is
    empty when the language is empty.  An automaton whose states are all
    useful is returned as it is."""
    fwd, bwd = _adjacency(a)
    useful_mask = _reach(fwd, 1 << a.start) & _reach(bwd, a.final_mask)
    if useful_mask == (1 << a.state_count) - 1:
        return a, tuple(range(a.state_count))
    useful = list(bits(useful_mask))
    if a.start not in useful:
        return empty_nfa(a.alphabet), ()
    remap = {old: new for new, old in enumerate(useful)}
    trans = frozenset((remap[s], x, remap[d]) for s, x, d in a.transitions
                      if s in remap and d in remap)
    finals = frozenset(remap[q] for q in a.finals if q in remap)
    return Nfa(len(useful), a.alphabet, remap[a.start], finals, trans), tuple(useful)


def accepts(a: Nfa, w: Word) -> bool:
    """Forward state-mask simulation, closing under lambda edges if any."""
    closed = a.has_lambda
    cur = _reach(a.lam, 1 << a.start) if closed else 1 << a.start
    for c in w:
        cur = step(a.succ, cur, c)
        if closed:
            cur = _reach(a.lam, cur)
        if not cur:
            return False
    return bool(cur & a.final_mask)


def pred_rows(a: Nfa) -> list[list[int]]:
    """``pred[q][x]``: the mask of the states with an x-edge into q, in a
    lambda-free automaton, so that ``step(pred, mask, x)`` steps a set of
    states backwards over x."""
    pred = [[0] * a.alphabet.size for _ in range(a.state_count)]
    for p, x, q in a.transitions:
        pred[q][x] |= 1 << p
    return pred


def reachable_sets(rows, start: int):
    """Each non-empty state set reachable from ``start`` along ``rows``, with
    the word that first reaches it, in discovery order.  The search is
    breadth-first in symbol order, so that word is the length-lexicographically
    least one."""
    if not start:
        return
    symbols = range(len(rows[0]))
    queue = [((), start)]
    seen = {start}
    for word, states in queue:  # grows as sets are discovered
        yield word, states
        for x in symbols:
            nxt = step(rows, states, x)
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append((word + (x,), nxt))


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton.

    ``table[q][x]`` is the successor of state q on symbol index x.  ``sink``
    marks the dead state introduced by determinization, when one exists; it
    is informational and excluded from equality.
    """

    state_count: int
    alphabet: Alphabet
    start: int
    finals: frozenset[int]
    table: tuple[tuple[int, ...], ...]
    sink: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.table) != self.state_count:
            raise ValueError("transition table must cover every state")
        for row in self.table:
            if len(row) != self.alphabet.size:
                raise ValueError("transition table must be total")
            for q in row:
                if not 0 <= q < self.state_count:
                    raise ValueError("table entry out of range")


def _subset_walk(rows, start: int) -> tuple[list[list[int]], list[int]]:
    """The subset construction over masks: from the state set ``start``,
    breadth-first in symbol order, each discovered set's successor row as
    indices into the discovery order, and that order.  The empty set, when
    reached, is a state like any other."""
    symbols = range(len(rows[0]))
    index = {start: 0}
    order = [start]
    table = []
    for sub in order:  # grows as subsets are discovered: a BFS queue
        succ = [0] * len(symbols)
        while sub:
            low = sub & -sub
            r = rows[low.bit_length() - 1]
            for x in symbols:
                succ[x] |= r[x]
            sub ^= low
        row = []
        for nxt in succ:
            i = index.get(nxt)
            if i is None:
                i = index[nxt] = len(order)
                order.append(nxt)
            row.append(i)
        table.append(row)
    return table, order


def determinize_with_subsets(a: Nfa) -> tuple[Dfa, tuple[frozenset[int], ...]]:
    """Subset construction; also returns the reachable subsets in discovery
    order (the empty subset, if present, appears as the sink)."""
    if a.has_lambda:
        raise ValueError("determinize requires a lambda-free NFA")
    table, order = _subset_walk(a.succ, 1 << a.start)
    finals = frozenset(i for i, sub in enumerate(order) if sub & a.final_mask)
    sink = next((i for i, sub in enumerate(order) if not sub), None)
    dfa = Dfa(len(order), a.alphabet, 0, finals, tuple(map(tuple, table)), sink=sink)
    return dfa, tuple(frozenset(bits(sub)) for sub in order)


def _minimal(alpha: Alphabet, table, final: list[bool], start: int) -> Dfa:
    """The minimal DFA of the complete table ``table`` (lists of successor
    indices) with final flags ``final``, in canonical numbering.

    Moore refinement keys each state by its block and its successors'
    blocks, and stops at the first round that splits no block, or once
    every state has a block of its own.  The blocks are then numbered
    breadth-first from the start's block in symbol order, which visits
    only the reachable ones.  ``sink`` is the first non-final state that
    loops to itself on every symbol."""
    first: dict[bool, int] = {}
    block = [first.setdefault(f, len(first)) for f in final]
    count = len(first)
    while count < len(table):
        sig: dict[tuple[int, ...], int] = {}
        new = []
        for b, row in zip(block, table):
            key = (b, *[block[r] for r in row])
            i = sig.get(key)
            if i is None:
                i = sig[key] = len(sig)
            new.append(i)
        block = new
        if len(sig) == count:
            break
        count = len(sig)
    rep = [-1] * count
    for q, b in enumerate(block):
        if rep[b] < 0:
            rep[b] = q
    num = [-1] * count
    num[block[start]] = 0
    order = [block[start]]
    rows = []
    for b in order:  # grows as blocks are discovered: a BFS queue
        row = []
        for r in table[rep[b]]:
            c = block[r]
            if num[c] < 0:
                num[c] = len(order)
                order.append(c)
            row.append(num[c])
        rows.append(tuple(row))
    finals = frozenset(i for i, b in enumerate(order) if final[rep[b]])
    sink = next((i for i, row in enumerate(rows)
                 if i not in finals and row.count(i) == len(row)), None)
    return Dfa(len(rows), alpha, 0, finals, tuple(rows), sink=sink)


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA in canonical (BFS from start, symbol order)
    numbering, so language-equal DFAs minimize to equal values."""
    final = [q in d.finals for q in range(d.state_count)]
    return _minimal(d.alphabet, d.table, final, d.start)


def canonical_dfa(a: Nfa) -> Dfa:
    """Minimal canonical DFA of an NFA's language.  With lambda edges the
    subset walk runs on lambda-closed sets: each successor mask is closed,
    so a closed set steps to the closure of its successors, and no
    lambda-free automaton is built."""
    rows, start = a.succ, 1 << a.start
    if a.has_lambda:
        rows = [[_reach(a.lam, m) for m in row] for row in a.succ]
        start = _reach(a.lam, start)
    table, order = _subset_walk(rows, start)
    return _minimal(a.alphabet, table, [bool(sub & a.final_mask) for sub in order], 0)


def equivalent(a: Nfa, b: Nfa) -> bool:
    """Language equality via minimal canonical DFA comparison."""
    if a.alphabet.labels != b.alphabet.labels:
        raise ValueError("equivalence requires identical alphabets")
    return canonical_dfa(a) == canonical_dfa(b)


def enumerate_words(a: Nfa, max_len: int) -> list[Word]:
    """All members of L(a) of length <= max_len in length-then-lex order.

    Walks the prefix trie breadth-first, one level of (word, state set)
    pairs at a time, pruning prefixes whose state set is empty, so thin
    languages over large alphabets stay cheap.  The non-empty successors of
    each state set are computed once, with the one-symbol word that leads
    to each; the last level yields its accepted words without pairs of its
    own.
    """
    if max_len < 0:
        return []
    a = remove_lambda(a)
    succ, final_mask = a.succ, a.final_mask
    symbols = [((x,), x) for x in range(a.alphabet.size)]
    steps: dict[int, list[tuple[Word, int]]] = {}
    level: list[tuple[Word, int]] = [((), 1 << a.start)]
    out: list[Word] = [()] if final_mask >> a.start & 1 else []
    for length in range(1, max_len + 1):
        for states in {states for _, states in level}.difference(steps):
            steps[states] = [(xt, nxt) for xt, x in symbols if (nxt := step(succ, states, x))]
        if length == max_len:
            out += [word + xt for word, states in level
                    for xt, nxt in steps[states] if nxt & final_mask]
        else:
            level = [(word + xt, nxt) for word, states in level for xt, nxt in steps[states]]
            out += [word for word, states in level if states & final_mask]
    return out


def product_intersection_with_pairs(a: Nfa, b: Nfa) -> tuple[Nfa, tuple[tuple[int, int], ...]]:
    """Reachable-pair product automaton plus the pair carried by each state."""
    if a.alphabet.labels != b.alphabet.labels:
        raise ValueError("product requires identical alphabets")
    if a.has_lambda or b.has_lambda:
        raise ValueError("product requires lambda-free inputs")
    index = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    trans = set()
    for src, (p, q) in enumerate(order):  # grows as pairs are discovered: a BFS queue
        for x in range(a.alphabet.size):
            for p2 in bits(a.succ[p][x]):
                for q2 in bits(b.succ[q][x]):
                    pair = (p2, q2)
                    if pair not in index:
                        index[pair] = len(order)
                        order.append(pair)
                    trans.add((src, x, index[pair]))
    finals = frozenset(i for i, (p, q) in enumerate(order) if p in a.finals and q in b.finals)
    nfa = Nfa(len(order), a.alphabet, 0, finals, frozenset(trans))
    return nfa, tuple(order)
