"""Core automata representations and algorithms.

States are dense integer indices ``0 .. state_count-1``.  An ``Nfa`` stores
its transition relation as a frozen set of ``(src, symbol, dst)`` triples
where ``symbol`` is an alphabet index or ``None`` for a lambda edge.  All
values are immutable after construction; every operation below is a pure
function, so automata can be shared freely between workers.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
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
        return "".join(self.labels[i] for i in word)


def alphabet(labels: str) -> Alphabet:
    """Shorthand: ``alphabet("ab")`` builds the two-letter alphabet a, b."""
    return Alphabet(tuple(labels))


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton, possibly with lambda edges."""

    state_count: int
    alphabet: Alphabet
    start: int
    finals: frozenset[int]
    transitions: frozenset[tuple[int, int | None, int]]
    _delta: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.state_count <= 0:
            raise ValueError("state_count must be positive")
        if not 0 <= self.start < self.state_count:
            raise ValueError("start state out of range")
        for q in self.finals:
            if not 0 <= q < self.state_count:
                raise ValueError("final state out of range")
        delta: dict[tuple[int, int | None], set[int]] = {}
        for src, sym, dst in self.transitions:
            if not (0 <= src < self.state_count and 0 <= dst < self.state_count):
                raise ValueError("transition endpoint out of range")
            if sym is not None and not 0 <= sym < self.alphabet.size:
                raise ValueError("transition symbol out of range")
            delta.setdefault((src, sym), set()).add(dst)
        object.__setattr__(self, "_delta", {k: frozenset(v) for k, v in delta.items()})

    def delta(self, state: int, sym: int | None) -> frozenset[int]:
        return self._delta.get((state, sym), frozenset())

    @property
    def has_lambda(self) -> bool:
        return any(sym is None for _, sym, _ in self.transitions)


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


def _closure(a: Nfa, states) -> frozenset[int]:
    """Lambda-closure of a set of states."""
    seen = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for r in a.delta(q, LAMBDA):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return frozenset(seen)


def remove_lambda(a: Nfa) -> Nfa:
    """Equivalent lambda-free NFA on the same state set.

    delta'(p, x) is the union of delta(q, x) over the closure of p, and p
    becomes final when its closure meets the final set.
    """
    if not a.has_lambda:
        return a
    closures = [_closure(a, {q}) for q in range(a.state_count)]
    trans = set()
    for p in range(a.state_count):
        for q in closures[p]:
            for (src, sym), dsts in a._delta.items():
                if src == q and sym is not None:
                    for r in dsts:
                        trans.add((p, sym, r))
    finals = frozenset(p for p in range(a.state_count) if closures[p] & a.finals)
    return Nfa(a.state_count, a.alphabet, a.start, finals, frozenset(trans))


def trim(a: Nfa) -> Nfa:
    """Restrict to useful states (reachable and co-reachable).

    Returns the canonical one-state empty automaton when the language is
    empty.  Surviving states keep their relative order.
    """
    return trim_with_indices(a)[0]


def trim_with_indices(a: Nfa) -> tuple[Nfa, tuple[int, ...]]:
    """``trim`` and the original index of each surviving state, which is
    empty when the language is empty."""
    fwd: dict[int, set[int]] = {}
    bwd: dict[int, set[int]] = {}
    for src, _sym, dst in a.transitions:
        fwd.setdefault(src, set()).add(dst)
        bwd.setdefault(dst, set()).add(src)

    def explore(adj, roots):
        seen = set(roots)
        stack = list(roots)
        while stack:
            q = stack.pop()
            for r in adj.get(q, ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return seen

    reach = explore(fwd, {a.start})
    coreach = explore(bwd, set(a.finals))
    useful = sorted(reach & coreach)
    if a.start not in useful:
        return empty_nfa(a.alphabet), ()
    remap = {old: new for new, old in enumerate(useful)}
    trans = frozenset(
        (remap[s], x, remap[d])
        for s, x, d in a.transitions
        if s in remap and d in remap
    )
    finals = frozenset(remap[q] for q in a.finals if q in remap)
    return Nfa(len(useful), a.alphabet, remap[a.start], finals, trans), tuple(useful)


def accepts(a: Nfa, w: Word) -> bool:
    """Forward state-set simulation with lambda closure."""
    cur = _closure(a, {a.start})
    for c in w:
        nxt = set()
        for q in cur:
            nxt |= a.delta(q, c)
        if not nxt:
            return False
        cur = _closure(a, nxt)
    return bool(cur & a.finals)


def word_masks(a: Nfa) -> tuple[Callable[[Word], int], Callable[[Word], int]]:
    """Membership oracle for many prefix/suffix splits of one automaton.

    Returns ``(fwd, bwd)``, both memoised: ``fwd(x)`` is the bitmask of
    states reached from the start by reading x, and ``bwd(w)`` the bitmask
    of states from which w reaches a final state.  Then x·w is in L(a)
    iff ``fwd(x) & bwd(w)`` is non-zero, so each prefix and each suffix is
    simulated once, not once per pair.
    """
    a = remove_lambda(a)
    succ = [[0] * a.alphabet.size for _ in range(a.state_count)]
    pred = [[0] * a.alphabet.size for _ in range(a.state_count)]
    for p, x, q in a.transitions:
        succ[p][x] |= 1 << q
        pred[q][x] |= 1 << p

    def step(rel, mask, x):
        out = 0
        while mask:
            low = mask & -mask
            out |= rel[low.bit_length() - 1][x]
            mask ^= low
        return out

    fwd_memo = {(): 1 << a.start}
    bwd_memo = {(): sum(1 << q for q in a.finals)}

    def fwd(x: Word) -> int:
        i = len(x)
        while x[:i] not in fwd_memo:
            i -= 1
        mask = fwd_memo[x[:i]]
        for j in range(i, len(x)):
            mask = fwd_memo[x[: j + 1]] = step(succ, mask, x[j])
        return mask

    def bwd(w: Word) -> int:
        i = 0
        while w[i:] not in bwd_memo:
            i += 1
        mask = bwd_memo[w[i:]]
        for j in range(i - 1, -1, -1):
            mask = bwd_memo[w[j:]] = step(pred, mask, w[j])
        return mask

    return fwd, bwd


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

    def step(self, q: int, x: int) -> int:
        return self.table[q][x]


def dfa_accepts(d: Dfa, w: Word) -> bool:
    q = d.start
    for c in w:
        q = d.table[q][c]
    return q in d.finals


def determinize_with_subsets(a: Nfa) -> tuple[Dfa, tuple[frozenset[int], ...]]:
    """Subset construction; also returns the reachable subsets in discovery
    order (the empty subset, if present, appears as the sink)."""
    if a.has_lambda:
        raise ValueError("determinize requires a lambda-free NFA")
    start = frozenset({a.start})
    index = {start: 0}
    order = [start]
    queue = deque([start])
    rows = {}
    while queue:
        sub = queue.popleft()
        row = []
        for x in range(a.alphabet.size):
            nxt = frozenset(r for q in sub for r in a.delta(q, x))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows[index[sub]] = tuple(row)
    table = tuple(rows[i] for i in range(len(order)))
    finals = frozenset(i for i, sub in enumerate(order) if sub & a.finals)
    sink = index.get(frozenset())
    dfa = Dfa(len(order), a.alphabet, 0, finals, table, sink=sink)
    return dfa, tuple(order)


def determinize(a: Nfa) -> Dfa:
    return determinize_with_subsets(a)[0]


def _dfa_reachable(d: Dfa) -> Dfa:
    seen = {d.start}
    orderq = deque([d.start])
    order = [d.start]
    while orderq:
        q = orderq.popleft()
        for x in range(d.alphabet.size):
            r = d.table[q][x]
            if r not in seen:
                seen.add(r)
                orderq.append(r)
                order.append(r)
    remap = {old: new for new, old in enumerate(order)}
    table = tuple(
        tuple(remap[d.table[old][x]] for x in range(d.alphabet.size)) for old in order
    )
    finals = frozenset(remap[q] for q in d.finals if q in remap)
    return Dfa(len(order), d.alphabet, 0, finals, table)


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA in canonical (BFS from start, symbol order)
    numbering, so language-equal DFAs minimize to equal values."""
    d = _dfa_reachable(d)
    # Moore partition refinement; fine at the sizes this package handles.
    block = [1 if q in d.finals else 0 for q in range(d.state_count)]
    while True:
        sig = {}
        new_block = []
        for q in range(d.state_count):
            key = (block[q],) + tuple(block[d.table[q][x]] for x in range(d.alphabet.size))
            if key not in sig:
                sig[key] = len(sig)
            new_block.append(sig[key])
        if new_block == block:
            break
        block = new_block
    nblocks = max(block) + 1
    rep = {}
    for q in range(d.state_count):
        rep.setdefault(block[q], q)
    table = tuple(
        tuple(block[d.table[rep[b]][x]] for x in range(d.alphabet.size))
        for b in range(nblocks)
    )
    finals = frozenset(b for b in range(nblocks) if rep[b] in d.finals)
    merged = Dfa(nblocks, d.alphabet, block[d.start], finals, table)
    out = _dfa_reachable(merged)
    sink = None
    for q in range(out.state_count):
        if q not in out.finals and all(out.table[q][x] == q for x in range(out.alphabet.size)):
            sink = q
            break
    return Dfa(out.state_count, out.alphabet, out.start, out.finals, out.table, sink=sink)


def canonical_dfa(a: Nfa) -> Dfa:
    """Minimal canonical DFA of an NFA's language."""
    return minimize(determinize(remove_lambda(a)))


def equivalent(a: Nfa, b: Nfa) -> bool:
    """Language equality via minimal canonical DFA comparison."""
    if a.alphabet.labels != b.alphabet.labels:
        raise ValueError("equivalence requires identical alphabets")
    return canonical_dfa(a) == canonical_dfa(b)


def dfa_to_nfa(d: Dfa) -> Nfa:
    trans = frozenset(
        (q, x, d.table[q][x]) for q in range(d.state_count) for x in range(d.alphabet.size)
    )
    return Nfa(d.state_count, d.alphabet, d.start, d.finals, trans)


def dfa_complement(d: Dfa) -> Dfa:
    finals = frozenset(q for q in range(d.state_count) if q not in d.finals)
    return Dfa(d.state_count, d.alphabet, d.start, finals, d.table)


def enumerate_words(a: Nfa, max_len: int) -> list[Word]:
    """All members of L(a) of length <= max_len in length-then-lex order.

    Walks the prefix trie breadth-first, pruning prefixes whose state set is
    empty, so thin languages over large alphabets stay cheap.
    """
    a = remove_lambda(a)
    out: list[Word] = []
    level: list[tuple[Word, frozenset[int]]] = [((), frozenset({a.start}))]
    for length in range(max_len + 1):
        nxt_level = []
        for word, states in level:
            if states & a.finals:
                out.append(word)
            if length < max_len:
                for x in range(a.alphabet.size):
                    nxt = frozenset(r for q in states for r in a.delta(q, x))
                    if nxt:
                        nxt_level.append((word + (x,), nxt))
        level = nxt_level
    return out


def product_intersection_with_pairs(a: Nfa, b: Nfa) -> tuple[Nfa, tuple[tuple[int, int], ...]]:
    """Reachable-pair product automaton plus the pair carried by each state."""
    if a.alphabet.labels != b.alphabet.labels:
        raise ValueError("product requires identical alphabets")
    if a.has_lambda or b.has_lambda:
        raise ValueError("product requires lambda-free inputs")
    start = (a.start, b.start)
    index = {start: 0}
    order = [start]
    queue = deque([start])
    trans = set()
    while queue:
        p, q = queue.popleft()
        for x in range(a.alphabet.size):
            for p2 in sorted(a.delta(p, x)):
                for q2 in sorted(b.delta(q, x)):
                    pair = (p2, q2)
                    if pair not in index:
                        index[pair] = len(order)
                        order.append(pair)
                        queue.append(pair)
                    trans.add((index[(p, q)], x, index[pair]))
    finals = frozenset(
        i for i, (p, q) in enumerate(order) if p in a.finals and q in b.finals
    )
    nfa = Nfa(len(order), a.alphabet, 0, finals, frozenset(trans))
    return nfa, tuple(order)


def product_intersection(a: Nfa, b: Nfa) -> Nfa:
    return product_intersection_with_pairs(a, b)[0]


def is_empty(a: Nfa) -> bool:
    """Language emptiness: no final state reachable from the start."""
    t = trim(a)
    return not t.finals
