"""Core automata representations and algorithms.

States are dense integer indices ``0 .. state_count-1``; a set of states is
an int bitmask with bit q for state q.  An ``Nfa`` is its successor masks:
one mask per state and symbol, one per state for lambda edges, and one for
the finals.  ``Nfa.from_edges`` is the one place where a list of
``(src, symbol, dst)`` edges becomes masks; every algorithm here reads and
builds masks directly.  There is no second automaton type: a complete DFA,
such as ``canonical_dfa`` returns, is an ``Nfa`` without lambda edges whose
every successor mask holds exactly one bit.  All values are immutable, so
automata can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import or_

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

    ``succ[q][x]`` is the mask of the states that q reaches on symbol x,
    ``lam[q]`` the mask of those it reaches on a lambda edge, and
    ``final_mask`` the mask of the final states.  ``from_edges`` builds one
    from a list of edges; ``finals`` and ``transitions`` are read back from
    the masks.  ``remove_lambda``'s result is cached outside the fields."""

    state_count: int
    alphabet: Alphabet
    start: int
    final_mask: int
    succ: tuple[tuple[int, ...], ...]
    lam: tuple[int, ...]

    def __post_init__(self):
        n, k = self.state_count, self.alphabet.size
        if n <= 0:
            raise ValueError("state_count must be positive")
        if not 0 <= self.start < n:
            raise ValueError("start state out of range")
        if len(self.succ) != n or len(self.lam) != n or set(map(len, self.succ)) != {k}:
            raise ValueError("successor masks must be a row of one mask per symbol for each state")
        # The union of all masks is negative if one is, and 2^n or more if one is.
        if not 0 <= reduce(or_, chain(self.lam, *self.succ), self.final_mask) < 1 << n:
            raise ValueError("mask out of range")

    @classmethod
    def from_edges(cls, states: int, alphabet: Alphabet, start: int, finals, edges) -> Nfa:
        """The automaton with the given finals and ``(src, symbol, dst)``
        edges, ``symbol`` an alphabet index or None for a lambda edge.  A
        repeated edge counts once."""
        n, k = states, alphabet.size
        if n <= 0:
            raise ValueError("state_count must be positive")
        if not 0 <= start < n:
            raise ValueError("start state out of range")
        final_mask = 0
        for q in finals:
            if not 0 <= q < n:
                raise ValueError("final state out of range")
            final_mask |= 1 << q
        succ = [[0] * k for _ in range(n)]
        lam = [0] * n
        for src, sym, dst in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError("transition endpoint out of range")
            if sym is None:
                lam[src] |= 1 << dst
            elif 0 <= sym < k:
                succ[src][sym] |= 1 << dst
            else:
                raise ValueError("transition symbol out of range")
        return cls(n, alphabet, start, final_mask, tuple(map(tuple, succ)), tuple(lam))

    @property
    def finals(self) -> frozenset[int]:
        return frozenset(bits(self.final_mask))

    @property
    def transitions(self) -> frozenset[tuple[int, int | None, int]]:
        """Every edge as ``(src, symbol, dst)``, None for lambda."""
        return frozenset((src, x, dst) for src, row in enumerate(self.succ)
                         for x, mask in (*enumerate(row), (None, self.lam[src]))
                         for dst in bits(mask))

    @property
    def has_lambda(self) -> bool:
        return any(self.lam)

    @cached_property
    def _lambda_free(self) -> Nfa:
        """The lambda-free form that ``remove_lambda`` returns, built once."""
        n, symbols = self.state_count, range(self.alphabet.size)
        final_mask = 0
        succ = []
        for p in range(n):
            closure = _reach(self.lam, 1 << p)
            if closure & self.final_mask:
                final_mask |= 1 << p
            succ.append(tuple(step(self.succ, closure, x) for x in symbols))
        return Nfa(n, self.alphabet, self.start, final_mask, tuple(succ), (0,) * n)


def bits(mask: int):
    """The states of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gather(masks, mask: int) -> int:
    """The union of ``masks[q]`` over the states q of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


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
    edges = [(src, None if sym is None else alpha.index(sym), dst) for src, sym, dst in edges]
    return Nfa.from_edges(states, alpha, start, finals, edges)


def empty_nfa(alpha: Alphabet) -> Nfa:
    """The canonical automaton for the empty language."""
    return Nfa(1, alpha, 0, 0, ((0,) * alpha.size,), (0,))


def lambda_nfa(alpha: Alphabet) -> Nfa:
    """The one-state automaton for {lambda}."""
    return Nfa(1, alpha, 0, 1, ((0,) * alpha.size,), (0,))


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
    """Equivalent lambda-free NFA on the same state set, built once per
    automaton: the one place where lambda edges are closed.

    delta'(p, x) is the union of delta(q, x) over the closure of p, and p
    becomes final when its closure meets the final set.  An automaton
    without lambda edges is its own.
    """
    return a._lambda_free if a.has_lambda else a


def trim(a: Nfa) -> Nfa:
    """Restrict to useful states (reachable and co-reachable).

    Returns the canonical one-state empty automaton when the language is
    empty.  Surviving states keep their relative order, and an automaton
    whose states are all useful is returned as it is.
    """
    n = a.state_count
    fwd = [reduce(or_, row, lam) for row, lam in zip(a.succ, a.lam)]
    bwd = [0] * n
    for q, out in enumerate(fwd):
        bit = 1 << q
        while out:
            low = out & -out
            bwd[low.bit_length() - 1] |= bit
            out ^= low
    useful_mask = _reach(fwd, 1 << a.start) & _reach(bwd, a.final_mask)
    if useful_mask == (1 << n) - 1:
        return a
    if not useful_mask >> a.start & 1:
        return empty_nfa(a.alphabet)
    useful = tuple(bits(useful_mask))
    # new_bit[q]: the bit of state q in the trimmed numbering, 0 if q goes.
    new_bit = [0] * n
    for new, old in enumerate(useful):
        new_bit[old] = 1 << new
    succ = tuple(tuple(gather(new_bit, mask) for mask in a.succ[q]) for q in useful)
    lam = tuple(gather(new_bit, a.lam[q]) for q in useful)
    start = useful.index(a.start)
    return Nfa(len(useful), a.alphabet, start, gather(new_bit, a.final_mask), succ, lam)


def accepts(a: Nfa, w: Word) -> bool:
    """Forward state-mask simulation of ``remove_lambda(a)``."""
    a = remove_lambda(a)
    cur = 1 << a.start
    for c in w:
        cur = step(a.succ, cur, c)
        if not cur:
            return False
    return bool(cur & a.final_mask)


def pred_rows(a: Nfa) -> list[list[int]]:
    """``pred[q][x]``: the mask of the states with an x-edge into q, in a
    lambda-free automaton, so that ``step(pred, mask, x)`` steps a set of
    states backwards over x."""
    pred = [[0] * a.alphabet.size for _ in range(a.state_count)]
    for x, column in enumerate(zip(*a.succ)):
        bit = 1  # the bit of the source state
        for mask in column:
            while mask:
                low = mask & -mask
                pred[low.bit_length() - 1][x] |= bit
                mask ^= low
            bit <<= 1
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


def _subset_dfa(a: Nfa) -> tuple[list[list[int]], list[bool]]:
    """The subset DFA of ``remove_lambda(a)`` as a complete table (lists of
    successor indices, start 0) and its final flags.  Its callers read only
    language facts from it: Moore blocks, live states, the minimal DFA."""
    a = remove_lambda(a)
    table, order = _subset_walk(a.succ, 1 << a.start)
    return table, [bool(sub & a.final_mask) for sub in order]


def _moore(table, final: list[bool]) -> list[int]:
    """The Myhill-Nerode blocks of the complete table ``table`` with final
    flags ``final``: one dense block id per state, so that two states share
    a block iff they accept the same language.

    Moore refinement keys each state by its block and its successors'
    blocks, and stops at the first round that splits no block, or once
    every state has a block of its own.  Every state of a subset table is
    reachable, so the block count is the size of the minimal DFA."""
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
    return block


def _live_blocks(table, final: list[bool], block: list[int]) -> int:
    """The live states of the minimal DFA of a subset table with Moore
    blocks ``block``: the block count, less one for the dead block, a
    non-final block whose row stays in the block on every symbol, but at
    least 1.  The blocks are stable, so any state of a block shows it."""
    count = max(block) + 1
    for b, f, row in zip(block, final, table):
        if not f:
            for r in row:
                if block[r] != b:
                    break
            else:
                return max(count - 1, 1)
    return count


def _minimal(alpha: Alphabet, table, final: list[bool], block: list[int]) -> Nfa:
    """The minimal DFA of the complete table ``table`` (start 0) with final
    flags ``final`` and Moore blocks ``block``, in canonical numbering, as
    an ``Nfa`` with one successor bit per cell.  The blocks are numbered
    breadth-first from the start's block in symbol order."""
    count = max(block) + 1
    rep = [-1] * count
    for q, b in enumerate(block):
        if rep[b] < 0:
            rep[b] = q
    num = [-1] * count
    num[block[0]] = 0
    order = [block[0]]
    succ = []
    final_mask = 0
    for i, b in enumerate(order):  # grows as blocks are discovered: a BFS queue
        final_mask |= final[rep[b]] << i
        row = []
        for r in table[rep[b]]:
            c = block[r]
            if num[c] < 0:
                num[c] = len(order)
                order.append(c)
            row.append(1 << num[c])
        succ.append(tuple(row))
    return Nfa(len(succ), alpha, 0, final_mask, tuple(succ), (0,) * len(succ))


def canonical_dfa(a: Nfa) -> Nfa:
    """Minimal canonical DFA of an NFA's language: a complete, lambda-free
    ``Nfa`` whose every successor mask holds one bit, so that two of them
    are equal iff their languages are.  It is built in three stages: the
    subset table (``_subset_dfa``), its Moore blocks (``_moore``) and the
    numbered minimal DFA (``_minimal``)."""
    table, final = _subset_dfa(a)
    return _minimal(a.alphabet, table, final, _moore(table, final))


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
    succ = []
    final_mask = 0
    for i, (p, q) in enumerate(order):  # grows as pairs are discovered: a BFS queue
        if a.final_mask >> p & b.final_mask >> q & 1:
            final_mask |= 1 << i
        row = []
        for p_next, q_next in zip(a.succ[p], b.succ[q]):
            out = 0
            if p_next and q_next:
                q_list = list(bits(q_next))
                for p2 in bits(p_next):
                    for q2 in q_list:
                        j = index.get((p2, q2))
                        if j is None:
                            j = index[p2, q2] = len(order)
                            order.append((p2, q2))
                        out |= 1 << j
            row.append(out)
        succ.append(tuple(row))
    nfa = Nfa(len(order), a.alphabet, 0, final_mask, tuple(succ), (0,) * len(order))
    return nfa, tuple(order)
