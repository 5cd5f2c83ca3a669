"""Frozenset reference versions of the automaton algorithms, for
differential tests of the bitmask core in ``sfnfa.automata``, of the
constructions in ``sfnfa.constructions`` and of the suffix-freeness walk in
``sfnfa.suffixfree``.

They read an ``Nfa`` only through its start and its ``finals`` and
``transitions`` views, simulate state sets as frozensets, one
``(state, symbol)`` lookup at a time, and build every automaton from a set
of edges through ``Nfa.from_edges``, so they share no code with the masks
they check.  Their DFAs are a type of their own: a table of successor
indices, not the one-bit masks of the package's DFAs.
"""

from dataclasses import dataclass, field

from sfnfa.automata import Alphabet, Nfa
from sfnfa.errors import CertificateError, PreconditionViolation
from sfnfa.suffixfree import SuffixFreeness


@dataclass(frozen=True)
class Dfa:
    """A complete DFA: ``table[q][x]`` is the successor of q on symbol x.
    ``sink`` is the dead state, when one is known; it is excluded from
    equality."""

    state_count: int
    alphabet: Alphabet
    start: int
    finals: frozenset
    table: tuple
    sink: int | None = field(default=None, compare=False)


def as_nfa(d: Dfa) -> Nfa:
    """The DFA as an ``Nfa`` with one edge per (state, symbol)."""
    edges = [(q, x, r) for q, row in enumerate(d.table) for x, r in enumerate(row)]
    return Nfa.from_edges(d.state_count, d.alphabet, d.start, d.finals, edges)


def delta(a: Nfa) -> dict:
    out = {}
    for src, sym, dst in a.transitions:
        out.setdefault((src, sym), set()).add(dst)
    return {key: frozenset(dsts) for key, dsts in out.items()}


def closure(d: dict, states) -> frozenset:
    seen = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for r in d.get((q, None), ()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return frozenset(seen)


def remove_lambda(a: Nfa) -> Nfa:
    if not any(sym is None for _, sym, _ in a.transitions):
        return a
    d = delta(a)
    closures = [closure(d, {q}) for q in range(a.state_count)]
    trans = set()
    for p in range(a.state_count):
        for q in closures[p]:
            for (src, sym), dsts in d.items():
                if src == q and sym is not None:
                    for r in dsts:
                        trans.add((p, sym, r))
    finals = frozenset(p for p in range(a.state_count) if closures[p] & a.finals)
    return Nfa.from_edges(a.state_count, a.alphabet, a.start, finals, trans)


def accepts(a: Nfa, w) -> bool:
    d = delta(a)
    cur = closure(d, {a.start})
    for c in w:
        nxt = set()
        for q in cur:
            nxt |= d.get((q, c), frozenset())
        if not nxt:
            return False
        cur = closure(d, nxt)
    return bool(cur & a.finals)


def enumerate_words(a: Nfa, max_len: int) -> list:
    a = remove_lambda(a)
    d = delta(a)
    out = []
    level = [((), frozenset({a.start}))]
    for length in range(max_len + 1):
        nxt_level = []
        for word, states in level:
            if states & a.finals:
                out.append(word)
            if length < max_len:
                for x in range(a.alphabet.size):
                    nxt = frozenset(r for q in states for r in d.get((q, x), ()))
                    if nxt:
                        nxt_level.append((word + (x,), nxt))
        level = nxt_level
    return out


def determinize_with_subsets(a: Nfa) -> tuple[Dfa, tuple[frozenset, ...]]:
    d = delta(a)
    start = frozenset({a.start})
    index = {start: 0}
    order = [start]
    rows = []
    for sub in order:
        row = []
        for x in range(a.alphabet.size):
            nxt = frozenset(r for q in sub for r in d.get((q, x), ()))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    finals = frozenset(i for i, sub in enumerate(order) if sub & a.finals)
    dfa = Dfa(len(order), a.alphabet, 0, finals, tuple(rows), sink=index.get(frozenset()))
    return dfa, tuple(order)


def _graph_reach(edges: set, states) -> set:
    seen = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for src, dst in edges:
            if src == q and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def trim(a: Nfa) -> Nfa:
    """The useful states, renumbered in order, always rebuilt as a new
    ``Nfa``; the one-state empty automaton when the start is useless."""
    edges = {(src, dst) for src, _sym, dst in a.transitions}
    reach = _graph_reach(edges, {a.start})
    coreach = _graph_reach({(dst, src) for src, dst in edges}, a.finals)
    useful = sorted(reach & coreach)
    if a.start not in useful:
        return Nfa.from_edges(1, a.alphabet, 0, (), ())
    remap = {old: new for new, old in enumerate(useful)}
    trans = frozenset((remap[s], x, remap[d]) for s, x, d in a.transitions
                      if s in remap and d in remap)
    finals = frozenset(remap[q] for q in a.finals if q in remap)
    return Nfa.from_edges(len(useful), a.alphabet, remap[a.start], finals, trans)


def determinize(a: Nfa) -> Dfa:
    return determinize_with_subsets(a)[0]


def _dfa_reachable(d: Dfa) -> Dfa:
    order = [d.start]
    seen = {d.start}
    for q in order:  # grows as states are discovered: a BFS queue
        for r in d.table[q]:
            if r not in seen:
                seen.add(r)
                order.append(r)
    remap = {old: new for new, old in enumerate(order)}
    table = tuple(
        tuple(remap[d.table[old][x]] for x in range(d.alphabet.size)) for old in order
    )
    finals = frozenset(remap[q] for q in d.finals if q in remap)
    return Dfa(len(order), d.alphabet, 0, finals, table)


def minimize(d: Dfa) -> Dfa:
    """The reachable part, Moore refinement until the partition stops
    changing, the quotient, and its reachable part again, renumbered
    breadth-first from the start in symbol order."""
    d = _dfa_reachable(d)
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
    return minimize(determinize(remove_lambda(a)))


# The suffix-freeness check as a chain of automata: Sigma+ . L as an NFA of
# its own, the reachable-pair product with it, emptiness, and the least word
# of the product by a breadth-first search over its state sets.

def proper_suffix_language(a: Nfa) -> Nfa:
    """Lambda-free NFA for Sigma+ . L(a): state 0 reads the first
    (mandatory) junk symbol into state 1, which loops on every symbol and
    can also start simulating L(a) through copies of the start state's
    out-transitions."""
    offset = 2
    trans = set()
    for x in range(a.alphabet.size):
        trans.add((0, x, 1))
        trans.add((1, x, 1))
    for src, sym, dst in a.transitions:
        trans.add((src + offset, sym, dst + offset))
        if src == a.start:
            trans.add((1, sym, dst + offset))
    finals = {q + offset for q in a.finals}
    if a.start in a.finals:  # lambda in L: any nonempty junk word qualifies
        finals.add(1)
    return Nfa.from_edges(a.state_count + offset, a.alphabet, 0, finals, trans)


def product_intersection_with_pairs(a: Nfa, b: Nfa) -> tuple[Nfa, tuple]:
    """The product over the pairs reachable from (start, start), numbered
    in breadth-first order, and the pair of each state."""
    da, db = delta(a), delta(b)
    index = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    trans = set()
    for src, (p, q) in enumerate(order):
        for x in range(a.alphabet.size):
            for p2 in sorted(da.get((p, x), ())):
                for q2 in sorted(db.get((q, x), ())):
                    if (p2, q2) not in index:
                        index[p2, q2] = len(order)
                        order.append((p2, q2))
                    trans.add((src, x, index[p2, q2]))
    finals = frozenset(i for i, (p, q) in enumerate(order) if p in a.finals and q in b.finals)
    return Nfa.from_edges(len(order), a.alphabet, 0, finals, trans), tuple(order)


def product_intersection(a: Nfa, b: Nfa) -> Nfa:
    return product_intersection_with_pairs(a, b)[0]


def is_empty(a: Nfa) -> bool:
    edges = {(src, dst) for src, _sym, dst in a.transitions}
    return not _graph_reach(edges, {a.start}) & a.finals


def least_word(a: Nfa):
    """The length-lexicographically least word of L(a), or None: the word
    of the first accepting state set of a breadth-first search over state
    sets in symbol order."""
    a = remove_lambda(a)
    d = delta(a)
    start = frozenset({a.start})
    queue = [((), start)]
    seen = {start}
    for word, states in queue:
        if states & a.finals:
            return word
        for x in range(a.alphabet.size):
            nxt = frozenset(r for q in states for r in d.get((q, x), ()))
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append((word + (x,), nxt))
    return None


def is_suffix_free(a: Nfa) -> SuffixFreeness:
    if any(sym is None for _, sym, _ in a.transitions):
        raise PreconditionViolation("is_suffix_free requires a lambda-free NFA")
    overlap = product_intersection(a, proper_suffix_language(a))
    if is_empty(overlap):
        return SuffixFreeness(True)
    longer = least_word(overlap)
    if longer is None:
        raise CertificateError("the suffix overlap is non-empty but accepts no word")
    for i in range(len(longer), 0, -1):  # shortest proper suffix first
        shorter = longer[i:]
        if accepts(a, shorter):
            return SuffixFreeness(False, (shorter, longer))
    raise CertificateError("the overlap word has no accepted proper suffix")


# The constructions of ``sfnfa.constructions`` on edge sets, for lambda-free
# inputs that meet their preconditions.

def _skip_start_map(a: Nfa, offset: int) -> dict[int, int]:
    """Renumber non-start states densely starting at ``offset``."""
    others = [q for q in range(a.state_count) if q != a.start]
    return {q: offset + i for i, q in enumerate(others)}


def union_sf(a: Nfa, b: Nfa) -> Nfa:
    """The two starts merged into state 0, then a's other states, then b's."""
    a_map = _skip_start_map(a, offset=1)
    b_map = _skip_start_map(b, offset=a.state_count)
    a_map[a.start] = b_map[b.start] = 0
    trans = {(a_map[s], x, a_map[d]) for s, x, d in a.transitions}
    trans |= {(b_map[s], x, b_map[d]) for s, x, d in b.transitions}
    finals = {a_map[q] for q in a.finals} | {b_map[q] for q in b.finals}
    return Nfa.from_edges(a.state_count + b.state_count - 1, a.alphabet, 0, finals, trans)


def concat_sf(a: Nfa, b: Nfa) -> Nfa:
    """b's start dropped, a's finals bridged with its out-edges."""
    b_map = _skip_start_map(b, offset=a.state_count)
    trans = set(a.transitions)
    for src, x, dst in b.transitions:
        if src != b.start:
            trans.add((b_map[src], x, b_map[dst]))
        else:
            trans |= {(f, x, b_map[dst]) for f in a.finals}
    finals = {b_map[q] for q in b.finals if q != b.start}
    if b.start in b.finals:
        finals |= a.finals
    return Nfa.from_edges(a.state_count + b.state_count - 1, a.alphabet, a.start, finals, trans)


def intersect_sf(a: Nfa, b: Nfa) -> Nfa:
    return trim(product_intersection(a, b))


def star_sf(a: Nfa) -> Nfa:
    """Finals copy the start's out-edges; the start becomes final."""
    trans = set(a.transitions)
    trans |= {(f, x, d) for s, x, d in a.transitions if s == a.start for f in a.finals}
    return Nfa.from_edges(a.state_count, a.alphabet, a.start, a.finals | {a.start}, trans)


def reverse_nfa(a: Nfa) -> Nfa:
    """Every edge flipped; a fresh start takes the flipped edges into the
    old finals, and the old start is final."""
    new_start = a.state_count
    trans = {(d, x, s) for s, x, d in a.transitions}
    trans |= {(new_start, x, s) for s, x, d in a.transitions if d in a.finals}
    finals = {a.start, new_start} if a.start in a.finals else {a.start}
    return Nfa.from_edges(a.state_count + 1, a.alphabet, new_start, finals, trans)
