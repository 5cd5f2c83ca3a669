"""Reference semantics the benchmark checks sfnfa's outputs against.

Everything here is written from the definitions, not from sfnfa: automata
are read from their canonical JSON documents (``"~"`` marks a lambda edge),
simulated on bit masks of states, and compared by a breadth-first walk over
tuples of reachable subsets.  Nothing in this module imports sfnfa, so a
defect in the library cannot also hide in the oracle.
"""

from __future__ import annotations

import re
from collections import deque

LAMBDA = "~"


class Auto:
    """A lambda-NFA compiled to per-(state, symbol) successor masks."""

    def __init__(self, doc: dict):
        self.labels = tuple(doc["alphabet"])
        self.n = doc["states"]
        self.start = doc["start"]
        self.finals = 0
        for q in doc["finals"]:
            self.finals |= 1 << q
        sym = {lab: i for i, lab in enumerate(self.labels)}
        self.succ = [[0] * len(self.labels) for _ in range(self.n)]
        lam = [1 << q for q in range(self.n)]
        for src, label, dst in doc["transitions"]:
            if label == LAMBDA:
                lam[src] |= 1 << dst
            else:
                self.succ[src][sym[label]] |= 1 << dst
        # Transitive lambda closure of every single state, by fixpoint.
        changed = True
        while changed:
            changed = False
            for q in range(self.n):
                closed = lam[q]
                for r in _bits(lam[q]):
                    closed |= lam[r]
                if closed != lam[q]:
                    lam[q], changed = closed, True
        self.lam = lam

    def closure(self, mask: int) -> int:
        out = 0
        for q in _bits(mask):
            out |= self.lam[q]
        return out

    def initial(self) -> int:
        return self.lam[self.start]

    def step(self, mask: int, x: int) -> int:
        nxt = 0
        for q in _bits(mask):
            nxt |= self.succ[q][x]
        return self.closure(nxt)

    def accepting(self, mask: int) -> bool:
        return bool(mask & self.finals)

    def accepts(self, word: str) -> bool:
        cur = self.initial()
        for ch in word:
            cur = self.step(cur, self.labels.index(ch))
        return self.accepting(cur)

    def words(self, max_len: int) -> list[str]:
        """Accepted words up to ``max_len`` in length-then-alphabet order."""
        out = []
        level = [("", self.initial())]
        for length in range(max_len + 1):
            out += [w for w, m in level if self.accepting(m)]
            if length < max_len:
                level = [
                    (w + lab, self.step(m, x))
                    for w, m in level
                    for x, lab in enumerate(self.labels)
                ]
        return out

    def non_returning(self) -> bool:
        """No state reads a symbol into the start after lambda removal on
        the same states (successors of p: every symbol edge leaving the
        lambda closure of p)."""
        for p in range(self.n):
            for x in range(len(self.labels)):
                reach = 0
                for q in _bits(self.lam[p]):
                    reach |= self.succ[q][x]
                if reach >> self.start & 1:
                    return False
        return True

    def dfa(self):
        """Reachable subset DFA: (table, finals) over subset indices."""
        start = self.initial()
        index = {start: 0}
        order = [start]
        table = []
        queue = deque([start])
        while queue:
            sub = queue.popleft()
            row = []
            for x in range(len(self.labels)):
                nxt = self.step(sub, x)
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    queue.append(nxt)
                row.append(index[nxt])
            table.append(row)
        return table, [self.accepting(s) for s in order]

    def min_dfa_size(self) -> int:
        """State count of the minimal complete DFA (dead state included)."""
        return len(set(_moore(*self.dfa())))

    def min_live_states(self) -> int:
        """States of the minimal DFA that can still reach a final state."""
        table, finals = self.dfa()
        block = _moore(table, finals)
        live = {b for q, b in enumerate(block) if finals[q]}
        changed = True
        while changed:
            changed = False
            for q, row in enumerate(table):
                if block[q] not in live and any(block[r] in live for r in row):
                    live.add(block[q])
                    changed = True
        return len(live)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _moore(table, finals) -> list[int]:
    block = [int(f) for f in finals]
    while True:
        sig: dict = {}
        new = [sig.setdefault((block[q],) + tuple(block[r] for r in row), len(sig))
               for q, row in enumerate(table)]
        if new == block:
            return block
        block = new


def agrees(result: Auto, combine, *args: Auto) -> bool:
    """Exact check that ``result`` accepts w iff ``combine`` of the
    arguments' verdicts on w holds, for every word w.  Walks the reachable
    tuples of subsets of all automata at once."""
    autos = (result,) + args
    for a in args:
        if a.labels != result.labels:
            raise ValueError("alphabets differ")
    start = tuple(a.initial() for a in autos)
    seen = {start}
    queue = deque([start])
    while queue:
        subs = queue.popleft()
        verdicts = [a.accepting(s) for a, s in zip(autos, subs)]
        if verdicts[0] != combine(*verdicts[1:]):
            return False
        for x in range(len(result.labels)):
            nxt = tuple(a.step(s, x) for a, s in zip(autos, subs))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def equivalent(a: Auto, b: Auto) -> bool:
    return agrees(a, lambda v: v, b)


# Textbook lambda constructions, for the operations that are not a
# Boolean combination of the inputs' verdicts.

def concat_doc(a: dict, b: dict) -> dict:
    off = a["states"]
    trans = [list(t) for t in a["transitions"]]
    trans += [[s + off, lab, d + off] for s, lab, d in b["transitions"]]
    trans += [[f, LAMBDA, b["start"] + off] for f in a["finals"]]
    return {"alphabet": a["alphabet"], "states": off + b["states"], "start": a["start"],
            "finals": [f + off for f in b["finals"]], "transitions": trans}


def star_doc(a: dict) -> dict:
    new = a["states"]
    trans = [list(t) for t in a["transitions"]] + [[new, LAMBDA, a["start"]]]
    trans += [[f, LAMBDA, new] for f in a["finals"]]
    return {"alphabet": a["alphabet"], "states": new + 1, "start": new,
            "finals": [new], "transitions": trans}


def reverse_doc(a: dict) -> dict:
    new = a["states"]
    trans = [[d, lab, s] for s, lab, d in a["transitions"]]
    trans += [[new, LAMBDA, f] for f in a["finals"]]
    return {"alphabet": a["alphabet"], "states": new + 1, "start": new,
            "finals": [a["start"]], "transitions": trans}


def one_state_languages(labels) -> list[dict]:
    """Every language a one-state NFA accepts: the empty set and S* for
    each subset S of the alphabet."""
    docs = [{"alphabet": list(labels), "states": 1, "start": 0, "finals": [],
             "transitions": []}]
    for bits in range(1 << len(labels)):
        docs.append({"alphabet": list(labels), "states": 1, "start": 0, "finals": [0],
                     "transitions": [[0, lab, 0] for i, lab in enumerate(labels)
                                     if bits >> i & 1]})
    return docs


def suffix_violation(auto: Auto, max_len: int):
    """A pair (shorter, longer) of accepted words up to ``max_len`` with
    shorter a proper suffix of longer, or None."""
    accepted = set(auto.words(max_len))
    for w in sorted(accepted, key=len):
        for i in range(1, len(w) + 1):
            if w[i:] in accepted:
                return w[i:], w
    return None


def sample_trie(labels: str, depth: int):
    """Every word of length <= depth in breadth-first order: the parent
    node and last symbol index of each node, and the node's word."""
    parents, symbols, words = [-1], [-1], [""]
    level = [0]
    for _ in range(depth):
        nxt = []
        for node in level:
            for x, lab in enumerate(labels):
                parents.append(node)
                symbols.append(x)
                words.append(words[node] + lab)
                nxt.append(len(words) - 1)
        level = nxt
    return parents, symbols, words


def table_reach(cells, k, s, parents, symbols) -> list[int]:
    """Reach mask of every trie node under one transition table encoded as
    in the kernel: cell ``state * s + symbol`` holds a successor mask."""
    reach = [1]
    for i in range(1, len(parents)):
        pm = reach[parents[i]]
        nm = 0
        for st in range(k):
            if pm >> st & 1:
                nm |= cells[st * s + symbols[i]]
        reach.append(nm)
    return reach


# The paper's witness languages after each certified operation, as
# membership predicates on label strings.

def certify_language(op: str, m: int, n: int | None):
    if op == "catenation":  # {a^(m-1)} . {a^(n-1)}
        return lambda w: w == "a" * (m + n - 2)
    if op == "union":  # b (a^(m-1))*  +  a (b^(n-1))*
        pat = re.compile(f"b(?:a{{{m - 1}}})*|a(?:b{{{n - 1}}})*")
        return lambda w: pat.fullmatch(w) is not None
    if op == "intersection":  # c w with #a(w) = 0 mod m-1 and #b(w) = 0 mod n-1
        return lambda w: (
            w[:1] == "c" and set(w[1:]) <= {"a", "b"}
            and w.count("a") % (m - 1) == 0 and w.count("b") % (n - 1) == 0
        )
    if op == "star":  # (b (a^(m-1))*)*
        pat = re.compile(f"(?:b(?:a{{{m - 1}}})*)*")
        return lambda w: pat.fullmatch(w) is not None
    if op == "reversal":  # reverse of d (a^(m-3))* (b* + c*)
        pat = re.compile(f"(?:b*|c*)(?:a{{{m - 3}}})*d")
        return lambda w: pat.fullmatch(w) is not None
    raise ValueError(f"no reference language for {op}")


def is_fooling_set(member, pairs) -> bool:
    """Both fooling-set conditions, by direct membership tests."""
    if not all(member(x + w) for x, w in pairs):
        return False
    for i, (xi, wi) in enumerate(pairs):
        for xj, wj in pairs[i + 1:]:
            if member(xi + wj) and member(xj + wi):
                return False
    return True


def formula(op: str, m: int, n: int | None) -> int:
    """The paper's state count for each operation on suffix-free inputs."""
    return {
        "catenation": lambda: m + n - 1,
        "union": lambda: m + n - 1,
        "intersection": lambda: m * n - (m + n) + 2,
        "star": lambda: m,
        "reversal": lambda: m + 1,
        "complementation": lambda: 2 ** (m - 1) + 1,
    }[op]()
