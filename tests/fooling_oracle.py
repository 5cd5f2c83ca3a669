"""Test oracles for fooling sets: a search over bounded words and a
pairwise verifier.

The bounded-word search is the package's former search, kept as an
independent reference for the exact search over the reduced automaton
matrix.  Candidates are all splits (x, w)
of accepted words of length at most ``max_word_len``.  Two candidates are
compatible when at least one cross product leaves the language; a clique of
compatible candidates is a fooling set.  Clique search is exact (bitmask
branch and bound) up to 24 candidates and seeded-greedy with restarts above.

``pairwise_verify_fooling_set`` is the package's former verifier: it parses
every label string into a word, simulates the words through the memoised
``word_masks`` and compares every pair with every other pair.  It is the
reference for ``verify_fooling_set``, which walks label strings and checks
the pairs through per-state bitsets.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from sfnfa.automata import (
    Nfa,
    Word,
    enumerate_words,
    pred_rows,
    remove_lambda,
    step,
)
from sfnfa.bounds import FoolingSet, verify_fooling_set

CANDIDATE_CAP = 16384
EXACT_CLIQUE_NODES = 24


def word_masks(a: Nfa) -> tuple[Callable[[Word], int], Callable[[Word], int]]:
    """Membership oracle for many prefix/suffix splits of one automaton.

    Returns ``(fwd, bwd)``, both memoised: ``fwd(x)`` is the bitmask of
    states reached from the start by reading x, and ``bwd(w)`` the bitmask
    of states from which w reaches a final state.  Then x·w is in L(a)
    iff ``fwd(x) & bwd(w)`` is non-zero, so each prefix and each suffix is
    simulated once, not once per pair.
    """
    a = remove_lambda(a)
    pred = pred_rows(a)
    fwd_memo = {(): 1 << a.start}
    bwd_memo = {(): a.final_mask}

    def fwd(x: Word) -> int:
        i = len(x)
        while x[:i] not in fwd_memo:
            i -= 1
        mask = fwd_memo[x[:i]]
        for j in range(i, len(x)):
            mask = fwd_memo[x[: j + 1]] = step(a.succ, mask, x[j])
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


def pairwise_verify_fooling_set(a: Nfa, p: FoolingSet) -> bool:
    """Both fooling-set conditions against L(a), every pair against every
    other pair."""
    fwd, bwd = word_masks(a)
    masks = [(fwd(a.alphabet.word(x)), bwd(a.alphabet.word(w))) for x, w in p.pairs]
    if not all(f & b for f, b in masks):
        return False
    return not any(
        fi & bj and fj & bi
        for i, (fi, bi) in enumerate(masks)
        for fj, bj in masks[i + 1:]
    )


def bounded_word_fooling_set(
    a: Nfa,
    max_word_len: int,
    target_size: int,
    seed: int = 0,
    restarts: int = 64,
) -> FoolingSet | None:
    """A fooling set of at least ``target_size`` pairs over words of length
    at most ``max_word_len``, or None if the search finds none."""
    if target_size < 1:
        raise ValueError("target_size must be at least 1")
    cands = []
    seen = set()
    for w in enumerate_words(a, max_word_len):
        for i in range(len(w) + 1):
            pair = (w[:i], w[i:])
            if pair not in seen:
                seen.add(pair)
                cands.append(pair)
    if len(cands) > CANDIDATE_CAP:
        raise ValueError(f"{len(cands)} candidate pairs exceed the search cap")
    if not cands:
        return None

    # Group candidates by forward and by backward mask.  S[f] holds the j
    # with x w_j in L for any x of mask f, T[b] the j with x_j w in L for
    # any w of mask b; classes partition the candidates, so sum is union.
    # i and j are compatible unless j is in S[f_i] & T[b_i], which always
    # holds i itself, since x_i w_i is in L.
    fwd, bwd = word_masks(a)
    nc = len(cands)
    f_of = [fwd(x) for x, _ in cands]
    b_of = [bwd(w) for _, w in cands]
    f_class: dict[int, int] = {}
    b_class: dict[int, int] = {}
    for j in range(nc):
        f_class[f_of[j]] = f_class.get(f_of[j], 0) | 1 << j
        b_class[b_of[j]] = b_class.get(b_of[j], 0) | 1 << j
    S = {f: sum(js for b, js in b_class.items() if f & b) for f in f_class}
    T = {b: sum(js for f, js in f_class.items() if f & b) for b in b_class}
    full = (1 << nc) - 1
    adj = [full & ~(S[f_of[i]] & T[b_of[i]]) for i in range(nc)]

    if nc <= EXACT_CLIQUE_NODES:
        best = _clique_exact(adj)
    else:
        best = _clique_greedy(adj, target_size, seed, restarts)
    if len(best) < target_size:
        return None
    fs = FoolingSet(
        tuple((a.alphabet.text(cands[i][0]), a.alphabet.text(cands[i][1])) for i in sorted(best))
    )
    if not verify_fooling_set(a, fs):
        raise AssertionError("the oracle produced an unverifiable fooling set")
    return fs


def _clique_exact(adj: list[int]) -> list[int]:
    best: list[int] = []

    def expand(clique: list[int], cand_mask: int) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = list(clique)
        m = cand_mask
        while m:
            if len(clique) + m.bit_count() <= len(best):
                return
            v = (m & -m).bit_length() - 1
            m &= m - 1
            expand(clique + [v], cand_mask & adj[v] & ~((1 << (v + 1)) - 1))

    expand([], (1 << len(adj)) - 1)
    return best


def _clique_greedy(adj, target_size, seed, restarts) -> list[int]:
    n = len(adj)
    rng = random.Random(seed)
    degree_order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    best: list[int] = []

    def orders():
        yield degree_order
        for _ in range(restarts):
            perm = list(range(n))
            rng.shuffle(perm)
            yield perm

    for order in orders():
        for start in order[: min(n, 64)]:
            clique = [start]
            mask = adj[start]
            for v in order:
                if mask >> v & 1:
                    clique.append(v)
                    mask &= adj[v]
            if len(clique) > len(best):
                best = clique
            if len(best) >= target_size:
                return best
    return best


def max_clique_by_count(adj: list[int], *, limit: int | None = None) -> list[int]:
    """The package's former exact clique search, the reference for
    ``bounds._max_clique_exact``: a maximum clique, ascending, the first in
    lexicographic order, by branch and bound over bitmasks that prunes only
    by the count of remaining candidates.  It returns as soon as its best
    clique has ``limit`` members."""
    n = len(adj)
    goal = n if limit is None else limit
    best: list[int] = []

    def expand(clique: list[int], cand_mask: int) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = list(clique)
        m = cand_mask
        while m and len(best) < goal:
            if len(clique) + m.bit_count() <= len(best):
                return
            v = (m & -m).bit_length() - 1
            m &= m - 1
            expand(clique + [v], cand_mask & adj[v] & ~((1 << (v + 1)) - 1))

    expand([], (1 << n) - 1)
    return best
