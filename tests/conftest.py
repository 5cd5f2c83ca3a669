import random

from sfnfa.automata import Alphabet, Nfa


def random_nfa(rng: random.Random, max_states=4, labels="ab", lambda_prob=0.1) -> Nfa:
    """Small random NFA for property and round-trip tests."""
    alpha = Alphabet(tuple(labels))
    n = rng.randint(1, max_states)
    trans = set()
    for src in range(n):
        for _ in range(rng.randint(0, 2 * alpha.size)):
            if rng.random() < lambda_prob:
                sym = None
            else:
                sym = rng.randrange(alpha.size)
            dst = rng.randrange(n)
            if sym is None and dst == src:
                continue  # self lambda loops are pointless noise
            trans.add((src, sym, dst))
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Nfa.from_edges(n, alpha, 0, finals, trans)


def random_non_returning_nfa(rng, max_states=4, labels="ab") -> Nfa:
    a = random_nfa(rng, max_states, labels, lambda_prob=0.0)
    trans = [t for t in a.transitions if t[2] != a.start]
    return Nfa.from_edges(a.state_count, a.alphabet, a.start, a.finals, trans)


def all_words(alpha: Alphabet, max_len: int):
    level = [()]
    for _ in range(max_len + 1):
        yield from level
        level = [w + (x,) for w in level for x in range(alpha.size)]
