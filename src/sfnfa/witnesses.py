"""Parameterized witness language families for the lower-bound arguments,
and the paper's fooling sets for them.

Each generator emits an explicit NFA (or pair of NFAs) of exactly the
stated state count, over the smallest alphabet the family needs.  All
outputs are suffix-free and non-returning.  ``_RULES`` holds every fact
about a family in one entry: its least m (and n), whether it is a pair,
its layout, and the paper's fooling pairs where the paper has them.  The
pairs fool the language whose bound the family witnesses: the lemma
languages themselves, and the operation's result for the pairs and star.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from .automata import Alphabet, Nfa, alphabet
from .errors import ParameterOutOfRange
from .serialize import check_limits


class Family(enum.Enum):
    LEMMA_L1 = "lemma-l1"
    LEMMA_L2 = "lemma-l2"
    UNION_PAIR = "union-pair"
    CONCAT_PAIR = "concat-pair"
    INTERSECT_PAIR = "intersect-pair"
    STAR = "star"
    REVERSAL = "reversal"
    COMPLEMENT_PREFIXED = "complement-prefixed"

    @property
    def min_m(self) -> int:
        """Least admissible m, and n for a pair family."""
        return _RULES[self].min_m

    @property
    def is_pair(self) -> bool:
        return _RULES[self].pair


@dataclass(frozen=True)
class WitnessSpec:
    family: Family
    m: int
    n: int | None = None

    def __post_init__(self):
        f = self.family
        if self.m < f.min_m:
            raise ParameterOutOfRange(f"{f.value} requires m >= {f.min_m}, got {self.m}")
        if f.is_pair:
            if self.n is None or self.n < f.min_m:
                raise ParameterOutOfRange(f"{f.value} requires n >= {f.min_m}")
        elif self.n is not None:
            raise ParameterOutOfRange(f"{f.value} takes no n parameter")


def _symbol_then_cycle(m: int, alpha: Alphabet, first: int, loop: int) -> tuple:
    """NFA for first . (loop^(m-1))*: one ``first`` edge into an m-1 cycle
    of ``loop`` edges whose entry state is final."""
    trans = {(0, first, 1)}
    cycle = m - 1
    for i in range(cycle):
        trans.add((1 + i, loop, 1 + (i + 1) % cycle))
    return m, alpha, 0, frozenset({1}), frozenset(trans)


def _lemma_l1(m: int) -> tuple:
    return _symbol_then_cycle(m, alphabet("ab"), first=1, loop=0)  # b (a^(m-1))*


def _lemma_l2(m: int) -> tuple:
    # b (a^(m-2))* b: b into a cycle of length m-2, b out to the final.
    alpha = alphabet("ab")
    b, a = 1, 0
    trans = {(0, b, 1), (1, b, m - 1)}
    cycle = m - 2
    for i in range(cycle):
        trans.add((1 + i, a, 1 + (i + 1) % cycle))
    return m, alpha, 0, frozenset({m - 1}), frozenset(trans)


def _counter_after_c(m: int, counted: int, other: int) -> tuple:
    """NFA for {c w | w over {a,b}, #counted(w) = 0 mod m-1}."""
    alpha = alphabet("abc")
    c = 2
    trans = {(0, c, 1)}
    cycle = m - 1
    for i in range(cycle):
        state = 1 + i
        trans.add((state, counted, 1 + (i + 1) % cycle))
        trans.add((state, other, state))
    return m, alpha, 0, frozenset({1}), frozenset(trans)


def _chain(m: int) -> tuple:
    # The singleton {a^(m-1)} over the unary alphabet.
    alpha = alphabet("a")
    trans = {(i, 0, i + 1) for i in range(m - 1)}
    return m, alpha, 0, frozenset({m - 1}), frozenset(trans)


def _reversal_witness(m: int) -> tuple:
    # d (a^(m-3))* (b* + c*) over {a,b,c,d}: d into an a-cycle of length
    # m-3, whose entry can leave into a b-loop or a c-loop state.
    alpha = alphabet("abcd")
    a, b, c, d = 0, 1, 2, 3
    cycle = m - 3
    p_b, p_c = m - 2, m - 1
    trans = {(0, d, 1), (1, b, p_b), (p_b, b, p_b), (1, c, p_c), (p_c, c, p_c)}
    for i in range(cycle):
        trans.add((1 + i, a, 1 + (i + 1) % cycle))
    return m, alpha, 0, frozenset({1, p_b, p_c}), frozenset(trans)


def _complement_prefixed(m: int) -> tuple:
    """c·K: a c edge from a fresh start 0 into the start of the binary core
    K, whose states move up by one.  K has m-1 states over {a,b}: a-count =
    0 mod m-1, b free.  A stand-in for the external hard-to-complement
    binary family; it lets the pipeline run end to end but claims nothing
    about the 2^(m-1)-1 lower bound."""
    states = m - 1
    edges = [(i, x, (i + 1) % states if x == 0 else i) for i in range(states) for x in (0, 1)]
    trans = [(0, 2, 1), *[(src + 1, x, dst + 1) for src, x, dst in edges]]
    return states + 1, alphabet("abc"), 0, [1], trans


def _lemma_l1_pairs(m: int, n: None) -> list:
    return [("", "b")] + [("b" + "a" * i, "a" * (m - 1 - i)) for i in range(m - 1)]


def _lemma_l2_pairs(m: int, n: None) -> list:
    return [("", "bb"), *[("b" + "a" * i, "a" * (m - 2 - i) + "b") for i in range(m - 2)],
            ("b" + "a" * (m - 2) + "b", "")]


def _union_pairs(m: int, n: int) -> list:
    return [("", "b" + "a" * (m - 1)),
            *[("b" + "a" * i, "a" * (m - 1 - i)) for i in range(m - 1)],
            *[("a" + "b" * j, "b" * (n - 1 - j)) for j in range(n - 1)]]


def _catenation_pairs(m: int, n: int) -> list:
    total = m + n - 2
    return [("a" * i, "a" * (total - i)) for i in range(total + 1)]


def _intersection_pairs(m: int, n: int) -> list:
    return [("", "c"), *[("c" + "a" * i + "b" * j, "a" * (m - 1 - i) + "b" * (n - 1 - j))
                         for i in range(1, m) for j in range(1, n)]]


@dataclass(frozen=True)
class _Rule:
    """One family: its least m (and n), whether it is a pair, its layout
    ``(m, n) -> (shape, ...)`` and its paper fooling pairs ``(m, n) ->
    pairs``, None where the paper has none."""

    min_m: int
    pair: bool
    layout: Callable[[int, int | None], tuple[tuple, ...]]
    fooling: Callable[[int, int | None], list] | None = None


# Binary families need m >= 2; the two-symbol cycle family needs m >= 3;
# the reversal family needs the d + cycle + b*/c* layout, so m >= 4.  Star
# of b (a^(m-1))* is fooled by lemma-l1's own pairs.
_RULES = {
    Family.LEMMA_L1: _Rule(2, False, lambda m, n: (_lemma_l1(m),), _lemma_l1_pairs),
    Family.LEMMA_L2: _Rule(3, False, lambda m, n: (_lemma_l2(m),), _lemma_l2_pairs),
    # b (a^(m-1))* and its letter-swapped twin a (b^(n-1))*.
    Family.UNION_PAIR: _Rule(2, True, lambda m, n: (
        _lemma_l1(m), _symbol_then_cycle(n, alphabet("ab"), first=0, loop=1)), _union_pairs),
    Family.CONCAT_PAIR: _Rule(2, True, lambda m, n: (_chain(m), _chain(n)), _catenation_pairs),
    Family.INTERSECT_PAIR: _Rule(2, True, lambda m, n: (
        _counter_after_c(m, counted=0, other=1), _counter_after_c(n, counted=1, other=0)),
        _intersection_pairs),
    Family.STAR: _Rule(2, False, lambda m, n: (_lemma_l1(m),), _lemma_l1_pairs),
    Family.REVERSAL: _Rule(4, False, lambda m, n: (_reversal_witness(m),)),
    Family.COMPLEMENT_PREFIXED: _Rule(2, False, lambda m, n: (_complement_prefixed(m),)),
}


def layout(spec: WitnessSpec) -> tuple[tuple, ...]:
    """The ``Nfa.from_edges`` arguments (states, alphabet, start, finals, edges)
    of each automaton of a witness family, one per operand, so that a
    caller can check their size before any successor mask is allocated."""
    return _RULES[spec.family].layout(spec.m, spec.n)


def fooling_pairs(spec: WitnessSpec) -> tuple[tuple[str, str], ...]:
    """The paper's fooling pairs for the language whose bound ``spec``
    witnesses, or ``ParameterOutOfRange`` for a family the paper gives
    none."""
    fooling = _RULES[spec.family].fooling
    if fooling is None:
        raise ParameterOutOfRange(f"{spec.family.value} has no paper fooling set")
    return tuple(fooling(spec.m, spec.n))


def checked_layout(spec: WitnessSpec) -> tuple[tuple, ...]:
    """``layout(spec)``, or ``ParameterOutOfRange`` for a witness too large
    to load back, before any successor mask is allocated."""
    # Each family has m (and n) states over at least one symbol, so this
    # refuses an m beyond the load limits before its edges are listed.
    check_limits(max(spec.m, spec.n or 0), 1, error=ParameterOutOfRange)
    shapes = layout(spec)
    for states, alpha, _, _, transitions in shapes:
        check_limits(states, alpha.size, transitions, error=ParameterOutOfRange)
    return shapes


def build(spec: WitnessSpec):
    """Instantiate a witness family; pair families return a 2-tuple.  A
    witness too large to load back raises ``ParameterOutOfRange`` before
    any successor mask is allocated."""
    made = tuple(Nfa.from_edges(*args) for args in checked_layout(spec))
    return made if spec.family.is_pair else made[0]
