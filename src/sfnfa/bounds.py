"""Lower-bound machinery: fooling-set certificates, fooling-set search,
an exhaustive minimal-NFA oracle for tiny instances, and the certification
reports tying upper and lower bounds together."""

from __future__ import annotations

import enum
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from . import _kernel
from .automata import (
    Dfa,
    Nfa,
    accepts,
    alphabet,
    bits,
    canonical_dfa,
    enumerate_words,
    lambda_nfa,
    step,
    word_masks,
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


def verify_fooling_set(a: Nfa, p: FoolingSet) -> bool:
    """Check both fooling-set conditions against L(a)."""
    fwd, bwd = word_masks(a)
    masks = [(fwd(a.alphabet.word(x)), bwd(a.alphabet.word(w))) for x, w in p.pairs]
    if not all(f & b for f, b in masks):
        return False
    return not any(
        fi & bj and fj & bi
        for i, (fi, bi) in enumerate(masks)
        for fj, bj in masks[i + 1:]
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


_CANDIDATE_CAP = 16384
_EXACT_CLIQUE_NODES = 24


def search_fooling_set(
    a: Nfa,
    max_word_len: int,
    target_size: int,
    seed: int = 0,
    restarts: int = 64,
) -> FoolingSet | None:
    """Automated lower-bound discovery over bounded words.

    Candidates are all splits (x, w) of accepted words of length at most
    ``max_word_len``.  Two candidates are compatible when at least one
    cross product leaves the language; a clique of compatible candidates
    is a fooling set.  Clique search is exact (bitmask branch and bound)
    up to 24 candidates and seeded-greedy with restarts above.
    """
    if target_size < 1:
        raise ValueError("target_size must be at least 1")
    words = enumerate_words(a, max_word_len)
    cands = []
    seen = set()
    for w in words:
        for i in range(len(w) + 1):
            pair = (w[:i], w[i:])
            if pair not in seen:
                seen.add(pair)
                cands.append(pair)
    if len(cands) > _CANDIDATE_CAP:
        raise SearchBudgetExceeded(
            f"{len(cands)} candidate pairs exceed the search cap",
            best_size=1 if cands else 0,
        )
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

    if nc <= _EXACT_CLIQUE_NODES:
        best = _max_clique_exact(adj)
    else:
        best = _clique_greedy(adj, target_size, seed, restarts)
    if len(best) < target_size:
        return None
    chosen = sorted(best)
    fs = FoolingSet(
        tuple((a.alphabet.text(cands[i][0]), a.alphabet.text(cands[i][1])) for i in chosen)
    )
    if not verify_fooling_set(a, fs):
        raise CertificateError("search produced an unverifiable fooling set")
    return fs


def _max_clique_exact(adj: list[int]) -> list[int]:
    n = len(adj)
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

    expand([], (1 << n) - 1)
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


# Exhaustive search ceilings: the full table space (2^k)^(k * sigma) has to
# stay enumerable; beyond these the tool degrades to fooling sets only.
_TABLE_BUDGET = 1 << 24


def _default_ceiling(alphabet_size: int) -> int:
    return 3 if alphabet_size <= 2 else 2


def _sample_trie(alphabet_size: int, depth: int):
    """BFS word trie of every word of length <= depth: parent index,
    edge symbol, and a (parent-word, symbol) expansion order."""
    parents = [-1]
    symbols = [-1]
    level = [0]
    nodes_words = [()]
    for _ in range(depth):
        nxt = []
        for node in level:
            for x in range(alphabet_size):
                parents.append(node)
                symbols.append(x)
                nodes_words.append(nodes_words[node] + (x,))
                nxt.append(len(parents) - 1)
        level = nxt
    return parents, symbols, nodes_words


def _candidate_nfa(a: Nfa, k: int, cells: tuple[int, ...], finals_mask: int) -> Nfa:
    s = a.alphabet.size
    trans = set()
    for st in range(k):
        for x in range(s):
            for dst in bits(cells[st * s + x]):
                trans.add((st, x, dst))
    finals = frozenset(q for q in range(k) if finals_mask >> q & 1)
    return Nfa(k, a.alphabet, 0, finals, frozenset(trans))


def _final_mask_options(cells, k, s, parents, symbols, labels, f_max):
    """All subsets of f_max consistent with the sample labels, largest
    first.  Needed because the bounded sample cannot always distinguish
    final-set choices that only diverge on longer words."""
    rows = [cells[st * s:(st + 1) * s] for st in range(k)]
    reach = [1]
    for i in range(1, len(parents)):
        reach.append(step(rows, reach[parents[i]], symbols[i]))
    accept_masks = [reach[i] for i in range(len(parents)) if labels[i]]
    options = []
    sub = f_max
    while True:
        if all(sub & am for am in accept_masks):
            options.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & f_max
    return options


def nsc_exhaustive(a: Nfa, max_states: int) -> int | None:
    """Least k <= max_states with a k-state lambda-free NFA equivalent to
    L(a), by exhaustive enumeration with start fixed at state 0.

    Candidate tables are filtered against all words of length <= 2k by the
    depth-first table search, then survivors get a full
    determinize-and-minimize equivalence check.
    """
    sigma = a.alphabet.size
    ceiling = _default_ceiling(sigma)
    if max_states > ceiling:
        raise BudgetExceeded(
            f"max_states {max_states} exceeds the ceiling {ceiling} for a "
            f"{sigma}-symbol alphabet"
        )
    target = canonical_dfa(a)
    for k in range(1, max_states + 1):
        if (1 << k) ** (k * sigma) > _TABLE_BUDGET:
            raise BudgetExceeded(f"table space for k={k} exceeds the budget")
        parents, symbols, node_words = _sample_trie(sigma, 2 * k)
        labels = [accepts(a, w) for w in node_words]
        survivors = _kernel.filter_tables(k, sigma, parents, symbols, labels)
        for cells, f_max in survivors:
            for fmask in _final_mask_options(
                cells, k, sigma, parents, symbols, labels, f_max
            ):
                cand = _candidate_nfa(a, k, cells, fmask)
                if canonical_dfa(cand) == target:
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
# the seeded fooling-set search over bounded words.
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
    ignore ``n``."""
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
        fs = search_fooling_set(result, max_word_len=m + 3, target_size=m, seed=seed)
    lower = len(fs) if fs else 0
    return ComplexityReport(
        op, m, n, result.state_count, lower,
        LowerBoundKind.FOOLING_SET if fs else LowerBoundKind.NONE,
        formula, spec.expects_tight and lower == result.state_count == formula,
        fooling_set=fs, note=spec.note,
    )
