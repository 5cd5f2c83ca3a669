import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sfnfa import _kernel, automata, bounds
from sfnfa.automata import (
    accepts,
    alphabet,
    canonical_dfa,
    empty_nfa,
    enumerate_words,
    lambda_nfa,
    make_nfa,
    pred_rows,
    reachable_sets,
    remove_lambda,
    step,
    trim,
)
from sfnfa.bounds import (
    FoolingSet,
    LowerBoundKind,
    Operation,
    certify,
    nsc_exhaustive,
    paper_fooling_set,
    search_cover,
    search_fooling_set,
    verify_fooling_set,
)
from sfnfa.constructions import concat_sf, intersect_sf, reverse_nfa, star_sf, union_sf
from sfnfa.errors import (
    BudgetExceeded,
    CertificateError,
    ParameterOutOfRange,
    SearchBudgetExceeded,
)
from sfnfa.witnesses import Family, WitnessSpec, build

from automata_extras import COMPLEMENT_CORES, complement_witness
from conftest import random_nfa, random_non_returning_nfa
from fooling_oracle import (
    bounded_word_fooling_set,
    max_clique_by_count,
    pairwise_verify_fooling_set,
)
import nsc_oracle
import set_oracle
from nsc_oracle import nsc_without_stop


class TestVerifyFoolingSet:
    def test_lemma_l1_m3(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        fs = FoolingSet((("", "b"), ("b", "aa"), ("ba", "a")))
        assert verify_fooling_set(w, fs)

    def test_duplicate_pair_fails(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert not verify_fooling_set(w, FoolingSet((("", "b"), ("", "b"))))

    def test_non_member_product_fails(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert not verify_fooling_set(w, FoolingSet((("", "ba"),)))

    def test_union_proof_set(self):
        left, right = build(WitnessSpec(Family.UNION_PAIR, 3, 3))
        u = union_sf(left, right)
        fs = FoolingSet(
            (("", "baa"), ("b", "aa"), ("ba", "a"), ("a", "bb"), ("ab", "b"))
        )
        assert verify_fooling_set(u, fs)

    def test_unknown_label_raises(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        for pairs in ((("bz", "a"),), (("b", "za"),), (("", "b"), ("b", "aaz"))):
            with pytest.raises(ValueError, match="'z' not in alphabet"):
                verify_fooling_set(w, FoolingSet(pairs))

    def test_empty_set_verifies(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert verify_fooling_set(w, FoolingSet(()))
        assert verify_fooling_set(empty_nfa(alphabet("ab")), FoolingSet(()))


def _paper_cases():
    """Every paper fooling family at m, n <= 6, with the automaton it is
    checked against: ``(name, automaton, fooling set)``."""
    cases = []
    for m in range(2, 7):
        cases.append((f"lemma-l1 {m}", build(WitnessSpec(Family.LEMMA_L1, m)),
                      paper_fooling_set(Family.LEMMA_L1, m)))
        if m >= 3:
            cases.append((f"lemma-l2 {m}", build(WitnessSpec(Family.LEMMA_L2, m)),
                          paper_fooling_set(Family.LEMMA_L2, m)))
        cases.append((f"star {m}", star_sf(build(WitnessSpec(Family.STAR, m))),
                      paper_fooling_set(Family.STAR, m)))
        for n in range(2, 7):
            for name, family, construct in (
                ("union", Family.UNION_PAIR, union_sf),
                ("catenation", Family.CONCAT_PAIR, concat_sf),
                ("intersection", Family.INTERSECT_PAIR, intersect_sf),
            ):
                cases.append((f"{name} {m} {n}",
                              construct(*build(WitnessSpec(family, m, n))),
                              paper_fooling_set(family, m, n)))
    return cases


PAPER_CASES = _paper_cases()


def _both_verify(a, pairs) -> bool:
    """The verifier's answer, after checking that the pairwise oracle agrees."""
    fs = FoolingSet(tuple(pairs))
    got = verify_fooling_set(a, fs)
    assert got == pairwise_verify_fooling_set(a, fs)
    return got


class TestFoolingSetMutations:
    """Each paper family at m, n <= 6 fails once mutated."""

    def test_dropped_letter_of_w(self):
        # Dropping a letter of some w takes x·w out of the language, except
        # in union at m = n = 2 and star at m = 2, whose languages hold
        # every word so shortened.
        without = set()
        for name, a, fs in PAPER_CASES:
            drops = [
                fs.pairs[:i] + ((x, w[:k] + w[k + 1:]),) + fs.pairs[i + 1:]
                for i, (x, w) in enumerate(fs.pairs) for k in range(len(w))
                if not accepts(a, a.alphabet.word(x + w[:k] + w[k + 1:]))
            ]
            if not drops:
                without.add(name)
            for pairs in drops:
                assert not _both_verify(a, pairs), (name, pairs)
        assert without == {"union 2 2", "star 2"}

    def test_duplicated_pair(self):
        for name, a, fs in PAPER_CASES:
            for pair in fs.pairs:
                assert not _both_verify(a, fs.pairs + (pair,)), (name, pair)

    def test_extra_clashing_pair(self):
        # A split (x_i, u) of another accepted word x_i·u clashes with
        # (x_i, w_i), and so does (v, w_i) of v·w_i: both cross products
        # lie in the language.  Catenation's language is the one word
        # a^(m+n-2), all of whose splits are pairs already, so its only
        # clashing extra pair is a duplicate.
        without = set()
        for name, a, fs in PAPER_CASES:
            longest = max(len(x) + len(w) for x, w in fs.pairs)
            words = [a.alphabet.text(z) for z in enumerate_words(a, longest + 2)]
            extra = [(x, z[len(x):]) for x, w in fs.pairs for z in words
                     if z.startswith(x) and z[len(x):] != w]
            extra += [(z[:len(z) - len(w)], w) for x, w in fs.pairs for z in words
                      if z.endswith(w) and z[:len(z) - len(w)] != x]
            if not extra:
                without.add(name)
            for pair in extra[:5]:
                assert not _both_verify(a, fs.pairs + (pair,)), (name, pair)
        assert without == {name for name, _, _ in PAPER_CASES
                           if name.startswith("catenation")}


def _mutate(rng, pairs, labels):
    """One random edit of a pair list: a duplicated pair, an x extended by a
    letter, a dropped pair, a dropped letter of a w, or two w swapped."""
    pairs = list(pairs)
    i = rng.randrange(len(pairs))
    x, w = pairs[i]
    kind = rng.randrange(5)
    if kind == 0:
        pairs.insert(rng.randrange(len(pairs) + 1), (x, w))
    elif kind == 1:
        pairs[i] = (x + rng.choice(labels), w)
    elif kind == 2:
        del pairs[i]
    elif kind == 3 and w:
        k = rng.randrange(len(w))
        pairs[i] = (x, w[:k] + w[k + 1:])
    else:
        j = rng.randrange(len(pairs))
        pairs[i], pairs[j] = (x, pairs[j][1]), (pairs[j][0], w)
    return pairs


def _search_with_limit(a, limit):
    """The fooling-set search stopped at its first set of ``limit`` pairs,
    as ``nsc_exhaustive`` runs it."""
    return bounds._fooling_cells(trim(remove_lambda(a)), limit)[2]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["ab", "abc"]),
       st.sampled_from([0.0, 0.15, 0.3]),
       st.sampled_from(["search", "search", "paper", "mutated", "random"]))
def test_verifier_matches_pairwise_oracle(seed, labels, lambda_prob, source):
    # Random pair lists are mostly rejected, so most inputs are fooling
    # sets: search results on random NFAs and the paper families, and
    # single edits of search results.
    rng = random.Random(seed)
    a = random_nfa(rng, max_states=7, labels=labels, lambda_prob=lambda_prob)
    fs = None
    if source == "random":
        def text():
            return "".join(rng.choice(labels) for _ in range(rng.randrange(5)))
        _both_verify(a, [(text(), text()) for _ in range(rng.randrange(1, 6))])
        return
    if source != "paper":
        # A limit of 4 pairs keeps the clique search fast on 7 states.  An
        # empty language, or a matrix over the cell cap, gives no set, and
        # a paper family stands in.
        try:
            fs = _search_with_limit(a, 4)
        except SearchBudgetExceeded:
            pass
    if fs is None:
        _, a, fs = rng.choice(PAPER_CASES)
        labels = "".join(a.alphabet.labels)
    pairs = _mutate(rng, fs.pairs, labels) if source == "mutated" else fs.pairs
    _both_verify(a, pairs)


class TestPaperFoolingSet:
    def test_catenation_m3_n3(self):
        fs = paper_fooling_set(Family.CONCAT_PAIR, 3, 3)
        assert fs.pairs == (
            ("", "aaaa"), ("a", "aaa"), ("aa", "aa"), ("aaa", "a"), ("aaaa", ""),
        )

    def test_intersection_m2_n2(self):
        fs = paper_fooling_set(Family.INTERSECT_PAIR, 2, 2)
        assert fs.pairs == (("", "c"), ("cab", ""))

    def test_star_m4(self):
        fs = paper_fooling_set(Family.STAR, 4)
        assert fs.pairs == (("", "b"), ("b", "aaa"), ("ba", "aa"), ("baa", "a"))

    def test_cardinalities(self):
        assert len(paper_fooling_set(Family.LEMMA_L1, 5)) == 5
        assert len(paper_fooling_set(Family.LEMMA_L2, 5)) == 5
        assert len(paper_fooling_set(Family.UNION_PAIR, 4, 3)) == 6
        assert len(paper_fooling_set(Family.CONCAT_PAIR, 4, 5)) == 8
        assert len(paper_fooling_set(Family.INTERSECT_PAIR, 4, 3)) == 7
        assert len(paper_fooling_set(Family.STAR, 6)) == 6

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            paper_fooling_set(Family.LEMMA_L2, 2)
        with pytest.raises(ParameterOutOfRange):
            paper_fooling_set(Family.UNION_PAIR, 2)

    @pytest.mark.parametrize("family, m, n", [
        (Family.STAR, 0, None), (Family.STAR, -3, None), (Family.STAR, 1, None),
        (Family.LEMMA_L1, 3, 5), (Family.LEMMA_L2, 2, None),
        (Family.UNION_PAIR, 2, None), (Family.INTERSECT_PAIR, 3, 1),
    ])
    def test_refuses_what_the_witness_refuses(self, family, m, n):
        # The same check, so the same message: no set for an (m, n) that no
        # witness has, and no n silently dropped.
        with pytest.raises(ParameterOutOfRange) as refused:
            WitnessSpec(family, m, n)
        with pytest.raises(ParameterOutOfRange, match=re.escape(str(refused.value))):
            paper_fooling_set(family, m, n)

    @pytest.mark.parametrize("family", [Family.REVERSAL, Family.COMPLEMENT_PREFIXED])
    def test_families_without_a_paper_set(self, family):
        with pytest.raises(ParameterOutOfRange, match="has no paper fooling set"):
            paper_fooling_set(family, 5)

    def test_all_families_verify_on_constructions_up_to_6(self):
        for name, a, fs in PAPER_CASES:
            assert _both_verify(a, fs.pairs), name


class TestSearchFoolingSet:
    def test_finds_certificate_for_lemma_l1(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        fs = search_fooling_set(w)
        assert fs is not None and len(fs) >= 3
        assert verify_fooling_set(w, fs)

    def test_lambda_language_has_no_two_set(self):
        fs = search_fooling_set(lambda_nfa(alphabet("ab")))
        assert fs == FoolingSet((("", ""),))

    def test_empty_language_has_none(self):
        assert search_fooling_set(empty_nfa(alphabet("ab"))) is None
        assert search_fooling_set(make_nfa(2, "ab", 0, [1], [(1, "a", 1)])) is None

    def test_reversed_reversal_witness(self):
        w = build(WitnessSpec(Family.REVERSAL, 4))
        rev = reverse_nfa(w)
        fs = search_fooling_set(rev)
        assert fs == FoolingSet((("a", "d"), ("b", "bd"), ("c", "cd"), ("d", "")))
        assert verify_fooling_set(rev, fs)

    @pytest.mark.parametrize("m", range(4, 11))
    def test_reversal_maximum_is_exactly_m(self, m):
        # The search is exact, so this also proves that the reversed
        # witness has no fooling set of m + 1 pairs.
        rev = reverse_nfa(build(WitnessSpec(Family.REVERSAL, m)))
        assert len(search_fooling_set(rev)) == m

    def test_deterministic_for_fixed_seed(self):
        rev = reverse_nfa(build(WitnessSpec(Family.REVERSAL, 5)))
        assert search_fooling_set(rev) == search_fooling_set(rev)
        # certify still takes a seed, which no longer has any effect.
        report = certify(Operation.REVERSAL, 5, seed=0)
        assert certify(Operation.REVERSAL, 5, seed=7) == report
        assert report.fooling_set == search_fooling_set(rev)

    def test_cell_cap(self):
        # Reversal at m has m + 5 cells.  The cap admits 512 cells, whose
        # clique of 507 recurses that deep; one more cell is refused before
        # any recursion.
        rev = reverse_nfa(build(WitnessSpec(Family.REVERSAL, 507)))
        assert len(search_fooling_set(rev)) == 507
        for m in (508, 1000):
            rev = reverse_nfa(build(WitnessSpec(Family.REVERSAL, m)))
            with pytest.raises(SearchBudgetExceeded):
                search_fooling_set(rev)

    def test_rows_over_the_cap_are_refused(self):
        # {b, a^600} has 602 rows; the search refuses it before it pairs
        # rows with columns.
        a = make_nfa(601, "ab", 0, [1, 600],
                     [(0, "b", 1)] + [(q, "a", q + 1) for q in range(600)])
        with pytest.raises(SearchBudgetExceeded):
            search_fooling_set(a)

    def test_useless_states_do_not_count_against_the_cap(self):
        # {λ} behind a chain of 600 states that reach no final state.
        chain = make_nfa(600, "ab", 0, [0], [(q, "a", q + 1) for q in range(599)])
        assert search_fooling_set(chain) == FoolingSet((("", ""),))

    def test_failed_recheck_raises(self, monkeypatch):
        # The re-check is an explicit raise, so it also runs under python -O.
        monkeypatch.setattr(bounds, "verify_fooling_set", lambda a, p: False)
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        with pytest.raises(CertificateError):
            search_fooling_set(w)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans(), st.integers(1, 6))
def test_search_with_limit_returns_min_of_limit_and_maximum(seed, returning, limit):
    rng = random.Random(seed)
    a = (random_nfa if returning else random_non_returning_nfa)(rng, max_states=6)
    exact = search_fooling_set(a)
    fs = _search_with_limit(a, limit)
    if exact is None:
        assert fs is None
    else:
        assert len(fs) == min(limit, len(exact))
        assert verify_fooling_set(a, fs)


def test_limit_bounds_the_slow_clique_search():
    # A 10-state NFA with a 378-cell clique graph; the minimal-NFA search
    # only asks for max_states + 1 pairs.
    a = random_nfa(random.Random(30), max_states=10, lambda_prob=0)
    fs = _search_with_limit(a, 4)
    assert len(fs) == 4 and verify_fooling_set(a, fs)
    assert nsc_exhaustive(a, 3) == nsc_without_stop(a, 3)


def _clique_graph(a):
    """The compatibility graph that ``search_fooling_set(a)`` hands to the
    clique search, or None when it has none."""
    with mock.patch.object(bounds, "_max_clique_exact",
                           wraps=bounds._max_clique_exact) as spy:
        try:
            search_fooling_set(a)
        except SearchBudgetExceeded:
            return None
    return spy.call_args.args[0] if spy.called else None


def _is_clique(adj, members):
    return members == sorted(set(members)) and all(
        adj[u] >> v & 1 for u in members for v in members if u != v)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans(), st.integers(0, 8))
def test_colouring_bound_matches_the_count_bound(seed, returning, limit):
    # The clique search with the colouring bound against the former search,
    # which prunes by the count of candidates, on the graphs of random NFAs.
    # The former search takes up to minutes on some graphs of 400 cells, so
    # the graphs compared are kept to 100 cells.
    rng = random.Random(seed)
    a = (random_nfa if returning else random_non_returning_nfa)(rng, max_states=7)
    adj = _clique_graph(a)
    if adj is None or len(adj) > 100:
        return
    clique = bounds._max_clique_exact(adj)
    assert _is_clique(adj, clique)
    assert len(clique) == len(max_clique_by_count(adj))
    capped = bounds._max_clique_exact(adj, limit=limit)
    assert _is_clique(adj, capped)
    assert len(capped) == len(max_clique_by_count(adj, limit=limit)) == min(limit, len(clique))


class TestCliqueLimit:
    # A 10-state NFA whose clique graph has 378 cells and a clique of 7.
    SEED30 = random_nfa(random.Random(30), max_states=10, lambda_prob=0)

    def test_limit_returns_min_of_limit_and_maximum(self):
        adj = _clique_graph(self.SEED30)
        assert len(adj) == 378
        assert len(bounds._max_clique_exact(adj)) == 7
        for limit in range(10):
            clique = bounds._max_clique_exact(adj, limit=limit)
            assert _is_clique(adj, clique) and len(clique) == min(limit, 7)

    def test_edge_cases(self):
        assert bounds._max_clique_exact([]) == []
        assert len(bounds._max_clique_exact([0, 0, 0])) == 1
        assert bounds._max_clique_exact([0b110, 0b101, 0b011], limit=0) == []
        assert bounds._max_clique_exact([0b110, 0b101, 0b011]) == [0, 1, 2]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_search_between_bounded_word_oracle_and_nsc(seed, returning):
    rng = random.Random(seed)
    a = (random_nfa if returning else random_non_returning_nfa)(rng)
    fs = search_fooling_set(a)
    size = len(fs) if fs else 0
    # No fooling set over words of length <= 5 beats the exact maximum.
    assert bounded_word_fooling_set(a, 5, target_size=size + 1) is None
    k = nsc_exhaustive(a, 3)
    assert k is None or size <= k


# A 5-state binary NFA with a 4-pair fooling set and 6 live DFA states:
# the cover search finds no 4-state NFA, so k=4 is left to the tables.
ENUMERATES_K4 = make_nfa(5, "ab", 0, [0, 1, 3], [
    (0, "a", 0), (0, "a", 2), (0, "a", 4), (1, "a", 3), (2, "a", 0), (2, "a", 1),
    (2, "b", 1), (3, "a", 0), (3, "b", 1), (4, "a", 2), (4, "b", 3), (4, "b", 4)])
# A 4-state NFA over three letters with a 3-pair fooling set and 5 live DFA
# states, whose k=3 is left to the tables.
ENUMERATES_K3_OF_ABC = make_nfa(4, "abc", 0, [2, 3], [
    (0, "a", 3), (0, "b", 0), (0, "b", 2), (0, "c", 2), (1, "a", 3), (2, "c", 1),
    (3, "a", 1), (3, "a", 3), (3, "b", 3), (3, "c", 1), (3, "c", 2)])
# A 5-state binary NFA whose 3-pair fooling set has a cover whose NFA is not
# equivalent, and no other; its minimal NFA has the 4 live states of its
# minimal DFA.
COVER_FAILS_ITS_CHECK = make_nfa(5, "ab", 0, [1, 3, 4], [
    (0, "a", 2), (0, "a", 3), (0, "b", 0), (0, "b", 1), (1, "a", 4), (1, "b", 1),
    (1, "b", 4), (2, "a", 2), (2, "b", 0), (3, "a", 0), (4, "b", 1)])
# a+ b* as its 3-state minimal DFA without the dead state; its minimal NFA
# has 2 states, which reach 3 = 2^2 - 1 non-empty state sets.
A_PLUS_B_STAR = make_nfa(3, "ab", 0, [1, 2], [
    (0, "a", 1), (1, "a", 1), (1, "b", 2), (2, "b", 2)])


class TestNscExhaustive:
    def test_ba_star_needs_two_states(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 2))  # b a*
        assert nsc_exhaustive(w, 2) == 2

    def test_lambda_language(self):
        assert nsc_exhaustive(lambda_nfa(alphabet("ab")), 2) == 1

    def test_empty_language(self):
        assert nsc_exhaustive(empty_nfa(alphabet("ab")), 2) == 1

    def test_lemma_l1_m3_matches_certificate(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert nsc_exhaustive(w, 3) == len(paper_fooling_set(Family.LEMMA_L1, 3))

    def test_ceiling_enforced(self):
        # The ceiling holds for a size that would be enumerated: here the
        # bounds leave k=4 (binary) and k=3 (three letters) to the tables.
        with pytest.raises(BudgetExceeded, match="k=4 exceeds the ceiling 3"):
            nsc_exhaustive(ENUMERATES_K4, 4)
        with pytest.raises(BudgetExceeded, match="k=3 exceeds the ceiling 2"):
            nsc_exhaustive(ENUMERATES_K3_OF_ABC, 3)

    def test_ceiling_spares_sizes_settled_by_bounds(self):
        # b (aa)* and c (a + b)* stop at their own 3 and 2 states; neither
        # enumerates a size over the ceiling.
        assert nsc_exhaustive(build(WitnessSpec(Family.LEMMA_L1, 3)), 4) == 3
        assert nsc_exhaustive(build(WitnessSpec(Family.INTERSECT_PAIR, 2, 2))[0], 3) == 2

    def test_monotone_in_ceiling(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 2))
        assert nsc_exhaustive(w, 2) == nsc_exhaustive(w, 3) == 2

    def test_never_below_verified_fooling_set(self):
        rng = random.Random(31)
        for _ in range(10):
            a = random_non_returning_nfa(rng, max_states=3)
            fs = search_fooling_set(a)
            k = nsc_exhaustive(a, 3)
            if fs is not None and k is not None:
                assert k >= len(fs)


def _nsc_outcome(search, a, max_states):
    try:
        return search(a, max_states)
    except BudgetExceeded:
        return BudgetExceeded


def _assert_matches_search_without_stop(a, max_states):
    """``nsc_exhaustive`` against the oracle.  Where the oracle is over its
    ceiling or budget, the search may still answer from its bounds: the
    oracle at the largest size it enumerates, n, must then return that
    answer if it is at most n, and None otherwise."""
    got = _nsc_outcome(nsc_exhaustive, a, max_states)
    want = _nsc_outcome(nsc_without_stop, a, max_states)
    if want is not BudgetExceeded or got is BudgetExceeded:
        assert got == want
        return got
    n = max_states - 1
    while (small := _nsc_outcome(nsc_without_stop, a, n)) is BudgetExceeded:
        n -= 1
    assert small == (got if got is not None and got <= n else None)
    return got


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["ab", "abc"]), st.booleans(),
       st.integers(1, 3))
def test_nsc_matches_search_without_stop(seed, labels, returning, max_states):
    rng = random.Random(seed)
    if returning:
        a = random_nfa(rng, labels=labels, lambda_prob=0.2)
    else:
        a = random_non_returning_nfa(rng, labels=labels)
    _assert_matches_search_without_stop(a, max_states)


def _nsc_fixed_cases():
    """The criterion-7 witnesses, two m=4 witnesses beyond a k=3 search,
    {λ}, the empty language, and a 12-letter alphabet whose k=2 table
    space exceeds the budget."""
    cases = []
    for m in (2, 3):
        cases.append(build(WitnessSpec(Family.LEMMA_L1, m)))
        cases.append(star_sf(build(WitnessSpec(Family.STAR, m))))
    cases.append(build(WitnessSpec(Family.LEMMA_L2, 3)))
    cases.append(union_sf(*build(WitnessSpec(Family.UNION_PAIR, 2, 2))))
    cases.append(concat_sf(*build(WitnessSpec(Family.CONCAT_PAIR, 2, 2))))
    cases.append(build(WitnessSpec(Family.LEMMA_L1, 4)))
    cases.append(build(WitnessSpec(Family.LEMMA_L2, 4)))
    cases.append(lambda_nfa(alphabet("ab")))
    cases.append(empty_nfa(alphabet("ab")))
    cases.append(make_nfa(2, "abcdefghijkl", 0, [1], [(0, "a", 1)]))
    cases.append(lambda_nfa(alphabet("abcdefghijkl")))
    return cases


@pytest.mark.parametrize("max_states", [1, 2, 3])
def test_nsc_fixed_cases_match_search_without_stop(max_states):
    outcomes = [_assert_matches_search_without_stop(a, max_states)
                for a in _nsc_fixed_cases()]
    # The 12-letter cases stop at their own 2 and 1 states, so no size over
    # the table budget or the ceiling is enumerated.
    if max_states == 3:
        assert outcomes == [2, 2, 3, 3, 3, 3, 3, None, None, 1, 1, 2, 1]
    if max_states == 2:
        assert outcomes[-2:] == [2, 1]


class TestNscStop:
    """The search stops at the size of an NFA it already holds: the trimmed
    input, or the canonical DFA without its dead state.  It skips the sizes
    k with 2^k - 1 below the live states of the minimal DFA, the sizes up to
    the length of the shortest accepted word, and the sizes below a verified
    fooling set."""

    @staticmethod
    def searched(monkeypatch, a, max_states):
        sizes = []
        real = _kernel.filter_tables

        def recording(k, *args, **kwargs):
            sizes.append(k)
            return real(k, *args, **kwargs)

        monkeypatch.setattr(_kernel, "filter_tables", recording)
        return nsc_exhaustive(a, max_states), sizes

    def test_minimal_input_never_searches_its_own_size(self, monkeypatch):
        # b (aa)*: k=1 is at most the shortest word's length, and k=2 lies
        # below the 3-pair fooling-set floor.
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert self.searched(monkeypatch, w, 3) == (3, [])

    def test_fooling_floor_above_the_ceiling_skips_every_size_from_2(self, monkeypatch):
        # A 4-pair fooling set: no NFA of at most 3 states exists.  The
        # shortest word b skips k=1 before the floor is searched.
        w = build(WitnessSpec(Family.LEMMA_L1, 4))
        assert self.searched(monkeypatch, w, 3) == (None, [])

    def test_shortest_word_skips_every_size_up_to_its_length(self, monkeypatch):
        # {a^600}: no NFA of at most 600 states accepts a word of length 600.
        a = make_nfa(601, "ab", 0, [600], [(q, "a", q + 1) for q in range(600)])
        assert self.searched(monkeypatch, a, 3) == (None, [])

    def test_shortest_word_of_the_empty_language(self):
        # The search reads a shortest accepted word off the first state set
        # of reachable_sets on the trimmed input that meets its finals: none
        # for the empty language, λ for {λ}, and the first enumerated word
        # otherwise.
        def shortest(a):
            t = trim(remove_lambda(a))
            return next((word for word, states in reachable_sets(t.succ, 1 << t.start)
                         if states & t.final_mask), None)

        assert shortest(empty_nfa(alphabet("ab"))) is None
        assert shortest(lambda_nfa(alphabet("ab"))) == ()
        rng = random.Random(41)
        for _ in range(40):
            a = random_nfa(rng, max_states=6, lambda_prob=0.2)
            words = enumerate_words(a, a.state_count)
            assert shortest(a) == (words[0] if words else None)

    # b a* + a b* with each loop spread over a cycle of 300 final states:
    # 601 rows in its automaton matrix, over the cell cap, 3 live DFA
    # states and shortest words of length 1, so the bounds rule out k=1
    # only.
    CYCLES = make_nfa(601, "ab", 0, range(1, 601),
                      [(0, "b", 1), (0, "a", 301)]
                      + [(q, "a", q % 300 + 1) for q in range(1, 301)]
                      + [(q, "b", q % 300 + 301) for q in range(301, 601)])

    def test_sample_labels_are_membership(self, monkeypatch):
        # The trie is labelled by walking the canonical DFA's one-bit
        # masks; each label must be the membership of the node's word.
        seen = []

        def recording(k, s, parents, symbols, labels):
            seen.append((k, labels))
            return []

        monkeypatch.setattr(_kernel, "filter_tables", recording)
        assert nsc_exhaustive(self.CYCLES, 2) is None
        assert seen == [(2, nsc_oracle.sample(self.CYCLES, 2)[2])]

    def test_past_the_cell_cap_there_is_no_floor(self, monkeypatch):
        assert self.searched(monkeypatch, self.CYCLES, 2) == (None, [2])
        assert self.searched(monkeypatch, self.CYCLES, 3) == (3, [2])

    def test_subset_floor_of_the_dense_case(self, monkeypatch):
        # Every binary word except those of length 7: 9 live states need
        # 2^k - 1 >= 9, so k >= 4 and no size up to 3 is enumerated.
        assert self.searched(monkeypatch, _all_but_length(7), 3) == (None, [])

    def test_subset_floor_keeps_a_size_of_exactly_2k_minus_1_live_states(self):
        d = set_oracle.canonical_dfa(A_PLUS_B_STAR)
        assert d.state_count - (d.sink is not None) == 3
        assert nsc_exhaustive(A_PLUS_B_STAR, 3) == nsc_without_stop(A_PLUS_B_STAR, 3) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["ab", "abc"]), st.booleans())
    def test_no_size_below_the_subset_floor_is_enumerated(self, seed, labels, returning):
        rng = random.Random(seed)
        if returning:
            a = random_nfa(rng, max_states=6, labels=labels, lambda_prob=0.1)
        else:
            a = random_non_returning_nfa(rng, max_states=6, labels=labels)
        d = set_oracle.canonical_dfa(a)
        live = max(d.state_count - (d.sink is not None), 1)
        sizes = []
        real = _kernel.filter_tables

        def recording(k, *args, **kwargs):
            sizes.append(k)
            return real(k, *args, **kwargs)

        with mock.patch.object(_kernel, "filter_tables", recording):
            _nsc_outcome(nsc_exhaustive, a, 3)
        assert all(k >= 2 and 2**k - 1 >= live for k in sizes), (sizes, live)

    def test_stops_at_the_live_states_of_the_minimal_dfa(self, monkeypatch):
        # b a* on three trim states; its minimal DFA has 2 live states.
        a = make_nfa(3, "ab", 0, [1, 2], [(0, "b", 1), (1, "a", 2), (2, "a", 2)])
        assert self.searched(monkeypatch, a, 3) == (2, [])

    def test_no_answer_from_a_truncated_survivor_list(self, monkeypatch):
        # No bound settles k=2 for the cycles past the cell cap.  The table
        # search and its caller read the one cap at call time.
        a = self.CYCLES

        def capped(k, s, parents, symbols, labels):
            return [((0,) * (k * s), 0)] * _kernel.SURVIVOR_CAP

        monkeypatch.setattr(_kernel, "SURVIVOR_CAP", 7)
        monkeypatch.setattr(_kernel, "filter_tables", capped)
        with pytest.raises(BudgetExceeded, match="kept 7 survivors, its cap"):
            nsc_exhaustive(a, 2)


class TestNscStages:
    """``nsc_exhaustive`` reads the live states off the Moore blocks of the
    subset table and numbers the blocks into the canonical DFA only when a
    size is left to enumerate."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("an automaton was built")

    @pytest.mark.parametrize("a, want", [
        (empty_nfa(alphabet("ab")), 1),
        (lambda_nfa(alphabet("ab")), 1),
        (make_nfa(1, "ab", 0, [0], [(0, "a", 0)]), 1),
        # b a* on three trim states, so the answer is not the input's size.
        (make_nfa(3, "ab", 0, [1, 2], [(0, "b", 1), (1, "a", 2), (2, "a", 2)]), 2),
        (build(WitnessSpec(Family.LEMMA_L1, 2)), 2),
    ], ids=["empty", "lambda", "a-star", "b-a-star", "lemma-l1-m2"])
    def test_subset_floor_builds_no_automaton(self, monkeypatch, a, want):
        for name in ("_minimal", "canonical_dfa", "trim"):
            monkeypatch.setattr(bounds, name, self.refuse)
        assert nsc_exhaustive(a, 3) == want

    def test_bounds_that_meet_the_stop_number_no_blocks(self, monkeypatch):
        # b (aa)*: the 3-pair fooling floor meets the 3 live states, so no
        # block is numbered.  The complement witness at m=3 is met by a
        # cover of 4 grids: its blocks are numbered once, for the cover's
        # check, and the canonical DFA of the input itself is never built.
        numbered = []
        real_minimal = bounds._minimal
        monkeypatch.setattr(bounds, "_minimal",
                            lambda *args: numbered.append(1) or real_minimal(*args))
        checked = []
        real_canonical = bounds.canonical_dfa
        monkeypatch.setattr(bounds, "canonical_dfa",
                            lambda nfa: checked.append(nfa) or real_canonical(nfa))
        assert nsc_exhaustive(build(WitnessSpec(Family.LEMMA_L1, 3)), 3) == 3
        assert numbered == []
        a = complement_witness(3)
        assert nsc_exhaustive(a, 40) == 4
        assert numbered == [1]
        assert checked and trim(remove_lambda(a)) not in checked

    def test_a_cover_reuses_the_matrix_and_the_subset_table(self, monkeypatch):
        # The m=6 complement witness is met by a cover: one automaton matrix
        # serves the clique and the cover search, and one subset table of
        # the input serves the live states and the cover's check; the only
        # other subset walk is the check of the cover NFA itself.
        a = complement_witness(6)
        walks = []
        real_walk = automata._subset_walk
        monkeypatch.setattr(automata, "_subset_walk",
                            lambda rows, start: walks.append(rows) or real_walk(rows, start))
        with mock.patch.object(bounds, "_automaton_matrix",
                               wraps=bounds._automaton_matrix) as matrix:
            assert nsc_exhaustive(a, 40) == 32
        assert matrix.call_count == 1
        assert [rows is a.succ for rows in walks] == [True, False]

    def test_a_size_left_to_enumerate_numbers_the_blocks_once(self, monkeypatch):
        calls = []
        real = bounds._minimal
        monkeypatch.setattr(bounds, "_minimal", lambda *args: calls.append(1) or real(*args))
        assert nsc_exhaustive(TestNscStop.CYCLES, 2) is None
        assert calls == [1]


def _all_but_length(length: int):
    """Every binary word except those of the given length: a counter of
    the length read so far, which stays at length + 1 once past it."""
    top = length + 1
    return make_nfa(top + 1, "ab", 0, [q for q in range(top + 1) if q != length],
                    [(q, x, min(q + 1, top)) for q in range(top + 1) for x in "ab"])


def _survivor_cases():
    """Every survivor of the size-1 and size-2 table searches, with the
    oracle's verdict: ``(language, k, cells, target, verdict)``.  The two
    random NFAs each have a survivor whose rejection shows only on pairs
    past the target's dead state."""
    languages = [(f"all-but-{n}", _all_but_length(n)) for n in range(3, 7)]
    languages += [(f"random-{seed}", random_nfa(random.Random(seed), max_states=5,
                                                lambda_prob=0))
                  for seed in (142, 1352)]
    cases = []
    for name, a in languages:
        target = canonical_dfa(a)
        oracle_target = set_oracle.canonical_dfa(a)
        for k in (1, 2):
            trie = nsc_oracle.sample(a, k)
            for cells, f_max in _kernel.filter_tables(k, 2, *trie):
                verdict = nsc_oracle.survivor_equivalent(
                    a, k, cells, f_max, *trie, oracle_target)
                cases.append((name, k, cells, target, verdict))
    return cases


SURVIVOR_CASES = _survivor_cases()


def _walk(cells, k, target, *, sample_forbids=False, stop_at_sink=False):
    """A copy of the survivor walk, with one of two defects: the forbidden
    set taken from the sample's rejected words only, or no step taken from
    a pair at the target's dead state."""
    rows = [cells[st * 2:(st + 1) * 2] for st in range(k)]
    queue = [(1, 1 << target.start)]
    seen = set(queue)
    forbidden = 0
    needs = []
    for states, q in queue:
        if q & target.final_mask:
            needs.append(states)
        else:
            forbidden |= states
        row = target.succ[q.bit_length() - 1]
        if stop_at_sink and row == (q, q) and not q & target.final_mask:
            continue
        for x, r in enumerate(row):
            pair = (step(rows, states, x), r)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    if sample_forbids:
        parents, symbols = bounds._sample_trie(2, 2 * k)
        forbidden = 0
        state, reach = [1 << target.start], [1]
        for i in range(1, len(parents)):
            state.append(step(target.succ, state[parents[i]], symbols[i]))
            reach.append(step(rows, reach[parents[i]], symbols[i]))
            if not state[i] & target.final_mask:
                forbidden |= reach[i]
    return all(states & ~forbidden for states in needs)


def _disagreements(decide):
    """The survivor cases on which ``decide(cells, k, target)`` differs
    from the oracle."""
    return [(name, k, cells) for name, k, cells, target, verdict in SURVIVOR_CASES
            if decide(cells, k, target) != verdict]


class TestSurvivorDecision:
    """One product walk per survivor against the per-option oracle, on
    languages where most survivors are rejected."""

    @pytest.mark.parametrize("length", range(3, 7))
    @pytest.mark.parametrize("max_states", [1, 2])
    def test_nsc_matches_search_without_stop(self, length, max_states):
        a = _all_but_length(length)
        assert nsc_exhaustive(a, max_states) == nsc_without_stop(a, max_states) is None

    def test_walk_matches_the_oracle_on_every_survivor(self):
        assert _disagreements(bounds._survivor_equivalent) == []
        # The test's copy of the walk agrees too, before a defect is put in.
        assert _disagreements(_walk) == []
        # The all-but-one-length languages give 4 + 218 survivors, and
        # every one of them is rejected.
        verdicts = [verdict for name, _, _, _, verdict in SURVIVOR_CASES
                    if name.startswith("all-but")]
        assert verdicts == [False] * 222

    @pytest.mark.parametrize("mutant", [
        # The sample's maximal final set taken as it is, with no walk.
        lambda cells, k, target: True,
        lambda cells, k, target: _walk(cells, k, target, sample_forbids=True),
        lambda cells, k, target: _walk(cells, k, target, stop_at_sink=True),
    ], ids=["f-max-no-walk", "sample-forbids-only", "stop-at-sink"])
    def test_a_defective_walk_disagrees(self, mutant):
        assert _disagreements(mutant)


def _cover(a, limit=None):
    """The fooling set of L(a) and ``search_cover``'s NFA for its cells, as
    ``nsc_exhaustive`` runs them: on the trimmed lambda-free input, its
    automaton matrix and its canonical DFA."""
    t = trim(remove_lambda(a))
    matrix, fooling, fs = bounds._fooling_cells(t, limit)
    return fs, search_cover(t, matrix, fooling, canonical_dfa(t))


class TestCoverSearch:
    """NFAs built from covers of the automaton matrix by prime grids, one
    grid per cell of a verified fooling set."""

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_complement_witnesses_have_an_nfa_one_below_their_dfa(self, m):
        # complement_sf builds 2^(m-1) + 1 states; the fooling floor of
        # 2^(m-1) is met by a cover, so no table is enumerated.
        a = complement_witness(m)
        assert a.state_count == 2 ** (m - 1) + 1
        fs, nfa = _cover(a)
        assert len(fs) == nfa.state_count == 2 ** (m - 1)
        assert set_oracle.canonical_dfa(nfa) == set_oracle.canonical_dfa(a)
        with mock.patch.object(_kernel, "filter_tables", side_effect=AssertionError):
            assert nsc_exhaustive(a, 40) == 2 ** (m - 1)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_subset_pairs_fool_the_complement(self, m):
        # The complement of c·K from complement_sf, checked as it is: each
        # core subset S that a word x_S reaches pairs c·x_S with a word
        # accepted from exactly the core states outside S.  "cc" reaches
        # the empty set, and "c" is accepted from no core state.
        states, finals, edges = COMPLEMENT_CORES[m]
        core = make_nfa(states, "ab", 0, finals, edges)
        text, full = core.alphabet.text, (1 << states) - 1
        accepted_from = {sub: text(w[::-1])
                         for w, sub in reachable_sets(pred_rows(core), core.final_mask)}
        accepted_from[0] = "c"
        fs = FoolingSet((("cc", accepted_from[full]), *[
            ("c" + text(w), accepted_from[full & ~sub]) for w, sub in reachable_sets(core.succ, 1)
        ]))
        assert len(fs) == 2 ** (m - 1)
        assert verify_fooling_set(complement_witness(m), fs)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_cover_nfa_agrees_with_search_without_stop(self, seed, returning):
        rng = random.Random(seed)
        if returning:
            a = random_nfa(rng, max_states=6, lambda_prob=0.1)
        else:
            a = random_non_returning_nfa(rng, max_states=6)
        try:
            fs, nfa = _cover(a)
        except SearchBudgetExceeded:
            return
        if nfa is None:
            return
        assert nfa.state_count == len(fs)
        assert set_oracle.canonical_dfa(nfa) == set_oracle.canonical_dfa(a)
        if len(fs) <= 3:
            assert nsc_without_stop(a, len(fs)) == len(fs)

    def test_a_cover_that_fails_the_check_is_not_kept(self):
        a = COVER_FAILS_ITS_CHECK
        fs, nfa = _cover(a)
        assert len(fs) == 3
        assert nfa is None
        assert nsc_exhaustive(a, 5) == 4
        assert nsc_without_stop(a, 3) is None

    def test_fewer_pairs_than_the_minimum_give_no_cover(self):
        a = complement_witness(4)
        assert _cover(a, limit=7)[1] is None
        t = trim(remove_lambda(a))
        assert search_cover(t, bounds._automaton_matrix(t), [], canonical_dfa(t)) is None

    def test_past_the_node_budget_there_is_no_answer(self, monkeypatch):
        a = complement_witness(4)
        monkeypatch.setattr(bounds, "_COVER_NODES", 8)
        assert _cover(a)[1] is None
        with pytest.raises(BudgetExceeded, match="k=8 exceeds the ceiling 2"):
            nsc_exhaustive(a, 40)


class TestCertify:
    def test_union_4_3(self):
        r = certify(Operation.UNION, 4, 3)
        assert (r.constructed_size, r.lower_bound, r.formula_value) == (6, 6, 6)
        assert r.tight

    def test_intersection_3_4(self):
        r = certify(Operation.INTERSECTION, 3, 4)
        assert (r.constructed_size, r.lower_bound, r.formula_value) == (7, 7, 7)
        assert r.tight

    def test_star_5(self):
        r = certify(Operation.STAR, 5)
        assert r.tight and r.constructed_size == r.lower_bound == 5

    def test_reversal_report_shape(self):
        r = certify(Operation.REVERSAL, 4)
        assert r.constructed_size == 5
        assert r.lower_bound >= 4
        assert r.lower_bound_kind is LowerBoundKind.FOOLING_SET
        assert not r.tight and r.note

    def test_complement_report_shape(self):
        r = certify(Operation.COMPLEMENTATION, 3)
        assert r.constructed_size <= 5
        assert r.lower_bound_kind is LowerBoundKind.NONE

    def test_report_invariant_lower_le_constructed(self):
        for op, args in [
            (Operation.UNION, (2, 5)),
            (Operation.CATENATION, (5, 2)),
            (Operation.INTERSECTION, (4, 4)),
            (Operation.STAR, (6, None)),
            (Operation.REVERSAL, (5, None)),
            (Operation.COMPLEMENTATION, (4, None)),
        ]:
            r = certify(op, *args)
            assert r.lower_bound <= r.constructed_size
            if r.fooling_set is not None:
                assert len(r.fooling_set) == r.lower_bound

    def test_binary_without_n_raises_before_the_formula(self):
        for op in (Operation.UNION, Operation.CATENATION, Operation.INTERSECTION):
            with pytest.raises(ParameterOutOfRange, match=f"{op.value} requires n"):
                certify(op, 3)

    def test_unary_ignores_n(self):
        assert certify(Operation.STAR, 3, 7) == certify(Operation.STAR, 3)
        assert certify(Operation.STAR, 1, 2).n is None

    def test_registry_in_summary_table_order(self):
        assert list(bounds.OPERATIONS) == [
            Operation.CATENATION, Operation.UNION, Operation.INTERSECTION,
            Operation.STAR, Operation.REVERSAL, Operation.COMPLEMENTATION,
        ]
        tight = [op for op, spec in bounds.OPERATIONS.items() if spec.expects_tight]
        assert tight == list(bounds.OPERATIONS)[:4]
