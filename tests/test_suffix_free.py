import random

import pytest
from hypothesis import given, settings, strategies as st

from sfnfa.automata import accepts, empty_nfa, alphabet, lambda_nfa, make_nfa, remove_lambda, trim
from sfnfa.suffixfree import is_non_returning, is_suffix_free, start_in_transition
from sfnfa.witnesses import Family, WitnessSpec, build

import set_oracle
from conftest import random_nfa, random_non_returning_nfa


def a_star():
    return make_nfa(1, "ab", 0, [0], [(0, "a", 0)])


def finite(words, labels="ab"):
    """NFA accepting exactly the given label strings, one branch per word."""
    states = 1
    edges = []
    finals = []
    for w in words:
        if not w:
            finals.append(0)
            continue
        prev = 0
        for ch in w:
            edges.append((prev, ch, states))
            prev = states
            states += 1
        finals.append(prev)
    return make_nfa(states, labels, 0, finals, edges)


class TestNonReturning:
    def test_witness_is_non_returning(self):
        assert is_non_returning(build(WitnessSpec(Family.LEMMA_L1, 3)))

    def test_self_loop_on_start(self):
        assert not is_non_returning(a_star())

    def test_empty_automaton(self):
        assert is_non_returning(empty_nfa(alphabet("ab")))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6))
    def test_witness_is_the_least_edge_into_the_start(self, seed):
        # Lambda edges sort after the symbols of their source.
        a = random_nfa(random.Random(seed), max_states=5, lambda_prob=0.3)
        into = [(s, x, d) for s, x, d in a.transitions if d == a.start]
        want = min(into, key=lambda t: (t[0], t[1] is None, t[1] or 0), default=None)
        assert start_in_transition(a) == want


class TestIsSuffixFree:
    def test_lemma_l1(self):
        assert is_suffix_free(build(WitnessSpec(Family.LEMMA_L1, 3))).suffix_free

    def test_a_star_not_suffix_free(self):
        verdict = is_suffix_free(a_star())
        assert not verdict.suffix_free
        shorter, longer = verdict.witness
        assert len(shorter) < len(longer)
        assert longer[len(longer) - len(shorter):] == shorter
        assert accepts(a_star(), shorter) and accepts(a_star(), longer)

    def test_reversal_witness_suffix_free(self):
        assert is_suffix_free(build(WitnessSpec(Family.REVERSAL, 4))).suffix_free

    def test_non_returning_does_not_imply_suffix_free(self):
        a = finite(["a", "ba"])
        assert is_non_returning(a)
        verdict = is_suffix_free(a)
        assert not verdict.suffix_free
        assert verdict.witness == (a.alphabet.word("a"), a.alphabet.word("ba"))

    def test_empty_and_lambda_are_suffix_free(self):
        assert is_suffix_free(empty_nfa(alphabet("ab"))).suffix_free
        assert is_suffix_free(lambda_nfa(alphabet("ab"))).suffix_free

    def test_witness_pair_validated_by_enumeration(self):
        rng = random.Random(41)
        checked_positive = 0
        for _ in range(60):
            a = remove_lambda(random_nfa(rng, lambda_prob=0.15))
            verdict = is_suffix_free(a)
            if verdict.suffix_free:
                from sfnfa.automata import enumerate_words

                words = enumerate_words(a, 8)
                checked_positive += 1
                for u in words:
                    for v in words:
                        if len(u) < len(v):
                            assert v[len(v) - len(u):] != u
            else:
                shorter, longer = verdict.witness
                assert accepts(a, shorter) and accepts(a, longer)
                assert len(shorter) < len(longer)
                assert longer[len(longer) - len(shorter):] == shorter
        assert checked_positive  # the sample must exercise both branches

    def test_minimal_suffix_free_witnesses_stay_non_returning(self):
        specs = [
            WitnessSpec(Family.LEMMA_L1, 3),
            WitnessSpec(Family.LEMMA_L2, 4),
            WitnessSpec(Family.STAR, 5),
            WitnessSpec(Family.REVERSAL, 5),
            WitnessSpec(Family.COMPLEMENT_PREFIXED, 3),
        ]
        for spec in specs:
            w = build(spec)
            assert is_suffix_free(w).suffix_free
            assert is_non_returning(trim(remove_lambda(w)))


random_lambda_free_nfas = st.builds(
    lambda seed, labels, returning: (
        random_nfa(random.Random(seed), max_states=8, labels=labels, lambda_prob=0.0)
        if returning else random_non_returning_nfa(random.Random(seed), 8, labels)),
    st.integers(0, 2**31 - 1), st.sampled_from(["a", "ab", "abc"]), st.booleans(),
)


class TestWalkAgainstSetOracle:
    """The pair walk against the chain it replaced: Sigma+ . L as an NFA,
    the product, emptiness and the least word over state sets."""

    @settings(max_examples=300, deadline=None)
    @given(random_lambda_free_nfas)
    def test_same_verdict_and_witness(self, a):
        assert is_suffix_free(a) == set_oracle.is_suffix_free(a)

    def test_pairs_sharing_a_least_word_step_together(self):
        # "a" reaches the pairs (1, J1) and (2, J1) of the walk, J1 being
        # the junk-prefix state of Sigma+ . L.  "aa" is the least overlap
        # word, through (2, J1); a queue of single pairs would expand
        # (1, J1) on b before (2, J1) on a and report ("b", "ab").
        a = make_nfa(3, "ab", 0, [1], [(0, "a", 1), (0, "a", 2), (0, "b", 1),
                                       (1, "b", 1), (2, "a", 1)])
        want = (a.alphabet.word("a"), a.alphabet.word("aa"))
        assert set_oracle.is_suffix_free(a).witness == want
        assert is_suffix_free(a).witness == want
