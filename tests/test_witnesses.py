import pytest

from sfnfa.automata import accepts, enumerate_words
from sfnfa.bounds import paper_fooling_set, verify_fooling_set
from sfnfa.errors import ParameterOutOfRange
from sfnfa.suffixfree import is_non_returning, is_suffix_free
from sfnfa.witnesses import Family, WitnessSpec, build


def grid_specs():
    specs = []
    for m in range(2, 7):
        specs.append(WitnessSpec(Family.LEMMA_L1, m))
        specs.append(WitnessSpec(Family.STAR, m))
        specs.append(WitnessSpec(Family.COMPLEMENT_PREFIXED, m))
    for m in range(3, 7):
        specs.append(WitnessSpec(Family.LEMMA_L2, m))
    for m in range(4, 8):
        specs.append(WitnessSpec(Family.REVERSAL, m))
    for m in range(2, 5):
        for n in range(2, 5):
            specs.append(WitnessSpec(Family.UNION_PAIR, m, n))
            specs.append(WitnessSpec(Family.CONCAT_PAIR, m, n))
            specs.append(WitnessSpec(Family.INTERSECT_PAIR, m, n))
    return specs


def each_nfa(spec):
    out = build(spec)
    return out if isinstance(out, tuple) else (out,)


class TestStateCounts:
    def test_stated_sizes(self):
        for spec in grid_specs():
            nfas = each_nfa(spec)
            if spec.family in (Family.UNION_PAIR, Family.CONCAT_PAIR, Family.INTERSECT_PAIR):
                assert nfas[0].state_count == spec.m
                assert nfas[1].state_count == spec.n
            else:
                assert nfas[0].state_count == spec.m


class TestStructuralInvariants:
    def test_all_witnesses_suffix_free_and_non_returning(self):
        for spec in grid_specs():
            for nfa in each_nfa(spec):
                assert is_non_returning(nfa), spec
                assert is_suffix_free(nfa).suffix_free, spec


class TestLanguages:
    def test_lemma_l1_m3_enumeration(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert [w.alphabet.text(x) for x in enumerate_words(w, 5)] == ["b", "baa", "baaaa"]

    def test_lemma_l2_language(self):
        w = build(WitnessSpec(Family.LEMMA_L2, 4))  # b (a^2)* b
        assert accepts(w, w.alphabet.word("bb"))
        assert accepts(w, w.alphabet.word("baab"))
        assert not accepts(w, w.alphabet.word("bab"))

    def test_reversal_m4_membership(self):
        w = build(WitnessSpec(Family.REVERSAL, 4))
        for t in ["d", "da", "db", "dbb", "dac"]:
            assert accepts(w, w.alphabet.word(t)), t
        for t in ["", "a", "dba", "dbc"]:
            assert not accepts(w, w.alphabet.word(t)), t

    def test_intersect_pair_m2_n2(self):
        left, right = build(WitnessSpec(Family.INTERSECT_PAIR, 2, 2))
        # mod-1 counters accept every {a,b}* body after the leading c.
        from automata_extras import product_intersection

        inter = product_intersection(left, right)
        got = {inter.alphabet.text(w) for w in enumerate_words(inter, 3)}
        assert got == {"c", "ca", "cb", "caa", "cab", "cba", "cbb"}


class TestNscCertificates:
    def test_paper_fooling_sets_match_generator_sizes(self):
        for m in range(2, 7):
            w = build(WitnessSpec(Family.LEMMA_L1, m))
            fs = paper_fooling_set(Family.LEMMA_L1, m)
            assert len(fs) == m and verify_fooling_set(w, fs)
        for m in range(3, 7):
            w = build(WitnessSpec(Family.LEMMA_L2, m))
            fs = paper_fooling_set(Family.LEMMA_L2, m)
            assert len(fs) == m and verify_fooling_set(w, fs)

    def test_reversal_reverse_enumeration(self):
        from sfnfa.constructions import reverse_nfa

        for m in range(4, 7):
            w = build(WitnessSpec(Family.REVERSAL, m))
            rev = reverse_nfa(w)
            assert rev.state_count <= m + 1
            expected = sorted(
                (tuple(reversed(x)) for x in enumerate_words(w, m + 6)),
                key=lambda t: (len(t), t),
            )
            assert enumerate_words(rev, m + 6) == expected


class TestParameterValidation:
    @pytest.mark.parametrize(
        "family,m,n",
        [
            (Family.LEMMA_L1, 1, None),
            (Family.LEMMA_L2, 2, None),
            (Family.REVERSAL, 3, None),
            (Family.UNION_PAIR, 2, None),
            (Family.UNION_PAIR, 2, 1),
            (Family.INTERSECT_PAIR, 1, 2),
            (Family.STAR, 1, None),
            (Family.LEMMA_L1, 3, 3),
        ],
    )
    def test_out_of_range(self, family, m, n):
        with pytest.raises(ParameterOutOfRange):
            WitnessSpec(family, m, n)
