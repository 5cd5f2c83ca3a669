import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sfnfa import bounds, constructions, suffixfree
from sfnfa.automata import (
    LAMBDA,
    Alphabet,
    Nfa,
    accepts,
    alphabet,
    empty_nfa,
    enumerate_words,
    equivalent,
    lambda_nfa,
    make_nfa,
    product_intersection_with_pairs,
    remove_lambda,
    trim,
)
from sfnfa.constructions import (
    complement_sf,
    concat_sf,
    intersect_sf,
    reverse_nfa,
    star_sf,
    union_sf,
)
from sfnfa.errors import CertificateError, NonReturningViolation, SuffixFreeViolation
from sfnfa.serialize import to_json
from sfnfa.suffixfree import is_suffix_free
from sfnfa.witnesses import Family, WitnessSpec, build

import set_oracle
from automata_extras import left_quotient_symbol
from conftest import all_words


def texts(a, words):
    return [a.alphabet.text(w) for w in words]


def star_oracle(a: Nfa) -> Nfa:
    """Generic lambda-based Kleene star, independent of the suffix-free
    construction: fresh final start, lambda loops through it."""
    s0 = a.state_count
    trans = set(a.transitions)
    trans.add((s0, LAMBDA, a.start))
    for f in a.finals:
        trans.add((f, LAMBDA, s0))
    return remove_lambda(
        Nfa.from_edges(a.state_count + 1, a.alphabet, s0, {s0}, trans)
    )


class TestUnion:
    def test_witnesses_m3_n3(self):
        left, right = build(WitnessSpec(Family.UNION_PAIR, 3, 3))
        u = union_sf(left, right)
        assert u.state_count == 5
        for word in all_words(u.alphabet, 7):
            assert accepts(u, word) == (accepts(left, word) or accepts(right, word))

    def test_self_union_language_identity(self):
        a = build(WitnessSpec(Family.LEMMA_L1, 3))
        u = union_sf(a, a)
        assert u.state_count == 2 * 3 - 1
        assert equivalent(u, a)

    def test_union_with_lambda_automaton(self):
        a = build(WitnessSpec(Family.LEMMA_L1, 4))
        u = union_sf(a, lambda_nfa(a.alphabet))
        assert u.state_count == a.state_count
        assert u.start in u.finals
        for word in all_words(u.alphabet, 6):
            assert accepts(u, word) == (accepts(a, word) or word == ())

    def test_rejects_returning_input(self):
        returning = make_nfa(1, "ab", 0, [0], [(0, "a", 0)])
        ok = build(WitnessSpec(Family.LEMMA_L1, 2))
        with pytest.raises(NonReturningViolation):
            union_sf(returning, ok)
        with pytest.raises(NonReturningViolation):
            union_sf(ok, returning)

    def test_strict_mode_rejects_non_suffix_free(self):
        # Non-returning yet not suffix-free: {a, ba}.
        tricky = make_nfa(3, "ab", 0, [1, 2], [(0, "a", 1), (0, "b", 2), (2, "a", 1)])
        bad = make_nfa(
            3, "ab", 0, [1], [(0, "a", 1), (0, "b", 2), (2, "a", 1), (1, "a", 1)]
        )
        ok = build(WitnessSpec(Family.LEMMA_L1, 2))
        union_sf(tricky, ok)  # permissive mode only needs non-returning
        with pytest.raises(SuffixFreeViolation):
            union_sf(tricky, ok, strict=True)


class TestConcat:
    def test_singleton_witnesses(self):
        left, right = build(WitnessSpec(Family.CONCAT_PAIR, 3, 3))
        c = concat_sf(left, right)
        assert c.state_count == 5
        assert texts(c, enumerate_words(c, 8)) == ["aaaa"]

    def test_right_identity_lambda(self):
        a = build(WitnessSpec(Family.LEMMA_L1, 3))
        c = concat_sf(a, lambda_nfa(a.alphabet))
        assert c.state_count == a.state_count
        assert equivalent(c, a)

    def test_left_identity_lambda(self):
        a = build(WitnessSpec(Family.LEMMA_L2, 3))
        c = concat_sf(lambda_nfa(a.alphabet), a)
        assert equivalent(c, a)

    def test_rejects_returning_right_input(self):
        returning = make_nfa(1, "ab", 0, [0], [(0, "a", 0)])
        ok = build(WitnessSpec(Family.LEMMA_L1, 2))
        with pytest.raises(NonReturningViolation):
            concat_sf(ok, returning)


class TestIntersect:
    def test_witnesses_m3_n3(self):
        left, right = build(WitnessSpec(Family.INTERSECT_PAIR, 3, 3))
        result = intersect_sf(left, right)
        assert result.state_count == 5  # 9 - 6 + 2

    def test_mixed_start_pairs_absent(self):
        # The reachable product pairs hold every pair the trim keeps.
        left, right = build(WitnessSpec(Family.INTERSECT_PAIR, 4, 3))
        _, pairs = product_intersection_with_pairs(left, right)
        for p, q in pairs[1:]:
            assert p != left.start and q != right.start

    def test_self_intersection(self):
        a = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert equivalent(intersect_sf(a, a), a)

    def test_disjoint_first_symbols(self):
        left, right = build(WitnessSpec(Family.UNION_PAIR, 3, 3))
        result = intersect_sf(left, right)
        assert enumerate_words(result, 10) == []


class TestStar:
    def test_star_witness_m4_membership(self):
        w = build(WitnessSpec(Family.STAR, 4))
        s = star_sf(w)
        assert s.state_count == 4
        alpha = s.alphabet
        assert accepts(s, ())
        assert accepts(s, alpha.word("bb"))
        assert accepts(s, alpha.word("baaab"))
        assert not accepts(s, alpha.word("ba"))

    def test_star_of_lambda(self):
        s = star_sf(lambda_nfa(alphabet("ab")))
        assert s.state_count == 1
        assert equivalent(s, lambda_nfa(alphabet("ab")))

    def test_star_idempotent_via_generic_oracle(self):
        # The starred result is no longer non-returning, so iterate with
        # the generic lambda-based closure instead.
        w = build(WitnessSpec(Family.STAR, 3))
        once = star_sf(w)
        assert equivalent(star_oracle(once), once)

    def test_star_matches_generic_oracle_on_witnesses(self):
        for m in range(2, 7):
            w = build(WitnessSpec(Family.STAR, m))
            assert equivalent(star_sf(w), star_oracle(w))


class TestReverse:
    def test_reversal_witness_m4(self):
        w = build(WitnessSpec(Family.REVERSAL, 4))
        r = reverse_nfa(w)
        assert r.state_count == 5
        for t in ["d", "da", "db", "dbb", "dac"]:
            assert accepts(w, w.alphabet.word(t))
            assert accepts(r, r.alphabet.word(t[::-1]))

    def test_palindrome_fixed_point(self):
        aba = make_nfa(4, "ab", 0, [3], [(0, "a", 1), (1, "b", 2), (2, "a", 3)])
        assert equivalent(reverse_nfa(aba), aba)

    def test_double_reverse_on_all_witness_families(self):
        specs = [
            WitnessSpec(Family.LEMMA_L1, 4),
            WitnessSpec(Family.LEMMA_L2, 4),
            WitnessSpec(Family.STAR, 3),
            WitnessSpec(Family.REVERSAL, 5),
            WitnessSpec(Family.COMPLEMENT_PREFIXED, 3),
        ]
        for spec in specs:
            w = build(spec)
            assert equivalent(reverse_nfa(reverse_nfa(w)), w)

    def test_strict_mode(self):
        # a(ba)*: returning and not suffix-free; reversal needs neither.
        bad = make_nfa(2, "ab", 0, [1], [(0, "a", 1), (1, "b", 0)])
        reverse_nfa(bad)
        with pytest.raises(SuffixFreeViolation):
            reverse_nfa(bad, strict=True)
        assert reverse_nfa(build(WitnessSpec(Family.REVERSAL, 4)), strict=True).state_count == 5


class TestComplement:
    def test_lemma_l1_m3(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        d = complement_sf(w)
        assert d.state_count <= 5  # 2^2 + 1
        assert accepts(d, w.alphabet.word("ba"))
        assert not accepts(d, w.alphabet.word("baa"))

    def test_m2_against_membership_oracle(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 2))
        d = complement_sf(w)
        assert d.state_count <= 3
        for word in all_words(w.alphabet, 6):
            assert accepts(d, word) == (not accepts(w, word))

    def test_double_complement(self):
        w = build(WitnessSpec(Family.LEMMA_L2, 4))
        d = complement_sf(w)
        # The complement is complete, so flipping its finals complements it.
        flipped = replace(d, final_mask=d.final_mask ^ ((1 << d.state_count) - 1))
        assert equivalent(flipped, w)

    def test_disjoint_and_covering(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 4))
        d = complement_sf(w)
        for word in all_words(w.alphabet, 8):
            assert accepts(d, word) != accepts(w, word)

    def test_strict_mode(self):
        bad = make_nfa(
            3, "ab", 0, [1, 2], [(0, "a", 1), (0, "b", 2), (2, "a", 1)]
        )  # {a, ba}: non-returning but not suffix-free
        complement_sf(bad)
        with pytest.raises(SuffixFreeViolation):
            complement_sf(bad, strict=True)


class TestLeftQuotient:
    def test_strips_prefix_symbol(self):
        # c . b(a^2)* over {a,b,c}; quotient by c gives back b(a^2)*.
        prefixed = make_nfa(
            4,
            "abc",
            3,
            [1],
            [(3, "c", 0), (0, "b", 1), (1, "a", 2), (2, "a", 1)],
        )
        c = prefixed.alphabet.index("c")
        q = left_quotient_symbol(prefixed, c)
        for word in all_words(prefixed.alphabet, 6):
            assert accepts(q, word) == accepts(prefixed, (c,) + word)

    def test_intersect_witness_quotient_is_counter(self):
        left, _ = build(WitnessSpec(Family.INTERSECT_PAIR, 3, 3))
        q = left_quotient_symbol(left, left.alphabet.index("c"), drop_symbol=True)
        for word in all_words(left.alphabet, 6):
            text = left.alphabet.text(word)
            expected = "c" not in text and text.count("a") % 2 == 0
            assert accepts(q, word) == expected

    def test_quotient_by_unused_symbol_is_empty(self):
        a = build(WitnessSpec(Family.LEMMA_L1, 3))
        q = left_quotient_symbol(a, a.alphabet.index("a"))
        assert trim(q) == empty_nfa(a.alphabet)


class TestSetTheoreticAgreement:
    """Bounded enumeration of each construction equals the set-theoretic
    operation on the inputs' enumerations, across the witness grids."""

    def test_union_grid(self):
        for m in range(2, 7):
            for n in range(2, 7):
                left, right = build(WitnessSpec(Family.UNION_PAIR, m, n))
                u = union_sf(left, right)
                bound = m + n + 4
                expected = sorted(
                    set(enumerate_words(left, bound)) | set(enumerate_words(right, bound)),
                    key=lambda w: (len(w), w),
                )
                assert enumerate_words(u, bound) == expected
                assert u.state_count == m + n - 1

    def test_concat_grid(self):
        for m in range(2, 7):
            for n in range(2, 7):
                left, right = build(WitnessSpec(Family.CONCAT_PAIR, m, n))
                c = concat_sf(left, right)
                bound = m + n + 4
                expected = sorted(
                    {
                        u + v
                        for u in enumerate_words(left, bound)
                        for v in enumerate_words(right, bound)
                        if len(u) + len(v) <= bound
                    },
                    key=lambda w: (len(w), w),
                )
                assert enumerate_words(c, bound) == expected
                assert c.state_count == m + n - 1

    def test_intersect_grid(self):
        for m in range(2, 7):
            for n in range(2, 7):
                left, right = build(WitnessSpec(Family.INTERSECT_PAIR, m, n))
                result = intersect_sf(left, right)
                bound = m + n + 2
                expected = sorted(
                    set(enumerate_words(left, bound)) & set(enumerate_words(right, bound)),
                    key=lambda w: (len(w), w),
                )
                assert enumerate_words(result, bound) == expected
                assert result.state_count <= m * n - (m + n) + 2

    def test_concat_and_intersect_preserve_suffix_freeness_on_witnesses(self):
        left, right = build(WitnessSpec(Family.CONCAT_PAIR, 3, 4))
        assert is_suffix_free(concat_sf(left, right)).suffix_free
        left, right = build(WitnessSpec(Family.INTERSECT_PAIR, 3, 3))
        assert is_suffix_free(intersect_sf(left, right)).suffix_free


class TestCertificateChecks:
    """The theorem checks inside the constructions, and the fooling-set
    floor of the minimal-NFA search, raise CertificateError, also under
    ``python -O``; each is fed bad data through a helper."""

    def test_mixed_start_pair(self, monkeypatch):
        a, b = build(WitnessSpec(Family.INTERSECT_PAIR, 3, 3))
        real = constructions.product_intersection_with_pairs

        def with_mixed_pair(x, y):
            product, pairs = real(x, y)
            return product, pairs[:1] + ((x.start, 1),) + pairs[2:]

        monkeypatch.setattr(constructions, "product_intersection_with_pairs", with_mixed_pair)
        with pytest.raises(CertificateError, match="mixed-start pair"):
            intersect_sf(a, b)

    def test_intersection_bound(self, monkeypatch):
        a, b = build(WitnessSpec(Family.INTERSECT_PAIR, 3, 3))
        too_big = Nfa.from_edges(6, a.alphabet, 0, {5}, ())
        monkeypatch.setattr(constructions, "trim", lambda p: too_big)
        with pytest.raises(CertificateError, match="above its bound 5"):
            intersect_sf(a, b)

    def test_non_returning_subset(self, monkeypatch):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        real = constructions._subset_walk

        def with_start_subset(rows, start):
            table, order = real(rows, start)
            return table, order + [start | 2]

        monkeypatch.setattr(constructions, "_subset_walk", with_start_subset)
        with pytest.raises(CertificateError, match="holds the start"):
            complement_sf(w)

    def test_complement_bound(self, monkeypatch):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        monkeypatch.setattr(constructions, "_subset_walk", lambda rows, start: ([], [0] * 6))
        with pytest.raises(CertificateError, match="above its bound 5"):
            complement_sf(w)

    def test_fooling_floor_recheck(self, monkeypatch):
        monkeypatch.setattr(bounds, "verify_fooling_set", lambda a, p: False)
        with pytest.raises(CertificateError, match="unverifiable fooling set"):
            bounds.nsc_exhaustive(build(WitnessSpec(Family.LEMMA_L1, 3)), 3)

    def test_fooling_floor_above_the_stop(self, monkeypatch):
        # A 4-pair set for a language with a 3-state NFA contradicts itself.
        four = bounds.paper_fooling_set(Family.LEMMA_L1, 4)
        monkeypatch.setattr(bounds, "_fooling_cells", lambda t, limit: (None, None, four))
        with pytest.raises(CertificateError, match="4 pairs exceeds an NFA of 3 states"):
            bounds.nsc_exhaustive(build(WitnessSpec(Family.LEMMA_L1, 3)), 3)

    def test_suffix_overlap_word_not_accepted(self, monkeypatch):
        # The walk's overlap word for a* is "a", with the suffix λ.
        monkeypatch.setattr(suffixfree, "accepts", lambda a, w: not w)
        with pytest.raises(CertificateError, match="'a' is not accepted"):
            is_suffix_free(make_nfa(1, "ab", 0, [0], [(0, "a", 0)]))

    def test_suffix_witness_without_accepted_suffix(self, monkeypatch):
        monkeypatch.setattr(suffixfree, "accepts", lambda a, w: False)
        with pytest.raises(CertificateError, match="no accepted proper suffix"):
            is_suffix_free(make_nfa(1, "ab", 0, [0], [(0, "a", 0)]))


def test_certificate_checks_run_under_optimize():
    """The checks above stay explicit raises: an ``assert`` in their place
    would be stripped by ``python -O`` and the class would fail there.  The
    fooling-set verifier must reject the mutated paper sets there too, a
    paper set must be refused wherever its witness is, the survivor walk
    and the suffix-overlap walk must agree with their oracles there, the
    cover search must still drop a cover whose NFA fails its equivalence
    check, ``Nfa`` must still refuse bad masks, the Moore blocks must
    still agree with the canonical DFA, the CLI must still map every
    package error to its exit code, and the table's star row at m=1 must
    still be the one ``certify`` gives."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_constructions.py::TestCertificateChecks",
         "tests/test_bounds.py::TestFoolingSetMutations",
         "tests/test_bounds.py::TestPaperFoolingSet::test_refuses_what_the_witness_refuses",
         "tests/test_bounds.py::TestSurvivorDecision",
         "tests/test_bounds.py::TestCoverSearch",
         "tests/test_suffix_free.py::TestWalkAgainstSetOracle",
         "tests/test_automata.py::TestNfaValidation",
         "tests/test_automata.py::TestDfaShape",
         "tests/test_automata.py::TestMoorePartition",
         "tests/test_cli.py::TestExitCodes",
         "tests/test_cli.py::TestCertifyTable::test_table_star_row_at_m1_is_certify_star"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@st.composite
def small_nfas(draw, labels, lambdas=False, non_returning=False):
    """1-6 states with any start, edges over ``labels`` (and lambda edges
    when asked), and none into the start when ``non_returning``."""
    alpha = Alphabet(tuple(labels))
    n = draw(st.integers(1, 6))
    start = draw(st.integers(0, n - 1))
    symbols = [*range(alpha.size), *([LAMBDA] if lambdas else [])]
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(symbols),
                                    st.integers(0, n - 1)), max_size=3 * n))
    if non_returning:
        edges = [e for e in edges if e[2] != start]
    finals = draw(st.sets(st.integers(0, n - 1)))
    return Nfa.from_edges(n, alpha, start, finals, edges)


labels_1_to_3 = st.sampled_from(["a", "ab", "abc"])


def operands(left_non_returning=True):
    """Two lambda-free NFAs over one alphabet; the right one non-returning."""
    return labels_1_to_3.flatmap(lambda labels: st.tuples(
        small_nfas(labels, non_returning=left_non_returning),
        small_nfas(labels, non_returning=True)))


class TestMasksAgainstSetOracle:
    """Each mask-built result serializes to the same bytes as the edge-set
    construction of ``set_oracle``, on inputs whose start need not be 0."""

    @settings(max_examples=100, deadline=None)
    @given(labels_1_to_3.flatmap(lambda labels: small_nfas(labels, lambdas=True)))
    def test_remove_lambda(self, a):
        assert to_json(remove_lambda(a)) == to_json(set_oracle.remove_lambda(a))

    @settings(max_examples=100, deadline=None)
    @given(operands(left_non_returning=False))
    def test_product(self, ab):
        got, pairs = product_intersection_with_pairs(*ab)
        want, want_pairs = set_oracle.product_intersection_with_pairs(*ab)
        assert (to_json(got), pairs) == (to_json(want), want_pairs)

    @settings(max_examples=100, deadline=None)
    @given(operands())
    def test_union(self, ab):
        assert to_json(union_sf(*ab)) == to_json(set_oracle.union_sf(*ab))

    @settings(max_examples=100, deadline=None)
    @given(operands(left_non_returning=False))
    def test_concat(self, ab):
        assert to_json(concat_sf(*ab)) == to_json(set_oracle.concat_sf(*ab))

    @settings(max_examples=100, deadline=None)
    @given(operands())
    def test_intersect(self, ab):
        assert to_json(intersect_sf(*ab)) == to_json(set_oracle.intersect_sf(*ab))

    @settings(max_examples=100, deadline=None)
    @given(labels_1_to_3.flatmap(lambda labels: small_nfas(labels, non_returning=True)))
    def test_star(self, a):
        assert to_json(star_sf(a)) == to_json(set_oracle.star_sf(a))

    @settings(max_examples=100, deadline=None)
    @given(labels_1_to_3.flatmap(small_nfas))
    def test_reverse(self, a):
        assert to_json(reverse_nfa(a)) == to_json(set_oracle.reverse_nfa(a))
