import json
import random
from dataclasses import replace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import sfnfa
from sfnfa import bounds
from sfnfa.automata import (
    Nfa,
    _live_blocks,
    _minimal,
    _moore,
    _subset_dfa,
    _subset_walk,
    accepts,
    alphabet,
    bits,
    canonical_dfa,
    empty_nfa,
    enumerate_words,
    equivalent,
    make_nfa,
    remove_lambda,
    trim,
    trim_with_indices,
)
from sfnfa.cli import main
from sfnfa.constructions import complement_sf, reverse_nfa
from sfnfa.errors import ParseError
from sfnfa.serialize import from_json, to_json
from sfnfa.suffixfree import is_non_returning
from sfnfa.witnesses import Family, WitnessSpec, build

import set_oracle
from automata_extras import determinize, product_intersection
from conftest import all_words, random_nfa, random_non_returning_nfa
from fooling_oracle import word_masks


def words(a, texts):
    return [a.alphabet.word(t) for t in texts]


def _doc(**changes) -> str:
    doc = {"alphabet": ["a", "b"], "states": 2, "start": 0, "finals": [1],
           "transitions": [[0, "a", 1]]}
    return json.dumps(dict(doc, **changes))


class TestNfaValidation:
    """``Nfa`` only validates its masks, with explicit raises that ``python
    -O`` keeps; ``from_edges`` and the JSON loader keep their messages."""

    ab = alphabet("ab")
    rows = ((2, 0), (0, 0))  # 0 -a-> 1 over two states

    @pytest.mark.parametrize("args, message", [
        ((0, 0, (), ()), "state_count must be positive"),
        ((2, 0, ((2, 0),), (0, 0)), "successor masks must be a row"),
        ((2, 0, ((2, 0), (0, 0), (0, 0)), (0, 0)), "successor masks must be a row"),
        ((2, 0, ((2, 0), (0, 0)), (0,)), "successor masks must be a row"),
        ((2, 0, ((2,), (0, 0)), (0, 0)), "successor masks must be a row"),
        ((2, 0, ((2, 0), (0, 0, 0)), (0, 0)), "successor masks must be a row"),
        ((2, 0, ((-1, 0), (0, 0)), (0, 0)), "mask out of range"),
        ((2, 0, ((4, 0), (0, 0)), (0, 0)), "mask out of range"),
        ((2, 0, ((2, 0), (0, 0)), (0, 4)), "mask out of range"),
        ((2, 0, ((2, 0), (0, 0)), (-2, 0)), "mask out of range"),
        ((2, 4, ((2, 0), (0, 0)), (0, 0)), "mask out of range"),
        ((2, -1, ((2, 0), (0, 0)), (0, 0)), "mask out of range"),
    ])
    def test_bad_masks_raise(self, args, message):
        n, final_mask, succ, lam = args
        with pytest.raises(ValueError, match=message):
            Nfa(n, self.ab, 0, final_mask, succ, lam)

    @pytest.mark.parametrize("start", [-1, 2])
    def test_start_out_of_range(self, start):
        with pytest.raises(ValueError, match="start state out of range"):
            Nfa(2, self.ab, start, 2, self.rows, (0, 0))

    def test_equality_and_hash_follow_the_masks(self):
        a = Nfa(2, self.ab, 0, 2, self.rows, (0, 0))
        b = make_nfa(2, "ab", 0, [1], [(0, "a", 1), (0, "a", 1)])
        assert a == b and hash(a) == hash(b)
        assert a.finals == {1} and a.transitions == {(0, 0, 1)}
        assert a != Nfa(2, self.ab, 1, 2, self.rows, (0, 0))

    @pytest.mark.parametrize("states, start, finals, edges, message", [
        (0, 0, [], [], "state_count must be positive"),
        (2, 2, [7], [(0, 9, 0)], "start state out of range"),
        (2, 0, [2], [(0, 0, 5)], "final state out of range"),
        (2, 0, [1], [(0, 0, 2)], "transition endpoint out of range"),
        (2, 0, [1], [(-1, None, 0)], "transition endpoint out of range"),
        (2, 0, [1], [(0, 2, 1)], "transition symbol out of range"),
    ])
    def test_from_edges_messages(self, states, start, finals, edges, message):
        with pytest.raises(ValueError, match=message):
            Nfa.from_edges(states, self.ab, start, finals, edges)

    @pytest.mark.parametrize("text, message", [
        (_doc(states=0), "states must be a positive integer"),
        (_doc(start=2), "malformed automaton: start state out of range"),
        (_doc(start=5, finals=[7]), "malformed automaton: start state out of range"),
        (_doc(finals=[2]), "malformed automaton: final state out of range"),
        (_doc(finals=[-1], transitions=[[0, "a", 2]]),
         "malformed automaton: final state out of range"),
        (_doc(transitions=[[0, "a", 2]]), "malformed automaton: transition endpoint out of range"),
        (_doc(transitions=[[0, "~", -1]]), "malformed automaton: transition endpoint out of range"),
        (_doc(transitions=[[0, "c", 1]]), "symbol 'c' not in alphabet ('a', 'b')"),
    ])
    def test_malformed_documents(self, tmp_path, text, message):
        with pytest.raises(ParseError) as info:
            from_json(text)
        assert str(info.value) == message
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"

    def test_duplicate_edges_load_as_one(self):
        a = from_json(_doc(transitions=[[0, "a", 1], [0, "a", 1], [1, "~", 0], [1, "~", 0]]))
        assert a.succ == ((2, 0), (0, 0)) and a.lam == (0, 1)
        assert json.loads(to_json(a))["transitions"] == [[0, "a", 1], [1, "~", 0]]


class TestRemoveLambda:
    def test_single_lambda_edge(self):
        a = make_nfa(2, "ab", 0, [1], [(0, None, 1)])
        out = remove_lambda(a)
        assert not out.has_lambda
        assert out.state_count == 2
        assert accepts(out, ())
        assert not accepts(out, (0,))

    def test_lambda_free_identity(self):
        a = make_nfa(2, "ab", 0, [1], [(0, "a", 1)])
        assert remove_lambda(a) is a

    def test_reversal_intermediate_matches_string_reversal(self):
        # Oracle: string-reverse the witness enumeration by brute force.
        w = build(WitnessSpec(Family.REVERSAL, 4))
        rev = reverse_nfa(w)
        assert rev.state_count == 5
        assert not rev.has_lambda
        expected = sorted(
            (tuple(reversed(word)) for word in enumerate_words(w, 12)),
            key=lambda t: (len(t), t),
        )
        assert enumerate_words(rev, 12) == expected

    def test_preserves_language_on_random_nfas(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_nfa(rng, lambda_prob=0.3)
            out = remove_lambda(a)
            assert not out.has_lambda
            for word in all_words(a.alphabet, 5):
                assert accepts(a, word) == accepts(out, word)


class TestTrim:
    def test_drops_unreachable_state(self):
        a = make_nfa(3, "ab", 0, [1], [(0, "a", 1), (2, "b", 1)])
        out = trim(a)
        assert out.state_count == 2
        assert equivalent(a, out)

    def test_product_of_intersection_witnesses(self):
        left, right = build(WitnessSpec(Family.INTERSECT_PAIR, 3, 3))
        product = product_intersection(left, right)
        assert trim(product).state_count == 5  # mn - (m+n) + 2 at m = n = 3

    def test_no_finals_becomes_canonical_empty(self):
        a = make_nfa(3, "ab", 0, [], [(0, "a", 1), (1, "b", 2)])
        out = trim(a)
        assert out == empty_nfa(a.alphabet)

    def test_trim_input_is_returned_as_it_is(self):
        a = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert trim(a) is a
        assert trim_with_indices(a) == (a, (0, 1, 2))


class TestAccepts:
    def test_witness_membership(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert accepts(w, w.alphabet.word("baa"))
        assert not accepts(w, w.alphabet.word("ba"))

    def test_empty_word(self):
        assert accepts(make_nfa(1, "a", 0, [0], []), ())
        assert not accepts(make_nfa(1, "a", 0, [], []), ())
        chained = make_nfa(2, "a", 0, [1], [(0, None, 1)])
        assert accepts(chained, ())


class TestDeterminize:
    def test_singleton_language(self):
        a = make_nfa(2, "ab", 0, [1], [(0, "b", 1)])
        d = determinize(a)
        assert d.state_count == 3  # start, dead, accept
        assert d.succ == ((2, 4), (2, 2), (2, 2)) and d.final_mask == 4
        assert accepts(d, a.alphabet.word("b"))
        assert not accepts(d, a.alphabet.word("bb"))

    def test_non_returning_start_subset_isolated(self):
        rng = random.Random(11)
        for _ in range(20):
            a = random_non_returning_nfa(rng)
            _, subsets = _subset_walk(a.succ, 1 << a.start)
            for sub in subsets:
                assert not (sub >> a.start & 1 and sub != 1 << a.start)

    def test_star_witness_against_hand_built_counter(self):
        # Oracle: direct mod-3 counter DFA for b (a^3)*, built by hand.
        w = build(WitnessSpec(Family.STAR, 4))
        # states: 0 pre-b, 1..3 a-count mod 3 after the b, 4 dead
        table = (
            (4, 1),  # a -> dead, b -> counter 0
            (2, 4),
            (3, 4),
            (1, 4),
            (4, 4),
        )
        oracle = make_nfa(5, "ab", 0, [1], [(q, x, r) for q, row in enumerate(table)
                                            for x, r in zip("ab", row)])
        d = determinize(w)
        for word in all_words(w.alphabet, 15):
            assert accepts(d, word) == accepts(oracle, word)


def oracle_union(a, b):
    """Textbook product union over the determinizations."""
    da, db = determinize(a), determinize(b)
    pairs = {}
    order = []

    def idx(p, q):
        if (p, q) not in pairs:
            pairs[(p, q)] = len(order)
            order.append((p, q))
        return pairs[(p, q)]

    idx(da.start, db.start)
    i = 0
    edges = []
    while i < len(order):
        p, q = order[i]
        edges += [(i, x, idx(pm.bit_length() - 1, qm.bit_length() - 1))
                  for x, (pm, qm) in enumerate(zip(da.succ[p], db.succ[q]))]
        i += 1
    finals = [k for k, (p, q) in enumerate(order) if p in da.finals or q in db.finals]
    return Nfa.from_edges(len(order), da.alphabet, 0, finals, edges)


class TestMinimize:
    """``canonical_dfa`` of a DFA, an ``Nfa`` with one successor bit per
    cell, is its minimal DFA."""

    def test_union_construction_vs_product_union_oracle(self):
        from sfnfa.constructions import union_sf

        left, right = build(WitnessSpec(Family.UNION_PAIR, 3, 3))
        ours = canonical_dfa(determinize(union_sf(left, right)))
        oracle = canonical_dfa(oracle_union(left, right))
        assert ours == oracle

    def test_empty_language_minimizes_to_one_state(self):
        d = determinize(empty_nfa(alphabet("ab")))
        assert canonical_dfa(d).state_count == 1

    def test_canonical_under_state_permutation(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_nfa(rng, lambda_prob=0.0)
            d = determinize(a)
            perm = list(range(d.state_count))
            rng.shuffle(perm)
            edges = [(perm[q], x, perm[m.bit_length() - 1])
                     for q, row in enumerate(d.succ) for x, m in enumerate(row)]
            shuffled = Nfa.from_edges(d.state_count, d.alphabet, perm[d.start],
                                      [perm[q] for q in d.finals], edges)
            assert canonical_dfa(shuffled) == canonical_dfa(d)

    def test_language_equal_iff_minimized_equal(self):
        rng = random.Random(5)
        for _ in range(40):
            a, b = random_nfa(rng), random_nfa(rng)
            same_min = canonical_dfa(a) == canonical_dfa(b)
            same_words = all(
                accepts(a, w) == accepts(b, w) for w in all_words(a.alphabet, 10)
            )
            # Small DFAs: agreement to length 10 decides equality.
            assert same_min == same_words


class TestEquivalent:
    def test_lambda_removal_is_invisible(self):
        rng = random.Random(13)
        for _ in range(15):
            a = random_nfa(rng, lambda_prob=0.3)
            assert equivalent(a, remove_lambda(a))

    def test_union_matches_oracle_m2_n2(self):
        from sfnfa.constructions import union_sf

        left, right = build(WitnessSpec(Family.UNION_PAIR, 2, 2))
        assert equivalent(union_sf(left, right), oracle_union(left, right))

    def test_distinct_cycle_lengths_differ(self):
        a = build(WitnessSpec(Family.LEMMA_L1, 3))
        b = build(WitnessSpec(Family.LEMMA_L1, 4))
        assert not equivalent(a, b)
        assert accepts(a, a.alphabet.word("baa"))
        assert not accepts(b, b.alphabet.word("baa"))


class TestEnumerateWords:
    def test_lemma_l1(self):
        w = build(WitnessSpec(Family.LEMMA_L1, 3))
        assert enumerate_words(w, 5) == words(w, ["b", "baa", "baaaa"])

    def test_empty_automaton(self):
        assert enumerate_words(empty_nfa(alphabet("ab")), 6) == []

    def test_concat_witness_single_word(self):
        from sfnfa.constructions import concat_sf

        left, right = build(WitnessSpec(Family.CONCAT_PAIR, 3, 3))
        c = concat_sf(left, right)
        assert enumerate_words(c, 4) == [c.alphabet.word("aaaa")]

    def test_trim_never_changes_enumeration(self):
        rng = random.Random(17)
        for _ in range(25):
            a = random_nfa(rng, lambda_prob=0.0)
            for max_len in (0, 3, 6):
                assert enumerate_words(trim(a), max_len) == enumerate_words(a, max_len)


class TestProductIntersection:
    def test_self_product_is_identity(self):
        a = build(WitnessSpec(Family.LEMMA_L2, 4))
        assert equivalent(product_intersection(a, a), a)

    def test_witnesses_give_double_counter_language(self):
        left, right = build(WitnessSpec(Family.INTERSECT_PAIR, 3, 3))
        product = product_intersection(left, right)
        alpha = product.alphabet
        for word in all_words(alpha, 6):
            text = alpha.text(word)
            in_oracle = (
                text.startswith("c")
                and "c" not in text[1:]
                and text.count("a") % 2 == 0
                and text.count("b") % 2 == 0
            )
            assert accepts(product, word) == in_oracle

    def test_disjoint_singletons(self):
        a = make_nfa(2, "ab", 0, [1], [(0, "a", 1)])
        b = make_nfa(2, "ab", 0, [1], [(0, "b", 1)])
        assert trim(product_intersection(a, b)) == empty_nfa(a.alphabet)

    def test_membership_is_conjunction(self):
        rng = random.Random(23)
        for _ in range(20):
            a = random_nfa(rng, lambda_prob=0.0)
            b = random_nfa(rng, lambda_prob=0.0)
            p = product_intersection(a, b)
            for word in all_words(a.alphabet, 6):
                assert accepts(p, word) == (accepts(a, word) and accepts(b, word))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 6))
def test_membership_agreement_property(seed, word_len):
    rng = random.Random(seed)
    a = random_nfa(rng, lambda_prob=0.25)
    word = tuple(rng.randrange(a.alphabet.size) for _ in range(word_len))
    lam_free = remove_lambda(a)
    d = determinize(lam_free)
    assert accepts(a, word) == accepts(lam_free, word) == accepts(d, word)


def test_membership_agreement_up_to_length_12():
    rng = random.Random(29)
    a = random_nfa(rng, max_states=3, lambda_prob=0.3)
    lam_free = remove_lambda(a)
    d = determinize(lam_free)
    for word in all_words(a.alphabet, 12):
        assert accepts(a, word) == accepts(lam_free, word) == accepts(d, word)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.integers(0, 1), max_size=8))
def test_word_masks_agree_with_accepts(seed, word):
    rng = random.Random(seed)
    a = random_nfa(rng, max_states=5, lambda_prob=0.3)
    word = tuple(word)
    fwd, bwd = word_masks(a)
    expected = accepts(a, word)
    for i in range(len(word) + 1):
        assert bool(fwd(word[:i]) & bwd(word[i:])) == expected


random_lambda_nfas = st.builds(
    lambda seed, labels, lambda_prob: random_nfa(
        random.Random(seed), max_states=7, labels=labels, lambda_prob=lambda_prob),
    st.integers(0, 2**31 - 1), st.sampled_from(["ab", "abc"]), st.sampled_from([0.0, 0.15, 0.3]),
)


class TestMaskCoreAgainstSetOracle:
    """The bitmask core against the frozenset algorithms it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(random_lambda_nfas, st.lists(st.integers(0, 2), max_size=7))
    def test_accepts(self, a, word):
        word = tuple(x % a.alphabet.size for x in word)
        assert accepts(a, word) == set_oracle.accepts(a, word)

    @settings(max_examples=150, deadline=None)
    @given(random_lambda_nfas)
    def test_enumerate_words(self, a):
        for max_len in (-1, 0, 1, 6):
            assert enumerate_words(a, max_len) == set_oracle.enumerate_words(a, max_len)

    @settings(max_examples=150, deadline=None)
    @given(random_lambda_nfas)
    def test_remove_lambda(self, a):
        assert remove_lambda(a) == set_oracle.remove_lambda(a)

    @settings(max_examples=150, deadline=None)
    @given(random_lambda_nfas)
    def test_trim_with_indices(self, a):
        # The oracle always rebuilds; the core returns a trim input as is.
        got, useful = trim_with_indices(a)
        want, want_useful = set_oracle.trim_with_indices(a)
        assert got == want and useful == want_useful

    @settings(max_examples=150, deadline=None)
    @given(random_lambda_nfas)
    def test_subset_walk(self, a):
        a = remove_lambda(a)
        dfa = determinize(a)
        _, subsets = _subset_walk(a.succ, 1 << a.start)
        want, want_subsets = set_oracle.determinize_with_subsets(a)
        assert tuple(frozenset(bits(sub)) for sub in subsets) == want_subsets
        assert dfa == set_oracle.as_nfa(want)
        assert (subsets.index(0) if 0 in subsets else None) == want.sink

    @settings(max_examples=150, deadline=None)
    @given(random_lambda_nfas)
    def test_least_word_is_first_enumerated(self, a):
        words = enumerate_words(a, a.state_count)
        assert set_oracle.least_word(a) == (words[0] if words else None)


random_kernel_nfas = st.builds(
    lambda seed, labels, lambda_prob: random_nfa(
        random.Random(seed), max_states=8, labels=labels, lambda_prob=lambda_prob),
    st.integers(0, 2**31 - 1), st.sampled_from(["a", "ab", "abc"]),
    st.sampled_from([0.0, 0.15, 0.3]),
)


def _with_unreachable(d, rng, extra):
    """The oracle DFA d with ``extra`` unreachable states appended, whose
    edges go anywhere and whose final flags are random, under a random
    renumbering."""
    n = d.state_count + extra
    table = list(d.table) + [
        tuple(rng.randrange(n) for _ in range(d.alphabet.size)) for _ in range(extra)]
    finals = set(d.finals) | {q for q in range(d.state_count, n) if rng.random() < 0.5}
    perm = list(range(n))
    rng.shuffle(perm)
    inv = sorted(range(n), key=perm.__getitem__)
    return set_oracle.Dfa(n, d.alphabet, perm[d.start], frozenset(perm[q] for q in finals),
                          tuple(tuple(perm[r] for r in table[old]) for old in inv))


def _dead_states(d: Nfa) -> list[int]:
    """The non-final states of a DFA that step to themselves on every
    symbol."""
    return [q for q, row in enumerate(d.succ)
            if row == (1 << q,) * d.alphabet.size and q not in d.finals]


class TestCanonicalKernelAgainstOracle:
    """The one-pass canonical DFA against the chain it replaced: frozenset
    lambda removal and subset construction, the reachable part, Moore
    refinement to a fixed point, the quotient and its reachable part again.
    The oracle's DFAs are tables, compared as ``Nfa`` values with one edge
    per cell; its dead state is compared on its own."""

    @settings(max_examples=300, deadline=None)
    @given(random_kernel_nfas)
    def test_canonical_dfa(self, a):
        got, want = canonical_dfa(a), set_oracle.canonical_dfa(a)
        assert got == set_oracle.as_nfa(want)
        assert _dead_states(got) == ([] if want.sink is None else [want.sink])

    @settings(max_examples=150, deadline=None)
    @given(random_kernel_nfas, st.integers(0, 2**31 - 1), st.integers(0, 4))
    def test_minimize_with_unreachable_states_and_renumbering(self, a, seed, extra):
        # A DFA with unreachable states, started anywhere, is minimized by
        # canonical_dfa like any other NFA.
        d = _with_unreachable(set_oracle.determinize(set_oracle.remove_lambda(a)),
                              random.Random(seed), extra)
        got, want = canonical_dfa(set_oracle.as_nfa(d)), set_oracle.minimize(d)
        assert got == set_oracle.as_nfa(want)
        assert got == canonical_dfa(a)

    def test_sink_is_the_dead_state(self, monkeypatch):
        # b a*: the start, the dead state 1 reached on a, and the final
        # a-loop 2 reached on b.
        ba_star = build(WitnessSpec(Family.LEMMA_L1, 2))
        d = canonical_dfa(ba_star)
        assert d.succ == ((2, 4), (2, 2), (4, 2)) and d.final_mask == 4
        assert _dead_states(d) == [1]
        # nsc_exhaustive counts the states of the canonical DFA other than
        # its dead state, and answers from that count alone when it is at
        # most 2: no trimmed input is built.
        def no_trim(a):
            raise AssertionError("the trimmed input was built")

        monkeypatch.setattr(bounds, "trim", no_trim)
        sigma_star = make_nfa(1, "ab", 0, [0], [(0, "a", 0), (0, "b", 0)])
        empty = empty_nfa(alphabet("ab"))
        # a* b (a + b)*: a final state loops on every symbol, but it is not
        # dead, so there are 2 live states.
        has_b = make_nfa(2, "ab", 0, [1], [(0, "a", 0), (0, "b", 1), (1, "a", 1), (1, "b", 1)])
        assert [_dead_states(canonical_dfa(x)) for x in (sigma_star, empty, has_b)] == [
            [], [0], []]
        assert [bounds.nsc_exhaustive(x, 3) for x in (ba_star, sigma_star, empty, has_b)] == [
            2, 1, 1, 2]


def _started_anywhere(seed, labels, lambda_prob, start) -> Nfa:
    a = random_nfa(random.Random(seed), max_states=6, labels=labels, lambda_prob=lambda_prob)
    return Nfa(a.state_count, a.alphabet, start % a.state_count, a.final_mask, a.succ, a.lam)


random_dfa_inputs = st.builds(
    _started_anywhere, st.integers(0, 2**31 - 1), st.sampled_from(["a", "ab", "abc"]),
    st.sampled_from([0.0, 0.15, 0.3]), st.integers(0, 5),
)


def _non_returning(a: Nfa) -> Nfa:
    """a without its lambda edges and its edges into the start."""
    keep = ~(1 << a.start)
    succ = tuple(tuple(m & keep for m in row) for row in a.succ)
    return Nfa(a.state_count, a.alphabet, a.start, a.final_mask, succ, (0,) * a.state_count)


class TestDfaShape:
    """``canonical_dfa`` and ``complement_sf`` return complete DFAs as
    ``Nfa`` values: one successor bit per cell, no lambda edge, and at most
    one dead state.  The inputs have lambda edges and starts other than 0."""

    @staticmethod
    def assert_dfa(d: Nfa) -> None:
        assert all(m and not m & (m - 1) for row in d.succ for m in row)
        assert d.lam == (0,) * d.state_count
        assert len(_dead_states(d)) <= 1

    @settings(max_examples=200, deadline=None)
    @given(random_dfa_inputs)
    def test_canonical_dfa(self, a):
        d = canonical_dfa(a)
        self.assert_dfa(d)
        assert canonical_dfa(d) == d
        assert d == set_oracle.as_nfa(set_oracle.canonical_dfa(a))

    @settings(max_examples=200, deadline=None)
    @given(random_dfa_inputs)
    def test_complement_sf(self, a):
        a = _non_returning(a)
        d = complement_sf(a)
        self.assert_dfa(d)
        # The subset construction of the oracle with its finals flipped.
        want = set_oracle.determinize(a)
        want = replace(want, finals=frozenset(range(want.state_count)) - want.finals)
        assert d == set_oracle.as_nfa(want)


class TestMoorePartition:
    """The three stages of ``canonical_dfa``: the subset table, its Moore
    blocks and the numbered minimal DFA.  The blocks alone give the size of
    the canonical DFA and, by the dead-block rule, its live states; the
    inputs have lambda edges and starts other than 0."""

    @settings(max_examples=200, deadline=None)
    @given(random_dfa_inputs)
    def test_blocks_are_the_states_of_the_canonical_dfa(self, a):
        table, final = _subset_dfa(a)
        block = _moore(table, final)
        d = canonical_dfa(a)
        assert max(block) + 1 == d.state_count == len(set(block))
        assert _live_blocks(table, final, block) == max(
            d.state_count - len(_dead_states(d)), 1)
        assert _minimal(a.alphabet, table, final, block) == d
        assert d == set_oracle.as_nfa(set_oracle.canonical_dfa(a))

    @settings(max_examples=100, deadline=None)
    @given(random_dfa_inputs)
    def test_blocks_are_the_languages_of_the_subsets(self, a):
        # Two subsets share a block iff the table started at each accepts
        # the same language, by the oracle's canonical DFA.
        table, final = _subset_dfa(a)
        block = _moore(table, final)
        n = len(table)
        succ = tuple(tuple(1 << r for r in row) for row in table)
        final_mask = sum(f << q for q, f in enumerate(final))
        language = [set_oracle.canonical_dfa(Nfa(n, a.alphabet, q, final_mask, succ, (0,) * n))
                    for q in range(n)]
        assert all((block[p] == block[q]) == (language[p] == language[q])
                   for p in range(n) for q in range(p))


def test_every_export_resolves():
    namespace: dict = {}
    exec("from sfnfa import *", namespace)
    assert set(sfnfa.__all__) <= set(namespace)
    assert all(getattr(sfnfa, name) is namespace[name] for name in sfnfa.__all__)
    assert "Dfa" not in namespace and "minimize" not in namespace
