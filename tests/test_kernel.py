"""The propagating table search against the brute-force numpy filter,
survivor list for survivor list, order included."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from sfnfa import _kernel
from sfnfa._kernel import filter_tables
from sfnfa.automata import alphabet, empty_nfa, lambda_nfa, make_nfa
from sfnfa.bounds import _sample_trie
from sfnfa.witnesses import Family, WitnessSpec, build

import numpy_filter
from nsc_oracle import sample, trie_words


def assert_matches_oracle(k, nfa):
    args = (k, nfa.alphabet.size) + sample(nfa, k)
    survivors = filter_tables(*args)
    assert survivors == numpy_filter.filter_tables(*args)
    return survivors


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_lemma_l1(m, k):
    assert_matches_oracle(k, build(WitnessSpec(Family.LEMMA_L1, m)))


@pytest.mark.parametrize("m", [3, 4])
def test_lemma_l2_k3(m):
    assert_matches_oracle(3, build(WitnessSpec(Family.LEMMA_L2, m)))


def test_empty_word_language():
    # The root is accepted, so it starts out in the accepted set.
    assert assert_matches_oracle(2, lambda_nfa(alphabet("ab")))


def test_empty_language_keeps_every_table():
    # Nothing is accepted, nothing is pruned: once the forbidden mask is
    # full, every remaining cell is expanded at the leaves.
    survivors = assert_matches_oracle(2, empty_nfa(alphabet("ab")))
    assert len(survivors) == 4 ** 4
    assert all(not finals & 1 for _, finals in survivors)


def test_cap_keeps_the_least_encodings(monkeypatch):
    args = (2, 2) + sample(empty_nfa(alphabet("ab")), 2)
    monkeypatch.setattr(_kernel, "SURVIVOR_CAP", 10)
    assert filter_tables(*args) == numpy_filter.filter_tables(*args, cap=10)


def test_cap_stops_the_expansion_of_a_rejected_only_k3_trie(monkeypatch):
    # Nothing is accepted on the k=3 binary trie of depth 6, so all 262,144
    # tables survive, nearly all of them as values of cells left unassigned
    # at a leaf.  Each cap keeps the least encodings, and a small one builds
    # about one table per leaf, not all of them.
    args = (3, 2) + sample(empty_nfa(alphabet("ab")), 3)
    want = numpy_filter.filter_tables(*args)
    assert filter_tables(*args) == want and len(want) == 200000
    built = 0
    real = _kernel.product

    def counting(*its, **kw):
        nonlocal built
        for values in real(*its, **kw):
            built += 1
            yield values

    monkeypatch.setattr(_kernel, "product", counting)
    for cap in (1, 10):
        monkeypatch.setattr(_kernel, "SURVIVOR_CAP", cap)
        built = 0
        assert filter_tables(*args) == want[:cap]
        assert built < 2000


@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_letter_alphabet(k):
    # a (aa)*: the odd lengths.
    odd = make_nfa(3, "a", 0, {1}, [(0, "a", 1), (1, "a", 2), (2, "a", 1)])
    assert_matches_oracle(k, odd)


@pytest.mark.parametrize("letters", ["a", "b", "ab"])
@pytest.mark.parametrize("length", [5, 6])
def test_late_accepted_words(letters, length):
    # Fixed-length languages: every accepted node comes late in BFS order,
    # so most branches end when the forbidden mask fills up before one.
    chain = make_nfa(length + 1, "ab", 0, {length},
                     [(i, x, i + 1) for i in range(length) for x in letters])
    assert_matches_oracle(3, chain)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("length", [3, 4])
def test_every_word_but_one_length(k, length):
    # Propagation reorders the work: rejected nodes of that length are
    # processed ahead of lower-index nodes that wait on a cell, and fill
    # the forbidden mask early.
    parents, symbols = _sample_trie(2, 2 * k)
    words = trie_words(parents, symbols)
    args = (k, 2, parents, symbols, [len(w) != length for w in words])
    assert filter_tables(*args) == numpy_filter.filter_tables(*args)


@pytest.mark.parametrize("length", [2, 3, 4])
def test_one_word_of_as(length):
    # {a^L} at k=3: the one accepted node comes late in node order, and
    # rejected nodes processed out of order fill the forbidden mask first.
    parents, symbols = _sample_trie(2, 6)
    words = trie_words(parents, symbols)
    args = (3, 2, parents, symbols, [w == (0,) * length for w in words])
    assert filter_tables(*args) == numpy_filter.filter_tables(*args)


@st.composite
def labelled_tries(draw):
    k = draw(st.integers(1, 2))
    sigma = draw(st.integers(2, 3))
    depth = draw(st.integers(0, 2 * k))
    parents, symbols = _sample_trie(sigma, depth)
    labels = draw(st.lists(st.booleans(), min_size=len(parents), max_size=len(parents)))
    return k, sigma, parents, symbols, labels


@settings(max_examples=150, deadline=None)
@given(labelled_tries())
def test_random_trie_labels(args):
    assert filter_tables(*args) == numpy_filter.filter_tables(*args)


@st.composite
def dense_tries(draw):
    # Each word accepted with probability p, from all-rejected to
    # all-accepted samples.
    k = draw(st.integers(1, 2))
    sigma = draw(st.integers(1, 3))
    p = draw(st.floats(0, 1))
    parents, symbols = _sample_trie(sigma, 2 * k)
    coins = draw(st.lists(st.floats(0, 1, exclude_max=True),
                          min_size=len(parents), max_size=len(parents)))
    return k, sigma, parents, symbols, [c < p for c in coins]


@settings(max_examples=150, deadline=None)
@given(dense_tries())
def test_random_label_densities(args):
    assert filter_tables(*args) == numpy_filter.filter_tables(*args)


def dfa_labels(parents, symbols, table, finals):
    """The trie's labels under a complete DFA with start 0: its word is
    accepted when the DFA ends in a final state."""
    state = [0]
    for i in range(1, len(parents)):
        state.append(table[state[parents[i]]][symbols[i]])
    return [q in finals for q in state]


@st.composite
def dfa_labelled_k3(draw):
    # Binary tries of every word up to length 6, labelled by DFAs of up to
    # 4 states.  Samples with no accepted word, or with most words accepted,
    # keep tens of thousands of tables and are left to the fixed cases.
    nq = draw(st.integers(1, 4))
    table = draw(st.lists(st.lists(st.integers(0, nq - 1), min_size=2, max_size=2),
                          min_size=nq, max_size=nq))
    finals = draw(st.sets(st.integers(0, nq - 1)))
    parents, symbols = _sample_trie(2, 6)
    labels = dfa_labels(parents, symbols, table, finals)
    assume(0 < sum(labels) <= 96)
    return 3, 2, parents, symbols, labels


@settings(max_examples=6, deadline=None)
@given(dfa_labelled_k3())
def test_dfa_labelled_k3(args):
    assert filter_tables(*args) == numpy_filter.filter_tables(*args)


@pytest.mark.parametrize("table, finals", [
    ([[1, 1], [1, 1]], {0}),  # {λ}
    ([[1, 0], [1, 1]], {0}),  # b*
])
def test_pending_cut_through_the_root(table, finals):
    # The empty word is accepted, so the root's reach {0} is an accepted
    # reach from the start.  A rejected node that waits on a cell after
    # reading an assigned cell holding state 0 already puts state 0 in the
    # pending reach, and the branch is cut there, before any other accepted
    # node is processed.
    parents, symbols = _sample_trie(2, 6)
    args = (3, 2, parents, symbols, dfa_labels(parents, symbols, table, finals))
    assert filter_tables(*args) == numpy_filter.filter_tables(*args)


def test_survivors_reproduce_sample():
    nfa = build(WitnessSpec(Family.LEMMA_L1, 2))
    k = 2
    parents, symbols, labels = sample(nfa, k)
    survivors = filter_tables(k, 2, parents, symbols, labels)
    assert survivors
    # Re-simulate each survivor on the trie and compare labels.
    for cells, fmask in survivors[:50]:
        reach = [1]
        for i in range(1, len(parents)):
            pm = reach[parents[i]]
            nm = 0
            for st_ in range(k):
                if pm >> st_ & 1:
                    nm |= cells[st_ * 2 + symbols[i]]
            reach.append(nm)
        for i, want in enumerate(labels):
            assert bool(reach[i] & fmask) == want
