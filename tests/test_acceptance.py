"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them).  Every bound is exact; each criterion also pins its wall-clock
budget."""

import random
import time

from sfnfa.automata import (
    accepts,
    enumerate_words,
    lambda_nfa,
    alphabet,
    make_nfa,
    product_intersection_with_pairs,
)
from sfnfa.bounds import (
    Operation,
    certify,
    nsc_exhaustive,
    paper_fooling_set,
    search_fooling_set,
    verify_fooling_set,
)
from sfnfa.constructions import (
    complement_sf,
    concat_sf,
    reverse_nfa,
    star_sf,
    union_sf,
)
from sfnfa.serialize import from_json, to_json
from sfnfa.suffixfree import is_suffix_free
from sfnfa.witnesses import Family, WitnessSpec, build

from conftest import all_words, random_nfa


class _Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"{status} criterion {self.criterion} ({elapsed:.2f}s / {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget"
            )
        return False


def test_criterion_1_union_tightness():
    with _Budget("1: union tight m+n-1 for 2<=m,n<=6", 1.0):
        for m in range(2, 7):
            for n in range(2, 7):
                r = certify(Operation.UNION, m, n)
                assert r.constructed_size == r.lower_bound == m + n - 1
                assert r.tight


def test_criterion_2_catenation_tightness():
    with _Budget("2: catenation tight m+n-1 and {a^(m+n-2)}", 1.0):
        for m in range(2, 7):
            for n in range(2, 7):
                r = certify(Operation.CATENATION, m, n)
                assert r.constructed_size == r.lower_bound == m + n - 1
                assert r.tight
                left, right = build(WitnessSpec(Family.CONCAT_PAIR, m, n))
                c = concat_sf(left, right)
                only = c.alphabet.word("a" * (m + n - 2))
                assert enumerate_words(c, m + n) == [only]


def test_criterion_3_intersection_tightness():
    with _Budget("3: intersection tight mn-(m+n)+2, mixed pairs absent", 5.0):
        for m in range(2, 6):
            for n in range(2, 6):
                r = certify(Operation.INTERSECTION, m, n)
                assert r.constructed_size == r.lower_bound == m * n - (m + n) + 2
                assert r.tight
                left, right = build(WitnessSpec(Family.INTERSECT_PAIR, m, n))
                # The reachable product pairs hold every pair the trim keeps.
                _, pairs = product_intersection_with_pairs(left, right)
                for p, q in pairs[1:]:
                    assert p != left.start and q != right.start


def test_criterion_4_star_tightness():
    with _Budget("4: star tight m for 2<=m<=8 and m=1 gives 1", 1.0):
        for m in range(2, 9):
            r = certify(Operation.STAR, m)
            assert r.constructed_size == r.lower_bound == m
            assert r.tight
        assert star_sf(lambda_nfa(alphabet("ab"))).state_count == 1


def test_criterion_5_reversal():
    with _Budget("5: reversal m+1 states, enumeration flips, lower == m", 10.0):
        for m in range(4, 8):
            w = build(WitnessSpec(Family.REVERSAL, m))
            rev = reverse_nfa(w)
            assert rev.state_count == m + 1
            expected = sorted(
                (tuple(reversed(x)) for x in enumerate_words(w, m + 6)),
                key=lambda t: (len(t), t),
            )
            assert enumerate_words(rev, m + 6) == expected
            fs = search_fooling_set(rev)
            assert fs is not None and len(fs) == m
            assert verify_fooling_set(rev, fs)


def test_criterion_6_complement_upper_bound():
    with _Budget("6: complement <= 2^(m-1)+1 and matches generic complement", 5.0):
        for m in range(2, 7):
            w = build(WitnessSpec(Family.LEMMA_L1, m))
            d = complement_sf(w)
            assert d.state_count <= 2 ** (m - 1) + 1
            # Oracle: membership against the witness NFA directly.
            for word in all_words(w.alphabet, 8):
                assert accepts(d, word) == (not accepts(w, word))


def test_criterion_7_fooling_set_soundness():
    with _Budget("7: exhaustive minimum equals fooling-set certificate", 60.0):
        cases = []
        for m in (2, 3):
            cases.append(
                (build(WitnessSpec(Family.LEMMA_L1, m)),
                 len(paper_fooling_set(Family.LEMMA_L1, m)))
            )
            cases.append(
                (star_sf(build(WitnessSpec(Family.STAR, m))),
                 len(paper_fooling_set(Family.STAR, m)))
            )
        cases.append(
            (build(WitnessSpec(Family.LEMMA_L2, 3)),
             len(paper_fooling_set(Family.LEMMA_L2, 3)))
        )
        left, right = build(WitnessSpec(Family.UNION_PAIR, 2, 2))
        cases.append(
            (union_sf(left, right), len(paper_fooling_set(Family.UNION_PAIR, 2, 2)))
        )
        left, right = build(WitnessSpec(Family.CONCAT_PAIR, 2, 2))
        cases.append(
            (concat_sf(left, right),
             len(paper_fooling_set(Family.CONCAT_PAIR, 2, 2)))
        )
        for nfa, certificate in cases:
            assert verify_fooling_set is not None
            assert nsc_exhaustive(nfa, 3) == certificate


def test_criterion_8_suffix_freeness_checker():
    with _Budget("8: witness grids SuffixFree, ten counterexamples rejected", 1.0):
        grid = []
        for m in range(2, 7):
            grid += [
                WitnessSpec(Family.LEMMA_L1, m),
                WitnessSpec(Family.STAR, m),
                WitnessSpec(Family.COMPLEMENT_PREFIXED, m),
            ]
        grid += [WitnessSpec(Family.LEMMA_L2, m) for m in range(3, 7)]
        grid += [WitnessSpec(Family.REVERSAL, m) for m in range(4, 8)]
        for m, n in [(2, 2), (3, 4), (4, 3)]:
            grid += [
                WitnessSpec(Family.UNION_PAIR, m, n),
                WitnessSpec(Family.CONCAT_PAIR, m, n),
                WitnessSpec(Family.INTERSECT_PAIR, m, n),
            ]
        for spec in grid:
            out = build(spec)
            for nfa in (out if isinstance(out, tuple) else (out,)):
                assert is_suffix_free(nfa).suffix_free, spec

        counterexamples = [
            make_nfa(1, "ab", 0, [0], [(0, "a", 0)]),  # a*
            make_nfa(3, "ab", 0, [1, 2], [(0, "a", 1), (0, "b", 2), (2, "a", 1)]),  # {a, ba}
            make_nfa(2, "ab", 0, [1],  # (a+b)* b
                     [(0, "a", 0), (0, "b", 0), (0, "b", 1)]),
            make_nfa(2, "ab", 0, [1], [(0, "a", 1), (1, "a", 1)]),  # a+
            make_nfa(2, "ab", 0, [0, 1], [(0, "b", 1)]),  # {lambda, b}
            make_nfa(3, "ab", 0, [2], [(0, "a", 1), (1, "b", 2), (0, "b", 2)]),  # {ab, b}
            make_nfa(3, "ab", 0, [1, 2], [(0, "b", 1), (1, "b", 2)]),  # {b, bb}
            make_nfa(2, "ab", 0, [0], [(0, "a", 1), (1, "a", 0)]),  # (aa)*
            make_nfa(3, "ab", 0, [2], [(0, "a", 2), (0, "b", 1), (1, "a", 2)]),  # {a, ba}
            make_nfa(2, "ab", 0, [1], [(0, "b", 1), (1, "a", 1), (0, "a", 0)]),  # a* b a*
        ]
        assert len(counterexamples) == 10
        for nfa in counterexamples:
            verdict = is_suffix_free(nfa)
            assert not verdict.suffix_free
            shorter, longer = verdict.witness
            assert len(shorter) < len(longer)
            assert longer[len(longer) - len(shorter):] == shorter
            assert accepts(nfa, shorter) and accepts(nfa, longer)


def test_criterion_9_serialization_round_trip():
    with _Budget("9: 100 seeded round trips byte-identical", 1.0):
        rng = random.Random(1234)
        for _ in range(100):
            a = random_nfa(rng, max_states=5, labels="abc", lambda_prob=0.2)
            once = to_json(a)
            twice = to_json(from_json(once))
            assert once == twice
