import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sfnfa.automata import make_nfa, remove_lambda
from sfnfa.constructions import complement_sf
from sfnfa.errors import ParseError
from sfnfa.serialize import dump, from_json, load, to_document, to_dot, to_json
from sfnfa.witnesses import Family, WitnessSpec, build

from automata_extras import determinize
from conftest import random_nfa


def test_document_key_order_and_sorting():
    a = make_nfa(3, "ab", 0, [2, 1], [(1, "a", 2), (0, "b", 1), (0, None, 2)])
    doc = to_document(a)
    assert list(doc) == ["alphabet", "states", "start", "finals", "transitions"]
    assert doc["finals"] == [1, 2]
    assert doc["transitions"] == [[0, "b", 1], [0, "~", 2], [1, "a", 2]]


def sorted_triples(a):
    """Every transition as (src, label, dst), sorted as a list of triples."""
    labels = a.alphabet.labels
    return sorted((q, "~" if x is None else labels[x], r) for q, x, r in a.transitions)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["ba", "b{a", "éa{", "{é"]),
       st.sampled_from([0.0, 0.3]), st.booleans())
def test_transitions_match_sorted_triples(seed, labels, lambda_prob, as_dfa):
    # Emission walks the successor masks in label order; "{" sorts below
    # "~" and "é" above it, and "ba" lists its labels out of index order.
    a = random_nfa(random.Random(seed), max_states=6, labels=labels, lambda_prob=lambda_prob)
    if as_dfa:
        a = determinize(remove_lambda(a))
    triples = sorted_triples(a)
    doc = json.loads(to_json(a))
    assert doc["transitions"] == [list(t) for t in triples]
    assert doc["alphabet"] == list(labels)
    edges = [line for line in to_dot(a).splitlines() if " -> q" in line][1:]
    assert edges == [f'  q{q} -> q{r} [label="{"λ" if x == "~" else x}"];'
                     for q, x, r in triples]


def test_round_trip_100_random_nfas_byte_identical():
    rng = random.Random(0)
    for _ in range(100):
        a = random_nfa(rng, max_states=5, labels="abc", lambda_prob=0.2)
        once = to_json(a)
        twice = to_json(from_json(once))
        assert once == twice
        assert from_json(twice) == from_json(once)


def test_lambda_label_cannot_be_a_symbol():
    # A "~" symbol edge would be read back as a lambda edge, so neither
    # direction accepts "~" as an alphabet label.
    a = make_nfa(2, "~b", 0, [1], [(0, "~", 1)])
    with pytest.raises(ValueError, match="reserved for lambda edges"):
        to_json(a)
    doc = {"alphabet": ["~", "b"], "states": 2, "start": 0, "finals": [1],
           "transitions": [[0, "~", 1]]}
    with pytest.raises(ParseError, match="reserved for lambda edges"):
        from_json(json.dumps(doc))
    b = make_nfa(2, "ab", 0, [1], [(0, None, 1), (0, "a", 1)])
    assert from_json(to_json(b)) == b


def test_dfa_serializes_through_nfa_schema():
    d = complement_sf(build(WitnessSpec(Family.LEMMA_L1, 3)))
    doc = to_document(d)
    assert len(doc["transitions"]) == d.state_count * d.alphabet.size
    assert from_json(json.dumps(doc)) == d


def test_file_round_trip(tmp_path):
    a = build(WitnessSpec(Family.LEMMA_L2, 4))
    path = tmp_path / "w.json"
    dump(a, path)
    assert load(path) == a
    assert path.read_text().endswith("\n")


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"alphabet": ["a"], "states": 1, "start": 0, "finals": []}',
        '{"alphabet": ["a"], "states": 0, "start": 0, "finals": [], "transitions": []}',
        '{"alphabet": ["a"], "states": 1, "start": 2, "finals": [], "transitions": []}',
        '{"alphabet": ["a"], "states": 1, "start": 0, "finals": [], "transitions": [[0, "z", 0]]}',
        '{"alphabet": ["a", "a"], "states": 1, "start": 0, "finals": [], "transitions": []}',
        pytest.param('{"alphabet": ["a", "b"], "states": 524289, "start": 0, "finals": [], '
                     '"transitions": []}', id="rows-too-many"),
        pytest.param(json.dumps({"alphabet": ["a"], "states": 300000, "start": 0, "finals": [],
                                 "transitions": [[q, "a", 299999] for q in range(7200)]}),
                     id="mask-bits-too-many"),
        pytest.param("[" * 100000, id="nesting-too-deep"),
        pytest.param("1" * 5000, id="integer-too-long"),
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        from_json(text)


def test_load_rejects_undecodable_file(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ParseError, match="cannot read"):
        load(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("transitions", 5),
        ("transitions", {"0": 1}),
        ("states", True),
        ("states", 1.0),
        ("start", False),
        ("start", 0.0),
        ("finals", [0.0]),
        ("finals", [False]),
        ("finals", 0),
        ("transitions", [[0.0, "a", 0]]),
        ("transitions", [[0, "a", False]]),
    ],
)
def test_schema_rejects_non_int_values(key, value):
    doc = {"alphabet": ["a"], "states": 1, "start": 0, "finals": [0],
           "transitions": [[0, "a", 0]]}
    doc[key] = value
    with pytest.raises(ParseError):
        from_json(json.dumps(doc))


def test_dot_export_shape():
    a = build(WitnessSpec(Family.LEMMA_L1, 3))
    dot = to_dot(a)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert "__start -> q0;" in dot
    assert '[label="b"]' in dot


def test_dot_escapes_quote_and_backslash():
    a = make_nfa(2, ['"', "\\"], 0, [1], [(0, '"', 1), (1, "\\", 0)])
    edges = [line for line in to_dot(a).splitlines() if " -> q" in line][1:]
    assert edges == ['  q0 -> q1 [label="\\""];', '  q1 -> q0 [label="\\\\"];']


def test_dot_refuses_the_lambda_label():
    # A "~" edge would be drawn as λ, the same as a lambda edge.
    a = make_nfa(2, "~a", 0, [1], [(0, "~", 1), (0, None, 1)])
    with pytest.raises(ValueError, match="reserved for lambda edges"):
        to_dot(a)
