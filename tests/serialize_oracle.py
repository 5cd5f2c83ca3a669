"""The canonical automaton document built as a dict: the byte-identity
oracle for ``serialize.to_json``, which writes the text from the masks, so
that ``to_json(a) == json.dumps(to_document(a))``.  It reads
``Nfa.transitions`` and sorts the triples, not the masks in label order
that ``to_json`` walks."""

from __future__ import annotations

from sfnfa.automata import Nfa


def to_document(a: Nfa) -> dict:
    labels = a.alphabet.labels
    triples = sorted((q, "~" if x is None else labels[x], r) for q, x, r in a.transitions)
    return {
        "alphabet": list(labels),
        "states": a.state_count,
        "start": a.start,
        "finals": sorted(a.finals),
        "transitions": [list(t) for t in triples],
    }
