"""Canonical JSON automaton format and Graphviz DOT export.

Document shape (keys in exactly this order)::

    {"alphabet": ["a", "b"], "states": N, "start": i, "finals": [..],
     "transitions": [[src, "a"|"~", dst], ...]}

``"~"`` encodes a lambda edge, so it is not allowed as an alphabet label.
Transitions are sorted by ``(src, symbol-label, dst)`` and finals
ascending, so emission is byte-deterministic and round-trips exactly.
"""

from __future__ import annotations

import json
import os
import tempfile

from .automata import Alphabet, Nfa
from .errors import ParseError

LAMBDA_LABEL = "~"
# Bounds on Nfa rows and on mask bits, as wide as a mask's highest state (README).
MAX_CELLS = 1 << 20
MAX_MASK_BITS = 1 << 31


def _transitions(a: Nfa) -> list[list]:
    """``[src, label, dst]`` for every transition, sorted: by state, then by
    label with ``"~"`` among the labels, then by destination."""
    labels = a.alphabet.labels
    # Index len(labels) of a state's row is its lambda mask.
    order = sorted(zip((*labels, LAMBDA_LABEL), range(len(labels) + 1)))
    out = []
    for src, row in enumerate(a.succ):
        row = (*row, a.lam[src])
        for label, x in order:
            mask = row[x]
            while mask:
                low = mask & -mask
                out.append([src, label, low.bit_length() - 1])
                mask ^= low
    return out


def _refuse_lambda_label(a: Nfa) -> None:
    if LAMBDA_LABEL in a.alphabet.labels:
        raise ValueError(f"alphabet label {LAMBDA_LABEL!r} is reserved for lambda edges")


def to_document(a: Nfa) -> dict:
    _refuse_lambda_label(a)
    return {
        "alphabet": list(a.alphabet.labels),
        "states": a.state_count,
        "start": a.start,
        "finals": sorted(a.finals),
        "transitions": _transitions(a),
    }


def to_json(a: Nfa) -> str:
    return json.dumps(to_document(a))


def check_limits(states: int, alphabet_size: int, transitions=(), error=ParseError) -> None:
    """Raise ``error`` when an automaton of this size is beyond what
    ``from_document`` loads: more than MAX_CELLS (state, symbol) rows, or
    successor masks of more than MAX_MASK_BITS bits (``dst + 1`` summed over
    the distinct transitions, each at most ``states``)."""
    if states * max(alphabet_size, 1) > MAX_CELLS:
        raise error(f"states × alphabet size must be at most {MAX_CELLS}")
    if len(transitions) * states > MAX_MASK_BITS and sum(
            dst + 1 for _, _, dst in transitions if 0 <= dst < states) > MAX_MASK_BITS:
        raise error(f"the successor masks would exceed {MAX_MASK_BITS} bits")


def from_document(doc) -> Nfa:
    if not isinstance(doc, dict):
        raise ParseError("automaton document must be a JSON object")
    for key in ("alphabet", "states", "start", "finals", "transitions"):
        if key not in doc:
            raise ParseError(f"missing key: {key}")
    try:
        alpha = Alphabet(tuple(doc["alphabet"]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad alphabet: {exc}") from exc
    if LAMBDA_LABEL in alpha.labels:
        raise ParseError(f"bad alphabet: {LAMBDA_LABEL!r} is reserved for lambda edges")
    # type(v) is int rejects bools and floats, which isinstance would not.
    states, start, finals = doc["states"], doc["start"], doc["finals"]
    if type(states) is not int or states <= 0:
        raise ParseError("states must be a positive integer")
    check_limits(states, alpha.size)
    if type(start) is not int:
        raise ParseError("start must be an integer")
    if type(finals) is not list or any(type(q) is not int for q in finals):
        raise ParseError("finals must be a list of integers")
    if type(doc["transitions"]) is not list:
        raise ParseError("transitions must be a list")
    trans = set()
    for entry in doc["transitions"]:
        try:
            src, label, dst = entry
        except (TypeError, ValueError):
            raise ParseError(f"bad transition entry: {entry!r}") from None
        if type(src) is not int or type(dst) is not int:
            raise ParseError(f"bad transition entry: {entry!r}")
        if label == LAMBDA_LABEL:
            sym = None
        else:
            try:
                sym = alpha.index(label)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        trans.add((src, sym, dst))
    check_limits(states, alpha.size, trans)
    try:
        return Nfa.from_edges(states, alpha, start, finals, trans)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed automaton: {exc}") from exc


def from_json(text: str) -> Nfa:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_document(doc)


def load(path) -> Nfa:
    try:
        with open(path, encoding="utf-8") as fh:
            return from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def dump(a: Nfa, path) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    write_text_atomic(path, to_json(a) + "\n")


def write_text_atomic(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sfnfa-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def to_dot(a: Nfa, name: str = "automaton") -> str:
    """Graphviz DOT: double circles for finals, external arrow into start.
    Lambda edges are labelled λ, so a ``"~"`` label is refused as in
    ``to_document``; ``"`` and ``\\`` in a label are escaped."""
    _refuse_lambda_label(a)
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=none, label=""];']
    finals = a.finals
    for q in range(a.state_count):
        shape = "doublecircle" if q in finals else "circle"
        lines.append(f"  q{q} [shape={shape}, label=\"{q}\"];")
    lines.append(f"  __start -> q{a.start};")
    for src, sym, dst in _transitions(a):
        label = "λ" if sym == LAMBDA_LABEL else sym.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  q{src} -> q{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
