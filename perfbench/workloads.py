"""The three workloads: seeded item lists, the timed call of each item, and
the check of its output against the reference in ``oracle``.

Every timed call goes through a module attribute of sfnfa (``bounds.certify``,
``_kernel.filter_tables``, ...), the name the CLI and the library's own
callers look up, so the traced run sees the same calls.  Inputs are built,
and outputs checked, outside the timed region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import oracle
from sfnfa import _kernel, automata, bounds, constructions, serialize, suffixfree, witnesses

@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], Any]  # the timed call; returns plain data
    check: Callable[[Any], str | None]  # failure message, or None when right


def build_items(workload: str, seed: int) -> list[Item]:
    if workload == "certify-table":
        return _certify_items(seed)
    if workload == "nsc-search":
        return _nsc_items(seed)
    if workload == "suffix-check":
        return _suffix_items(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def check_output(item: Item, output) -> str | None:
    """Run an item's check; a check that raises is a failed check."""
    try:
        return item.check(output)
    except Exception as exc:  # noqa: BLE001 - any error is a wrong answer
        return f"{type(exc).__name__}: {exc}"


# --- certify-table: every item `sfnfa table --m 2..8 --n 2..8` computes ---

# The order and the ranges of `sfnfa table`: the summary table's operation
# order, reversal from m=4, binary operations over every n.
TABLE_ORDER = ("catenation", "union", "intersection", "star", "reversal", "complementation")
BINARY = {"catenation", "union", "intersection"}
TABLE_RANGE = range(2, 9)


def _certify_items(seed: int) -> list[Item]:
    items = []
    for op in TABLE_ORDER:
        for m in TABLE_RANGE:
            if op == "reversal" and m < 4:
                continue
            for n in TABLE_RANGE if op in BINARY else [None]:
                items.append(Item(
                    f"certify:{op}:m{m}:n{n}",
                    partial(_certify, op, m, n, seed),
                    partial(_check_certify, op, m, n),
                ))
    return items


def _certify(op, m, n, seed):
    return bounds.certify(bounds.Operation(op), m, n, seed=seed).to_dict()


def _verdict(out: dict) -> str:
    if out["tight"]:
        return "TIGHT"
    return "UPPER-ONLY" if out["lower_bound_kind"] == "None" else "GAP"


def _check_certify(op, m, n, out):
    want = oracle.formula(op, m, n)
    if op == "complementation":
        # The lemma-l1 witness is a partial DFA on m states; its complete
        # subset DFA adds one dead state, well under the 2^(m-1)+1 bound.
        _expect(out["constructed"] == m + 1 <= want, f"constructed {out['constructed']}")
        _expect(out["lower_bound"] == 0, "complementation claims a lower bound")
        _expect(_verdict(out) == "UPPER-ONLY", f"verdict {_verdict(out)}")
        return None
    _expect(out["constructed"] == want, f"constructed {out['constructed']} != {want}")
    pairs = [tuple(p) for p in out["fooling_set"] or ()]
    _expect(len(pairs) == out["lower_bound"], "lower bound is not the fooling-set size")
    _expect(oracle.is_fooling_set(oracle.certify_language(op, m, n), pairs),
            "fooling set fails against the reference language")
    if op == "reversal":
        _expect(_verdict(out) == "GAP", f"verdict {_verdict(out)}")
        _expect(out["lower_bound"] >= m, f"lower bound {out['lower_bound']} < m")
    else:
        _expect(_verdict(out) == "TIGHT", f"verdict {_verdict(out)}")
        _expect(out["lower_bound"] == want, f"lower bound {out['lower_bound']}")
    return None


# --- nsc-search: exhaustive minimal-NFA search ---

# Random items per minimal NFA size.  Most small random NFAs accept a
# one-state language; the two-state ones are the ones that search.
NSC_RANDOM_ITEMS = {1: 8, 2: 24}


def _nsc_fixed_cases():
    """Criterion-7 acceptance cases with the paper's fooling-set size, and
    two m=4 witnesses whose 4 states put them beyond a k=3 search."""
    build, Spec, F = witnesses.build, witnesses.WitnessSpec, witnesses.Family
    cases = []
    for m in (2, 3):
        cases.append((f"lemma-l1:m{m}", build(Spec(F.LEMMA_L1, m)), m))
        cases.append((f"star:m{m}", constructions.star_sf(build(Spec(F.STAR, m))), m))
    cases.append(("lemma-l2:m3", build(Spec(F.LEMMA_L2, 3)), 3))
    cases.append(("union:m2:n2", constructions.union_sf(*build(Spec(F.UNION_PAIR, 2, 2))), 3))
    cases.append(("catenation:m2:n2",
                  constructions.concat_sf(*build(Spec(F.CONCAT_PAIR, 2, 2))), 3))
    cases.append(("lemma-l1:m4", build(Spec(F.LEMMA_L1, 4)), None))
    cases.append(("lemma-l2:m4", build(Spec(F.LEMMA_L2, 4)), None))
    return cases


def _random_binary_doc(rng: random.Random) -> dict:
    n = rng.randint(1, 3)
    trans = {(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
             for _ in range(rng.randint(0, 4 * n))}
    return {"alphabet": ["a", "b"], "states": n, "start": 0,
            "finals": [q for q in range(n) if rng.random() < 0.4],
            "transitions": [list(t) for t in sorted(trans)]}


def nsc_random_cases(seed: int) -> list[tuple[dict, int]]:
    """Small random binary NFAs with their minimal NFA size.  Each provably
    needs at most 2 states: it has at most 2 states, or its minimal DFA has
    at most 2 live states.  It needs exactly 1 when its language is one a
    one-state NFA accepts.  A fixed number of each answer is kept, so every
    random item stops by k=2 and a pass costs about the same whatever the
    seed."""
    rng = random.Random(f"nsc-search:{seed}")
    one_state = [oracle.Auto(d) for d in oracle.one_state_languages("ab")]
    need = dict(NSC_RANDOM_ITEMS)
    cases = []
    while any(need.values()):
        doc = _random_binary_doc(rng)
        auto = oracle.Auto(doc)
        if doc["states"] > 2 and auto.min_live_states() > 2:
            continue
        answer = 1 if any(oracle.equivalent(auto, d) for d in one_state) else 2
        if need[answer]:
            need[answer] -= 1
            cases.append((doc, answer))
    return cases


def _nsc_items(seed: int) -> list[Item]:
    items = [
        Item(f"nsc:{name}", partial(_nsc, nfa), partial(_check_equal, want))
        for name, nfa, want in _nsc_fixed_cases()
    ]
    items.append(_kernel_item())
    for i, (doc, answer) in enumerate(nsc_random_cases(seed)):
        items.append(Item(f"nsc:random:{i}",
                          partial(_nsc, serialize.from_json(json.dumps(doc))),
                          partial(_check_equal, answer)))
    return items


def _nsc(nfa):
    return bounds.nsc_exhaustive(nfa, 3)


def _check_equal(want, got):
    _expect(got == want, f"got {got!r}, want {want!r}")
    return None


# The k=3 lemma-l1 filter case: 262144 candidate tables of a 3-state binary
# NFA against the 127-node trie of every word up to length 6.
KERNEL_K, KERNEL_DEPTH = 3, 6
# b (aa)*, which is lemma-l1 at m=3, as kernel cells (state * 2 + symbol).
KERNEL_WITNESS = ((0, 0b010, 0b100, 0, 0b010, 0), 0b010)


def kernel_case():
    doc = json.loads(serialize.to_json(witnesses.build(
        witnesses.WitnessSpec(witnesses.Family.LEMMA_L1, 3))))
    parents, symbols, words = oracle.sample_trie("ab", KERNEL_DEPTH)
    auto = oracle.Auto(doc)
    return KERNEL_K, 2, parents, symbols, [auto.accepts(w) for w in words]


def _kernel_item() -> Item:
    args = kernel_case()
    return Item("nsc:kernel:lemma-l1:k3", partial(_kernel_filter, *args),
                partial(_check_kernel, args))


def _kernel_filter(*args):
    return _kernel.filter_tables(*args)


def _check_kernel(args, survivors):
    k, s, parents, symbols, labels = args
    full = (1 << k) - 1
    for cells, fmask in survivors:
        reach = oracle.table_reach(cells, k, s, parents, symbols)
        forbidden = 0
        for r, label in zip(reach, labels):
            if not label:
                forbidden |= r
        _expect(fmask == full & ~forbidden, f"finals {fmask} not maximal for {cells}")
        _expect(all(bool(r & fmask) == label for r, label in zip(reach, labels)),
                f"table {cells} does not reproduce the sample")
    keys = [sum(c << (k * j) for j, c in enumerate(cells)) for cells, _ in survivors]
    _expect(keys == sorted(set(keys)), "survivors not in ascending table order")
    _expect(KERNEL_WITNESS in survivors, "the witness's own table was filtered out")
    try:
        from sfnfa._kernel import _pure, _speed
    except ImportError:
        return None
    _expect(_speed.filter_tables(*args) == _pure.filter_tables(*args),
            "compiled and pure kernels disagree")
    return None


# --- suffix-check: the suffix-freeness decision and what `check`/`op` do ---

SUFFIX_RANDOM_ITEMS = 980
ENUM_LEN = 6
SAMPLE_WORDS = 12
# Brute-force word length for checking "suffix-free" verdicts, per alphabet size.
BRUTE_LEN = {2: 8, 3: 6, 4: 4}


def _witness_docs() -> list[tuple[str, dict]]:
    build, Spec, F = witnesses.build, witnesses.WitnessSpec, witnesses.Family
    specs = [Spec(F.LEMMA_L1, m) for m in range(2, 7)]
    specs += [Spec(F.LEMMA_L2, m) for m in range(3, 7)]
    specs += [Spec(F.REVERSAL, m) for m in range(4, 7)]
    specs += [Spec(F.COMPLEMENT_PREFIXED, m) for m in range(2, 6)]
    specs += [Spec(F.UNION_PAIR, 2, 3), Spec(F.INTERSECT_PAIR, 3, 3)]
    out = []
    for spec in specs:
        built = build(spec)
        for part, nfa in enumerate(built if isinstance(built, tuple) else (built,)):
            name = f"{spec.family.value}:m{spec.m}:n{spec.n}:{part}"
            out.append((name, json.loads(serialize.to_json(nfa))))
    return out


def random_lambda_doc(rng: random.Random, i: int) -> dict:
    """The i-th random NFA with lambda edges.  What sets an item's cost is
    stratified, not drawn: the state count cycles through 1..7, the
    alphabet through ab and abc, and every other block of 14 items gets no
    edge into the start, so it is non-returning.  The edges are random."""
    n = 1 + i % 7
    labels = "ab" if i // 7 % 2 == 0 else "abc"
    trans = set()
    for src in range(n):
        for _ in range(rng.randint(0, 2 * len(labels))):
            label = "~" if rng.random() < 0.15 else rng.choice(labels)
            dst = rng.randrange(n)
            if not (label == "~" and dst == src):
                trans.add((src, label, dst))
    if i // 14 % 2 == 0:
        trans = {t for t in trans if t[2] != 0}
    return {"alphabet": list(labels), "states": n, "start": 0,
            "finals": [q for q in range(n) if rng.random() < 0.35],
            "transitions": [list(t) for t in sorted(trans)]}


def suffix_docs(seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(f"suffix-check:{seed}")
    docs = [(f"witness:{name}", doc) for name, doc in _witness_docs()]
    docs += [(f"random:{i}", random_lambda_doc(rng, i)) for i in range(SUFFIX_RANDOM_ITEMS)]
    rng.shuffle(docs)
    return docs


def _partners(docs: list[dict]) -> list[dict]:
    """For each document, the next one in the list (cyclically) over the
    same alphabet that is non-returning by the reference: the second operand
    of the item's binary constructions.  Using the item itself would hide a
    defect that drops one operand's states."""
    ok = [oracle.Auto(doc).non_returning() for doc in docs]
    out = []
    for i, doc in enumerate(docs):
        later = (docs[(i + j) % len(docs)] for j in range(1, len(docs) + 1)
                 if ok[(i + j) % len(docs)])
        out.append(next(d for d in later if d["alphabet"] == doc["alphabet"]))
    return out


def _suffix_items(seed: int) -> list[Item]:
    rng = random.Random(f"suffix-check-words:{seed}")
    named = suffix_docs(seed)
    items = []
    for (name, doc), partner in zip(named, _partners([doc for _, doc in named])):
        samples = tuple("".join(rng.choice(doc["alphabet"]) for _ in range(rng.randint(0, 8)))
                        for _ in range(SAMPLE_WORDS))
        items.append(Item(f"suffix:{name}",
                          partial(_suffix_run, json.dumps(doc), json.dumps(partner), samples),
                          partial(_check_suffix, doc, partner, samples)))
    return items


# The constructions of `sfnfa op`.
UNARY_OPS = ("star_sf", "reverse_nfa", "complement_sf")
BINARY_OPS = ("union_sf", "concat_sf", "intersect_sf")


def _suffix_run(text: str, partner_text: str, samples: tuple[str, ...]) -> dict:
    raw = serialize.from_json(text)
    nfa = automata.remove_lambda(raw)
    verdict = suffixfree.is_suffix_free(nfa)
    non_returning = suffixfree.is_non_returning(nfa)
    alpha = raw.alphabet
    out = {
        "suffix_free": verdict.suffix_free,
        "witness": None if verdict.witness is None else [alpha.text(w) for w in verdict.witness],
        "non_returning": non_returning,
        "words": [alpha.text(w) for w in automata.enumerate_words(raw, ENUM_LEN)],
        "accepts": [automata.accepts(raw, alpha.word(w)) for w in samples],
        "dfa_states": automata.canonical_dfa(raw).state_count,
        "ops": {},
    }
    if non_returning:
        partner = automata.remove_lambda(serialize.from_json(partner_text))
        for name in UNARY_OPS:
            out["ops"][name] = serialize.to_json(getattr(constructions, name)(nfa))
        for name in BINARY_OPS:
            out["ops"][name] = serialize.to_json(getattr(constructions, name)(nfa, partner))
    return out


def _check_suffix(doc, partner, samples, out):
    auto = oracle.Auto(doc)
    if out["suffix_free"]:
        bad = oracle.suffix_violation(auto, BRUTE_LEN[len(doc["alphabet"])])
        _expect(bad is None, f"said suffix-free, but {bad} is a violation")
    else:
        shorter, longer = out["witness"]
        _expect(len(shorter) < len(longer) and longer.endswith(shorter),
                f"witness {shorter!r} is not a proper suffix of {longer!r}")
        _expect(auto.accepts(shorter) and auto.accepts(longer), "witness word rejected")
    _expect(out["non_returning"] == auto.non_returning(), "non-returning flag wrong")
    _expect(out["words"] == auto.words(ENUM_LEN), "enumerated words wrong")
    _expect(out["accepts"] == [auto.accepts(w) for w in samples], "membership wrong")
    _expect(out["dfa_states"] == auto.min_dfa_size(), "canonical DFA size wrong")
    _expect(bool(out["ops"]) == out["non_returning"], "constructions ran on the wrong items")
    if out["ops"]:
        _check_constructions(doc, partner, out["ops"])
    return None


def _check_constructions(a, b, ops):
    m, n = a["states"], b["states"]
    # The state bound each construction keeps on non-returning inputs, and
    # the reference its result must agree with: a document of the same
    # language, or a Boolean combination of the operands' verdicts.
    one, two = (oracle.Auto(a),), (oracle.Auto(a), oracle.Auto(b))
    expect = {
        "star_sf": (lambda k: k == m, oracle.star_doc(a)),
        "reverse_nfa": (lambda k: k == m + 1, oracle.reverse_doc(a)),
        "complement_sf": (lambda k: k <= 2 ** (m - 1) + 1, (lambda x: not x, one)),
        "union_sf": (lambda k: k == m + n - 1, (lambda x, y: x or y, two)),
        "concat_sf": (lambda k: k == m + n - 1, oracle.concat_doc(a, b)),
        "intersect_sf": (lambda k: k <= max(m * n - (m + n) + 2, 1),
                         (lambda x, y: x and y, two)),
    }
    _expect(set(ops) == set(expect), f"constructions run: {sorted(ops)}")
    for name, text in ops.items():
        res = json.loads(text)
        _expect(list(res) == ["alphabet", "states", "start", "finals", "transitions"],
                f"{name}: keys out of canonical order")
        _expect(res["finals"] == sorted(res["finals"]), f"{name}: finals unsorted")
        _expect(res["transitions"] == sorted(res["transitions"]), f"{name}: unsorted")
        size_ok, ref = expect[name]
        _expect(size_ok(res["states"]), f"{name}: {res['states']} states breaks its bound")
        got = oracle.Auto(res)
        if isinstance(ref, dict):
            same = oracle.equivalent(got, oracle.Auto(ref))
        else:
            combine, operands = ref
            same = oracle.agrees(got, combine, *operands)
        _expect(same, f"{name}: language differs from the reference")
