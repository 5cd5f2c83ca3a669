"""Tests of the benchmark itself: seeded inputs, the correctness checks and
the tracer.  Run with ``python -m pytest perfbench/tests`` from the root of
the repository."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import sfnfa.automata  # noqa: E402
import sfnfa.bounds  # noqa: E402


def cheap_items(seed):
    """A quick slice of every workload: no k=3 search, small certificates."""
    certify = [it for it in workloads.build_items("certify-table", seed)
               if it.id.endswith(("m2:n2", "m3:n3", "m4:nNone"))]
    nsc = [it for it in workloads.build_items("nsc-search", seed) if ":random:" in it.id]
    suffix = workloads.build_items("suffix-check", seed)[:60]
    return certify + nsc + suffix


def test_same_seed_same_items_and_counts():
    a, b = cheap_items(3), cheap_items(3)
    assert [it.id for it in a] == [it.id for it in b]
    assert workloads.nsc_random_cases(3) == workloads.nsc_random_cases(3)
    assert workloads.suffix_docs(3) == workloads.suffix_docs(3)
    counts = []
    for items in (a, b):
        tracer = tracing.Tracer()
        with tracer.installed():
            p = worker.run_pass(items, tracer)
        counts.append(worker.counts_of(worker.layer_metrics(tracer.summary(), p.wall_s)))
    assert counts[0] == counts[1]
    assert counts[0]["automata.accepts.calls"] > 0
    assert counts[0]["serialize.calls"] > 0


def test_different_seed_changes_random_items():
    assert workloads.nsc_random_cases(1) != workloads.nsc_random_cases(2)
    assert workloads.suffix_docs(1) != workloads.suffix_docs(2)
    # The fixed items do not depend on the seed.
    fixed = [it.id for it in workloads.build_items("nsc-search", 1) if ":random:" not in it.id]
    assert fixed == [it.id for it in workloads.build_items("nsc-search", 2)
                     if ":random:" not in it.id]


def test_traced_pass_is_harmless_and_restores_the_library():
    items = cheap_items(5)
    plain = worker.run_pass(items)
    tracer = tracing.Tracer()
    with tracer.installed():
        # Every name the function is bound to now holds the same wrapper.
        assert sfnfa.bounds.accepts is sfnfa.automata.accepts
        assert sfnfa.bounds.accepts.__wrapped__ is not None
        traced = worker.run_pass(items, tracer, first=plain)
    assert traced.differs == set()
    assert not hasattr(sfnfa.bounds.accepts, "__wrapped__")
    assert sfnfa.bounds.accepts is sfnfa.automata.accepts
    failed, messages = worker.check_passes(items, [plain, traced])
    assert (failed, messages) == (0, [])


def test_self_times_partition_the_traced_spans():
    tracer = tracing.Tracer()
    items = [it for it in workloads.build_items("certify-table", 0)
             if it.id == "certify:reversal:m5:nNone"]
    with tracer.installed():
        worker.run_pass(items, tracer)
    stats = tracer.summary()
    total_self = sum(s["self_ns"] for s in stats.values())
    item_span = stats[tracing.ITEM]["busy_ns"]
    assert total_self == item_span
    search = stats["bounds.search_fooling_set"]
    assert search["calls"] == 1 and 0 < search["self_ns"] < search["busy_ns"]


def run_and_check(item, mutate):
    out = item.run()
    assert workloads.check_output(item, out) is None, item.id
    bad = copy.deepcopy(out)
    bad = mutate(bad) or bad
    assert workloads.check_output(item, bad) is not None, item.id


def find(workload, item_id, seed=0):
    return next(it for it in workloads.build_items(workload, seed) if it.id == item_id)


@pytest.mark.parametrize("item_id,mutate", [
    ("certify:union:m3:n4", lambda o: o.update(constructed=o["constructed"] + 1)),
    ("certify:union:m3:n4", lambda o: o["fooling_set"].__setitem__(1, o["fooling_set"][0])),
    ("certify:star:m4:nNone", lambda o: o.update(tight=False)),
    ("certify:reversal:m4:nNone", lambda o: o.update(lower_bound=3)),
    ("certify:complementation:m3:nNone", lambda o: o.update(constructed=6)),
])
def test_certify_check_rejects_wrong_answers(item_id, mutate):
    run_and_check(find("certify-table", item_id), mutate)


def test_nsc_check_rejects_wrong_answers():
    run_and_check(find("nsc-search", "nsc:lemma-l1:m2"), lambda o: 3)
    for item in [it for it in workloads.build_items("nsc-search", 4) if ":random:" in it.id][:6]:
        run_and_check(item, lambda o: 3 - o)


def test_kernel_check_rejects_wrong_survivors():
    item = find("nsc-search", "nsc:kernel:lemma-l1:k3")
    survivors = item.run()
    assert workloads.KERNEL_WITNESS in survivors
    assert workloads.check_output(item, survivors) is None
    without = [s for s in survivors if s != workloads.KERNEL_WITNESS]
    assert workloads.check_output(item, without) is not None
    cells, fmask = survivors[0]
    assert workloads.check_output(item, [(cells, fmask ^ 1)] + survivors[1:]) is not None


def suffix_item(pred, seed=0):
    return next(it for it in workloads.build_items("suffix-check", seed)
                if pred(it.run()))


@pytest.mark.parametrize("field,mutate", [
    ("suffix_free", lambda o: o.update(suffix_free=not o["suffix_free"], witness=None)),
    ("words", lambda o: o["words"].append("ba")),
    ("accepts", lambda o: o["accepts"].__setitem__(0, not o["accepts"][0])),
    ("dfa_states", lambda o: o.update(dfa_states=o["dfa_states"] + 1)),
    ("non_returning", lambda o: o.update(non_returning=not o["non_returning"])),
])
def test_suffix_check_rejects_wrong_verdicts(field, mutate):
    item = suffix_item(lambda o: o["suffix_free"] and o["ops"])
    run_and_check(item, mutate)


def test_suffix_check_rejects_a_violation_called_suffix_free():
    item = suffix_item(lambda o: not o["suffix_free"])
    run_and_check(item, lambda o: o.update(suffix_free=True, witness=None))


@pytest.mark.parametrize("op", workloads.UNARY_OPS + workloads.BINARY_OPS)
def test_suffix_check_rejects_a_wrong_construction(op):
    item = suffix_item(lambda o: o["ops"] and json.loads(o["ops"][op])["finals"])

    def flip_finals(o):
        doc = json.loads(o["ops"][op])
        doc["finals"] = [q for q in range(doc["states"]) if q not in doc["finals"]]
        o["ops"][op] = json.dumps(doc)

    run_and_check(item, flip_finals)


def test_oracle_agrees_with_the_paper_languages():
    lemma_l1_m3 = {"alphabet": ["a", "b"], "states": 3, "start": 0, "finals": [1],
                   "transitions": [[0, "b", 1], [1, "a", 2], [2, "a", 1]]}
    auto = oracle.Auto(lemma_l1_m3)
    assert auto.words(5) == ["b", "baa", "baaaa"]
    star = oracle.Auto(oracle.star_doc(lemma_l1_m3))
    member = oracle.certify_language("star", 3, None)
    assert [w for w in star.words(5)] == [w for w in _all_words("ab", 5) if member(w)]
    assert auto.min_dfa_size() == 4 and auto.min_live_states() == 3
    assert oracle.suffix_violation(auto, 8) is None
    assert oracle.suffix_violation(oracle.Auto(oracle.star_doc(lemma_l1_m3)), 4) is not None


def _all_words(labels, max_len):
    level = [""]
    for _ in range(max_len + 1):
        yield from level
        level = [w + c for w in level for c in labels]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suffix-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_refuses_mixed_kernel_impls(tmp_path):
    import compare

    def write(directory, impl):
        directory.mkdir()
        result = {"stamp": {"kernel_impl": impl, "workload": "nsc-search"},
                  "metrics": {m: {"value": 1.0} for m in
                              ("wall_s", "item_p50_ms", "item_p90_ms", "peak_rss_mb", "setup_s")}}
        (directory / "result-nsc-search-seed1-trace0.json").write_text(json.dumps(result))
        return str(directory)

    base = write(tmp_path / "base", "pure")
    assert compare.main([base, write(tmp_path / "same", "pure")]) == 0
    assert compare.main([base, write(tmp_path / "other", "compiled")]) == 2
