import json
import random
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings, strategies as st

from sfnfa import bounds, cli, errors, serialize
from sfnfa.bounds import Operation
from sfnfa.cli import main
from sfnfa.errors import (
    BudgetExceeded,
    CertificateError,
    NonReturningViolation,
    ParameterOutOfRange,
    ParseError,
    PreconditionViolation,
    SearchBudgetExceeded,
    SfnfaError,
    SuffixFreeViolation,
)
from sfnfa.serialize import dump, from_json, to_json
from sfnfa.witnesses import Family, WitnessSpec, build, layout
from sfnfa.automata import Nfa, alphabet, make_nfa

from automata_extras import complement_witness
from conftest import random_nfa, random_non_returning_nfa
from serialize_oracle import to_document


@pytest.fixture
def runner():
    return CliRunner()


def write_witness(tmp_path, spec, name="w.json"):
    path = tmp_path / name
    dump(build(spec), path)
    return str(path)


class TestCheck:
    def test_suffix_free_witness(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        result = runner.invoke(main, ["check", path])
        assert result.exit_code == 0
        assert "suffix-free: yes; non-returning: yes" in result.output

    def test_a_star_fails_with_witness(self, runner, tmp_path):
        path = tmp_path / "astar.json"
        dump(make_nfa(1, "ab", 0, [0], [(0, "a", 0)]), path)
        result = runner.invoke(main, ["check", str(path), "--json"])
        assert result.exit_code == 1
        verdict = json.loads(result.output)
        assert verdict["suffix_free"] is False
        assert verdict["witness"] is not None

    def test_reversal_witness(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.REVERSAL, 4))
        assert runner.invoke(main, ["check", path]).exit_code == 0

    def test_failed_witness_check_exit_4(self, runner, tmp_path, monkeypatch):
        from sfnfa import suffixfree

        monkeypatch.setattr(suffixfree, "accepts", lambda a, w: False)
        path = tmp_path / "astar.json"
        dump(make_nfa(1, "ab", 0, [0], [(0, "a", 0)]), path)
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 4
        assert "error: " in result.output
        assert isinstance(result.exception, SystemExit)

    def test_parse_error_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert runner.invoke(main, ["check", str(path)]).exit_code == 2

    def test_lambda_label_in_alphabet_exit_2(self, runner, tmp_path):
        path = tmp_path / "tilde.json"
        path.write_text(json.dumps({"alphabet": ["~", "b"], "states": 2, "start": 0,
                                    "finals": [1], "transitions": [[0, "~", 1]]}))
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 2
        assert "reserved for lambda edges" in result.output


class TestOp:
    def test_union_witnesses(self, runner, tmp_path):
        left, right = build(WitnessSpec(Family.UNION_PAIR, 3, 3))
        p1, p2 = tmp_path / "u1.json", tmp_path / "u2.json"
        dump(left, p1)
        dump(right, p2)
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["op", "union", str(p1), str(p2), "-o", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["states"] == 5

    def test_star_of_lambda_automaton(self, runner, tmp_path):
        path = tmp_path / "lam.json"
        dump(make_nfa(1, "ab", 0, [0], []), path)
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["op", "star", str(path), "-o", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["states"] == 1

    def test_complement_of_lemma_l1_m4(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 4))
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["op", "complement", str(path), "-o", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["states"] <= 9

    def test_precondition_violation_exit_3_no_partial_output(self, runner, tmp_path):
        automata = {
            "astar": make_nfa(1, "ab", 0, [0], [(0, "a", 0)]),
            "ab": make_nfa(2, "ab", 0, [1], [(0, "a", 1)]),
            "abc": make_nfa(2, "abc", 0, [1], [(0, "c", 1)]),
            "lam": make_nfa(2, "ab", 0, [1], [(0, None, 1)]),
        }
        for name, nfa in automata.items():
            dump(nfa, tmp_path / f"{name}.json")
        cases = [
            (["star", "astar"], "non-returning"),
            (["union", "ab", "abc"], "share one alphabet"),
            (["star", "lam"], "lambda-free"),
        ]
        out = tmp_path / "out.json"
        for (name, *inputs), message in cases:
            paths = [str(tmp_path / f"{i}.json") for i in inputs]
            result = runner.invoke(main, ["op", name, *paths, "-o", str(out)])
            assert result.exit_code == 3, name
            assert "error: " in result.output and message in result.output
            assert isinstance(result.exception, SystemExit)
            assert not out.exists()

    # An empty --dot asks for no DOT file, so only -o is tried with "".
    @pytest.mark.parametrize("flag, target", [
        ("-o", ""), ("-o", "{tmp}"), ("-o", "{tmp}/missing/out.json"),
        ("--dot", "{tmp}"), ("--dot", "{tmp}/missing/out.dot"),
    ])
    def test_unwritable_output_exit_2(self, runner, tmp_path, flag, target):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        args = ["op", "reverse", path, "-o", str(tmp_path / "out.json")]
        result = runner.invoke(main, [*args, flag, target.format(tmp=tmp_path)])
        assert result.exit_code == 2
        assert "error: cannot write" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_witness_unwritable_output_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["witness", "lemma-l1", "--m", "3", "-o", str(tmp_path)])
        assert result.exit_code == 2
        assert "error: cannot write" in result.output

    @pytest.mark.parametrize("name", ["reverse", "star"])
    def test_strict_rejects_non_suffix_free(self, runner, tmp_path, name):
        # a(ba)*: returning and not suffix-free.
        path = tmp_path / "in.json"
        dump(make_nfa(2, "ab", 0, [1], [(0, "a", 1), (1, "b", 0)]), path)
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["op", name, str(path), "-o", str(out), "--strict"])
        assert result.exit_code == 3
        # Witnesses print in labels, as `check` prints them.
        expected = {
            "reverse": "error: suffix-free precondition violated (witness pair (a, aba))",
            "star": "error: non-returning precondition violated (witness transition (1, b, 0))",
        }
        assert expected[name] in result.output
        assert not out.exists()

    def test_strict_names_the_least_returning_edge(self, runner, tmp_path):
        # Two edges return to the start; the least, (1, b, 0), is named.
        path = tmp_path / "in.json"
        dump(make_nfa(3, "ab", 0, [2], [(0, "a", 1), (1, "a", 2), (2, "b", 0), (1, "b", 0)]),
             path)
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["op", "star", str(path), "-o", str(out), "--strict"])
        assert result.exit_code == 3
        assert result.output == ("error: non-returning precondition violated "
                                 "(witness transition (1, b, 0))\n")
        assert not out.exists()

    def test_reverse_strict_accepts_suffix_free(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.REVERSAL, 4))
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["op", "reverse", str(path), "-o", str(out), "--strict"])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["states"] == 5

    def test_failed_construction_check_exit_4(self, runner, tmp_path, monkeypatch):
        from sfnfa import constructions

        monkeypatch.setattr(constructions, "_subset_walk", lambda rows, start: (None, [start | 2]))
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["op", "complement", str(path), "-o", str(out)])
        assert result.exit_code == 4
        assert "error: " in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_dot_export(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 2))
        out, dot = tmp_path / "o.json", tmp_path / "o.dot"
        result = runner.invoke(
            main, ["op", "star", str(path), "-o", str(out), "--dot", str(dot)]
        )
        assert result.exit_code == 0
        assert dot.read_text().startswith("digraph")


class TestWitnessCmd:
    def test_single_family(self, runner):
        result = runner.invoke(main, ["witness", "lemma-l1", "--m", "3"])
        assert result.exit_code == 0
        nfa = from_json(result.output)
        assert nfa.state_count == 3

    def test_pair_family_emits_array(self, runner):
        result = runner.invoke(main, ["witness", "union-pair", "--m", "3", "--n", "4"])
        docs = json.loads(result.output)
        assert len(docs) == 2
        assert docs[0]["states"] == 3 and docs[1]["states"] == 4

    @pytest.mark.parametrize("family", [f for f in Family if f.is_pair], ids=lambda f: f.value)
    def test_pair_stdout_is_the_documents_json(self, runner, family):
        for m in range(2, 7):
            for n in range(2, 7):
                args = ["witness", family.value, "--m", str(m), "--n", str(n)]
                result = runner.invoke(main, args)
                docs = [to_document(a) for a in build(WitnessSpec(family, m, n))]
                assert (result.exit_code, result.stdout) == (0, json.dumps(docs) + "\n")

    def test_out_of_range_exit_2(self, runner):
        assert runner.invoke(main, ["witness", "reversal", "--m", "3"]).exit_code == 2

    @pytest.mark.parametrize("m", [131073, 2**20 + 1, 10**12])
    def test_beyond_the_load_limits_exit_2_at_once(self, runner, m):
        # At m = 131073 the masks alone would take over a gigabyte.
        t0 = time.perf_counter()
        result = runner.invoke(main, ["witness", "lemma-l2", "--m", str(m)])
        assert time.perf_counter() - t0 < 1.0
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    def test_largest_accepted_witness_loads_back(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(serialize, "MAX_MASK_BITS", 300)
        accepted = [m for m in range(3, 60)
                    if runner.invoke(main, ["witness", "lemma-l2", "--m", str(m)]).exit_code == 0]
        m = accepted[-1]
        assert accepted == list(range(3, m + 1)) and m < 59
        out = tmp_path / "w.json"
        assert runner.invoke(main, ["witness", "lemma-l2", "--m", str(m), "-o", str(out)]).exit_code == 0
        assert serialize.load(out) == build(WitnessSpec(Family.LEMMA_L2, m))
        result = runner.invoke(main, ["witness", "lemma-l2", "--m", str(m + 1), "-o", str(out)])
        assert result.exit_code == 2 and "error: " in result.output
        spec = WitnessSpec(Family.LEMMA_L2, m + 1)
        with pytest.raises(ParameterOutOfRange):
            build(spec)
        with pytest.raises(ParseError):
            from_json(to_json(Nfa.from_edges(*layout(spec)[0])))


class TestVerifyNsc:
    def test_verify_fooling_set(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([["", "b"], ["b", "aa"], ["ba", "a"]]))
        result = runner.invoke(main, ["verify-fooling-set", path, str(pairs)])
        assert result.exit_code == 0
        assert "certified lower bound: 3" in result.output

    @pytest.mark.parametrize("pairs", [[["z", "b"]], [[1, 2]], ["ab"], {"a": "b"}])
    def test_bad_pairs_file_exit_2(self, runner, tmp_path, pairs):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        pairs_path = tmp_path / "pairs.json"
        pairs_path.write_text(json.dumps(pairs))
        result = runner.invoke(main, ["verify-fooling-set", path, str(pairs_path)])
        assert result.exit_code == 2
        assert "error: bad pairs file: " in result.output

    def test_bad_fooling_set(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([["", "b"], ["", "b"]]))
        assert runner.invoke(main, ["verify-fooling-set", path, str(pairs)]).exit_code == 1

    def test_nsc(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        result = runner.invoke(main, ["nsc", path, "--max-states", "3"])
        assert result.exit_code == 0
        assert result.output.strip() == "3"

    def test_nsc_failed_fooling_floor_recheck_exit_4(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(bounds, "verify_fooling_set", lambda a, p: False)
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        result = runner.invoke(main, ["nsc", path, "--max-states", "3"])
        assert result.exit_code == 4
        assert "error: " in result.output
        assert isinstance(result.exception, SystemExit)

    def test_nsc_answers_from_bounds_over_the_ceiling(self, runner, tmp_path):
        # The m=6 complement witness has a 32-state NFA built from a cover
        # and a 32-pair fooling set, so no size over the ceiling of 3 is
        # enumerated.
        path = tmp_path / "c6.json"
        dump(complement_witness(6), path)
        result = runner.invoke(main, ["nsc", str(path), "--max-states", "40"])
        assert result.exit_code == 0
        assert result.output.strip() == "32"

    def test_nsc_over_the_ceiling_exit_2(self, runner, tmp_path, monkeypatch):
        # With no cover search, k=8 of the m=4 witness is left to the tables.
        path = tmp_path / "c4.json"
        dump(complement_witness(4), path)
        monkeypatch.setattr(bounds, "_COVER_NODES", 0)
        result = runner.invoke(main, ["nsc", str(path), "--max-states", "40"])
        assert result.exit_code == 2
        assert "exceeds the ceiling" in result.output

    def test_nsc_max_states_zero_is_usage_error(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        result = runner.invoke(main, ["nsc", path, "--max-states", "0"])
        assert result.exit_code == 2
        assert "--max-states" in result.output


class TestCertifyTable:
    def test_certify_json(self, runner):
        result = runner.invoke(main, ["certify", "union", "--m", "3", "--n", "3", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["tight"] is True
        assert report["constructed"] == 5

    @pytest.mark.parametrize("op", ["union", "catenation", "intersection"])
    def test_certify_binary_without_n_is_usage_error(self, runner, op):
        result = runner.invoke(main, ["certify", op, "--m", "3"])
        assert result.exit_code == 2
        assert f"error: {op} requires n" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_table_text_tight_rows(self, runner):
        result = runner.invoke(main, ["table", "--m", "2..3", "--n", "2..3"])
        assert result.exit_code == 0
        assert "TIGHT" in result.output
        assert "UPPER-ONLY" in result.output  # complementation rows

    @pytest.mark.parametrize("args", [
        ["--m", "3..2"], ["--m", "2..3", "--n", "5..4"], ["--m", "2..x"], ["--m", "1..2..3"],
    ])
    def test_table_refuses_a_bad_or_empty_range(self, runner, args):
        result = runner.invoke(main, ["table", *args])
        assert result.exit_code == 2
        assert "error: bad range" in result.output
        assert "operation" not in result.output

    def test_table_deterministic(self, runner):
        a = runner.invoke(main, ["table", "--m", "2..4", "--format", "csv"])
        b = runner.invoke(main, ["table", "--m", "2..4", "--format", "csv"])
        assert a.exit_code == 0
        assert a.output == b.output
        header = a.output.splitlines()[0]
        assert header == (
            "operation,m,n,formula,formula_value,constructed,lower_bound,verdict"
        )

    def test_table_reversal_rows_gap(self, runner):
        result = runner.invoke(main, ["table", "--m", "4..4", "--format", "json"])
        rows = json.loads(result.output)
        rev = [r for r in rows if r["operation"] == "reversal"]
        assert rev and all(r["verdict"] == "GAP" for r in rev)
        assert rev[0]["constructed"] == 5 and rev[0]["lower_bound"] >= 4

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_table_golden(self, runner, fmt):
        # csv and text were captured before the operation registry, json
        # too except for reversal's fooling sets, which come from the exact
        # search over the reduced automaton matrix and were captured again
        # when its clique search took the colouring bound.
        golden = Path(__file__).parent / "fixtures" / f"table_m2-8_n2-8_seed0.{fmt}"
        result = runner.invoke(
            main, ["table", "--m", "2..8", "--n", "2..8", "--format", fmt, "--seed", "0"]
        )
        assert result.exit_code == 0
        assert result.output == golden.read_text(encoding="utf-8")

    def test_certify_reversal_m200(self, runner):
        result = runner.invoke(main, ["certify", "reversal", "--m", "200"])
        assert result.exit_code == 0
        assert "constructed=201 lower_bound=200" in result.output

    @pytest.mark.parametrize("args", [
        ["certify", "reversal", "--m", "4"],
        ["table", "--m", "4..4"],
    ])
    def test_search_budget_exceeded_exit_2(self, runner, monkeypatch, args):
        def over_budget(*args, **kwargs):
            raise SearchBudgetExceeded("too many cells")

        monkeypatch.setattr(bounds, "search_fooling_set", over_budget)
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "error: too many cells" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("args", [
        ["certify", "reversal", "--m", "4"],
        ["table", "--m", "4..4"],
    ])
    def test_failed_certificate_recheck_exit_4(self, runner, monkeypatch, args):
        monkeypatch.setattr(bounds, "verify_fooling_set", lambda a, p: False)
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert "error: search produced an unverifiable fooling set" in result.output
        assert isinstance(result.exception, SystemExit)


# Each package error with the exit code and the stderr line it maps to.
_ERRORS = [
    (ParseError("bad document"), 2, "bad document"),
    (ParameterOutOfRange("m out of range"), 2, "m out of range"),
    (BudgetExceeded("over the table budget"), 2, "over the table budget"),
    (SearchBudgetExceeded("too many cells"), 2, "too many cells"),
    (PreconditionViolation("must be lambda-free"), 3, "must be lambda-free"),
    (NonReturningViolation("returning", (1, 1, 0), alphabet("ab")), 3,
     "non-returning precondition violated (witness transition (1, b, 0))"),
    (SuffixFreeViolation("not suffix-free", ((0,), (1, 0)), alphabet("ab")), 3,
     "suffix-free precondition violated (witness pair (a, ba))"),
    (CertificateError("re-check failed"), 4, "re-check failed"),
]
# Each command with the library call it makes (module, name).
_COMMANDS = [
    (["check", "A"], cli, "is_suffix_free"),
    (["op", "star", "A", "-o", "OUT"], bounds, "star_sf"),
    (["witness", "lemma-l1", "--m", "3"], cli, "build"),
    (["verify-fooling-set", "A", "PAIRS"], cli, "verify_fooling_set"),
    (["nsc", "A", "--max-states", "3"], cli, "nsc_exhaustive"),
    (["certify", "star", "--m", "3"], cli, "certify"),
    (["table", "--m", "2..3"], cli, "certify"),
    (["enumerate", "A", "--max-len", "2"], cli, "enumerate_words"),
]


class TestExitCodes:
    def test_every_package_error_has_its_code(self):
        subclasses = {cls for cls in vars(errors).values()
                      if isinstance(cls, type) and issubclass(cls, SfnfaError)} - {SfnfaError}
        assert subclasses == {type(exc) for exc, _, _ in _ERRORS}
        for exc, code, _ in _ERRORS:
            assert [c for cls, c in cli._EXIT_CODES.items() if isinstance(exc, cls)][0] == code

    @pytest.mark.parametrize("argv, module, name", _COMMANDS,
                             ids=[argv[0] for argv, _, _ in _COMMANDS])
    @pytest.mark.parametrize("exc, code, message", _ERRORS,
                             ids=[type(exc).__name__ for exc, _, _ in _ERRORS])
    def test_a_raised_error_exits_with_its_code(self, runner, tmp_path, monkeypatch,
                                                argv, module, name, exc, code, message):
        def raise_it(*args, **kwargs):
            raise exc

        monkeypatch.setattr(module, name, raise_it)
        paths = {"A": write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3)),
                 "PAIRS": tmp_path / "pairs.json", "OUT": tmp_path / "out.json"}
        paths["PAIRS"].write_text(json.dumps([["", "b"]]))
        result = runner.invoke(main, [str(paths.get(arg, arg)) for arg in argv])
        assert (result.exit_code, result.stdout) == (code, "")
        assert result.stderr == f"error: {message}\n"
        assert isinstance(result.exception, SystemExit)
        assert not paths["OUT"].exists()

    @pytest.mark.parametrize("args", [
        ["certify", "star", "--m", "5000000"],
        ["certify", "complementation", "--m", "100000000000000000000"],
        ["table", "--m", "2..3", "--n", "99999999999999999999..99999999999999999999"],
        ["table", "--m", "2..3", "--n", "2..2000000"],
        ["witness", "lemma-l2", "--m", "5000000"],
    ])
    def test_an_oversized_witness_exits_2_at_once(self, runner, args):
        t0 = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - t0 < 1.0
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: states × alphabet size must be at most 1048576\n"
        assert isinstance(result.exception, SystemExit)

    def test_a_table_range_past_the_mask_bound_exits_2_at_once(self, runner):
        # Every n up to 70000 passes the row bound, but the catenation
        # witnesses at n = 70000 would exceed the mask bound.
        t0 = time.perf_counter()
        result = runner.invoke(main, ["table", "--m", "2..2", "--n", "2..70000"])
        assert time.perf_counter() - t0 < 1.0
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: the successor masks would exceed 2147483648 bits\n"
        assert isinstance(result.exception, SystemExit)


class TestEnumerate:
    def test_enumerate(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        result = runner.invoke(main, ["enumerate", path, "--max-len", "5"])
        assert result.output.split() == ["b", "baa", "baaaa"]

    def test_negative_max_len_is_usage_error(self, runner, tmp_path):
        path = write_witness(tmp_path, WitnessSpec(Family.LEMMA_L1, 3))
        result = runner.invoke(main, ["enumerate", path, "--max-len", "-1"])
        assert result.exit_code == 2
        assert "--max-len" in result.output


class TestRoundTrip:
    def test_emitted_json_reparses_identically(self, runner, tmp_path):
        left, right = build(WitnessSpec(Family.INTERSECT_PAIR, 3, 4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump(left, p1)
        dump(right, p2)
        out = tmp_path / "out.json"
        runner.invoke(main, ["op", "intersect", str(p1), str(p2), "-o", str(out)])
        text = out.read_text()
        assert to_json(from_json(text)) + "\n" == text

    def test_large_witness_reloads(self, runner, tmp_path):
        out = tmp_path / "w.json"
        assert runner.invoke(main, ["witness", "lemma-l2", "--m", "8193", "-o", str(out)]).exit_code == 0
        result = runner.invoke(main, ["check", str(out)])
        assert result.exit_code == 0, result.output

    def test_large_complement_reloads(self, runner, tmp_path):
        # (a+b)* a (a+b)^13 behind a non-returning start: 2^14 + 1 DFA states.
        n, start = 14, 15
        edges = [(q, x, 0) for q in (0, start) for x in "ab"] + [(0, "a", 1), (start, "a", 1)]
        edges += [(q, x, q + 1) for q in range(1, n) for x in "ab"]
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        dump(make_nfa(n + 2, "ab", start, [n], edges), src)
        assert runner.invoke(main, ["op", "complement", str(src), "-o", str(out)]).exit_code == 0
        assert json.loads(out.read_text())["states"] == 2**14 + 1
        result = runner.invoke(main, ["enumerate", str(out), "--max-len", "2"])
        assert result.exit_code == 0, result.output


# Fuzzing: malformed documents and argument vectors through the CLI.

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(-2, 9), st.text(max_size=3))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_states = st.integers(-1, 7)
_labels = st.sampled_from(["a", "b", "c", "~", "ab", "", '"', "\\", 0, None])
_documents = st.builds(
    lambda doc, dropped: {k: v for k, v in doc.items() if k not in dropped},
    st.fixed_dictionaries({
        "alphabet": st.lists(_labels, max_size=3) | _json_values,
        "states": _states | _json_values,
        "start": _states | _json_values,
        "finals": st.lists(_states, max_size=4) | _json_values,
        "transitions": st.lists(
            st.tuples(_states, _labels, _states).map(list) | _json_values, max_size=8)
        | _json_values,
    }),
    st.sets(st.sampled_from(["alphabet", "states", "start", "finals", "transitions"]), max_size=2),
)
# Well-formed automata, so that verdicts and constructions run too.
_valid_documents = st.builds(
    lambda seed, labels, returning: json.loads(to_json(
        (random_nfa if returning else random_non_returning_nfa)(
            random.Random(seed), max_states=5, labels=labels))),
    st.integers(0, 2**31 - 1), st.sampled_from(["ab", "abc"]), st.booleans(),
)
# A file's bytes: half of them an automaton, the rest a malformed document,
# other JSON, or text and bytes that are not JSON.
_file_bytes = st.booleans().flatmap(lambda well_formed: (
    _valid_documents.map(lambda doc: json.dumps(doc).encode()) if well_formed else st.one_of(
        _documents.map(lambda doc: json.dumps(doc).encode()),
        _json_values.map(lambda v: json.dumps(v).encode()),
        st.text(max_size=20).map(str.encode),
        st.binary(max_size=20),
    )))
# A pairs file: pairs over the labels of the automata, or malformed ones.
_pairs_bytes = st.one_of(
    st.lists(st.lists(st.text("abc", max_size=3), min_size=1, max_size=3), max_size=4),
    _json_values,
).map(lambda v: json.dumps(v).encode())
# Witness parameters are tiny or far past the load limits, never a legal
# large witness.
_sizes = st.sampled_from(["1", "2", "3", "4", "100000000000000000000"])
_m_n = st.tuples(_sizes, st.none() | _sizes).map(
    lambda t: ["--m", t[0], *(["--n", t[1]] if t[1] else [])])
_ranges = st.sampled_from(["2..3", "1..2", "3..2", "4", "-1",
                           "100000000000000000000..100000000000000000000"])
_commands = st.one_of(
    st.sampled_from([["check", "A"], ["check", "A", "--json"]]),
    st.tuples(
        st.sampled_from(["union", "concat", "intersect"]).map(lambda name: ["op", name, "A", "B"])
        | st.sampled_from(["star", "reverse", "complement"]).map(lambda name: ["op", name, "A"]),
        st.sampled_from([[], ["--strict"], ["--dot", "DOT"]]),
    ).map(lambda parts: parts[0] + ["-o", "OUT"] + parts[1]),
    st.sampled_from(["0", "3", "5"]).map(lambda n: ["enumerate", "A", "--max-len", n]),
    st.sampled_from(["1", "3", "100000000000000000000"]).map(
        lambda k: ["nsc", "A", "--max-states", k]),
    st.just(["verify-fooling-set", "A", "PAIRS"]),
    st.tuples(st.sampled_from([f.value for f in Family]), _m_n).map(
        lambda t: ["witness", t[0], *t[1]]),
    st.tuples(st.sampled_from([o.value for o in Operation]), _m_n, st.booleans()).map(
        lambda t: ["certify", t[0], *t[1], *(["--json"] if t[2] else [])]),
    st.tuples(_ranges, st.none() | _ranges, st.sampled_from(["text", "json", "csv"])).map(
        lambda t: ["table", "--m", t[0], *(["--n", t[1]] if t[1] else []), "--format", t[2]]),
)
# Half of the command lines are well-formed; the rest lose a token or gain one.
_argvs = st.booleans().flatmap(lambda well_formed: _commands if well_formed else st.tuples(
    _commands, st.integers(0, 6), st.booleans(),
    st.sampled_from(["--json", "--strict", "--bogus", "-o", "--dot", "--max-len", "--m", "-1", "x",
                     "", "nope", "A", "B", "MISSING", "OUT", "PAIRS"]),
).map(lambda t: t[0][:t[1]] + [t[3]] + t[0][t[1] + t[2]:]))


@settings(max_examples=120, deadline=None)
@given(_file_bytes, _file_bytes, _pairs_bytes, _argvs)
def test_fuzzed_inputs_exit_with_documented_codes(first, second, pairs, argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"A": Path(tmp, "a.json"), "B": Path(tmp, "b.json"), "OUT": Path(tmp, "out.json"),
                 "DOT": Path(tmp, "out.dot"), "MISSING": Path(tmp, "missing.json"),
                 "PAIRS": Path(tmp, "pairs.json")}
        paths["A"].write_bytes(first)
        paths["B"].write_bytes(second)
        paths["PAIRS"].write_bytes(pairs)
        args = [str(paths[arg]) if arg in paths else arg for arg in argv]
        runner = CliRunner()
        # A drawn token such as "-o --bogus" names a relative output file.
        with runner.isolated_filesystem(temp_dir=tmp):
            result = runner.invoke(main, args)
    event(f"exit {result.exit_code}")
    assert result.exit_code in {0, 1, 2, 3}, (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exception)
    assert "Traceback" not in result.output
