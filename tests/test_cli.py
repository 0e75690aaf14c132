import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sympbranch
from conftest import assemble_rows, diagram_pairs, margin_tl_weight, oracle_payload
from sympbranch import cli, diagrams, hibi, monomials
from sympbranch.cli import main
from sympbranch.lattice import parse_column


def test_public_names_resolve():
    assert sorted(sympbranch.__all__) == [
        "ColumnIndex", "FormalPolynomial", "diagrams", "exacteval", "hibi",
        "lattice", "monomials", "straighten"]
    assert all(hasattr(sympbranch, name) for name in sympbranch.__all__)
    namespace = {}
    exec("from sympbranch import *", namespace)
    assert set(sympbranch.__all__) <= set(namespace)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mult_text(capsys):
    code, out, _ = run(capsys, "mult", "4,3,1", "5,4,3,2", "--n", "4")
    assert code == 0
    assert out.strip() == "multiplicity(D=[4,3,1], F=[5,4,3,2], n=4) = 16"


def test_mult_list_and_json(capsys):
    code, out, _ = run(capsys, "mult", "1", "1,1", "--n", "2", "--list", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["multiplicity"] == 2
    assert payload["middles"] == [[1], [1, 1]]


def test_mult_empty_diagrams(capsys):
    code, out, _ = run(capsys, "mult", "", "", "--n", "2")
    assert code == 0
    assert "= 1" in out


def test_mult_zero(capsys):
    code, out, _ = run(capsys, "mult", "3", "1,1", "--n", "2")
    assert code == 0
    assert "= 0" in out


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "4,3,1", "5,4,3,2", "--n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 16
    worked = [entry for entry in payload["monomials"]
              if entry["E"] == [4, 4, 2, 1]]
    assert len(worked) == 1
    assert worked[0]["monomial"] == ["J3", "K2", "J'2", "J1", "J'0"]
    assert worked[0]["tl_weight"] == [-1, 1, -1, 1]
    assert worked[0]["tableau"] == [[1, 1, 1, 1, 5], [2, 2, 2, 4],
                                    [3, 4, 5], [4, 5]]


def test_basis_count_matches_mult(capsys):
    _, basis_out, _ = run(capsys, "basis", "2,1", "3,2,1", "--n", "3", "--json")
    _, mult_out, _ = run(capsys, "mult", "2,1", "3,2,1", "--n", "3", "--json")
    assert json.loads(basis_out)["count"] == json.loads(mult_out)["multiplicity"]


def test_basis_empty_shape(capsys):
    code, out, _ = run(capsys, "basis", "", "", "--n", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["monomials"][0]["monomial"] == []


def test_straighten_two_term(capsys):
    code, out, _ = run(capsys, "straighten", "[I1,K0]", "--n", "2")
    assert code == 0
    assert out.splitlines()[0] == "[J'1,J0] - [J1,J'0]"


def test_straighten_hibi(capsys):
    code, out, _ = run(capsys, "straighten", "[I1,K0]", "--n", "2", "--hibi")
    assert code == 0
    assert out.splitlines()[0] == "[J'1,J0]"


def test_straighten_standard_echo(capsys):
    code, out, _ = run(capsys, "straighten", "[J'1,J0]", "--n", "2")
    assert code == 0
    assert out.splitlines()[0] == "[J'1,J0]"


def test_straighten_json_weights(capsys):
    code, out, _ = run(capsys, "straighten", "[I1,K0]", "--n", "2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["weight_base"] == 5
    assert payload["terms"] == [
        {"coeff": "1/1", "monomial": ["J'1", "J0"], "weight": 18},
        {"coeff": "-1/1", "monomial": ["J1", "J'0"], "weight": 22},
    ]


def test_straighten_leading_minus(capsys):
    for expr, coeff in (("-[I1,K0]", ""), ("-2*[I1,K0]", "2*")):
        for argv in (("--n", "2", expr), (expr, "--n", "2"),
                     ("--n", "2", "--", expr)):
            code, out, _ = run(capsys, "straighten", *argv)
            assert code == 0
            assert out.splitlines()[0] == f"-{coeff}[J'1,J0] + {coeff}[J1,J'0]"


def test_straighten_parse_error(capsys):
    code, _, err = run(capsys, "straighten", "[I1,K0", "--n", "2")
    assert code == 2
    assert "error" in err
    for expr in ("2/0*[I1]", "1/0[J0]"):
        code, _, err = run(capsys, "straighten", expr, "--n", "2")
        assert code == 2
        assert err.startswith("error: zero denominator at offset 0")


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--n", "3",
                       "--trials", "25", "--seed", "7")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_independence_single_pair(capsys):
    code, out, _ = run(capsys, "verify", "independence", "--n", "2",
                       "--trials", "3", "--D", "1", "--F", "1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures_total"] == 0
    assert payload["reports"][0]["checked"][0]["rank"] == 2


def test_verify_diagrams_only_for_independence(capsys):
    for suite in ("relations", "invariance", "torus"):
        code, out, err = run(capsys, "verify", suite, "--n", "2", "--trials",
                             "1", "--D", "1", "--F", "1,1")
        assert code == 2 and out == ""
        assert err == "error: --D and --F apply only to the independence suite\n"
    code, out, _ = run(capsys, "verify", "all", "--n", "2", "--trials", "1",
                       "--D", "1", "--F", "1,1", "--json")
    assert code == 0
    checked = json.loads(out)["reports"][-1]["checked"]
    assert [(c["D"], c["F"]) for c in checked] == [([1], [1, 1])]


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n", "2", "--trials", "3",
                       "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [r["op"] for r in payload["reports"]] == [
        "relations", "invariance", "torus", "independence"]
    assert payload["failures_total"] == 0


def test_verify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SYMPBRANCH_SEED", "99")
    code, out, _ = run(capsys, "verify", "relations", "--n", "2",
                       "--trials", "2", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_main_builds_the_parser_at_most_once(capsys, monkeypatch):
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    seeds = []
    for env_seed in ("3", "5"):
        monkeypatch.setenv("SYMPBRANCH_SEED", env_seed)
        code, out, _ = run(capsys, "verify", "relations", "--n", "2",
                           "--trials", "1", "--json")
        assert code == 0
        seeds.append(json.loads(out)["seed"])
    assert len(calls) <= 1
    assert seeds == [3, 5]


@settings(max_examples=100)
@given(diagram_pairs(6, 3))
def test_basis_weights_and_tableaux_match_oracles(pair):
    d, f, n = pair
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["basis", ",".join(map(str, d)), ",".join(map(str, f)),
                     "--n", str(n), "--json"])
    assert code == 0
    entries = json.loads(buffer.getvalue())["monomials"]
    assert len(entries) == diagrams.multiplicity(d, f, n)
    for entry in entries:
        e = tuple(entry["E"])
        weight = diagrams.tl_weights(diagrams.middle_ranges(d, f, n), [e])[0]
        assert entry["tl_weight"] == list(weight) \
            == list(margin_tl_weight(d, e, f, n))
        cols = [parse_column(token, n) for token in entry["monomial"]]
        assert entry["tableau"] == [list(row) for row in assemble_rows(cols)]


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def wrapper(*args):
        calls[name] = calls.get(name, 0) + 1
        return real(*args)
    monkeypatch.setattr(module, name, wrapper)


def test_basis_json_reads_the_pair_once(capsys, monkeypatch):
    # one enumeration and one set of chain runs; no chain is built as columns
    calls = {"standard_monomial": 0, "build_chains": 0}
    _count_calls(monkeypatch, diagrams, "enumerate_middle", calls)
    _count_calls(monkeypatch, monomials, "standard_monomial", calls)
    _count_calls(monkeypatch, monomials, "build_chains", calls)
    _count_calls(monkeypatch, monomials, "chain_factors", calls)
    code, out, _ = run(capsys, "basis", "4,3,1", "5,4,3,2", "--n", "4", "--json")
    assert code == 0 and json.loads(out)["count"] == 16
    assert calls == {"standard_monomial": 0, "build_chains": 0,
                     "enumerate_middle": 1, "chain_factors": 1}


@pytest.mark.parametrize("as_json", [(), ("--json",)])
def test_degenerate_checks_top_and_bot_once_per_pair(capsys, monkeypatch, as_json):
    # multiplicities 4, 16 and 1728: the pair's rows are checked once
    for d, f, n, count in (("3,2", "3,3,2,1", "4", 4),
                           ("4,3,1", "5,4,3,2", "4", 16),
                           ("12,9,6,4,2", "15,12,9,6,4,2", "6", 1728)):
        calls = {}
        _count_calls(monkeypatch, hibi, "pattern_rows", calls)
        code, out, _ = run(capsys, "degenerate", d, f, "--n", n, *as_json)
        monkeypatch.undo()
        assert code == 0
        assert (f'"count": {count},' if as_json else f"margin count = {count} ") in out
        assert calls == {"pattern_rows": 1}


@settings(max_examples=150)
@given(diagram_pairs(6, 4), st.sampled_from(("basis", "degenerate")))
@example(((), (), 2), "basis")
@example(((), (), 2), "degenerate")
@example(((3,), (1, 1), 2), "basis")
@example(((3,), (1, 1), 2), "degenerate")
@example(((1,), (3,), 2), "basis")
@example(((1,), (3,), 2), "degenerate")
@example(((), (2,), 3), "basis")
@example(((2,), (), 2), "degenerate")
@example(((2, 1, 1, 1), (3, 2, 1, 1, 1), 6), "basis")
def test_listings_match_the_object_tree_oracle(pair, command):
    d, f, n = pair
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([command, ",".join(map(str, d)), ",".join(map(str, f)),
                     "--n", str(n), "--json"])
    assert code == 0
    expected = json.dumps(oracle_payload(command, d, f, n), indent=2) + "\n"
    assert buffer.getvalue() == expected


@pytest.mark.parametrize("argv", [
    ("basis", "12,9,6,4,2", "15,12,9,6,4,2", "--n", "6", "--json"),
    ("mult", "20,15,10,5,2", "25,20,15,10,5,2", "--n", "6", "--list", "--json"),
])
def test_closed_stdout_exits_without_a_traceback(argv):
    # Each prints more than a megabyte, far more than a pipe holds, so a
    # write after the reader has gone fails with EPIPE.
    src = os.path.dirname(os.path.dirname(sympbranch.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen([sys.executable, "-m", "sympbranch.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code != 0
    assert err == b""


def test_degenerate_json_builds_no_text(capsys, monkeypatch):
    calls = {"pretty": 0}
    _count_calls(monkeypatch, hibi, "pretty", calls)
    code, out, _ = run(capsys, "degenerate", "4,3,1", "5,4,3,2", "--n", "4",
                       "--json")
    assert code == 0 and json.loads(out)["count"] == 16
    assert calls == {"pretty": 0}


_SPECIAL_STRINGS = ['"', "\\", "a\"b\\c", "\x00\x1f\n\t\x7f", "caf\u00e9",
                    "\u2603 \U0001d11e", "\ud800", ""]
_json_strings = st.text() | st.sampled_from(_SPECIAL_STRINGS)
_json_leaves = (st.integers(-2**200, 2**200) | st.booleans() | st.none()
                | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
                | _json_strings)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_json_strings, inner)
                   | st.lists(st.integers()) | st.lists(_json_strings)),
    max_leaves=20)


@settings(max_examples=300)
@given(_json_values)
@example([1, True])
@example([True, False])
@example([1, "a"])
@example([[], (), {}, [[]], {"k": ()}])
@example({"a": [1, -2, 3], "b": ["x", "\n"], "c": (1.5, None)})
def test_writer_matches_indented_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_degenerate(capsys):
    code, out, _ = run(capsys, "degenerate", "3,2", "3,3,2,1", "--n", "4",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["margin_count"] == payload["count"] == 4
    patterns = {tuple(entry["mid"]) for entry in payload["patterns"]}
    assert (3, 3, 1, 0) in patterns
    worked = [entry for entry in payload["patterns"]
              if entry["monomial"] == ["K2", "J'2", "J1"]]
    assert worked[0]["top"] == [3, 3, 2, 1]
    assert worked[0]["bot"] == [3, 2, 0]


def test_degenerate_margin_count_at_rank_7(capsys):
    code, out, _ = run(capsys, "degenerate", "16,16,16,16,16,16",
                       "16,16,16,16,16,16,16", "--n", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["margin_count"] == payload["count"] == 17


def test_degenerate_text_layout(capsys):
    code, out, _ = run(capsys, "degenerate", "", "", "--n", "2")
    assert code == 0
    assert "margin count = 1" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "mult", "oops", "1", "--n", "2")
    assert code == 2 and "malformed diagram" in err
    code, _, err = run(capsys, "mult", "1,1", "1", "--n", "2")
    assert code == 2  # D too long for the rank
    code, _, err = run(capsys, "mult", "1", "1", "--n", "1")
    assert code == 2
    code, _, err = run(capsys, "verify", "relations", "--n", "2",
                       "--trials", "0")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mult", "1", "1"])  # missing --n
    assert exc.value.code == 2


def test_byte_identical_output(capsys):
    args = ["basis", "2,1", "3,2,1", "--n", "3", "--json"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ["verify", "torus", "--n", "2", "--trials", "3", "--seed", "5",
            "--json"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


_HUGE_D = ",".join(str(p) for p in range(75, 14, -10))   # 75,65,...,15
_HUGE_F = ",".join(str(p) for p in range(80, 9, -10))    # 80,70,...,10


@pytest.mark.parametrize("argv", [
    ("mult", _HUGE_D, _HUGE_F, "--n", "8", "--list"),
    ("mult", _HUGE_D, _HUGE_F, "--n", "8", "--list", "--json"),
    ("basis", _HUGE_D, _HUGE_F, "--n", "8"),
    ("basis", _HUGE_D, _HUGE_F, "--n", "8", "--json"),
    ("degenerate", _HUGE_D, _HUGE_F, "--n", "8"),
    ("degenerate", _HUGE_D, _HUGE_F, "--n", "8", "--json"),
])
def test_listings_past_the_cap_are_refused_before_building(capsys, argv):
    # Multiplicity 6^7 * 11: listing it took minutes and gigabytes.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "3079296" in err and str(cli.LISTING_CAP) in err


@pytest.mark.parametrize("argv", [("independence",), ("all", "--json")])
def test_certifying_past_the_cap_is_refused_before_building(capsys, argv):
    # Building the 3,079,296 chains ran out of memory after half a minute,
    # and the exit code 1 of that crash read as FAIL.
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv, "--n", "8", "--D", _HUGE_D,
                         "--F", _HUGE_F, "--trials", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "3079296" in err and str(cli.LISTING_CAP) in err


def test_count_past_the_cap_is_still_printed(capsys):
    code, out, _ = run(capsys, "mult", _HUGE_D, _HUGE_F, "--n", "8", "--json")
    assert code == 0 and json.loads(out)["multiplicity"] == 3079296


def _pairs(counts):
    """One monomial holding I_i K_{i-1} counts[i - 1] times for each i."""
    return "[" + ",".join(f"I{i},K{i - 1}" for i, m in enumerate(counts, 1)
                          for _ in range(m)) + "]"


@pytest.mark.parametrize("as_json", [(), ("--json",)])
def test_straightening_past_the_cap_is_refused_before_expanding(capsys, as_json):
    # 21^5 = 4,084,101 terms: the expansion would never return.
    start = time.perf_counter()
    code, out, err = run(capsys, "straighten", _pairs([20] * 5), "--n", "6",
                         *as_json)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "4084101" in err and str(cli.LISTING_CAP) in err
    code, out, _ = run(capsys, "straighten", _pairs([20] * 5), "--n", "6",
                       "--hibi", *as_json)
    assert code == 0 and out


def test_straightening_at_the_cap_is_printed(capsys, monkeypatch):
    monkeypatch.setattr(cli, "LISTING_CAP", 10)
    code, out, _ = run(capsys, "straighten", _pairs([9]), "--n", "2", "--json")
    assert code == 0 and len(json.loads(out)["terms"]) == 10
    code, out, err = run(capsys, "straighten", _pairs([10]), "--n", "2")
    assert (code, out) == (2, "") and "11 terms" in err and "cap 10" in err


# Inputs whose straightened forms list many terms, several of equal weight:
# the pair [I1,K0] ten times, the factors I1, K0, I2, K1 three times each,
# and two sums with fractional coefficients (the last ties in weight, and in
# weight and degree, in both its input and its result).
_MANY_TERMS = [
    ("[" + ",".join(["I1", "K0"] * 10) + "]", "2"),
    ("[" + ",".join(["I1", "K0", "I2", "K1"] * 3) + "]", "3"),
    ("3/2*[I1,K0,I2,K1,J0] - 2/3*[I2,K1,I2,K1,J'2] + 5/7*[I1,K0,J'0]"
     " - 1/4*[K1,I2,J2,J'1]", "3"),
    ("[I1,K0] + 2*[J'1,J0] - 1/3*[J'0] + 3/5*[I1,J0] - 7/2*[J1,J1,J'1]"
     " + 5/4*[I1,J'0] - 4/9*[J1,K0] + [K0,I1,K0,I1]", "2"),
]

# Fixed argv lists and the sha256 prefix of (exit code, stdout) for each, so
# any change to what the CLI prints for them fails here.  Every verify run
# names its seed, so SYMPBRANCH_SEED does not reach these.
_GOLDEN_ARGV = [
    ("mult", "4,3,1", "5,4,3,2", "--n", "4"),
    ("mult", "4,3,1", "5,4,3,2", "--n", "4", "--list"),
    ("mult", "2,1", "3,2,1", "--n", "3", "--list", "--json"),
    ("mult", "", "", "--n", "2", "--json"),
    ("mult", "3", "1,1", "--n", "2"),
    ("basis", "4,3,1", "5,4,3,2", "--n", "4"),
    ("basis", "2,1", "3,2,1", "--n", "3", "--json"),
    ("basis", "", "", "--n", "3"),
    ("degenerate", "3,2", "3,3,2,1", "--n", "4"),
    ("degenerate", "2,1", "3,2,1", "--n", "3", "--json"),
    ("straighten", "[I1,K0]", "--n", "2"),
    ("straighten", "[I1,K0]", "--n", "2", "--hibi"),
    ("straighten", "2*[I2,K1,I1,K0] - 3/2*[J0]", "--n", "3", "--json"),
    ("straighten", "[I2,K1,I1,K0]", "--n", "3", "--hibi", "--json"),
    ("straighten", "--n", "2", "--", "-[I1,K0]"),
    ("verify", "relations", "--n", "2", "--trials", "3", "--seed", "1"),
    ("verify", "relations", "--n", "3", "--trials", "2", "--seed", "7", "--json"),
    ("verify", "invariance", "--n", "2", "--trials", "2", "--seed", "1"),
    ("verify", "invariance", "--n", "3", "--trials", "2", "--seed", "7", "--json"),
    ("verify", "torus", "--n", "2", "--trials", "3", "--seed", "1"),
    ("verify", "torus", "--n", "3", "--trials", "2", "--seed", "7", "--json"),
    ("verify", "torus", "--n", "4", "--trials", "1", "--seed", "101", "--json"),
    ("verify", "independence", "--n", "2", "--trials", "2", "--seed", "1"),
    ("verify", "independence", "--n", "3", "--trials", "1", "--seed", "7", "--json"),
    ("verify", "independence", "--n", "2", "--trials", "3", "--D", "1",
     "--F", "2,1", "--json"),
    ("verify", "all", "--n", "2", "--trials", "2", "--seed", "5", "--json"),
    ("verify", "all", "--n", "2", "--trials", "1", "--seed", "3"),
    ("mult", "oops", "1", "--n", "2"),
    ("straighten", "[I1,K0", "--n", "2"),
    ("verify", "relations", "--n", "2", "--trials", "0"),
    ("basis", "5,3,3,1", "7,6,4,2,1", "--n", "5"),
    ("basis", "5,3,3,1", "7,6,4,2,1", "--n", "5", "--json"),
    ("degenerate", "5,3,3,1", "7,6,4,2,1", "--n", "5"),
    ("degenerate", "5,3,3,1", "7,6,4,2,1", "--n", "5", "--json"),
    ("degenerate", "8,3", "10,6,2", "--n", "3"),
    *[("straighten", expr, "--n", n) + rule + mode
      for expr, n in _MANY_TERMS for rule in ((), ("--hibi",))
      for mode in ((), ("--json",))],
    # Edge cases the benchmark never reaches: empty D and F, multiplicity 0,
    # and a one-part F.
    *[(command, d, f, "--n", "2") + mode
      for d, f in (("", ""), ("3", "1,1"), ("1", "3"))
      for command in ("basis", "degenerate") for mode in ((), ("--json",))],
]
_GOLDEN_DIGESTS = [
    "ba9c89fbad49bc1a", "f1ca12956cc2513f", "5e08ce23ba1f0202",
    "6a54764578de0763", "70ce72205dc50966", "d1f120627a5290d1",
    "4ba8efd91e6179c3", "5666eccdf865173a", "167516e4bf386e0b",
    "91ee9d65eabde3f0", "b22feefc546a327a", "ef3fa1c218144d03",
    "43d64d92ca079177", "eba9cbd579980c60", "1f8220128e1e44f3",
    "85941add60b83a05", "f0daa20dadf65348", "5cfe693916ab3b65",
    "77b233960dbc31af", "e0fa006f86ee04ee", "e9cc99e9fa4e829e",
    "b60b0b2bc654143c", "1641ea1853c80148", "937ba7dd982f6cd8",
    "6ee9a51b66c76e7b", "a38ca80de576bc38", "a5c130077bff7caa",
    "53c234e5e8472b6a", "53c234e5e8472b6a", "53c234e5e8472b6a",
    "82be65989acde588", "7f73949d2ec8ae77", "48244d92eabb6d75",
    "68e7d88b6b5aa54a", "6a36de711a673f49",
    "f7a120cd60254dfe", "1daca70e6e73f224", "f030dc40a8f627cc",
    "72c1d6739e1ac92b", "89f21a7f3ca170be", "0942ddec17d08061",
    "9fa735661a69e00a", "a99b62717381aac3", "8dc198bb5cc84951",
    "4da4e4a94e5d69ce", "7497ab659d95b9be", "1a7621ced012b09c",
    "45d754820984f799", "f2887099a0508eed", "39dcad00bd6b3333",
    "cb8753830ca49fa0",
    "d5f864fbea1596c2", "1693cbe20667e183", "fe33af638027075c",
    "0cdcd789e764f80c", "8ae76fe788e1801f", "f679e897baa2faae",
    "eb4f5890a5b5d524", "421e51767e57e4cd", "ef8d099bbe64d74a",
    "17559d6c9a8b64e5", "7037c79d10e99705", "3475504b95c4b8ca",
]


def test_golden_output_digests(capsys):
    digests = []
    for argv in _GOLDEN_ARGV:
        code, out, _ = run(capsys, *argv)
        digests.append(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16])
    assert digests == _GOLDEN_DIGESTS
