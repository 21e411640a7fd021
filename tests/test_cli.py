import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sylow2
from conftest import recorded
from sylow2 import cli, derived, verify, wreath
from sylow2.cli import build_parser, main
from sylow2.permgroup import format_cycles
from sylow2.portrait import (
    compose,
    format_portrait,
    inverse,
    leaf_permutation,
    random_portrait,
)
from sylow2.wreath import all_portraits, in_G


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors and --version
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- order / rank / gens ------------------------------------------------------

def test_order_command(capsys):
    assert run(capsys, "order", "A", "12")[:2] == (0, "2^9\n")
    assert run(capsys, "order", "S", "4")[:2] == (0, "2^3\n")
    assert run(capsys, "order", "A", "2")[:2] == (0, "2^0\n")


def test_order_huge_n(capsys):
    # popcount(10**20) is 26; the order itself has too many digits to form
    n = str(10**20)
    assert run(capsys, "order", "S", n) == (0, "2^99999999999999999974\n", "")
    assert run(capsys, "order", "A", n) == (0, "2^99999999999999999973\n", "")


def test_rank_command(capsys):
    assert run(capsys, "rank", "A", "28")[:2] == (0, "8\n")
    assert run(capsys, "rank", "A", "14")[:2] == (0, "5\n")


def test_gens_cycles(capsys):
    code, out, _ = run(capsys, "gens", "A", "8", "--format", "cycles")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["(1,5)(2,6)(3,7)(4,8)", "(1,3)(2,4)", "(1,2)(7,8)"]


def test_gens_portrait(capsys):
    code, out, _ = run(capsys, "gens", "A", "6", "--format", "portrait")
    assert code == 0
    assert out.strip().splitlines() == ["0/10|1", "1/00|0"]


def test_gens_count_matches_rank(capsys):
    for n in (6, 12, 14, 24, 28):
        code, out, _ = run(capsys, "gens", "A", str(n))
        assert code == 0
        expected = run(capsys, "rank", "A", str(n))[1]
        assert len(out.strip().splitlines()) == int(expected)


@pytest.mark.parametrize("kind", ["A", "S"])
@pytest.mark.parametrize("n", ["0", "-5"])
def test_gens_nonpositive_n_exits_2(capsys, kind, n):
    code, out, err = run(capsys, "gens", kind, n)
    assert (code, out) == (2, "")
    assert err == "error: n must be positive\n"


@pytest.mark.parametrize("command", ["order", "rank"])
@pytest.mark.parametrize("kind", ["A", "S"])
def test_order_and_rank_of_zero_exit_2(capsys, command, kind):
    assert run(capsys, command, kind, "0") == (2, "", "error: n must be positive\n")


@pytest.mark.parametrize("kind, n", [("S", 10**20), ("A", 2**40), ("A", 2**20 + 1)])
def test_gens_huge_n_exits_2(capsys, kind, n):
    # order/rank still answer for such n (test_order_huge_n); gens would
    # need gigabytes, so it names the bound instead
    err = "error: n must be at most 1048576 to build generators\n"
    assert run(capsys, "gens", kind, str(n)) == (2, "", err)


@pytest.mark.parametrize("text", ["1_000", "+12", " 12", "\u0661\u0662", "abc", ""])
@pytest.mark.parametrize("argv", [
    ("order", "A", "{}"),
    ("verify", "G", "{}"),
    ("verify", "G", "3", "--seed", "{}"),
    ("selftest", "--seed", "{}"),
])
def test_malformed_int_exits_2(capsys, argv, text):
    # int() alone would read all but the last two of these
    code, out, err = run(capsys, *(a.format(text) for a in argv))
    assert (code, out) == (2, "")
    assert err.endswith(f": invalid int value: {text!r}\n")


def test_overlong_int_exits_2(capsys):
    # more digits than int() converts, so _int's ValueError branch answers
    text = "9" * 5000
    code, out, err = run(capsys, "order", "A", text)
    assert (code, out) == (2, "")
    assert err.endswith(f": invalid int value: {text!r}\n")


def test_gens_trivial_group_prints_nothing(capsys):
    assert run(capsys, "gens", "S", "1") == (0, "", "")


# -- member / calc ------------------------------------------------------------

def test_member_command(capsys):
    assert run(capsys, "member", "typeT", "0/00/1001")[:2] == (0, "yes\n")
    assert run(capsys, "member", "derived-B", "1/00")[:2] == (0, "no\n")
    assert run(capsys, "member", "G", "0/00/1100")[:2] == (0, "yes\n")
    assert run(capsys, "member", "W", "0/00/1100")[:2] == (0, "yes\n")
    assert run(capsys, "member", "frattini-G", "0/00/0000")[:2] == (0, "yes\n")


def test_member_parse_failure_exits_2(capsys):
    code, _, err = run(capsys, "member", "G", "1/0")
    assert code == 2
    assert "error" in err


def test_member_frattini_outside_G_prints_no(capsys):
    # Phi(G) = G', so frattini-G answers as derived-G does outside G too
    assert run(capsys, "member", "frattini-G", "0/00/1000") == (0, "no\n", "")


# the library predicate each member name answers with
MEMBER_ANSWERS = {
    "G": in_G,
    "W": wreath.in_W,
    "derived-B": derived.in_derived_B,
    "derived-G": derived.in_derived_G,
    "frattini-G": derived.in_derived_G,
    "typeT": wreath.is_type_T,
    "typeC": wreath.is_type_C,
}


def test_member_matches_the_library(capsys):
    # every name prints the library's yes or no on every portrait of depths
    # 2 and 3 and on seeded ones at depths 4-8; at depth 1 only derived-B
    # answers, and every other name exits 2
    assert set(MEMBER_ANSWERS) == set(cli._MEMBER_PREDICATES)
    rng = random.Random(30)
    sampled = [random_portrait(rng, depth) for depth in range(4, 9)
               for _ in range(40)]
    portraits = [*all_portraits(2), *all_portraits(3), *sampled]
    for name, predicate in MEMBER_ANSWERS.items():
        for g in portraits:
            answer = "yes\n" if predicate(g) else "no\n"
            assert run(capsys, "member", name, format_portrait(g)) == (0, answer, "")
        for text in ("0", "1"):
            code, out, _ = run(capsys, "member", name, text)
            if name == "derived-B":
                assert (code, out) == (0, "yes\n" if text == "0" else "no\n")
            else:
                assert (code, out) == (2, "")


def test_calc_mul(capsys):
    code, out, _ = run(capsys, "calc", "mul", "1/00", "0/10")
    assert code == 0
    assert out.splitlines()[0] == "1/10"


def test_calc_comm_identity(capsys):
    code, out, _ = run(capsys, "calc", "comm", "1/00", "1/00")
    assert code == 0
    assert out.splitlines() == ["0/00", "e"]


def test_calc_abelianize(capsys):
    assert run(capsys, "calc", "abelianize-G", "0/00/1001")[:2] == (0, "001\n")
    assert run(capsys, "calc", "abelianize-B", "1/10/0000")[:2] == (0, "110\n")


def test_calc_inv(capsys):
    code, out, _ = run(capsys, "calc", "inv", "1/10")
    assert code == 0
    assert out.splitlines()[0] == "1/01"


@pytest.mark.parametrize("argv, err", [
    (("calc", "mul", "1/00"), "error: mul takes exactly two operands\n"),
    (("calc", "comm", "1/00", "1/00", "1/00"), "error: comm takes exactly two operands\n"),
    (("calc", "inv", "1/00", "1/00"), "error: inv takes exactly one operand\n"),
    (("calc", "abelianize-G", "0/00/1001", "0/00/1001"),
     "error: abelianize-G takes exactly one operand\n"),
])
def test_calc_operand_count_exits_2(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_calc_depth_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "calc", "mul", "1/00", "0/00/1001")
    assert code == 2
    assert "depth mismatch" in err


def _tree_text(g):
    return f"{format_portrait(g)}\n{format_cycles(leaf_permutation(g))}\n"


def _parity_text(vector):
    return derived.format_parity_vector(vector) + "\n"


# op: (operand count, what calc prints for the operands), from the library
CALC_ANSWERS = {
    "mul": (2, lambda a, b: _tree_text(compose(a, b))),
    "inv": (1, lambda a: _tree_text(inverse(a))),
    "comm": (2, lambda a, b: _tree_text(
        compose(compose(a, b), compose(inverse(a), inverse(b))))),
    "abelianize-B": (1, lambda a: _parity_text(derived.abelianization_B(a))),
    "abelianize-G": (1, lambda a: _parity_text(derived.abelianization_G(a))),
}


def _into_G(g):
    """g itself if it is in G, else g with its bottom-left label flipped."""
    if in_G(g):
        return g
    return compose(g, wreath.alpha(g.depth, g.depth - 1))


def test_calc_matches_the_library(capsys):
    # the parser offers the ops in this order, and every op prints what the
    # library computes, on seeded operands at depths 1-8 (abelianize-G on
    # operands inside G, from depth 2)
    usage = run(capsys, "calc", "--help")[1]
    assert "{mul,inv,comm,abelianize-B,abelianize-G}" in usage
    rng = random.Random(27)
    for op, (count, answer) in CALC_ANSWERS.items():
        for depth in range(2 if op == "abelianize-G" else 1, 9):
            for _ in range(3):
                operands = [random_portrait(rng, depth) for _ in range(count)]
                if op == "abelianize-G":
                    operands = [_into_G(g) for g in operands]
                argv = ["calc", op, *map(format_portrait, operands)]
                assert run(capsys, *argv) == (0, answer(*operands), "")


# -- verify ---------------------------------------------------------------------

def test_verify_a14_full(capsys, tmp_path):
    report = tmp_path / "a14.json"
    code, out, _ = run(
        capsys, "verify", "A", "14", "--level", "full", "--json", str(report)
    )
    assert code == 0
    assert "FAIL" not in out
    doc = json.loads(report.read_text())
    assert doc["pass"]
    assert doc["summary"]["oracle_order_log2"] == 10
    assert doc["summary"]["oracle_rank"] == 5
    claim_ids = [c["claim"] for c in doc["claims"]]
    assert claim_ids == sorted(claim_ids)


def test_verify_a28_quick(capsys):
    code, out, _ = run(capsys, "verify", "A", "28", "--level", "quick")
    assert code == 0
    assert "composite/order-log2" in out and "expected=24" in out


def test_verify_tree_kind(capsys):
    code, out, _ = run(capsys, "verify", "G", "3", "--level", "full")
    assert code == 0
    assert "tree/w-count" in out and "tree/derived-matches-predicate" in out


def test_verify_large_n_full_refused(capsys):
    code, out, err = run(capsys, "verify", "A", "129", "--level", "full")
    assert code == 2
    assert "capped" in err
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("kind,target,bound", [
    ("A", "0", "n >= 1"),
    ("S", "-1", "n >= 1"),
    ("B", "0", "1 <= k <= 7"),
    ("B", "-1", "1 <= k <= 7"),
    ("G", "1", "2 <= k <= 7"),
    ("B", "8", "1 <= k <= 7"),
])
def test_verify_target_out_of_range_exits_2(capsys, kind, target, bound):
    code, out, err = run(capsys, "verify", kind, target)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and bound in err


def test_verify_large_n_quick_formula_only(capsys):
    code, out, _ = run(capsys, "verify", "A", "129", "--level", "quick")
    assert code == 0
    assert "order-log2" not in out  # no oracle claims above the cap
    assert "legendre-cross-check" in out


def test_verify_huge_n_quick(capsys):
    code, out, _ = run(capsys, "verify", "S", str(10**20))
    assert code == 0
    assert "expected=99999999999999999974 computed=99999999999999999974" in out
    assert "composite/neighbor-ratios" in out and "FAIL" not in out


def test_verify_unwritable_report_exits_2(capsys, tmp_path):
    report = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(capsys, "verify", "A", "7", "--json", str(report))
    assert code == 2
    assert "FAIL" not in out
    assert err.startswith("error: ") and "x.json" in err
    assert not report.exists()


def test_verify_empty_report_path_exits_2(capsys):
    # an empty --json path is refused like any other unwritable one
    code, out, err = run(capsys, "verify", "A", "7", "--json", "")
    assert code == 2
    assert out.startswith("pass ") and "FAIL" not in out
    assert err.startswith("error: cannot write the report: ")


def test_verify_without_json_builds_no_report(capsys, monkeypatch):
    # the summary is made only for --json; the exit code comes from the
    # claim records alone
    def no_report(*args):
        raise AssertionError("report built without --json")

    monkeypatch.setattr(verify, "report_to_json", no_report)
    code, out, err = run(capsys, "verify", "A", "14")
    assert (code, err) == (0, "")
    assert "composite/rank" in out and "FAIL" not in out
    monkeypatch.setattr(verify.composite, "rank_syl2", lambda kind, n: 0)
    code, out, err = run(capsys, "verify", "A", "14")
    assert (code, err) == (1, "")
    assert "FAIL composite/rank" in out


def test_verify_report_reuses_the_runs_generating_set(capsys, monkeypatch, tmp_path):
    # the claims and the report summary share one workspace, so the
    # generating set is built once
    report = tmp_path / "a27.json"
    with recorded(monkeypatch, verify.composite, "build_gens") as calls:
        code, _, err = run(capsys, "verify", "A", "27", "--level", "full",
                           "--json", str(report))
    assert (code, err) == (0, "")
    assert calls == [("A", 27)]
    assert json.loads(report.read_text())["summary"]["fixed_points"] == [27]


def test_report_roundtrip(capsys, tmp_path):
    # re-running the claims recorded in a report reproduces computed values;
    # a full A run at n = 2**k also writes tree claims with kind G params
    report = tmp_path / "r.json"
    for kind, target in (("A", 12), ("G", 3), ("A", 16)):
        code, _, _ = run(
            capsys, "verify", kind, str(target), "--level", "full",
            "--json", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        for record in doc["claims"]:
            assert verify.recompute(record) == record["computed"]


# -- selftest --------------------------------------------------------------------

def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("ok  ") == 17
    assert "FAIL" not in out


def test_selftest_seeded_deterministic(capsys):
    first = run(capsys, "selftest", "--seed", "42")
    second = run(capsys, "selftest", "--seed", "42")
    assert first == second == (0, first[1], "")


def test_selftest_names_violated_invariant(capsys, monkeypatch):
    # inject a label-rule bug: composing in the wrong order breaks the
    # leaf homomorphism, and the failing invariant is named in the output
    import sylow2.verify as verify_module

    real_compose = verify_module.compose
    monkeypatch.setattr(
        verify_module, "compose", lambda g, h: real_compose(h, g)
    )
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failures
    assert "portrait/leaf-homomorphism" in "\n".join(failures)


# -- process-wide parser, closed pipes and --version --------------------------------

def run_alone(*argv, stdout=subprocess.PIPE):
    """``python -m sylow2 argv`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(sylow2.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sylow2", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [("gens", "S", "4095"), ("order", "A", "12")])
def test_closed_pipe_exits_141_quietly(argv):
    # as in `sylow2 gens S 4095 | head -1`, the reader is gone; its end is
    # closed before the start, so the write fails on every run: midway
    # through the 41 kB of gens, or at the final flush of order's one line
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = run_alone(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (141, "")


def test_parser_built_once_and_reused_cleanly(capsys):
    assert build_parser() is build_parser()
    sequence = [
        ("calc", "mul", "1/00", "0/10"),
        ("order", "X", "8"),  # argparse usage error
        ("member", "derived-G", "1"),  # G is undefined at depth 1
        ("order", "A", "8"),
    ]
    alone = [run_alone(*argv) for argv in sequence]
    assert [code for code, _, _ in alone] == [0, 2, 2, 0]
    assert [run(capsys, *argv) for argv in sequence] == alone


def _pyproject_table(name):
    """The lines of one table of pyproject.toml, without its header."""
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    return text.split(f"\n[{name}]\n", 1)[1].split("\n[", 1)[0].splitlines()


def test_version(capsys):
    expected = f"sylow2 {sylow2.__version__}\n"
    assert run(capsys, "--version") == (0, expected, "")
    assert run_alone("--version") == (0, expected, "")
    # one version number: the distribution reads the package's
    project = _pyproject_table("project")
    assert 'dynamic = ["version"]' in project
    assert not any(line.startswith("version") for line in project)
    assert 'version = {attr = "sylow2.__version__"}' in _pyproject_table(
        "tool.setuptools.dynamic")
