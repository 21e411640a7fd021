"""Tests of the benchmark itself: its reference, its checks and its tracer.

Run from the root of the source tree:  python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import reference  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

import sylow2  # noqa: E402
from sylow2 import composite, derived, permgroup, portrait, wreath  # noqa: E402


def _random_text(rng, k):
    return "/".join(format(rng.getrandbits(1 << l), f"0{1 << l}b") for l in range(k))


def test_reference_leaf_action_and_cycles_match_library():
    rng = random.Random(5)
    for k in range(1, 8):
        for _ in range(20):
            text = _random_text(rng, k)
            p = portrait.leaf_permutation(portrait.parse_portrait(text))
            images = reference.leaf_images(reference.parse_levels(text))
            assert tuple(images) == p.images
            assert reference.cycles_text(images) == permgroup.format_cycles(p)
            assert reference.parse_cycles(reference.cycles_text(images), 1 << k) == images


def test_reference_predicates_match_library_on_depth3():
    for g in wreath.all_portraits(3):
        levels = reference.parse_levels(portrait.format_portrait(g))
        for name, (module, attr) in workloads._PREDICATES.items():
            if name in reference.NEEDS_G and not wreath.in_G(g):
                continue
            library = getattr(getattr(sylow2, module), attr)(g)
            assert reference.MEMBER[name](levels) == library, (name, levels)
        assert reference.abelianize_B(levels) == derived.format_parity_vector(
            derived.abelianization_B(g))
        if wreath.in_G(g):
            assert reference.abelianize_G(levels) == derived.format_parity_vector(
                derived.abelianization_G(g))


def test_reference_orders_and_ranks_match_library():
    for n in range(1, 300):
        assert reference.rank("S", n) == composite.rank_syl2_S(n)
        assert reference.rank("A", n) == composite.rank_syl2_A(n)
        assert 1 << reference.order_log2("S", n) == composite.order_syl2_S(n)
        assert 1 << reference.order_log2("A", n) == composite.order_syl2_A(n)


def test_diagonal_candidates_match_library_enumeration():
    for kind in ("B", "G"):
        ours = workloads.diagonal_candidates(kind, 3)
        theirs = list(wreath._diagonal_candidates(kind, 3))
        assert sorted(map(repr, ours)) == sorted(map(repr, theirs))
    assert len(workloads.diagonal_candidates("G", 4)) == 1024
    assert len(workloads.diagonal_candidates("B", 4)) == 2048


def test_portrait_calc_decks_are_seeded_and_fixed_in_mix():
    def first_decks(seed):
        decks = workloads.PortraitCalc(random.Random(seed), None).decks()
        return [next(decks) for _ in range(3)]

    assert first_decks(3) == first_decks(3)
    for deck in first_decks(4):
        assert len(deck) == 64
        assert sum(op[3] for op in deck) == workloads.MALFORMED_PER_DECK


def _run(capsys, *argv):
    code = run.main(list(argv))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


class _SmallSweep(workloads.VerifySweep):
    def __init__(self, rng, out_dir):
        super().__init__(rng, out_dir)
        self.ops = [("A", 8, "full"), ("A", 9, "quick"), ("S", 6, "full"), ("G", 2, "full")]


@pytest.fixture
def small_sweep(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "verify-sweep", _SmallSweep)


def test_correct_runs_pass(capsys, small_sweep):
    for name in workloads.WORKLOADS:
        code, result = _run(capsys, "--workload", name, "--seed", "1", "--seconds", "0.2")
        assert code == 0 and result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}


def _wrong_compose(g, h):
    return portrait.Portrait(g.depth, bytes(len(g.bits)))


@pytest.mark.parametrize("workload, target, attr, wrong", [
    ("portrait-calc", portrait, "compose", _wrong_compose),
    ("portrait-calc", wreath, "is_type_C", lambda g: True),
    ("diagonal-bases", wreath, "leaf_group",
     lambda gens: permgroup.group_from_generators([portrait.leaf_permutation(gens[0])])),
    ("verify-sweep", composite, "rank_syl2_S", lambda n: 0),
    ("verify-sweep", sylow2.verify, "recompute", lambda record: "wrong"),
])
def test_injected_wrong_answer_exits_nonzero(capsys, monkeypatch, small_sweep,
                                             workload, target, attr, wrong):
    monkeypatch.setattr(target, attr, wrong)
    code, result = _run(capsys, "--workload", workload, "--seed", "2", "--seconds", "0.2")
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def _benchmark():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_traced_metrics():
    specs = spantrace.metric_specs()
    listed = [(m["name"], m["unit"], m["better"]) for m in _benchmark()["per_layer"]]
    assert listed == specs


def test_traced_runs(capsys, monkeypatch, small_sweep):
    monkeypatch.setattr(workloads.DiagonalBases, "trace_decks", 8)
    monkeypatch.setattr(workloads.PortraitCalc, "trace_decks", 2)
    names = [m["name"] for m in _benchmark()["per_layer"]]
    results = {}
    for name in workloads.WORKLOADS:
        code, result = _run(capsys, "--workload", name, "--seed", "3", "--seconds", "1",
                            "--trace", "1")
        assert code == 0 and result["correct"]
        assert list(result["metrics"]) == names
        results[name] = {k: v["value"] for k, v in result["metrics"].items()}
    calc, diag, sweep = (results[n] for n in ("portrait-calc", "diagonal-bases", "verify-sweep"))
    assert calc["permgroup.PermGroup.calls"] == 0
    assert calc["kernels.compose_labels.calls"] > 0 and calc["derived.predicates.self_s"] > 0
    assert diag["permgroup.chain_build.repeat_ratio"] == 0
    assert diag["wreath.leaf_group.calls"] == diag["trace.ops"] == 24
    assert sweep["verify.run_claim.calls"] > 0 and sweep["cli.main.self_s"] > 0
    assert sweep["permgroup.chain_build.repeat_ratio"] > 0


def test_tracer_restores_every_binding():
    before = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name.startswith("sylow2")}
    classes = [portrait.Portrait, permgroup.Permutation, permgroup.PermGroup]
    before_cls = [dict(vars(c)) for c in classes]
    tracer = spantrace.Tracer()
    tracer.install()
    assert permgroup.mult_perm is not before["sylow2.permgroup"]["mult_perm"]
    portrait.compose(wreath.tau(3), wreath.alpha(3, 0))
    tracer.uninstall()
    for name, module in sys.modules.items():
        if name in before:
            assert dict(vars(module)) == before[name], name
    assert [dict(vars(c)) for c in classes] == before_cls
    assert tracer.totals()["portrait.compose"][0] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "portrait-calc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
