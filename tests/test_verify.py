import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import asdict, replace
from itertools import combinations
from pathlib import Path

import pytest

from conftest import recorded
from sylow2 import cli, composite, derived, permgroup, verify, wreath
from sylow2.portrait import (
    Portrait,
    compose,
    identity,
    inverse,
    level_index,
    parse_portrait,
    random_portrait,
)


def test_every_planned_claim_is_registered():
    for kind, target in (("A", 14), ("A", 7), ("S", 12), ("B", 3), ("G", 4)):
        for claim, params in verify.plan_claims(kind, target, "full", 1729):
            assert claim in verify.CLAIMS
            assert params.get("kind") == kind or "k" in params


def test_plan_is_sorted_by_claim_id():
    plan = verify.plan_claims("A", 8, "full", 1729)
    ids = [claim for claim, _ in plan]
    assert ids == sorted(ids)


def test_quick_plan_above_oracle_limit_is_formula_only():
    plan = verify.plan_claims("A", 129, "quick", 1729)
    assert {claim for claim, _ in plan} == {
        "composite/legendre-cross-check",
        "composite/neighbor-ratios",
    }


def test_full_plan_above_oracle_limit_is_refused():
    with pytest.raises(ValueError, match="capped at n = 128"):
        verify.plan_claims("S", 129, "full", 1729)


# kinds that a containment test on a string such as "AS" would let through
BAD_KINDS = ["", "AS", "BG", "a", None, ["A"]]


@pytest.mark.parametrize("call, message", [
    (lambda: verify.plan_claims("Q", 4, "quick", 1), "unknown kind 'Q'"),
    (lambda: verify.plan_claims("G", 3, "bogus", 1), "unknown level 'bogus'"),
    (lambda: verify.run_verification("A", 4, "medium"), "unknown level 'medium'"),
    (lambda: verify.bruteforce_closure(composite.build_gens_S(6), cap=10),
     "closure cap exceeded"),
    *[(lambda kind=kind: verify.plan_claims(kind, 4, "full", 1),
       f"unknown kind {kind!r}") for kind in BAD_KINDS],
    # non-int targets and seeds: planned before, and a float seed made
    # records that recompute refuses
    (lambda: verify.run_verification("B", 3, "quick", seed=1.5),
     "verify needs an integer seed, got 1.5"),
    (lambda: verify.run_verification("A", 4.0),
     "verify needs an integer n or k, got 4.0"),
    (lambda: verify.run_verification("A", True),
     "verify needs an integer n or k, got True"),
])
def test_error_texts(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("kind,target,degree,derived", [
    ("A", 28, 28, 0),
    ("A", 27, 27, 0),  # the group, all-even and fixed-point share the gens
    ("G", 5, 32, 1),
])
def test_run_builds_each_chain_and_subgroup_once(monkeypatch, kind, target,
                                                  degree, derived):
    with (recorded(monkeypatch, permgroup.PermGroup, "__init__") as chains,
          recorded(monkeypatch, permgroup, "normal_closure") as closures,
          recorded(monkeypatch, permgroup, "frattini_of_2group") as frattinis,
          recorded(monkeypatch, permgroup, "derived_subgroup") as deriveds,
          recorded(monkeypatch, composite, "build_gens") as gens):
        records = verify.run_verification(kind, target, "full")
    assert all(r.passed for r in records)
    # the nonempty chain builds by degree: PermGroup(degree) is trivial
    built = [d for _, d, *generators in chains if generators and generators[0]]
    assert built.count(degree) == 1
    assert len(frattinis) == 1
    assert len(deriveds) == derived
    assert len(closures) == 1 + derived
    assert len(gens) == (kind in "AS")
    for record in records:
        assert verify.recompute(asdict(record)) == record.computed


def test_selftest_builds_each_chain_once(monkeypatch):
    # the closure check takes B_3 from the workspace of the oracle check
    with recorded(monkeypatch, permgroup.PermGroup, "__init__") as chains:
        assert verify.run_selftest()
    built = [(degree, tuple(g.images for g in generators))
             for _, degree, *rest in chains for generators in rest if generators]
    assert len(set(built)) == len(built) == 7


@pytest.mark.slow
def test_full_runs_pass_up_to_oracle_limit():
    targets = [(kind, n) for kind in "AS" for n in (33, 48, 63, 64, 96, 127, 128)]
    targets += [("B", 7), ("G", 7)]
    start = time.perf_counter()
    for kind, target in targets:
        records = verify.run_verification(kind, target, "full")
        assert all(r.passed for r in records), (kind, target)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.2f}s, budget 30s"


def test_run_verification_s_kind():
    records = verify.run_verification("S", 12, "full")
    assert all(r.passed for r in records)
    ranks = [r for r in records if r.claim == "composite/rank"]
    assert ranks and ranks[0].computed == 5


def test_run_verification_b_kind():
    records = verify.run_verification("B", 3, "full")
    assert all(r.passed for r in records)
    by_id = {r.claim: r for r in records}
    assert by_id["tree/order-log2"].computed == 7
    assert by_id["tree/derived-matches-predicate"].computed is True


def test_generator_claims_build_no_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(verify.permgroup, "PermGroup", refuse)
    for n in (3, 7, 13, 31):  # n = 3 has no generators at all
        for kind in "AS":
            params = {"kind": kind, "n": n}
            assert verify.run_claim("composite/fixed-point", params).computed == n
            if kind == "A":
                assert verify.run_claim("composite/all-even", params).computed is True


def test_report_summary_builds_no_chain(monkeypatch):
    runs = [("A", 14, "full"), ("S", 12, "quick")]
    records = {run: verify.run_verification(*run) for run in runs}
    summaries = {
        run: verify.report_to_json(*run, 1729, records[run])["summary"]
        for run in runs
    }

    def refuse(*args):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(verify.permgroup, "PermGroup", refuse)
    for run in runs:
        doc = verify.report_to_json(*run, 1729, records[run])
        assert doc["summary"] == summaries[run]
        assert doc["summary"]["oracle_order_log2"] == 10
        assert doc["summary"]["oracle_rank"] == 5


def test_report_document_structure():
    records = verify.run_verification("A", 12, "quick")
    doc = verify.report_to_json("A", 12, "quick", 1729, records)
    assert doc["pass"] is True
    assert doc["summary"]["n"] == 12
    for record in doc["claims"]:
        assert record["passed"] == (record["expected"] == record["computed"])
        assert record["wall_time_s"] >= 0


@pytest.mark.parametrize("kind,target,level", [
    ("A", 12, "quick"), ("S", 31, "full"), ("B", 3, "full"), ("G", 4, "full"),
])
def test_report_text_matches_the_asdict_document(tmp_path, kind, target, level):
    # the records are copied shallowly, each with its own params dict; the
    # written text equals that of a dataclasses.asdict deep copy
    records = [
        replace(r, wall_time_s=0.0)
        for r in verify.run_verification(kind, target, level)
    ]
    doc = verify.report_to_json(kind, target, level, 1729, records)
    reference = {**doc, "claims": [asdict(r) for r in records]}
    verify.write_report(tmp_path / "doc.json", doc)
    verify.write_report(tmp_path / "reference.json", reference)
    text = (tmp_path / "doc.json").read_text(encoding="utf-8")
    assert text == (tmp_path / "reference.json").read_text(encoding="utf-8")
    assert all(c["params"] is not r.params for c, r in zip(doc["claims"], records))


def test_sign_law_claim_is_seed_stable():
    params = {"kind": "G", "k": 4, "seed": 7, "samples": 300}
    first = verify.run_claim("tree/sign-law-violations", params)
    second = verify.run_claim("tree/sign-law-violations", params)
    assert first.computed == second.computed == 0


def _sign_law_draws(params):
    rng = random.Random(params["seed"])
    return [random_portrait(rng, params["k"]) for _ in range(params["samples"])]


def _per_sample_mismatches(draws):
    """The reference count: one leaf permutation per draw."""
    return sum(
        verify.leaf_permutation(g).sign()
        != (-1 if verify.level_index(g, g.depth - 1) % 2 else 1)
        for g in draws
    )


@pytest.mark.parametrize("seed", [1729, 42])
@pytest.mark.parametrize("kind", ["B", "G"])
def test_sign_law_claim_matches_the_per_sample_count(monkeypatch, kind, seed):
    real = verify.level_index
    for k in range(2, 8):
        params = {"kind": kind, "k": k, "seed": seed, "samples": 2000}
        draws = _sign_law_draws(params)
        assert verify.run_claim("tree/sign-law-violations", params).computed \
            == _per_sample_mismatches(draws) == 0
        # break the law for every portrait with a root label, so that the
        # counts compared are far from zero
        with monkeypatch.context() as patch:
            patch.setattr(verify, "level_index", lambda g, l: real(g, l) + real(g, 0))
            broken = _per_sample_mismatches(draws)
            assert broken > 0
            assert verify.run_claim("tree/sign-law-violations", params).computed == broken


def test_sign_law_claim_counts_each_draw_of_a_failing_portrait(monkeypatch):
    params = {"kind": "B", "k": 2, "seed": 1729, "samples": 2000}
    draws = Counter(_sign_law_draws(params))
    chosen = parse_portrait("1/01")
    assert draws[chosen] > 1
    real = verify.level_index
    monkeypatch.setattr(verify, "level_index",
                        lambda g, l: real(g, l) + (g == chosen))
    assert verify.run_claim("tree/sign-law-violations", params).computed == draws[chosen]


@pytest.mark.parametrize("k, distinct", [(2, 8), (3, 128)])
def test_sign_law_claim_builds_one_leaf_permutation_per_portrait(monkeypatch, k, distinct):
    params = {"kind": "B", "k": k, "seed": 1729, "samples": 2000}
    with recorded(monkeypatch, verify, "leaf_permutation") as judged:
        assert verify.run_claim("tree/sign-law-violations", params).computed == 0
    assert 0 < len(judged) <= distinct


@pytest.mark.parametrize("k, distinct", [(2, 8), (3, 128)])
def test_sign_law_claim_builds_one_portrait_per_distinct_draw(monkeypatch, k, distinct):
    params = {"kind": "B", "k": k, "seed": 1729, "samples": 2000}
    with recorded(monkeypatch, Portrait, "__post_init__") as built:
        assert verify.run_claim("tree/sign-law-violations", params).computed == 0
    assert 0 < len(built) <= distinct


FIXTURES = sorted((Path(__file__).parent / "data").glob("verify_*.json"))


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_report_reproduces(path):
    # reports written by an earlier version of the claim code; every claim
    # must still recompute, and re-run, to the recorded values
    doc = json.loads(path.read_text(encoding="utf-8"))
    records = []
    for record in doc["claims"]:
        assert verify.recompute(record) == record["computed"]
        fresh = verify.run_claim(record["claim"], record["params"])
        assert (fresh.expected, fresh.provenance, fresh.computed, fresh.passed) == (
            record["expected"], record["provenance"], record["computed"],
            record["passed"],
        )
        records.append(fresh)
    # the stored summaries were written by code that rebuilt the chain
    assert ("summary" in doc) == (doc["kind"] in ("A", "S"))
    rebuilt = verify.report_to_json(
        doc["kind"], doc["target"], doc["level"], doc["seed"], records
    )
    assert rebuilt.get("summary") == doc.get("summary")


def test_fixtures_cover_every_claim():
    covered = {
        record["claim"]
        for path in FIXTURES
        for record in json.loads(path.read_text(encoding="utf-8"))["claims"]
    }
    assert covered == set(verify.CLAIMS)


def test_samples_repeat_the_inline_draw_loop():
    # randrange(2, 9) for the depth, then the draws, as the checks drew
    # before they shared one sampler
    rng = random.Random(42)
    want = []
    for _ in range(100):
        k = rng.randrange(2, 9)
        want.append((random_portrait(rng, k), random_portrait(rng, k)))
    assert list(verify._samples(42, 2)) == want


def test_random_g_element_flips_the_bottom_left_label():
    ours, flipped = random.Random(7), random.Random(7)
    for i in range(200):
        k = 2 + i % 7
        g = random_portrait(flipped, k)
        if level_index(g, k - 1) % 2:
            bits = bytearray(g.bits)
            bits[(1 << (k - 1)) - 1] ^= 1
            g = Portrait(k, bytes(bits))
        assert verify._random_g_element(ours, k) == g
    assert ours.random() == flipped.random()  # no extra draw


SELFTEST_NAMES = [
    "portrait/parse-format-roundtrip",
    "portrait/group-laws",
    "portrait/associativity",
    "portrait/leaf-homomorphism",
    "portrait/sign-law",
    "portrait/single-label-cycle-type",
    "portrait/distance-isometry",
    "wreath/in-G-flat-vs-recursive",
    "wreath/in-G-equals-even-sign",
    "wreath/non-closure-of-T-and-C",
    "wreath/W-census",
    "derived/abelianization-homomorphism",
    "derived/squares-in-derived",
    "derived/derived-oracle-equality-k3",
    "permgroup/order-vs-bruteforce-closure",
    "composite/congruence-multiplicative",
    "composite/neighbor-ratios",
]


@pytest.mark.parametrize("seed", ["1729", "42"])
def test_selftest_prints_one_ok_line_per_claim_id(capsys, seed):
    assert cli.main(["selftest", "--seed", seed]) == 0
    out, err = capsys.readouterr()
    assert out == "".join(f"ok   {name}\n" for name in SELFTEST_NAMES)
    assert err == ""


def test_selftest_groups_the_neighbor_ratio_records_into_one_line(monkeypatch,
                                                                  capsys):
    # off by one at n = 40 breaks the records of n = 40 and n = 41 alone
    real = verify.composite.order_log2_syl2
    monkeypatch.setattr(verify.composite, "order_log2_syl2",
                        lambda kind, n: real(kind, n) + (kind == "A" and n == 40))
    assert cli.main(["selftest"]) == 1
    out, err = capsys.readouterr()
    want = [f"ok   {name}" for name in SELFTEST_NAMES]
    want[-1] = "FAIL composite/neighbor-ratios"
    assert out.splitlines() == want
    assert err == ""


def test_selftest_reports_a_raising_check_as_fail(monkeypatch, capsys):
    def raising(exc):
        def check(params, run):
            raise exc
        return check

    broken = {
        3: ValueError("element is not in G"),
        11: IndexError("bytearray index out of range"),
    }
    for i, exc in broken.items():
        monkeypatch.setitem(verify.CLAIMS, SELFTEST_NAMES[i],
                            verify.Claim(lambda p: True, "invariant", raising(exc)))
    assert verify.run_selftest() is False
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 17
    for i, name in enumerate(SELFTEST_NAMES):
        if i in broken:
            exc = broken[i]
            assert lines[i] == f"FAIL {name} ({type(exc).__name__}: {exc})"
        else:
            assert lines[i] == f"ok   {name}"
    assert cli.main(["selftest"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == lines
    assert err == ""


def _depth(text):
    return text.count("/") + 1


def _lenient(real):
    """A PermGroup that keeps its chain when the generators are no 2-group."""
    class Lenient(real):
        def __init__(self, degree, generators=()):
            try:
                super().__init__(degree, generators)
            except ValueError:
                pass
    return Lenient


def _wrong(claim, owner, name, make, what):
    """A case in which ``owner.name`` answers wrongly: ``make(real)`` builds
    the replacement from the real attribute."""
    return pytest.param(claim, owner, name, make, id=f"{claim}:{what}")


# Every invariant claim must fail when the function it checks gives a wrong
# answer, not only when a check raises.  Where a claim has two ways to fail,
# one case reaches each.
WRONG_ANSWERS = [
    _wrong("portrait/parse-format-roundtrip", verify, "parse_portrait",
           lambda real: lambda text: identity(_depth(text)), "identity"),
    _wrong("portrait/parse-format-roundtrip", verify, "parse_portrait",
           lambda real: lambda text: real(text) if _depth(text) <= 3
           else identity(_depth(text)), "identity-below-depth-3"),
    _wrong("portrait/group-laws", verify, "inverse",
           lambda real: lambda g: g, "inverse-is-g"),
    _wrong("portrait/associativity", verify, "compose",
           lambda real: lambda g, h: real(g, inverse(h)), "g-times-h-inverse"),
    _wrong("portrait/leaf-homomorphism", verify, "leaf_permutation",
           lambda real: lambda g: real(inverse(g)), "action-of-inverse"),
    _wrong("portrait/sign-law", permgroup.Permutation, "sign",
           lambda real: lambda self: 1, "always-even"),
    # only the exhaustive half, depth <= 3, sees this one
    _wrong("portrait/sign-law", verify, "level_index",
           lambda real: lambda g, l: real(g, l) + (g.depth <= 3),
           "off-by-one-to-depth-3"),
    _wrong("portrait/single-label-cycle-type", verify, "leaf_permutation",
           lambda real: lambda g: real(compose(g, g)), "action-of-square"),
    _wrong("portrait/distance-isometry", verify, "distance",
           lambda real: lambda g: max(
               (abs(a.position - b.position)
                for a, b in combinations(g.active_vertices(), 2)),
               default=0,
           ), "distance-along-the-level"),
    _wrong("wreath/in-G-flat-vs-recursive", wreath, "in_G",
           lambda real: lambda g: not real(g), "negated"),
    _wrong("wreath/in-G-equals-even-sign", wreath, "in_G",
           lambda real: lambda g: not real(g), "negated"),
    _wrong("wreath/non-closure-of-T-and-C", verify, "compose",
           lambda real: lambda g, h: g, "left-operand"),
    _wrong("wreath/W-census", wreath, "in_W",
           lambda real: lambda g: not real(g), "negated"),
    _wrong("derived/abelianization-homomorphism", derived, "abelianization_B",
           lambda real: lambda g: tuple(
               min(level_index(g, l), 1) for l in range(g.depth)
           ), "level-nonempty"),
    _wrong("derived/squares-in-derived", derived, "in_derived_B",
           lambda real: lambda g: False, "B-never"),
    _wrong("derived/squares-in-derived", derived, "in_derived_G",
           lambda real: lambda g: False, "G-never"),
    # only the sampled half, depth 6, sees this one
    _wrong("derived/squares-in-derived", derived, "in_derived_B",
           lambda real: lambda g: real(g) and g.depth != 6, "B-never-at-depth-6"),
    _wrong("derived/derived-oracle-equality-k3", derived, "in_derived_B",
           lambda real: lambda g: False, "B-never"),
    _wrong("permgroup/order-vs-bruteforce-closure", verify, "bruteforce_closure",
           lambda real: lambda gens, cap: set(sorted(real(gens, cap))[1:]),
           "closure-drops-one"),
    _wrong("permgroup/order-vs-bruteforce-closure", permgroup, "PermGroup",
           _lenient, "accepts-non-2-groups"),
    # a constant answer is multiplicative too, so the claim must compare the
    # congruence with the sign of the embedded permutation to catch these
    _wrong("composite/congruence-multiplicative", composite, "check_congruence",
           lambda real: lambda e: True, "always-true"),
    _wrong("composite/congruence-multiplicative", composite, "check_congruence",
           lambda real: lambda e: False, "always-false"),
    _wrong("composite/congruence-multiplicative", composite, "check_congruence",
           lambda real: lambda e: sum(
               level_index(p, p.depth - 1) for p in e.parts if p
           ) % 4 == 0, "count-mod-4"),
]


@pytest.mark.parametrize("claim, owner, name, make", WRONG_ANSWERS)
def test_invariant_claim_fails_on_a_wrong_answer(monkeypatch, claim, owner, name,
                                                  make):
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    assert verify.run_claim(claim, {"seed": 1729}).passed is False


def test_every_invariant_claim_has_a_wrong_answer():
    invariant = {c for c, e in verify.CLAIMS.items() if e.provenance == "invariant"}
    assert {case.values[0] for case in WRONG_ANSWERS} == invariant


@pytest.mark.parametrize("record, message", [
    ({"claim": "nope", "params": {}}, "unknown claim 'nope'"),
    ({"claim": "composite/order-log2", "params": {"kind": "Q", "n": 4}},
     "unknown kind 'Q'"),
    # above the oracle limit only the quick plan counts, and it has no rank
    ({"claim": "composite/rank", "params": {"kind": "A", "n": 200}},
     "no plan makes composite/rank with params {'kind': 'A', 'n': 200}"),
    ({"claim": "tree/sign-law-violations",
      "params": {"kind": "B", "k": 3, "seed": 1729, "samples": 10**9}},
     "no plan makes tree/sign-law-violations with params "
     "{'kind': 'B', 'k': 3, 'seed': 1729, 'samples': 1000000000}"),
    ({"claim": "composite/rank", "params": {"kind": "A"}},
     "composite/rank needs an integer n or k, got None"),
    ({"claim": "composite/rank", "params": [1]},
     "composite/rank params must be a dict, got [1]"),
    ({"claim": ["composite/rank"], "params": {}},
     "unknown claim ['composite/rank']"),
    ({"params": {}}, "a record needs a claim and params, got {'params': {}}"),
    ({"claim": "composite/rank"},
     "a record needs a claim and params, got {'claim': 'composite/rank'}"),
    (["composite/rank", {}],
     "a record needs a claim and params, got ['composite/rank', {}]"),
    ({"claim": "portrait/sign-law", "params": {"seed": None}},
     "portrait/sign-law needs an integer seed, got None"),
    ({"claim": "portrait/sign-law", "params": {"seed": True}},
     "portrait/sign-law needs an integer seed, got True"),
    ({"claim": "tree/sign-law-violations",
      "params": {"kind": "B", "k": 3, "seed": "1729", "samples": 2000}},
     "tree/sign-law-violations needs an integer seed, got '1729'"),
    *[({"claim": "composite/order-log2", "params": {"kind": kind, "n": 4}},
       f"unknown kind {kind!r}") for kind in BAD_KINDS],
])
def test_recompute_refuses_a_record_no_plan_makes(monkeypatch, record, message):
    def no_computation(params, run):
        raise AssertionError("computed before the record was checked")

    monkeypatch.setattr(verify, "CLAIMS", {
        claim: replace(entry, compute=no_computation)
        for claim, entry in verify.CLAIMS.items()
    })
    with pytest.raises(ValueError) as err:
        verify.recompute(record)
    assert str(err.value) == message


def test_quick_plan_is_part_of_the_full_plan():
    # recompute plans only the full level up to the oracle limit
    targets = [(kind, n) for kind in "AS" for n in range(1, 129)]
    targets += [("B", k) for k in range(1, 8)] + [("G", k) for k in range(2, 8)]
    for kind, target in targets:
        quick = verify.plan_claims(kind, target, "quick", 1729)
        full = verify.plan_claims(kind, target, "full", 1729)
        assert all(item in full for item in quick)


def _plan_or_refusal(kind, target, level, seed):
    try:
        return verify.plan_claims(kind, target, level, seed)
    except ValueError as exc:
        return str(exc)


def test_plans_match_the_pinned_digest():
    # every plan and refusal text on this grid, as a digest taken when the
    # plans moved into CLAIMS; a new claim or a changed plan changes it
    targets = [(kind, n) for kind in ("A", "S")
               for n in (0, *range(1, 301), 1023, 1024, 1025, 4096)]
    targets += [("B", k) for k in range(9)] + [("G", k) for k in range(1, 9)]
    dump = repr([
        _plan_or_refusal(kind, target, level, seed)
        for kind, target in targets
        for level in ("quick", "full")
        for seed in (1729, 42)
    ])
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "9c06e8a5aeab8257a8523a6b6d3eab9c12da6c42f5f8b9095284d3be995120ad"
    )
    for kind, target, message in [
        ("A", 0, "verify A needs n >= 1, got 0"),
        ("S", 0, "verify S needs n >= 1, got 0"),
        ("B", 0, "verify B needs 1 <= k <= 7, got 0"),
        ("B", 8, "verify B needs 1 <= k <= 7, got 8"),
        ("G", 1, "verify G needs 2 <= k <= 7, got 1"),
        ("G", 8, "verify G needs 2 <= k <= 7, got 8"),
        ("S", 129, "full verification is oracle-backed and capped at n = 128; "
                   "use --level quick for formula-only checks"),
    ]:
        assert _plan_or_refusal(kind, target, "full", 1729) == message
