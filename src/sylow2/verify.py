"""Claim table, verification reports and the self-test suite.

A claim is an identifier plus a parameter dict that fully determines two
computations: the expected value (from a closed formula or a recorded
source) and the computed value (from the oracle or an exhaustive run).
``CLAIMS`` maps every claim id to both computations, the provenance tag of
the expected side and the claim's plan, the params ``verify`` runs it with
for each target; ``verify``, ``selftest`` and the acceptance tests all
run claims from this one table, and each invariant check has no body but
its entry there.  The tag ``"invariant"`` marks the self-test claims:
their params are ``{"seed": seed}`` and their expected value is True.
``selftest`` runs them in table order, then ``composite/neighbor-ratios``
for n = 3..64.  Reports serialize both values, so re-reading a report and
re-running its claims must reproduce the computed values bit for bit.

Report records carry: claim id, params, expected value, provenance tag,
computed value, pass flag and wall time.  Record lists are always sorted by
claim id, so report ordering is canonical no matter how the claims ran.
A report has a ``summary`` (``composite.verification_record``) exactly
when its records include the oracle order claim; the summary's oracle
values are taken from those records.  ``plan_claims`` checks the target,
so that the oracle runs on at most ``ORACLE_LIMIT`` points (n for kinds A
and S, 2**k for kinds B and G), and returns the union of the plans.

Each claim computation also receives the workspace of its run, a plain
dict that ``run_verification`` is given or creates once (``run_selftest``
creates one for all its claims).  A generating
set, its group, the group's Frattini subgroup and its derived subgroup are
built by the first claim of the run that needs them and reused by the
rest, so the claims of one run build each of them once, with one
exception: the workspace keys groups by kind, so a full A run at
n = 2**k builds G_k's chain, Frattini subgroup and derived subgroup a
second time for its tree claims, although the Sylow subgroup is G_k.
``report_to_json`` takes the workspace too, so the report summary reuses
the run's generating set, and ``sylow2 verify`` builds the summary only
when ``--json`` asks for a report.  Nothing outlives the run:
``run_claim``, ``run_verification`` and ``report_to_json`` without a
workspace and ``recompute`` start from an empty one.  A report is user
input: ``recompute`` refuses with ValueError a record that no plan makes.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, product
from operator import itemgetter
from typing import Callable

from sylow2 import composite, derived, permgroup, wreath
from sylow2.portrait import (
    Vertex,
    compose,
    distance,
    format_portrait,
    from_vertices,
    identity,
    inverse,
    leaf_permutation,
    level_index,
    parse_portrait,
    random_portrait,
    random_portrait_counts,
)

DEFAULT_SEED = 1729  # seed of every sampled check unless one is given
ORACLE_LIMIT = 128  # no oracle work above this many points
ENUMERATION_LIMIT = 4096  # no claim lists the elements of a larger group


@dataclass
class VerificationReport:
    claim: str
    params: dict
    expected: object
    provenance: str
    computed: object
    passed: bool
    wall_time_s: float


@dataclass(frozen=True)
class Claim:
    """Expected value, its provenance tag, the computation it is checked
    against, and where ``verify`` runs it.  ``expected`` takes the claim's
    params dict; ``compute`` takes the params and the workspace of the run;
    ``plan`` takes the arguments of ``plan_claims``, once they are checked,
    and returns the params dicts the claim runs with, none by default."""

    expected: Callable[[dict], object]
    provenance: str
    compute: Callable[[dict, dict], object]
    plan: Callable[[str, int, str, int], list[dict]] = lambda *plan_args: []


def _random_g_element(rng, k):
    g = random_portrait(rng, k)
    if wreath.in_G(g):
        return g
    # alpha on the last level moves no internal vertex, so the product
    # differs from g in the bottom-left label alone: that fixes the parity
    return compose(g, wreath.alpha(k, k - 1))


def _log2(order):
    """Exponent of a power of two; None for any other order, so an order
    claim passes only on an exact match."""
    return order.bit_length() - 1 if order & (order - 1) == 0 else None


# --------------------------------------------------------------------------
# claim table
# --------------------------------------------------------------------------

def _composite_gens(params, run):
    kind, n = params["kind"], params["n"]
    return _shared(run, ("gens", kind, n), lambda: composite.build_gens(kind, n))


def _tree_gens(params):
    k, kind = params["k"], params["kind"]
    return wreath.gen_set_G(k) if kind == "G" else wreath.gen_set_B(k)


def _shared(run, key, build):
    """The run's workspace entry under key, made by ``build()`` on first use."""
    if key not in run:
        run[key] = build()
    return run[key]


def _group(params, run):
    """The claim's group: the Sylow subgroup for kinds A and S, the tree
    group for kinds B and G."""
    kind = params["kind"]
    if kind in ("A", "S"):
        n = params["n"]
        return _shared(run, ("group", kind, n),
                       lambda: permgroup.PermGroup(n, _composite_gens(params, run)))
    return _shared(run, ("group", kind, params["k"]),
                   lambda: wreath.leaf_group(_tree_gens(params)))


def _frattini(params, run):
    group = _group(params, run)
    return _shared(run, ("frattini", group), lambda: permgroup.frattini_of_2group(group))


def _derived(params, run):
    group = _group(params, run)
    return _shared(run, ("derived", group), lambda: permgroup.derived_subgroup(group))


def _expected_order_log2(params):
    return composite.order_log2_syl2(params["kind"], params["n"])


def _expected_tree_order_log2(params):
    return _log2(wreath.order_formula(wreath.GroupKind(params["kind"], params["k"])))


def _claim_order_log2(params, run):
    return _log2(_group(params, run).order)


def _claim_legendre(params, run):
    n, kind = params["n"], params["kind"]
    e = composite.two_part_of_factorial(n)
    if kind == "A" and n >= 2:
        e -= 1
    return e


def _claim_all_even(params, run):
    return all(g.sign() == 1 for g in _composite_gens(params, run))


def _claim_fixed_point(params, run):
    n = params["n"]
    fixed = all(g.images[n - 1] == n - 1 for g in _composite_gens(params, run))
    return n if fixed else None


def _claim_neighbor_ratios(params, run):
    """Order ratios of neighbouring n, compared as exponents of 2, so that
    no power of 2 is formed for large n."""
    n = params["n"]
    log = composite.order_log2_syl2
    ok = True
    if n % 2 == 1 and n >= 3:
        ok &= log("A", n) == log("A", n - 1)
        ok &= log("S", n) == log("S", n - 1)
    if n % 4 == 3 and n >= 7:  # at n = 3 both sides are trivial groups
        ok &= log("A", n) == log("A", n - 2) + 1
    if n % 2 == 0 and n >= 4:
        v = (n & -n).bit_length() - 1
        ok &= log("A", n) == log("S", n - 1) + v - 1
    return bool(ok)


def _claim_enumeration_even(params, run):
    group = _group(params, run)
    elements = group.elements(ENUMERATION_LIMIT)
    return len(elements) == group.order and all(g.sign() == 1 for g in elements)


def _claim_frattini_quotient_log2(params, run):
    """log2 |G/Phi(G)|, the rank of G by the Burnside basis theorem (0 for
    the trivial group), from the run's Frattini subgroup."""
    return _log2(_group(params, run).order // _frattini(params, run).order)


def _claim_derived_order_log2(params, run):
    return _log2(_derived(params, run).order)


def _claim_w_count(params, run):
    k = params["k"]
    return sum(map(wreath.in_W, wreath.all_portraits(k)))


def _claim_derived_match(params, run):
    k, kind = params["k"], params["kind"]
    member = derived.in_derived_G if kind == "G" else derived.in_derived_B
    by_predicate = {
        leaf_permutation(g).images
        for g in wreath.all_portraits(k)
        if member(g)
    }
    by_oracle = {g.images for g in _derived(params, run).elements(ENUMERATION_LIMIT)}
    return by_predicate == by_oracle


def _sign_mismatches(counts):
    """How many portraits have a leaf sign other than the parity of their
    bottom-level label count, counted with multiplicity: ``counts`` maps
    each distinct portrait to its multiplicity, and each is judged once, so
    2000 draws at depth 2 build 8 leaf permutations, not 2000."""
    return sum(
        count
        for g, count in counts.items()
        if leaf_permutation(g).sign() != (-1 if level_index(g, g.depth - 1) % 2 else 1)
    )


def _claim_sign_law_sample(params, run):
    rng = random.Random(params["seed"])
    k = params["k"]
    return _sign_mismatches(random_portrait_counts(rng, k, params["samples"]))


def _for(*kinds, when=lambda target, level: True):
    """The plan of a claim that runs once, with params ``{"kind", "n"}`` for
    kinds A and S or ``{"kind", "k"}`` for B and G, on each of ``kinds``
    wherever ``when(target, level)`` holds."""
    return lambda kind, target, level, seed: (
        [{"kind": kind, "n" if kind in ("A", "S") else "k": target}]
        if kind in kinds and when(target, level) else [])


def _oracle(n, level):
    return n <= ORACLE_LIMIT


def _plan_g_tree(kind, target, level, seed):
    """Kind G, and a full A run at n = 2**k >= 4, whose Sylow subgroup is
    G_k: both run with ``{"kind": "G", "k": k}``."""
    if kind == "G":
        return [{"kind": "G", "k": target}]
    k = target.bit_length() - 1
    full_a_run = kind == "A" and level == "full" and k >= 2 and target == 1 << k
    return [{"kind": "G", "k": k}] if full_a_run else []


def _plan_sign_law(kind, target, level, seed):
    sampled = {"kind": kind, "k": target, "seed": seed, "samples": 2000}
    return [sampled] if kind in ("B", "G") else []


def plan_claims(kind: str, target: int, level: str, seed: int) -> list[tuple[str, dict]]:
    """The claims to run for one verification target: the ``plan`` of each
    ``CLAIMS`` entry, sorted by claim id.  First raises ValueError for an
    unknown level, for a target or seed that is not an int (so no record
    is written that ``recompute`` refuses), for an unknown kind, for a
    target outside n >= 1 (kinds A and S), 1 <= k <= 7 (B) or 2 <= k <= 7
    (G), naming the bound, and for a full A or S run above the oracle
    limit, where a quick one runs only formulas."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    if type(target) is not int:
        raise ValueError(f"verify needs an integer n or k, got {target!r}")
    if type(seed) is not int:
        raise ValueError(f"verify needs an integer seed, got {seed!r}")
    if kind in ("A", "S"):
        if target < 1:
            raise ValueError(f"verify {kind} needs n >= 1, got {target}")
        if level == "full" and target > ORACLE_LIMIT:
            raise ValueError(
                f"full verification is oracle-backed and capped at n = "
                f"{ORACLE_LIMIT}; use --level quick for formula-only checks"
            )
    elif kind in ("B", "G"):
        low = 1 if kind == "B" else 2
        high = ORACLE_LIMIT.bit_length() - 1  # a depth-k tree has 2**k leaves
        if not low <= target <= high:
            raise ValueError(f"verify {kind} needs {low} <= k <= {high}, got {target}")
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return [(claim, params) for claim, entry in sorted(CLAIMS.items())
            for params in entry.plan(kind, target, level, seed)]


def run_claim(claim: str, params: dict, run: dict | None = None) -> VerificationReport:
    """Run one claim; ``run`` is the workspace it shares with the other
    claims of its run, a fresh one when none is given."""
    entry = CLAIMS[claim]
    expected = entry.expected(params)
    start = time.perf_counter()
    computed = entry.compute(params, {} if run is None else run)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        claim=claim,
        params=dict(params),
        expected=expected,
        provenance=entry.provenance,
        computed=computed,
        passed=computed == expected,
        wall_time_s=round(elapsed, 6),
    )


def run_verification(kind: str, target: int, level: str = "quick",
                     seed: int = DEFAULT_SEED,
                     run: dict | None = None) -> list[VerificationReport]:
    """Run the planned claims; ``run`` is their shared workspace, in which
    each group and subgroup of the run is built once, a fresh one when none
    is given."""
    plan = plan_claims(kind, target, level, seed)
    run = {} if run is None else run
    return [run_claim(c, p, run) for c, p in plan]


def recompute(record: dict):
    """Re-run one serialized claim record alone, in a fresh workspace;
    returns the fresh computed value.

    A record is user input, so it runs only if a plan makes it: a record
    with a kind must be in ``plan_claims``, which checks kind and target
    before any claim's plan runs, at the full level up to ``ORACLE_LIMIT``
    and at the quick level above it (the quick plan is part of the full
    one), any other in the self-test plan.  Raises ValueError, before any
    computation, for every other record and for one that is not a dict
    with a claim id, a params dict and an integer seed."""
    if not (isinstance(record, dict) and "claim" in record and "params" in record):
        raise ValueError(f"a record needs a claim and params, got {record!r}")
    claim, params = record["claim"], record["params"]
    if not isinstance(claim, str) or claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    if not isinstance(params, dict):
        raise ValueError(f"{claim} params must be a dict, got {params!r}")
    seed = params.get("seed", DEFAULT_SEED)
    if type(seed) is not int:
        raise ValueError(f"{claim} needs an integer seed, got {seed!r}")
    if "kind" not in params:
        plan = _selftest_plan(seed)
    else:
        target = params.get("n", params.get("k"))
        if type(target) is not int:
            raise ValueError(f"{claim} needs an integer n or k, got {target!r}")
        level = "full" if target <= ORACLE_LIMIT else "quick"
        plan = plan_claims(params["kind"], target, level, seed)
    if (claim, params) not in plan:
        raise ValueError(f"no plan makes {claim} with params {params}")
    return CLAIMS[claim].compute(params, {})


def report_to_json(kind, target, level, seed, records, run=None) -> dict:
    """The report document; ``run`` is the workspace the records were
    computed in, whose generating set the summary reuses, a fresh one when
    none is given."""
    computed = {r.claim: r.computed for r in records}
    doc = {
        "kind": kind,
        "target": target,
        "level": level,
        "seed": seed,
        "pass": all(r.passed for r in records),
        # a record holds plain JSON values, so a shallow copy with its own
        # params dict writes the same text as a dataclasses.asdict deep
        # copy, at a fraction of the cost
        "claims": [{**vars(r), "params": dict(r.params)} for r in records],
    }
    if "composite/order-log2" in computed:
        params = {"kind": kind, "n": target}
        doc["summary"] = composite.verification_record(
            target, kind, computed["composite/order-log2"],
            computed["composite/rank"],
            _composite_gens(params, {} if run is None else run),
        )
    return doc


def write_report(path, doc):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# invariant claims: the self test
# --------------------------------------------------------------------------

def bruteforce_closure(gens, cap=100_000):
    """All products of the generators as a set of image tuples.

    Plain breadth-first multiplication by tuple indexing, without
    ``Permutation`` products or the kernels, so it stays an independent
    reference for the stabilizer chain.  Raises ValueError past ``cap``.
    """
    degree = gens[0].degree if gens else 1
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(map(a.__getitem__, g.images))
                if c not in seen:
                    if len(seen) >= cap:
                        raise ValueError("closure cap exceeded")
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def _check_parse_roundtrip(params, run):
    rng = random.Random(params["seed"])
    for k in range(1, 4):
        for g in wreath.all_portraits(k):
            if parse_portrait(format_portrait(g)) != g:
                return False
    for _ in range(50):
        g = random_portrait(rng, 8)
        if parse_portrait(format_portrait(g)) != g:
            return False
    return True


def _samples(seed, arity, draw=random_portrait):
    """The 100 seeded samples of a check: for each, a depth k in 2..8 from
    ``rng.randrange(2, 9)``, then a tuple of ``arity`` draws ``draw(rng, k)``."""
    rng = random.Random(seed)
    for _ in range(100):
        k = rng.randrange(2, 9)
        yield tuple(draw(rng, k) for _ in range(arity))


def _check_group_laws(params, run):
    return all(
        compose(g, inverse(g)) == compose(inverse(g), g) == identity(g.depth)
        and compose(identity(g.depth), h) == h == compose(h, identity(g.depth))
        for g, h in _samples(params["seed"], 2)
    )


def _check_associativity(params, run):
    return all(
        compose(compose(a, b), c) == compose(a, compose(b, c))
        for a, b, c in _samples(params["seed"], 3)
    )


def _check_leaf_homomorphism(params, run):
    sampled = _samples(params["seed"], 2)
    pairs = chain(product(wreath.all_portraits(2), repeat=2), sampled)
    return all(
        leaf_permutation(compose(g, h)) == leaf_permutation(g) * leaf_permutation(h)
        for g, h in pairs
    )


def _check_sign_law(params, run):
    """Every portrait of depth 1 to 3, then the ``tree/sign-law-violations``
    claim on 200 seeded depth-8 samples."""
    exhaustive = (g for k in (1, 2, 3) for g in wreath.all_portraits(k))
    sampled = {"kind": "B", "k": 8, "seed": params["seed"], "samples": 200}
    violations = _sign_mismatches(Counter(exhaustive))
    return violations + run_claim("tree/sign-law-violations", sampled).computed == 0


def _check_single_label_cycle_type(params, run):
    for k in range(1, 7):
        for l in range(k):
            for j in range(1 << l):
                # two swapped subtrees of 2**(k-l-1) leaves; the rest is fixed
                g = leaf_permutation(from_vertices(k, [Vertex(l, j + 1)]))
                if sorted(map(len, g.cycles())) != [2] * (1 << (k - l - 1)):
                    return False
    return True


def _check_distance_isometry(params, run):
    rng = random.Random(params["seed"])
    for _ in range(200):
        k = rng.randrange(2, 7)
        level = rng.randrange(1, k)
        # g has labels on one level only, a strictly above it
        g = from_vertices(k, [
            Vertex(level, j + 1) for j in range(1 << level) if rng.getrandbits(1)
        ])
        a = from_vertices(k, [
            Vertex(l, j + 1)
            for l in range(level) for j in range(1 << l) if rng.getrandbits(1)
        ])
        conj = compose(a, compose(g, inverse(a)))
        if distance(conj) != distance(g):
            return False
    return True


def _check_in_g_flat_vs_recursive(params, run):
    sampled = (g for (g,) in _samples(params["seed"], 1))
    return all(
        wreath.in_G(g) == wreath.in_G_recursive(g)
        for g in chain(wreath.all_portraits(3), sampled)
    )


def _check_in_g_even_sign(params, run):
    for k in (2, 3):
        for g in wreath.all_portraits(k):
            if wreath.in_G(g) != (leaf_permutation(g).sign() == 1):
                return False
    return True


def _check_non_closure(params, run):
    """No product of two depth-3 type-T elements is type T or type C, and
    no square of a type-C element is type C."""
    portraits = list(wreath.all_portraits(3))
    t_elements = [g for g in portraits if wreath.is_type_T(g)]
    c_elements = [g for g in portraits if wreath.is_type_C(g)]
    violations = sum(
        wreath.is_type_T(p) or wreath.is_type_C(p)
        for p in (compose(t1, t2) for t1 in t_elements for t2 in t_elements)
    )
    return violations + sum(wreath.is_type_C(compose(c, c)) for c in c_elements) == 0


def _check_w_census(params, run):
    return all(
        run_claim("tree/w-count", {"kind": "G", "k": k}, run).passed for k in (2, 3, 4)
    )


def _homomorphic(f, g, h):
    """Whether f(g*h) = f(g) XOR f(h), for f with values in F_2 vectors."""
    return f(compose(g, h)) == tuple(a ^ b for a, b in zip(f(g), f(h)))


def _check_abelianization(params, run):
    return all(
        _homomorphic(derived.abelianization_B, g, h)
        for g in wreath.all_portraits(3)
        for h in (wreath.tau(3), wreath.alpha(3, 1))
    ) and all(
        _homomorphic(derived.abelianization_G, g, h)
        for g, h in _samples(params["seed"], 2, _random_g_element)
    )


def _check_squares(params, run):
    """g**2 passes the B criterion for every g, and the G criterion for
    every g in G: every portrait of depth 2 and 3, then 500 depth-6 draws."""
    rng = random.Random(random.Random(params["seed"]).randrange(1 << 30))
    sampled = (random_portrait(rng, 6) for _ in range(500))
    for g in chain(wreath.all_portraits(2), wreath.all_portraits(3), sampled):
        sq = compose(g, g)
        if not derived.in_derived_B(sq) or (
                wreath.in_G(g) and not derived.in_derived_G(sq)):
            return False
    return True


def _check_derived_oracle_k3(params, run):
    return all(
        run_claim("tree/derived-matches-predicate", {"kind": kind, "k": 3}, run).passed
        for kind in "GB"
    )


def _check_order_vs_closure(params, run):
    s4 = [permgroup.parse_cycles(t, 4) for t in ("(1,2,3,4)", "(1,2)")]
    try:  # S4 has order 24, so it is not a 2-group
        permgroup.PermGroup(4, s4)
        return False
    except ValueError:
        pass
    cases = [
        ["(1,2,3,4)"],
        ["(1,3)(2,4)", "(1,2)(3,4)"],
        ["(1,2,3,4)", "(1,3)"],
        ["(1,2)", "(3,4)"],
    ]
    for texts in cases:
        gens = [permgroup.parse_cycles(t, 4) for t in texts]
        group = permgroup.PermGroup(4, gens)
        if group.order != len(bruteforce_closure(gens, 512)):
            return False
    b3 = _group({"kind": "B", "k": 3}, run)
    return b3.order == len(bruteforce_closure(
        [leaf_permutation(g) for g in wreath.gen_set_B(3)], 512))


def _check_congruence_multiplicative(params, run):
    """The congruence holds exactly when the embedded permutation is even,
    on 100 seeded pairs and their products; as the sign is a homomorphism,
    this makes the congruence multiplicative."""
    rng = random.Random(params["seed"])
    for _ in range(100):
        n = rng.randrange(2, 21)
        pairs = [(random_portrait(rng, e), random_portrait(rng, e)) if e
                 else (None, None) for e in composite.block_layout(n)]
        g, h = (composite.SubdirectElement(n, parts) for parts in zip(*pairs))
        gh = composite.SubdirectElement(n, tuple(
            None if a is None else compose(a, b) for a, b in pairs))
        if any(composite.check_congruence(e) != (composite.embed(e).sign() == 1)
               for e in (g, h, gh)):
            return False
    return True


def _invariant(check):
    """An invariant claim: ``check(params, run)`` holds for the seed in
    ``params["seed"]``."""
    return Claim(lambda p: True, "invariant", check)


CLAIMS = {
    "composite/order-log2": Claim(_expected_order_log2, "formula", _claim_order_log2,
                                  _for("A", "S", when=_oracle)),
    "composite/legendre-cross-check": Claim(_expected_order_log2, "formula",
                                            _claim_legendre, _for("A", "S")),
    "composite/rank": Claim(lambda p: composite.rank_syl2(p["kind"], p["n"]),
                            "formula", _claim_frattini_quotient_log2,
                            _for("A", "S", when=_oracle)),
    "composite/all-even": Claim(lambda p: True, "formula", _claim_all_even,
                                _for("A", when=_oracle)),
    "composite/fixed-point": Claim(
        lambda p: p["n"], "formula", _claim_fixed_point,
        _for("A", "S", when=lambda n, level: n % 2 == 1 and _oracle(n, level)),
    ),
    "composite/neighbor-ratios": Claim(lambda p: True, "formula",
                                       _claim_neighbor_ratios, _for("A", "S")),
    "composite/enumeration-even": Claim(
        lambda p: True, "derived", _claim_enumeration_even,
        _for("A", when=lambda n, level: level == "full"
             and composite.order_syl2_A(n) <= ENUMERATION_LIMIT),
    ),
    "tree/order-log2": Claim(_expected_tree_order_log2, "formula", _claim_order_log2,
                             _for("B", "G")),
    "tree/rank": Claim(lambda p: p["k"], "formula", _claim_frattini_quotient_log2,
                       _for("B", "G")),
    "tree/frattini-quotient-log2": Claim(lambda p: p["k"], "formula",
                                         _claim_frattini_quotient_log2, _plan_g_tree),
    "tree/derived-order-log2": Claim(
        lambda p: _expected_tree_order_log2(p) - p["k"], "derived",
        _claim_derived_order_log2, _plan_g_tree,
    ),
    "tree/w-count": Claim(
        lambda p: wreath.order_formula(wreath.GroupKind("W", p["k"])),
        "formula", _claim_w_count,
        _for("G", when=lambda k, level: level == "full" and k <= 4),
    ),
    "tree/derived-matches-predicate": Claim(
        lambda p: True, "derived", _claim_derived_match,
        _for("B", "G", when=lambda k, level: level == "full" and k <= 3),
    ),
    "tree/sign-law-violations": Claim(lambda p: 0, "formula", _claim_sign_law_sample,
                                      _plan_sign_law),
    # the self test, in the order it reports them
    "portrait/parse-format-roundtrip": _invariant(_check_parse_roundtrip),
    "portrait/group-laws": _invariant(_check_group_laws),
    "portrait/associativity": _invariant(_check_associativity),
    "portrait/leaf-homomorphism": _invariant(_check_leaf_homomorphism),
    "portrait/sign-law": _invariant(_check_sign_law),
    "portrait/single-label-cycle-type": _invariant(_check_single_label_cycle_type),
    "portrait/distance-isometry": _invariant(_check_distance_isometry),
    "wreath/in-G-flat-vs-recursive": _invariant(_check_in_g_flat_vs_recursive),
    "wreath/in-G-equals-even-sign": _invariant(_check_in_g_even_sign),
    "wreath/non-closure-of-T-and-C": _invariant(_check_non_closure),
    "wreath/W-census": _invariant(_check_w_census),
    "derived/abelianization-homomorphism": _invariant(_check_abelianization),
    "derived/squares-in-derived": _invariant(_check_squares),
    "derived/derived-oracle-equality-k3": _invariant(_check_derived_oracle_k3),
    "permgroup/order-vs-bruteforce-closure": _invariant(_check_order_vs_closure),
    "composite/congruence-multiplicative": _invariant(_check_congruence_multiplicative),
}


def _selftest_plan(seed):
    """The self test's claims and params, in the order it runs them."""
    invariant = [c for c, e in CLAIMS.items() if e.provenance == "invariant"]
    return [(c, {"seed": seed}) for c in invariant] + [
        ("composite/neighbor-ratios", {"n": n}) for n in range(3, 65)]


def run_selftest(seed: int = DEFAULT_SEED) -> bool:
    """Run the invariant claims with ``seed``, in table order, then
    ``composite/neighbor-ratios`` for n = 3..64, all through ``run_claim``
    in one shared workspace; print one line per claim id.

    Each invariant claim draws from its own ``random.Random(seed)``.  A
    claim id passes when all its records pass, and its records stop at the
    first one that fails.  A claim that raises is reported as FAIL with the
    exception named, and the remaining claims still run.
    """
    run = {}
    all_ok = True
    for claim, entries in groupby(_selftest_plan(seed), key=itemgetter(0)):
        note = ""
        try:
            ok = all(run_claim(claim, params, run).passed for _, params in entries)
        except Exception as exc:
            ok, note = False, f" ({type(exc).__name__}: {exc})"
        print(f"{'ok  ' if ok else 'FAIL'} {claim}{note}")
        if not ok:
            all_ok = False
    return all_ok
