"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line (visible with ``pytest -s``) and
enforces the stated exactness and runtime budget.  Budgets are wall-clock
upper bounds; the suite is far below them.

Criteria that restate a claim run it from the claim table
(``conftest.claim``) and then check the computed value against the number
the criterion states, so an error on the table's expected side cannot pass
here either.
"""

import math
import time
from collections import Counter

from conftest import A14_GENS, claim
from sylow2 import derived, wreath
from sylow2.composite import build_gens_A, build_gens_S, iso_4k2, order_syl2_A
from sylow2.permgroup import PermGroup, parse_cycles, rank_of_2group
from sylow2.portrait import Portrait, compose, inverse
from sylow2.wreath import all_portraits

A28_GENS = [
    "(25,27)(26,28)",
    "(23,24)(25,26)",
    "(17,21)(18,22)(19,23)(20,24)",
    "(17,19)(18,20)",
    "(15,16)(17,18)",
    "(1,9)(2,10)(3,11)(4,12)(5,13)(6,14)(7,15)(8,16)",
    "(1,5)(2,6)(3,7)(4,8)",
    "(1,3)(2,4)",
]


class budget:
    """Record elapsed time and enforce the stated wall-clock bound."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"took {self.elapsed:.2f}s, budget {self.limit}s"
            )
        return False


def report(number, text):
    print(f"[PASS] criterion {number:2d}: {text}")


def test_criterion_01_orders_of_G_k():
    with budget(5) as b:
        for k, expected in ((2, 4), (3, 64), (4, 16384)):
            assert 1 << claim("tree/order-log2", kind="G", k=k) == expected
    report(1, f"oracle orders of the even tree groups are 4, 64, 16384 "
              f"({b.elapsed:.2f}s)")


def test_criterion_02_a14_reproduction():
    with budget(5) as b:
        published = PermGroup(14, [parse_cycles(t, 14) for t in A14_GENS])
        assert published.order == 2**10
        assert rank_of_2group(published) == 5
        assert claim("composite/order-log2", kind="A", n=14) == 10
        assert claim("composite/rank", kind="A", n=14) == 5
    report(2, f"degree-14 published generators and our construction both "
              f"give order 2^10, rank 5 ({b.elapsed:.2f}s)")


def test_criterion_03_a28_reproduction():
    with budget(30) as b:
        published = PermGroup(28, [parse_cycles(t, 28) for t in A28_GENS])
        assert published.order == 2**24
        assert rank_of_2group(published) == 8
        assert claim("composite/order-log2", kind="A", n=28) == 24
        assert claim("composite/rank", kind="A", n=28) == 8
    report(3, f"degree-28 published generators and our construction both "
              f"give order 2^24, rank 8 ({b.elapsed:.2f}s)")


def test_criterion_04_commutator_criterion():
    for kind, size in (("B", 16), ("G", 8)):
        assert claim("tree/derived-matches-predicate", kind=kind, k=3) is True
        assert 1 << claim("tree/derived-order-log2", kind=kind, k=3) == size
    report(4, "even-index criteria match the oracle derived subgroups "
              "elementwise (16 and 8 elements)")


def test_criterion_05_squares():
    for seed in range(505, 525):  # 500 depth-6 draws per seed
        assert claim("derived/squares-in-derived", seed=seed) is True
    report(5, "all 8 depth-2 and 128 depth-3 squares and 10^4 random depth-6 "
              "squares have even indexes everywhere")


def test_criterion_06_frattini_quotient():
    for k in (2, 3, 4):
        assert 1 << claim("tree/frattini-quotient-log2", kind="G", k=k) == 2**k
    report(6, "Frattini quotients have order 2^k for k = 2, 3, 4")


def test_criterion_07_sign_law():
    assert claim("portrait/sign-law", seed=707) is True
    assert claim("tree/sign-law-violations", kind="B", k=8, seed=707,
                 samples=10_000) == 0
    report(7, "leaf sign equals bottom-level index parity, exhaustively to "
              "depth 3 and on 10^4 random depth-8 portraits")


def test_criterion_08_isomorphism():
    source = PermGroup(4, build_gens_S(4))
    elements = source.elements(10)
    assert len(elements) == 8
    images = [iso_4k2(e) for e in elements]
    assert len({p.images for p in images}) == 8  # injective
    for a in elements:
        for b in elements:
            assert iso_4k2(a * b) == iso_4k2(a) * iso_4k2(b)
    image_group = PermGroup(6, [iso_4k2(g) for g in source.generators])
    assert image_group.order == order_syl2_A(6)
    stats = Counter(math.lcm(*map(len, e.cycles()))
                    for e in image_group.elements(10))
    assert dict(stats) == {1: 1, 2: 5, 4: 2}
    report(8, "the degree-4 to degree-6 map is a bijective homomorphism on "
              "all 64 pairs; image order statistics {1:1, 2:5, 4:2}")


def test_criterion_09_rank_sweep():
    with budget(120) as b:
        for n in (6, 8, 12, 14, 16, 20, 24, 28):
            assert claim("composite/rank", kind="A", n=n) == len(build_gens_A(n))
    report(9, f"oracle ranks match the closed formula at n = 6, 8, 12, 14, "
              f"16, 20, 24, 28 ({b.elapsed:.2f}s)")


def test_criterion_10_order_ratios():
    for n in range(2, 65):
        assert claim("composite/neighbor-ratios", kind="A", n=n) is True
    for n in range(4, 17):
        for kind in ("A", "S"):
            claim("composite/order-log2", kind=kind, n=n)
    report(10, "neighbor order ratios hold from the formulas for n <= 64 "
               "and against the oracle for n <= 16")


def test_criterion_11_non_closure():
    assert claim("wreath/non-closure-of-T-and-C", seed=1729) is True
    report(11, "no product of two odd-half elements stays odd-half; no "
               "square of a combined element stays combined")


def test_criterion_12_diagonal_bases():
    for k, expected in ((2, 2), (3, 16)):
        candidates = sum(1 for _ in wreath._diagonal_candidates("B", k))
        generating = wreath.enumerate_diagonal_bases("B", k)
        assert candidates == len(generating) == expected
        assert expected == wreath.count_diagonal_bases("B", k)
    # the even-side count at depth 3 is fixed by exhaustive enumeration and
    # recorded as the closed form (the published formula is inconsistent and
    # is documented, not asserted)
    enumerated = len(wreath.enumerate_diagonal_bases("G", 3))
    assert enumerated == wreath.count_diagonal_bases("G", 3) == 8
    report(12, "every diagonal candidate generates; counts 2 and 16 for the "
               "full groups at depths 2, 3, and 8 recorded for the even "
               "group at depth 3")


def test_criterion_13_commutator_width():
    with budget(10) as b:
        members = list(all_portraits(3))
        targets = {g.bits for g in members if derived.in_derived_B(g)}
        assert len(targets) == 16
        found = set()
        for a in members:
            ab_left = a
            a_inv = inverse(a)
            for b_ in members:
                comm = compose(compose(ab_left, b_), compose(a_inv, inverse(b_)))
                found.add(comm.bits)
        assert targets <= found
        assert all(derived.in_derived_B(Portrait(3, bits)) for bits in found)
    report(13, f"all 16 derived elements of the depth-3 full group are "
               f"single commutators, 128x128 exhaustive ({b.elapsed:.2f}s)")
