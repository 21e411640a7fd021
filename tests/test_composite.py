import math
import random
from collections import Counter
from itertools import permutations

import pytest

from conftest import random_portrait, recorded
from sylow2 import composite, portrait, verify
from sylow2.composite import (
    SubdirectElement,
    block_layout,
    build_gens_A,
    build_gens_S,
    build_tuples_A,
    build_tuples_S,
    check_congruence,
    decompose,
    embed,
    iso_4k2,
    order_syl2_A,
    order_syl2_S,
    rank_syl2_A,
    rank_syl2_S,
    two_part_of_factorial,
    verification_record,
)
from sylow2.permgroup import (
    PermGroup,
    Permutation,
    format_cycles,
    parse_cycles,
    rank_of_2group,
)
from sylow2.portrait import Vertex, compose, from_vertices, identity, leaf_permutation
from sylow2.wreath import alpha, tau


# -- decomposition and layout --------------------------------------------------

def test_decompose_examples():
    assert decompose(28) == (2, 3, 4)
    assert decompose(14) == (1, 2, 3)
    assert decompose(16) == (4,)
    for n in range(1, 4097):
        exps = decompose(n)
        assert all(a < b for a, b in zip(exps, exps[1:]))
        assert sum(1 << e for e in exps) == n
        assert block_layout(n) == exps[::-1]
    for n in (0, -3):
        with pytest.raises(ValueError):
            decompose(n)


def test_block_layout_covers_points_decreasing():
    assert block_layout(28) == (4, 3, 2)
    assert block_layout(7) == (2, 1, 0)


def test_embed_places_blocks_largest_first():
    for n, blocks in ((28, [range(1, 17), range(17, 25), range(25, 29)]),
                      (7, [range(1, 5), range(5, 7)])):
        moved = [set() for _ in blocks]
        for t in build_tuples_S(n):
            (bi,) = [i for i, p in enumerate(t.parts) if p and not p.is_identity()]
            g = embed(t)
            moved[bi] |= {p + 1 for p in range(n) if g.images[p] != p}
        assert moved == [set(b) for b in blocks]
    assert all(g.images[6] == 6 for g in build_gens_S(7) + build_gens_A(7))


# -- orders and ranks -------------------------------------------------------------

def test_order_examples():
    assert order_syl2_A(12) == 2**9
    assert order_syl2_S(4) == 2**3
    assert order_syl2_A(16) == 2**14
    assert order_syl2_A(2) == 1
    assert order_syl2_A(1) == 1


def test_order_matches_slow_legendre_sum():
    for n in range(1, 65):
        assert order_syl2_S(n) == 2 ** two_part_of_factorial(n)
        if n >= 2:
            assert order_syl2_A(n) == 2 ** (two_part_of_factorial(n) - 1)


def test_rank_examples():
    assert rank_syl2_A(14) == 5
    assert rank_syl2_A(28) == 8
    for k in (2, 3, 4, 5):
        assert rank_syl2_A(2**k) == k
    assert rank_syl2_A(5) == 2  # the 1-point block of 5 = 4 + 1 adds nothing
    assert rank_syl2_A(3) == 0
    assert rank_syl2_S(12) == 5
    assert rank_syl2_S(7) == 3


# -- generator construction --------------------------------------------------------

def test_build_gens_S_examples():
    assert [format_cycles(g) for g in build_gens_S(4)] == ["(1,3)(2,4)", "(1,2)"]
    assert len(build_gens_S(12)) == 5
    assert PermGroup(6, build_gens_S(6)).order == 2**4


def test_build_gens_A_small_examples():
    assert [format_cycles(g) for g in build_gens_A(6)] == [
        "(1,2)(5,6)",
        "(1,3)(2,4)",
    ]
    assert build_gens_A(3) == []


def test_build_gens_A_counts_and_orders():
    for n, rank, log2 in ((14, 5, 10), (28, 8, 24)):
        gens = build_gens_A(n)
        assert len(gens) == rank
        group = PermGroup(n, gens)
        assert group.order == 2**log2
        assert rank_of_2group(group) == rank


def test_order_sweep_4_to_32():
    for n in range(4, 33):
        assert PermGroup(n, build_gens_S(n)).order == order_syl2_S(n)
        assert PermGroup(n, build_gens_A(n)).order == order_syl2_A(n)


def test_sylow_property_up_to_12():
    # order equals the full 2-part of n!/2 and every generator is even
    for n in range(4, 13):
        gens = build_gens_A(n)
        assert all(g.sign() == 1 for g in gens)
        assert PermGroup(n, gens).order == 2 ** (two_part_of_factorial(n) - 1)


def test_tuples_satisfy_congruence():
    for n in (6, 12, 14, 28):
        for element in build_tuples_A(n):
            assert check_congruence(element)


def reference_embed(element):
    """embed by one store per point, every part expanded, identities too,
    each block starting where the blocks before it end."""
    images = list(range(element.n))
    offsets = [0]
    for e in block_layout(element.n):
        offsets.append(offsets[-1] + (1 << e))
    for part, offset in zip(element.parts, offsets):
        if part is not None:
            for i, v in enumerate(leaf_permutation(part).images):
                images[offset + i] = offset + v
    return tuple(images)


def test_embedding_matches_gens():
    for n in [*range(1, 301), 1023, 1024, 4095, 4096]:
        for kind in ("A", "S"):
            assert [reference_embed(t) for t in composite.build_tuples(kind, n)] == [
                g.images for g in composite.build_gens(kind, n)
            ]


def test_embed_matches_full_block_expansion():
    # the generating tuples for n = 1..300, 1023, 1024, 4095 and 4096 go
    # through reference_embed in test_embedding_matches_gens; here random
    # elements with sparse, identity and root-labelled parts
    rng = random.Random(47)
    for _ in range(2000):
        n = rng.randrange(1, 300)
        parts = []
        for e in block_layout(n):
            if not e:
                parts.append(None)
                continue
            vertices = [Vertex(l, rng.randrange(1 << l) + 1)
                        for l in (rng.randrange(e) for _ in range(rng.randrange(3)))]
            if rng.randrange(4) == 0:
                vertices.append(Vertex(0, 1))
            parts.append(from_vertices(e, vertices))
        element = SubdirectElement(n, tuple(parts))
        assert embed(element).images == reference_embed(element)


@pytest.mark.parametrize("kind, n, leaves", [("S", 4095, 8166), ("A", 4096, 12284)])
def test_embed_expands_only_moved_subtrees(monkeypatch, kind, n, leaves):
    # a generator moves the leaves below one vertex per part it labels; the
    # whole blocks would take 40,962 (S 4095) and 49,152 (A 4096) leaves
    tuples = composite.build_tuples(kind, n)
    with recorded(monkeypatch, portrait, "leaf_images") as calls:
        [embed(t) for t in tuples]
    assert sum(1 << k for k, _ in calls) == leaves


@pytest.mark.parametrize("kind, expanded", [("S", 66), ("A", 120)])
def test_embed_expands_only_moved_blocks(monkeypatch, kind, expanded):
    # 4095 has eleven tree blocks and a 1-point one; expanding every tree
    # block of every generator would take 726 (S) or 715 (A) calls
    tuples = composite.build_tuples(kind, 4095)
    with recorded(monkeypatch, composite, "leaf_permutation") as calls:
        [embed(t) for t in tuples]
    assert len(calls) == expanded
    assert not any(part.is_identity() for (part,) in calls)


def test_kind_dispatch_matches_the_A_and_S_functions(monkeypatch):
    for n in range(1, 41):
        for kind, by_name in (("A", "_A"), ("S", "_S")):
            for job in ("rank_syl2", "build_tuples", "build_gens"):
                direct = getattr(composite, job + by_name)(n)
                assert getattr(composite, job)(kind, n) == direct
    # the order exponent has no _A / _S twin: check it against the formula
    for n in range(1, 301):
        assert composite.order_log2_syl2("S", n) == n - n.bit_count()
        assert composite.order_log2_syl2("A", n) == n - n.bit_count() - (n >= 2)
    for kind in ("B", "a", ""):
        for job in (composite.order_log2_syl2, composite.rank_syl2,
                    composite.build_tuples, composite.build_gens):
            with pytest.raises(ValueError, match=f"^kind must be A or S, not {kind!r}$"):
                job(kind, 8)
        with pytest.raises(ValueError, match=f"^kind must be A or S, not {kind!r}$"):
            verification_record(8, kind, 6, 3, [])
    # the _S function is looked up when called, so a replacement is used
    monkeypatch.setattr(composite, "rank_syl2_S", lambda n: -1)
    assert composite.rank_syl2("S", 12) == -1


# -- congruence -----------------------------------------------------------------

def test_check_congruence_examples():
    all_id = SubdirectElement(12, (identity(3), identity(2)))
    assert check_congruence(all_id)
    with_tau = SubdirectElement(12, (tau(3), identity(2)))
    assert check_congruence(with_tau)
    single_odd = SubdirectElement(12, (identity(3), alpha(2, 1)))
    assert not check_congruence(single_odd)


def test_congruence_multiplicative_random():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randrange(2, 21)
        pair = []
        for _ in range(2):
            parts = tuple(
                None if e == 0 else random_portrait(rng, e) for e in block_layout(n)
            )
            pair.append(SubdirectElement(n, parts))
        product = SubdirectElement(
            n,
            tuple(
                None if a is None else compose(a, b)
                for a, b in zip(pair[0].parts, pair[1].parts)
            ),
        )
        assert check_congruence(product) == (
            check_congruence(pair[0]) == check_congruence(pair[1])
        )
        # the congruence cuts out the even part: it is the sign of the embedding
        for element in (*pair, product):
            assert check_congruence(element) == (embed(element).sign() == 1)


def test_subdirect_element_validation():
    SubdirectElement(5, (identity(2), None))
    for n, parts, message in (
        (12, (identity(3),), "part count does not match the block layout"),
        (12, (identity(2), identity(3)), "block of size 8 needs a depth-3 portrait"),
        (5, (identity(2), identity(1)), "1-point blocks carry no portrait"),
        (5, (None, None), "block of size 4 needs a depth-2 portrait"),
        # a list would leave the frozen element unhashable
        (5, [identity(2), None], "parts must be a tuple, got list"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SubdirectElement(n, parts)


# -- the 4k -> 4k+2 isomorphism ----------------------------------------------------

def test_iso_examples():
    assert format_cycles(iso_4k2(parse_cycles("(1,2)", 4))) == "(1,2)(5,6)"
    assert format_cycles(iso_4k2(parse_cycles("(1,2)(3,4)", 4))) == "(1,2)(3,4)"
    with pytest.raises(ValueError):
        iso_4k2(parse_cycles("(1,2)", 6))


def test_iso_is_bijective_homomorphism_on_syl2_s4():
    source = PermGroup(4, build_gens_S(4))
    elements = source.elements(10)
    images = {e.images: iso_4k2(e) for e in elements}
    assert len({p.images for p in images.values()}) == len(elements)
    for a in elements:
        for b in elements:
            assert iso_4k2(a * b) == iso_4k2(a) * iso_4k2(b)
    image_group = PermGroup(6, [iso_4k2(g) for g in source.generators])
    assert image_group.order == source.order == order_syl2_A(6)
    stats = Counter(math.lcm(*map(len, e.cycles()))
                    for e in image_group.elements(10))
    assert dict(stats) == {1: 1, 2: 5, 4: 2}


@pytest.mark.parametrize("n", [8, 12])
def test_iso_randomized_larger(n):
    source = PermGroup(n, build_gens_S(n))
    rng = random.Random(n)
    elements = source.elements(5000)
    sample = [elements[rng.randrange(len(elements))] for _ in range(60)]
    for a in sample:
        for b in sample[:10]:
            assert iso_4k2(a * b) == iso_4k2(a) * iso_4k2(b)
    image_gens = [iso_4k2(g) for g in source.generators]
    assert all(g.sign() == 1 for g in image_gens)
    assert PermGroup(n + 2, image_gens).order == order_syl2_A(n + 2)


# -- odd n, counting --------------------------------------------------------------

def test_fixed_point_examples():
    for kind in "AS":
        for n, fixed in ((5, 5), (7, 7), (8, None)):
            params = {"kind": kind, "n": n}
            claim = verify.run_claim("composite/fixed-point", params)
            assert claim.computed == fixed


def test_odd_n_adds_a_fixed_1_point_block():
    for n in range(3, 302, 2):
        for kind in "AS":
            odd = [t.parts for t in composite.build_tuples(kind, n)]
            even = [t.parts + (None,) for t in composite.build_tuples(kind, n - 1)]
            assert odd == even
            assert composite.rank_syl2(kind, n) == composite.rank_syl2(kind, n - 1)


def test_fixed_point_orbit():
    # the orbit of point n - 1 is {n - 1}: every generator fixes it
    for n in (5, 7, 13):
        assert all(g.images[n - 1] == n - 1 for g in build_gens_A(n))


def test_count_sylow2_by_enumeration_r2():
    # all Sylow 2-subgroups of the degree-4 symmetric group, located directly
    subgroups = set()
    elements = [Permutation(images) for images in permutations(range(4))]
    for a in elements:
        for b in elements:
            try:
                H = PermGroup(4, [a, b])
            except ValueError:
                continue  # not a 2-group, so not of order 8
            if H.order == 8:
                subgroups.add(frozenset(e.images for e in H.elements(10)))
    assert len(subgroups) == 3


# -- order-ratio identities -----------------------------------------------------

def test_neighbor_order_identities_formulas():
    for n in range(2, 65):
        if n % 2 == 1:
            assert order_syl2_A(n) == order_syl2_A(n - 1)
            assert order_syl2_S(n) == order_syl2_S(n - 1)
        if n % 4 == 3 and n >= 7:  # at n = 3 both sides are trivial groups
            assert order_syl2_A(n) == 2 * order_syl2_A(n - 2)
        if n % 2 == 0 and n >= 4:
            v = (n & -n).bit_length() - 1
            assert order_syl2_A(n) == order_syl2_S(n - 1) * 2 ** (v - 1)


def test_order_ratio_4k_minus_2_vs_4k():
    # the jump from 4k-2 to 4k points multiplies the order by 2**(2 + v2(k))
    for k in range(1, 17):
        v = (k & -k).bit_length() - 1
        assert order_syl2_A(4 * k) == order_syl2_A(4 * k - 2) << (2 + v)


def test_neighbor_order_identities_oracle():
    oracle_order = {
        n: PermGroup(n, build_gens_A(n)).order if n >= 4 else 1
        for n in range(2, 17)
    }
    oracle_order_s = {
        n: PermGroup(n, build_gens_S(n)).order for n in range(2, 17)
    }
    for n in range(3, 17):
        if n % 2 == 1:
            assert oracle_order[n] == oracle_order[n - 1]
            assert oracle_order_s[n] == oracle_order_s[n - 1]
        if n % 4 == 3 and n >= 7:
            assert oracle_order[n] == 2 * oracle_order[n - 2]


# -- verification record -----------------------------------------------------------

def _record(n, kind, rank_offset=0):
    # oracle values as the verify claims compute them
    params = {"kind": kind, "n": n}
    order_log2 = verify.run_claim("composite/order-log2", params).computed
    rank = verify.run_claim("composite/rank", params).computed
    gens = composite.build_gens(kind, n)
    return verification_record(n, kind, order_log2, rank + rank_offset, gens)


def test_verification_record_fields_and_pass():
    rec = _record(14, "A")
    assert rec["pass"]
    assert rec["decomposition"] == [1, 2, 3]
    assert rec["expected_order_log2"] == rec["oracle_order_log2"] == 10
    assert rec["expected_rank"] == rec["oracle_rank"] == 5
    assert rec["all_even"]
    rec = _record(7, "A")
    assert rec["pass"] and rec["fixed_points"] == [7]
    rec = _record(12, "S")
    assert rec["pass"] and not rec["all_even"]
    rec = _record(14, "A", rank_offset=1)
    assert rec["oracle_rank"] == 6 and not rec["pass"]
