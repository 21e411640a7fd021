import random

import pytest

from conftest import random_portrait
from sylow2.derived import (
    abelianization_B,
    abelianization_G,
    format_parity_vector,
    in_derived_B,
    in_derived_G,
    in_frattini_G,
)
from sylow2.permgroup import derived_subgroup, frattini_of_2group
from sylow2.portrait import (
    compose,
    format_portrait,
    identity,
    inverse,
    leaf_permutation,
    parse_portrait,
)
from sylow2.verify import _random_g_element, run_claim
from sylow2.wreath import all_portraits, alpha, gen_set_B, gen_set_G, in_G, leaf_group, tau


# -- derived membership --------------------------------------------------------

def test_in_derived_B_examples():
    assert in_derived_B(parse_portrait("0/11/0000"))
    assert not in_derived_B(alpha(3, 0))
    assert in_derived_B(identity(3))


def test_in_derived_G_examples():
    assert in_derived_G(identity(3))
    assert not in_derived_G(tau(3))
    assert not in_derived_G(tau(4))


def test_in_derived_G_matches_text_reference():
    # reference from the printed levels: the levels above the last and each
    # half of the last have an even number of 1s; outside G this is False
    for k in (2, 3, 4):
        for g in all_portraits(k):
            *upper, last = format_portrait(g).split("/")
            half = len(last) // 2
            parts = upper + [last[:half], last[half:]]
            assert in_derived_G(g) == all(p.count("1") % 2 == 0 for p in parts)


def test_derived_B_matches_oracle_elementwise():
    for k in (2, 3):
        oracle = derived_subgroup(leaf_group(gen_set_B(k)))
        by_oracle = {e.images for e in oracle.elements(5000)}
        by_predicate = {
            leaf_permutation(g).images for g in all_portraits(k) if in_derived_B(g)
        }
        assert by_predicate == by_oracle
    assert sum(1 for g in all_portraits(3) if in_derived_B(g)) == 16


def test_derived_B_matches_oracle_by_order_k4():
    oracle = derived_subgroup(leaf_group(gen_set_B(4)))
    predicate_count = sum(1 for g in all_portraits(4) if in_derived_B(g))
    assert oracle.order == predicate_count == 2**11


def test_derived_G_matches_oracle_elementwise_k3():
    oracle = derived_subgroup(leaf_group(gen_set_G(3)))
    by_oracle = {e.images for e in oracle.elements(100)}
    by_predicate = {
        leaf_permutation(g).images for g in all_portraits(3) if in_derived_G(g)
    }
    assert by_predicate == by_oracle
    assert len(by_predicate) == 8


def test_derived_G_matches_oracle_by_order_k4():
    oracle = derived_subgroup(leaf_group(gen_set_G(4)))
    predicate_count = sum(
        1 for g in all_portraits(4) if in_G(g) and in_derived_G(g)
    )
    assert oracle.order == predicate_count == 2**10


def test_root_label_alone_is_outside_derived():
    # at depth 2 the even part is abelian, so its derived subgroup is trivial
    assert not in_derived_G(alpha(2, 0))
    oracle = derived_subgroup(leaf_group(gen_set_G(2)))
    assert oracle.order == 1
    assert [g for g in all_portraits(2) if in_G(g) and in_derived_G(g)] == [identity(2)]


# -- squares -------------------------------------------------------------------

def test_squares_exhaustive_small():
    # every square of depth 2 and 3, then 500 depth-6 draws
    assert run_claim("derived/squares-in-derived", {"seed": 1729}).passed


def test_squares_sampled_k6():
    # 4 seeds of 500 depth-6 draws each
    for seed in range(99, 103):
        assert run_claim("derived/squares-in-derived", {"seed": seed}).passed


# -- abelianization --------------------------------------------------------------

def test_abelianization_B_basis_vectors():
    for k in (2, 3, 4):
        for l in range(k):
            expected = tuple(1 if m == l else 0 for m in range(k))
            assert abelianization_B(alpha(k, l)) == expected


def test_abelianization_G_examples():
    assert abelianization_G(tau(3)) == (0, 0, 1)
    assert abelianization_G(compose(tau(3), tau(3))) == (0, 0, 0)
    assert format_parity_vector(abelianization_G(tau(3))) == "001"
    with pytest.raises(ValueError):
        abelianization_G(alpha(3, 2))


def test_abelianization_B_is_homomorphism_exhaustive_k2():
    for g in all_portraits(2):
        for h in all_portraits(2):
            combined = abelianization_B(compose(g, h))
            assert combined == tuple(
                a ^ b for a, b in zip(abelianization_B(g), abelianization_B(h))
            )


def test_abelianization_homomorphism_random():
    rng = random.Random(17)
    for _ in range(150):
        k = rng.randrange(2, 9)
        g, h = random_portrait(rng, k), random_portrait(rng, k)
        assert abelianization_B(compose(g, h)) == tuple(
            a ^ b for a, b in zip(abelianization_B(g), abelianization_B(h))
        )
        g, h = _random_g_element(rng, k), _random_g_element(rng, k)
        assert abelianization_G(compose(g, h)) == tuple(
            a ^ b for a, b in zip(abelianization_G(g), abelianization_G(h))
        )


def test_abelianization_G_surjective():
    # images of the standard generators form the standard basis
    for k in range(2, 7):
        images = [abelianization_G(g) for g in gen_set_G(k)]
        for l, vec in enumerate(images):
            assert vec == tuple(1 if m == l else 0 for m in range(k))


def test_abelianization_G_kernel_is_derived():
    for g in all_portraits(3):
        if not in_G(g):
            continue
        assert (abelianization_G(g) == (0, 0, 0)) == in_derived_G(g)


def test_error_texts_at_depth_1_and_outside_G():
    cases = [
        (in_derived_G, "1", "G is undefined at depth 1"),
        (abelianization_G, "1", "G is undefined at depth 1"),
        (in_frattini_G, "1", "G is undefined at depth 1"),
        (abelianization_G, "0/00/1000", "element is not in G"),
        (in_frattini_G, "0/00/1000", "element is not in G"),
    ]
    for predicate, text, message in cases:
        with pytest.raises(ValueError) as info:
            predicate(parse_portrait(text))
        assert str(info.value) == message


# -- Frattini -------------------------------------------------------------------

def test_in_frattini_examples():
    assert in_frattini_G(identity(3))
    assert not in_frattini_G(tau(3))
    with pytest.raises(ValueError):
        in_frattini_G(alpha(3, 2))


def test_frattini_quotient_size_k3():
    members = [g for g in all_portraits(3) if in_G(g) and in_frattini_G(g)]
    assert 64 // len(members) == 2**3


def test_frattini_matches_oracle():
    for k in (2, 3):
        group = leaf_group(gen_set_G(k))
        phi = frattini_of_2group(group)
        by_oracle = {e.images for e in phi.elements(5000)}
        by_predicate = {
            leaf_permutation(g).images
            for g in all_portraits(k)
            if in_G(g) and in_frattini_G(g)
        }
        assert by_predicate == by_oracle


def test_frattini_coincides_with_derived_by_order():
    for k in (2, 3, 4):
        group = leaf_group(gen_set_G(k))
        assert frattini_of_2group(group).order == derived_subgroup(group).order


# -- commutator width -------------------------------------------------------------

def test_commutator_width_one_small_depths():
    # every derived element is a single commutator, checked exhaustively
    for k in (1, 2, 3):
        members = [g for g in all_portraits(k)]
        targets = {g.bits for g in members if in_derived_B(g)}
        found = set()
        for a in members:
            a_inv = inverse(a)
            for b in members:
                comm = compose(compose(a, b), compose(a_inv, inverse(b)))
                found.add(comm.bits)
        assert targets <= found
