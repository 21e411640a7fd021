from itertools import combinations, product

import pytest

from conftest import claim, portrait_cases, portrait_from_mask
from sylow2 import wreath
from sylow2.permgroup import format_cycles
from sylow2.portrait import (
    Portrait,
    compose,
    format_portrait,
    identity,
    inverse,
    leaf_permutation,
    level_index,
)
from sylow2.wreath import (
    GroupKind,
    all_portraits,
    alpha,
    count_diagonal_bases,
    enumerate_diagonal_bases,
    gen_set_B,
    gen_set_G,
    in_G,
    in_G_recursive,
    in_W,
    is_type_C,
    is_type_T,
    leaf_group,
    order_formula,
    split_semidirect,
    tau,
    tau_at,
)


# -- element constructors ------------------------------------------------------

def test_alpha_examples():
    assert format_portrait(alpha(2, 0)) == "1/00"
    assert format_cycles(leaf_permutation(alpha(3, 1))) == "(1,3)(2,4)"
    assert format_portrait(alpha(3, 2)) == "0/00/1000"
    assert format_cycles(leaf_permutation(alpha(3, 2))) == "(1,2)"
    with pytest.raises(ValueError, match=r"^level 3 outside 0\.\.2$"):
        alpha(3, 3)


def test_tau_examples():
    assert format_portrait(tau(3)) == "0/00/1001"
    assert format_cycles(leaf_permutation(tau(3))) == "(1,2)(7,8)"
    assert format_portrait(tau_at(3, {1, 2})) == "0/00/1100"
    assert format_cycles(leaf_permutation(tau_at(3, {1, 2}))) == "(1,2)(3,4)"
    assert tau_at(3, set()) == identity(3)
    with pytest.raises(ValueError, match=r"^position 5 outside 1\.\.4$"):
        tau_at(3, {5})


# -- generating sets -------------------------------------------------------------

def test_gen_set_B_orders():
    assert len(gen_set_B(4)) == 4
    assert leaf_group(gen_set_B(2)).order == 8
    assert leaf_group(gen_set_B(3)).order == 2**7


def test_gen_set_G_orders():
    g2 = leaf_group(gen_set_G(2))
    assert g2.order == 4
    elements = g2.elements(10)
    assert all((a * b).images == (b * a).images for a in elements for b in elements)
    assert leaf_group(gen_set_G(3)).order == 2**6
    assert leaf_group(gen_set_G(4)).order == 2**14


def test_gen_set_G_sizes_and_parity():
    for k in (2, 3, 4, 5):
        gens = gen_set_G(k)
        assert len(gens) == k
        assert all(leaf_permutation(g).sign() == 1 for g in gens)


def test_all_portraits_counts_labels_up_from_mask_zero():
    # label i of the m-th portrait is bit i of m
    for k in (1, 2, 3):
        expected = [portrait_from_mask(k, m) for m in range(1 << ((1 << k) - 1))]
        assert list(all_portraits(k)) == expected


def _product_census(k):
    """The reference census: every label tuple from product, reversed so
    that label 0 varies fastest."""
    for labels in product(b"\0\1", repeat=(1 << k) - 1):
        yield Portrait(k, bytes(reversed(labels)))


def test_all_portraits_matches_the_product_census():
    for k in range(1, 5):
        assert list(all_portraits(k)) == list(_product_census(k))


def test_leaf_action_is_faithful_and_fills_B3():
    # distinct portraits act differently on the leaves, and the 128 images
    # are exactly the oracle group generated by the one-label-per-level set
    images = {leaf_permutation(g).images for g in all_portraits(3)}
    assert len(images) == 128
    oracle = leaf_group(gen_set_B(3))
    assert oracle.order == 128
    assert images == {e.images for e in oracle.elements(200)}


def test_group_equals_even_part_exhaustive_k3():
    oracle = leaf_group(gen_set_G(3))
    generated = {e.images for e in oracle.elements(100)}
    predicate = {
        leaf_permutation(g).images for g in all_portraits(3) if in_G(g)
    }
    assert generated == predicate


def test_reachability_of_all_last_level_pairs():
    for k in (3, 4):
        G = leaf_group(gen_set_G(k))
        for i, j in combinations(range(1, 2 ** (k - 1) + 1), 2):
            assert G.contains(leaf_permutation(tau_at(k, {i, j})))


# -- membership predicates -------------------------------------------------------

def test_in_G_examples():
    assert in_G(tau(4))
    assert not in_G(alpha(4, 3))
    assert in_G(alpha(4, 0))
    with pytest.raises(ValueError):
        in_G(identity(1))


def test_in_G_flat_vs_recursive():
    # every depth-3 portrait, then 100 draws at depths 2..8
    assert claim("wreath/in-G-flat-vs-recursive", seed=3) is True


def test_in_G_matches_even_sign():
    # every portrait of depth 2 and 3
    assert claim("wreath/in-G-equals-even-sign", seed=1729) is True


def test_in_W_examples():
    assert in_W(tau(4))
    assert not in_W(alpha(4, 0))
    assert not in_W(alpha(4, 3))  # odd count on the last level
    assert in_W(identity(4))


def test_w_census():
    for k, count in ((2, 2), (3, 8), (4, 128)):
        assert claim("tree/w-count", kind="G", k=k) == count


def test_in_W_matches_its_definition_on_every_small_portrait():
    for k in (2, 3, 4):
        for g in all_portraits(k):
            upper_empty = not any(any(g.level_bits(l)) for l in range(k - 1))
            assert in_W(g) == (upper_empty and sum(g.level_bits(k - 1)) % 2 == 0)


def test_upper_level_predicates_match_level_index():
    # every portrait of depth 2..4, seeded draws at depths 5..12, and at
    # each of those depths tau (no upper label) and alpha(k, k - 2) (one
    # label, on the last upper level)
    cases = [g for k in (2, 3, 4) for g in all_portraits(k)]
    cases += [g for (g,) in portrait_cases(47, range(5, 13))]
    cases += [f(k) for k in range(5, 13) for f in (tau, lambda k: alpha(k, k - 2))]
    for g in cases:
        upper_empty = all(level_index(g, l) == 0 for l in range(g.depth - 1))
        assert wreath._upper_empty(g) == upper_empty, g
        assert in_W(g) == (upper_empty and in_G(g)), g
        assert is_type_T(g) == (upper_empty and is_type_C(g)), g


def test_w_is_elementary_abelian_and_normal():
    # every member is an involution, products stay inside, and conjugation
    # by anything in the ambient tree group lands back inside
    members = [g for g in all_portraits(3) if in_W(g)]
    for w in members:
        assert compose(w, w) == identity(3)
    for w1 in members:
        for w2 in members:
            assert in_W(compose(w1, w2))
    for b in gen_set_B(3):
        for w in members:
            assert in_W(compose(b, compose(w, inverse(b))))


def test_type_T_examples():
    assert is_type_T(tau(3))
    assert is_type_T(tau(4))
    assert not is_type_T(tau_at(3, {1, 2}))
    assert not is_type_T(identity(3))
    # upper-level labels disqualify T but not C
    combined = compose(alpha(3, 0), tau(3))
    assert not is_type_T(combined)
    assert is_type_C(combined)


def test_type_T_subset_of_C():
    for g in all_portraits(3):
        if is_type_T(g):
            assert is_type_C(g)


def test_products_of_T_leave_T_and_C():
    assert sum(map(is_type_T, all_portraits(3))) == 4
    assert claim("wreath/non-closure-of-T-and-C", seed=1729) is True


def test_squares_of_C_leave_C():
    assert sum(map(is_type_C, all_portraits(3))) == 32
    assert claim("wreath/non-closure-of-T-and-C", seed=1729) is True


def test_odd_word_count_rule():
    # no product of an even number of C elements lands in T (word lengths 2, 4)
    c_elements = [g for g in all_portraits(3) if is_type_C(g)]
    length2 = {compose(a, b).bits for a in c_elements for b in c_elements}
    assert all(not is_type_T(_from_bits(b)) for b in length2)
    length2_portraits = [_from_bits(b) for b in length2]
    for x in length2_portraits:
        for y in length2_portraits:
            assert not is_type_T(compose(x, y))


def _from_bits(bits):
    from sylow2.portrait import Portrait

    return Portrait(3, bits)


# -- semidirect split --------------------------------------------------------------

def test_split_examples():
    b, w = split_semidirect(tau(3))
    assert b == identity(3) and w == tau(3)
    b, w = split_semidirect(alpha(3, 0))
    assert b == alpha(3, 0) and w == identity(3)


def test_split_recomposition():
    g = compose(alpha(3, 0), tau(3))
    b, w = split_semidirect(g)
    assert in_W(w)
    assert not any(b.level_bits(2))
    assert compose(b, w) == g


def test_split_all_of_G3():
    for g in all_portraits(3):
        if not in_G(g):
            continue
        b, w = split_semidirect(g)
        assert in_W(w) and compose(b, w) == g


def test_split_rejects_non_members():
    with pytest.raises(ValueError):
        split_semidirect(alpha(3, 2))


# -- order formulas and diagonal bases ----------------------------------------------

def test_order_formula_values():
    assert order_formula(GroupKind("G", 4)) == 2**14
    assert order_formula(GroupKind("W", 3)) == 8
    assert order_formula(GroupKind("B", 3)) == 2**7
    with pytest.raises(ValueError):
        GroupKind("G", 1)
    with pytest.raises(ValueError):
        GroupKind("X", 3)


def test_diagonal_bases_B():
    assert len(enumerate_diagonal_bases("B", 2)) == count_diagonal_bases("B", 2) == 2
    assert len(enumerate_diagonal_bases("B", 3)) == count_diagonal_bases("B", 3) == 16


def test_diagonal_bases_G():
    assert len(enumerate_diagonal_bases("G", 2)) == count_diagonal_bases("G", 2) == 1
    # the k=3 count is fixed by exhaustive oracle enumeration
    assert len(enumerate_diagonal_bases("G", 3)) == count_diagonal_bases("G", 3) == 8


def test_diagonal_base_shape():
    for gens in enumerate_diagonal_bases("G", 3):
        assert len(gens) == 3
        assert is_type_T(gens[-1])
        for l, g in enumerate(gens):
            assert all(
                not any(g.level_bits(m)) for m in range(g.depth) if m != l
            )


@pytest.mark.slow
def test_diagonal_bases_depth4():
    assert len(enumerate_diagonal_bases("B", 4)) == count_diagonal_bases("B", 4)
    assert len(enumerate_diagonal_bases("G", 4)) == count_diagonal_bases("G", 4)


def test_diagonal_enumeration_capped():
    with pytest.raises(ValueError):
        enumerate_diagonal_bases("B", 5)


def test_diagonal_base_counts_closed_forms():
    for k in range(1, 13):
        assert count_diagonal_bases("B", k) == 2 ** (2**k - k - 1)
    for k in range(2, 13):
        assert count_diagonal_bases("G", k) == 2 ** (2**k - k - 2)


@pytest.mark.parametrize("call, message", [
    (lambda: count_diagonal_bases("W", 3),
     "diagonal bases exist for kinds B and G, not 'W'"),
    (lambda: count_diagonal_bases("B", 0), "kind B needs depth >= 1"),
    (lambda: count_diagonal_bases("G", 1), "kind G needs depth >= 2"),
    (lambda: enumerate_diagonal_bases("G", 1), "kind G needs depth >= 2"),
    (lambda: enumerate_diagonal_bases("B", 5), "diagonal enumeration is capped at depth 4"),
    (lambda: in_W(identity(1)), "W needs depth >= 2"),
    (lambda: next(all_portraits(0)), "depth must be >= 1 (the depth-0 tree is empty)"),
    (lambda: is_type_T(identity(1)), "type T needs depth >= 2"),
    (lambda: is_type_C(identity(1)), "type C needs depth >= 2"),
    (lambda: tau_at(1, [1]), "depth must be >= 2"),
    (lambda: gen_set_G(1), "G needs depth >= 2"),
    (lambda: in_G_recursive(identity(1)), "G is undefined at depth 1"),
    (lambda: leaf_group([]), "no generators"),
    # an explicit id where a message repeats keeps every case's id unique
    pytest.param(lambda: gen_set_B(0), "depth must be >= 1 (the depth-0 tree is empty)",
                 id="gen_set_B-0"),
    pytest.param(lambda: gen_set_B(-2), "depth must be >= 1 (the depth-0 tree is empty)",
                 id="gen_set_B--2"),
    # one depth check: a depth that is not an int is refused by every
    # constructor, with the text of Portrait
    pytest.param(lambda: alpha(0, 0), "depth must be >= 1 (the depth-0 tree is empty)",
                 id="alpha-0"),
    pytest.param(lambda: alpha(2.0, 0), "depth must be an int, got float", id="alpha-float"),
    pytest.param(lambda: gen_set_B(2.0), "depth must be an int, got float",
                 id="gen_set_B-float"),
    pytest.param(lambda: tau_at(True, [1]), "depth must be an int, got bool",
                 id="tau_at-bool"),
    pytest.param(lambda: gen_set_G(3.0), "depth must be an int, got float",
                 id="gen_set_G-float"),
    pytest.param(lambda: tau_at(2.0, [1]), "depth must be an int, got float",
                 id="tau_at-float"),
    pytest.param(lambda: next(all_portraits(2.0)), "depth must be an int, got float",
                 id="all_portraits-float"),
    pytest.param(lambda: count_diagonal_bases("B", 2.0), "depth must be an int, got float",
                 id="GroupKind-float"),
    pytest.param(lambda: order_formula(GroupKind("B", True)), "depth must be an int, got bool",
                 id="GroupKind-bool"),
])
def test_error_texts(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
