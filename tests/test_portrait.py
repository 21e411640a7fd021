import copy
import itertools
import pickle
import random
from collections import Counter
from itertools import combinations

import pytest

import sylow2
from conftest import (
    claim,
    oracle_leaf_permutation,
    portrait_cases,
    random_portrait,
    recorded,
)
from sylow2.portrait import (
    Portrait,
    Vertex,
    compose,
    distance,
    format_portrait,
    from_vertices,
    identity,
    inverse,
    labels_above,
    leaf_permutation,
    level_index,
    moved_subtree,
    parse_portrait,
    random_portrait_counts,
    section,
    vertex_image,
)
from sylow2.kernels import compose_labels, invert_labels, leaf_images
from sylow2.permgroup import format_cycles
from sylow2.wreath import alpha, all_portraits, tau


# -- construction and text format ------------------------------------------

def test_identity_is_all_zero():
    assert format_portrait(identity(2)) == "0/00"
    assert identity(4).is_identity()


@pytest.mark.parametrize("call, message", [
    (lambda: Vertex(-1, 1), "level must be >= 0"),
    (lambda: Portrait(0, b""), "depth must be >= 1 (the depth-0 tree is empty)"),
    (lambda: identity(2).level_bits(2), "level 2 outside 0..1"),
    (lambda: Portrait(True, b"\0"), "depth must be an int, got bool"),
    (lambda: Portrait(2.0, bytes(3)), "depth must be an int, got float"),
    (lambda: labels_above(identity(2), 3), "level 3 outside 0..2"),
    (lambda: labels_above(identity(2), -1), "level -1 outside 0..2"),
    (lambda: labels_above(identity(2), True), "level must be an int, got bool"),
])
def test_error_texts(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_depth_zero_rejected():
    with pytest.raises(ValueError):
        identity(0)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        from_vertices(0, [])
    # the draws check the depth before they touch the rng
    for draw in (lambda rng: random_portrait(rng, 0),
                 lambda rng: random_portrait(rng, -1),
                 lambda rng: random_portrait_counts(rng, 0, 5),
                 lambda rng: random_portrait_counts(rng, -1, 5)):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError) as info:
            draw(rng)
        assert str(info.value) == "depth must be >= 1 (the depth-0 tree is empty)"
        assert rng.getstate() == state


def test_from_vertices_inverts_active_vertices():
    for k in range(1, 4):
        for g in all_portraits(k):
            assert from_vertices(k, g.active_vertices()) == g
    rng = random.Random(31)
    for _ in range(50):
        g = random_portrait(rng, 8)
        assert from_vertices(8, g.active_vertices()) == g


def test_from_vertices_examples():
    v = Vertex(2, 3)
    assert format_portrait(from_vertices(3, [v])) == "0/00/0010"
    assert from_vertices(3, [v, v]) == from_vertices(3, [v])  # counted once
    assert from_vertices(3, []) == identity(3)
    with pytest.raises(ValueError, match="level 3 outside depth-3 portrait"):
        from_vertices(3, [Vertex(0, 1), Vertex(3, 1)])


def test_parse_format_examples():
    assert parse_portrait("1/00") == alpha(2, 0)
    assert format_portrait(tau(3)) == "0/00/1001"


_PARSE_ERRORS = {
    "": "empty portrait text",
    "1/0": "level 1 must have 2 bits, got 1",
    "2/00": "invalid characters in level '2'",
    "0/00/10": "level 2 must have 4 bits, got 2",
    "1//00": "level 1 must have 2 bits, got 0",
    # int() reads these as digits, and .encode() chokes on the lone
    # surrogate: all must fail the character check before any encoding
    "\u0661": "invalid characters in level '\u0661'",
    "\uff11": "invalid characters in level '\uff11'",
    "0/1 ": "invalid characters in level '1 '",
    "0/\ud8000": "invalid characters in level '\\ud8000'",  # repr escapes it
}


@pytest.mark.parametrize("text", list(_PARSE_ERRORS))
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError) as exc:
        parse_portrait(text)
    assert exc.type is ValueError  # not a UnicodeError
    assert str(exc.value) == _PARSE_ERRORS[text]


def _format_per_label(g):
    """Reference text form, one str() per label."""
    return "/".join(
        "".join(str(b) for b in g.level_bits(l)) for l in range(g.depth)
    )


def test_codec_matches_per_label_reference():
    rng = random.Random(4099)
    samples = [g for k in range(1, 5) for g in all_portraits(k)]
    samples += [random_portrait(rng, k) for k in range(1, 13) for _ in range(20)]
    for g in samples:
        text = _format_per_label(g)
        assert format_portrait(g) == text
        back = parse_portrait(text)
        assert back.depth == g.depth and back.bits == g.bits


def test_parse_format_roundtrip():
    for (g,) in portrait_cases(61, range(1, 7)):
        assert parse_portrait(format_portrait(g)) == g


def test_labels_validated():
    with pytest.raises(ValueError):
        Portrait(2, bytes([1, 0]))  # wrong length
    with pytest.raises(ValueError):
        Portrait(2, bytes([2, 0, 0]))  # not a bit
    with pytest.raises(ValueError):
        Portrait(2, bytes([255, 0, 0]))
    with pytest.raises(ValueError):
        Portrait(2, [0, 1, 0])  # labels must be bytes


# -- value semantics ---------------------------------------------------------

def test_equality_and_hash_are_those_of_the_fields():
    g, same = parse_portrait("1/01/0110"), Portrait(3, bytes([1, 0, 1, 0, 1, 1, 0]))
    assert g == same and g is not same and hash(g) == hash(same)
    assert hash(g) == hash((g.depth, g.bits))
    assert g != parse_portrait("1/01/0111")
    assert g != (g.depth, g.bits) and (g.depth, g.bits) != g
    assert g != format_portrait(g) and g != g.bits
    assert Counter([g, identity(3), same]) == {g: 2, identity(3): 1}
    match g:
        case Portrait(depth, bits):
            assert (depth, bits) == (3, same.bits)


def test_fields_are_read_only_and_slotted():
    g = tau(3)
    for name in ("depth", "bits", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 2)
    for name in ("depth", "bits"):
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g == tau(3)
    assert not hasattr(g, "__dict__")


def test_construction_validates_once(monkeypatch):
    with recorded(monkeypatch, Portrait, "__post_init__") as calls:
        g = Portrait(2, bytes(3))
    assert len(calls) == 1 and calls[0][0] is g


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_and_validated_again(monkeypatch, clone):
    g = parse_portrait("1/01/0110")
    with recorded(monkeypatch, Portrait, "__post_init__") as calls:
        back = clone(g)
    assert back == g and type(back) is Portrait
    assert len(calls) == 1 and calls[0][0] is back


def test_random_portrait_sequence_is_pinned():
    # one getrandbits(1) per label in storage order, so a seed fixes every bit
    rng = random.Random(2024)
    drawn = [format_portrait(random_portrait(rng, k)) for k in (1, 2, 3, 4, 5, 1, 3)]
    assert drawn == [
        "0",
        "0/11",
        "0/01/1011",
        "1/01/0111/00011110",
        "0/11/0101/11101110/1111101010101010",
        "0",
        "0/11/0100",
    ]
    assert rng.random() == 0.33082622546923457  # no extra draws


def _per_label_draw(rng, k):
    """The reference draw: one getrandbits(1) per label, in storage order."""
    return Portrait(k, bytes(rng.getrandbits(1) for _ in range(2**k - 1)))


@pytest.mark.parametrize("seed", [0, 1, 42, 1729, 2**40 + 3])
def test_bulk_draws_match_one_getrandbits_per_label(seed):
    for k in range(1, 13):
        bulk, reference = random.Random(seed), random.Random(seed)
        assert random_portrait(bulk, k) == _per_label_draw(reference, k)
        assert bulk.getstate() == reference.getstate()
        for count in (0, 1, 7, 2000 if k < 7 else 50):
            bulk, reference = random.Random(seed), random.Random(seed)
            assert random_portrait_counts(bulk, k, count) == Counter(
                random_portrait(reference, k) for _ in range(count)
            )
            assert bulk.getstate() == reference.getstate()


# -- compose / inverse ------------------------------------------------------

def test_compose_example_derived():
    # oracle: expand both leaf actions, compose pointwise, re-read labels
    g, h = parse_portrait("1/00"), parse_portrait("0/10")
    product = compose(g, h)
    assert format_portrait(product) == "1/10"
    lg = oracle_leaf_permutation(g)
    lh = oracle_leaf_permutation(h)
    assert leaf_permutation(product).images == tuple(
        lg.images[lh.images[i]] for i in range(4)
    )


def test_compose_identity_law():
    g = parse_portrait("0/10/1100")
    assert compose(identity(3), g) == g
    assert compose(g, identity(3)) == g


def test_tau_squares_to_identity():
    assert compose(tau(3), tau(3)) == identity(3)


def test_compose_depth_mismatch():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


def test_inverse_examples():
    assert inverse(parse_portrait("1/00")) == parse_portrait("1/00")
    assert inverse(identity(4)) == identity(4)
    # derived: the unique x with x * "1/10" = identity among all 8 portraits
    target = parse_portrait("1/10")
    solutions = [
        g for g in all_portraits(2) if compose(g, target) == identity(2)
    ]
    assert solutions == [parse_portrait("1/01")]
    assert inverse(target) == parse_portrait("1/01")


def test_inverse_law():
    for (g,) in portrait_cases(62, range(2, 9)):
        assert compose(g, inverse(g)) == identity(g.depth)
        assert compose(inverse(g), g) == identity(g.depth)


def test_associativity():
    for a, b, c in portrait_cases(63, range(2, 9), arity=3):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


# -- leaf action -------------------------------------------------------------

def test_leaf_permutation_examples():
    assert format_cycles(leaf_permutation(alpha(3, 0))) == "(1,5)(2,6)(3,7)(4,8)"
    assert format_cycles(leaf_permutation(tau(3))) == "(1,2)(7,8)"
    assert leaf_permutation(identity(2)).images == (0, 1, 2, 3)


def test_leaf_permutation_matches_recursive_oracle():
    # every depth-3 pair: products and inverses against the recursive oracle,
    # and their labels against the path walk of vertex_image, which shares
    # no code with the kernels
    depth3 = list(all_portraits(3))
    vertices = [Vertex(l, j + 1) for l in range(3) for j in range(1 << l)]

    def labels(g):
        return [g.level_bits(v.level)[v.position - 1] for v in vertices]

    def moved(g):  # images of the vertices, as indices into ``vertices``
        return [vertices.index(vertex_image(g, v)) for v in vertices]

    oracle = [oracle_leaf_permutation(g) for g in depth3]
    label_of = [labels(g) for g in depth3]
    image_of = [moved(g) for g in depth3]
    for a, g in enumerate(depth3):
        assert leaf_permutation(g) == oracle[a]
        g_inv = inverse(g)
        assert leaf_permutation(g_inv) == oracle[a].inverse()
        inv_labels = labels(g_inv)  # label of g^-1 at g(v) is g's label at v
        assert [inv_labels[image_of[a][v]] for v in range(7)] == label_of[a]
        for b, h in enumerate(depth3):
            gh = compose(g, h)
            assert leaf_permutation(gh) == oracle[a] * oracle[b]
            assert labels(gh) == [
                label_of[b][v] ^ label_of[a][image_of[b][v]] for v in range(7)
            ]
    # past 256 leaves too, and through products and inverses, on the one
    # kernel implementation there is
    assert sylow2.BACKEND == "python"
    rng = random.Random(2017)
    for k in range(1, 13):
        for _ in range(6):
            g, h = random_portrait(rng, k), random_portrait(rng, k)
            pg, ph = oracle_leaf_permutation(g), oracle_leaf_permutation(h)
            assert leaf_permutation(g) == pg
            assert leaf_permutation(compose(g, h)) == pg * ph
            assert leaf_permutation(inverse(g)) == pg.inverse()


# -- label kernels against their two-pass formulas -----------------------------

def reference_level_images(k, labels):
    """The kernels' former walk: the image lists of levels 0..k, built
    eagerly from a table that is read, never written."""
    img = [0]
    levels = [img]
    i = 0  # heap index of the label being read
    for l in range(k):
        nxt = [0] * (2 << l)
        j = 0
        for p in img:
            t = 2 * p + labels[i]
            nxt[j] = t
            nxt[j + 1] = t ^ 1
            j += 2
            i += 1
        levels.append(nxt)
        img = nxt
    return levels


def reference_compose_labels(k, g, h):
    """compose_labels's former formula: after the walk, a per-vertex pass
    that reads h's label and g's label at the vertex's image and XORs them."""
    out = bytearray(len(h))
    for img in reference_level_images(k - 1, h):
        base = len(img) - 1
        for i, p in enumerate(img, base):
            out[i] = h[i] ^ g[base + p]
    return bytes(out)


def reference_invert_labels(k, g):
    """invert_labels's former formula: g's label at v stored at g(v)."""
    out = bytearray(len(g))
    for img in reference_level_images(k - 1, g):
        base = len(img) - 1
        for i, p in enumerate(img, base):
            out[base + p] = g[i]
    return bytes(out)


def reference_leaf_images(k, g):
    """leaf_images's former formula: the last list of the eager walk."""
    return tuple(reference_level_images(k, g)[k])


def label_kernel_cases(arity):
    """(k, table, ...) with ``arity`` label tables of depth k: every tuple at
    depths 1..3, then the tuples of ``portrait_cases`` at depths 4..12."""
    for k in range(1, 4):
        tables = [g.bits for g in all_portraits(k)]
        yield from ((k, *case) for case in itertools.product(tables, repeat=arity))
    for case in portrait_cases(39, range(4, 13), arity):
        yield (case[0].depth, *(g.bits for g in case))


def test_label_kernels_match_the_two_pass_reference():
    # the root's level has width 1, where an itemgetter gather would return
    # a bare int; every depth goes through it
    for k, g, h in label_kernel_cases(2):
        assert compose_labels(k, g, h) == reference_compose_labels(k, g, h), (k, g, h)
    for k, g in label_kernel_cases(1):
        assert invert_labels(k, g) == reference_invert_labels(k, g), (k, g)
        assert leaf_images(k, g) == reference_leaf_images(k, g), (k, g)


def test_invert_labels_is_an_involution_and_an_inverse():
    for k, g in label_kernel_cases(1):
        g_inv = invert_labels(k, g)
        assert type(g_inv) is bytes and invert_labels(k, g_inv) == g, (k, g)
        assert compose_labels(k, g, g_inv) == bytes(len(g)), (k, g)
        assert compose_labels(k, g_inv, g) == bytes(len(g)), (k, g)


def test_leaf_homomorphism_exhaustive_k2():
    # every depth-2 pair, then 100 sampled pairs at depths 2..8
    assert claim("portrait/leaf-homomorphism", seed=1729) is True


def test_leaf_homomorphism_random():
    for g, h in portrait_cases(64, range(2, 9), arity=2):
        assert leaf_permutation(compose(g, h)) == leaf_permutation(g) * leaf_permutation(h)


def test_sign_law_exhaustive_small():
    # every portrait of depth 1 to 3, then 200 sampled at depth 8
    assert claim("portrait/sign-law", seed=1729) is True


def test_sign_law_random_k8():
    for (g,) in portrait_cases(65, [8]):
        expected = -1 if level_index(g, 7) % 2 else 1
        assert leaf_permutation(g).sign() == expected


def test_single_label_cycle_type_exhaustive():
    # one active label at level l: 2**(k-l-1) transpositions, rest fixed
    assert claim("portrait/single-label-cycle-type", seed=1729) is True
    for k in range(1, 7):
        assert leaf_permutation(from_vertices(k, [Vertex(0, 1)])).degree == 1 << k


# -- vertex-level operations -------------------------------------------------

def test_vertex_image_root_swap():
    # the subtree with leaves {1,2} lands on the subtree with leaves {5,6},
    # i.e. level-2 position 1 goes to position 3 (checked by 8-leaf expansion)
    assert vertex_image(alpha(3, 0), Vertex(2, 1)) == Vertex(2, 3)
    lp = leaf_permutation(alpha(3, 0))
    assert {lp.images[0], lp.images[1]} == {4, 5}


def test_vertex_image_identity_and_tau():
    g = parse_portrait("0/10/0110")
    for v in (Vertex(0, 1), Vertex(1, 2), Vertex(2, 3)):
        assert vertex_image(identity(3), v) == v
    assert vertex_image(tau(3), Vertex(1, 2)) == Vertex(1, 2)


def test_vertex_image_out_of_range():
    with pytest.raises(ValueError):
        vertex_image(identity(2), Vertex(2, 1))
    with pytest.raises(ValueError):
        Vertex(1, 3)


def _assert_vertex_image_matches_leaves(g, level, pos):
    # every leaf under v must land under the image of v
    k = g.depth
    image = vertex_image(g, Vertex(level, pos + 1))
    images = leaf_permutation(g).images
    for leaf in range(pos << (k - level), (pos + 1) << (k - level)):
        assert images[leaf] >> (k - level) == image.position - 1


def test_vertex_image_consistent_with_leaf_action():
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randrange(2, 7)
        g = random_portrait(rng, k)
        level = rng.randrange(1, k)
        _assert_vertex_image_matches_leaves(g, level, rng.randrange(1 << level))
    # every vertex of every portrait of depth 1-3, level 0 included
    for k in (1, 2, 3):
        for g in all_portraits(k):
            for level in range(k):
                for pos in range(1 << level):
                    _assert_vertex_image_matches_leaves(g, level, pos)


def test_level_index_examples():
    assert level_index(tau(4), 3) == 2
    for l in range(3):
        assert level_index(alpha(3, l), l) == 1
        assert sum(level_index(alpha(3, l), m) for m in range(3)) == 1
    assert all(level_index(identity(3), l) == 0 for l in range(3))
    with pytest.raises(ValueError):
        level_index(identity(3), 3)


def test_labels_above_sums_the_levels_above():
    for (g,) in portrait_cases(67, range(1, 9)):
        counts = [level_index(g, l) for l in range(g.depth)]
        got = [labels_above(g, l) for l in range(g.depth + 1)]
        assert got == [sum(counts[:l]) for l in range(g.depth + 1)]
        assert got[0] == 0 and got[-1] == len(g.active_vertices())
    # the first vertex of level l is not above level l
    for k in range(1, 7):
        for l in range(k):
            assert labels_above(alpha(k, l), l) == 0
            assert labels_above(alpha(k, l), l + 1) == 1


def test_section_examples():
    assert section(alpha(3, 0), Vertex(1, 1)) == identity(2)
    assert format_portrait(section(tau(3), Vertex(1, 1))) == "0/10"
    assert format_portrait(section(tau(3), Vertex(1, 2))) == "0/01"
    g = parse_portrait("1/01/0110")
    assert section(g, Vertex(0, 1)) == g
    with pytest.raises(ValueError):
        section(g, Vertex(3, 1))


def test_section_recomposition():
    # leaf action of a section agrees with the parent acting inside the block
    rng = random.Random(5)
    for _ in range(50):
        g = random_portrait(rng, 4)
        for pos in range(2):
            sub = section(g, Vertex(1, pos + 1))
            lp = leaf_permutation(g)
            target = vertex_image(g, Vertex(1, pos + 1)).position - 1
            for leaf in range(8):
                got = lp.images[pos * 8 + leaf]
                assert got == target * 8 + leaf_permutation(sub).images[leaf]


# -- moved subtree -----------------------------------------------------------

def _sparse_portraits(seed, count):
    """Depth 4..12 portraits with 0..4 active vertices, all below one
    random vertex, so that the subtree holding them is often deep."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randrange(4, 13)
        top = rng.randrange(k)
        first = rng.randrange(1 << top)  # 0-based position of the shared root
        vertices = []
        for _ in range(rng.randrange(5)):
            l = rng.randrange(top, k)
            j = (first << (l - top)) + rng.randrange(1 << (l - top))
            vertices.append(Vertex(l, j + 1))
        yield from_vertices(k, vertices)


def _moved_subtree_reference(g):
    """Deepest vertex that is an ancestor of, or equal to, every active
    vertex, from ancestor sets."""
    def ancestors(v):
        j = v.position - 1
        return {Vertex(l, (j >> (v.level - l)) + 1) for l in range(v.level + 1)}

    common = None
    for v in g.active_vertices():
        common = ancestors(v) if common is None else common & ancestors(v)
    return None if common is None else max(common, key=lambda v: v.level)


def test_moved_subtree_examples():
    assert moved_subtree(identity(4)) is None
    assert moved_subtree(tau(3)) == Vertex(0, 1)
    assert moved_subtree(alpha(5, 2)) == Vertex(2, 1)
    assert moved_subtree(parse_portrait("0/00/0110")) == Vertex(0, 1)
    assert moved_subtree(parse_portrait("0/00/1100")) == Vertex(1, 1)
    assert moved_subtree(parse_portrait("0/01/0001")) == Vertex(1, 2)
    assert moved_subtree(parse_portrait("0/00/0001")) == Vertex(2, 4)


def test_moved_subtree_matches_ancestor_set_reference():
    cases = [g for k in (1, 2, 3) for g in all_portraits(k)]
    assert len(cases) == 138
    cases += _sparse_portraits(41, 2000)
    for g in cases:
        assert moved_subtree(g) == _moved_subtree_reference(g)


def test_leaf_action_lies_in_the_moved_subtree():
    # outside the subtree every leaf is fixed; inside, g acts as its section
    for g in [*all_portraits(3), *_sparse_portraits(43, 500)]:
        images = leaf_permutation(g).images
        v = moved_subtree(g)
        if v is None:
            assert images == tuple(range(1 << g.depth))
            continue
        height = g.depth - v.level
        start = (v.position - 1) << height
        inside = range(start, start + (1 << height))
        assert all(images[x] == x for x in range(len(images)) if x not in inside)
        assert images[start:start + (1 << height)] == tuple(
            start + x for x in leaf_permutation(section(g, v)).images
        )


# -- distance ----------------------------------------------------------------

def test_distance_examples():
    for k in (2, 3, 4, 6):
        assert distance(tau(k)) == 2 * (k - 1)
    assert distance(identity(5)) == 0
    assert distance(parse_portrait("0/11")) == 2
    assert distance(parse_portrait("1/00")) == 0  # single active vertex


def _distance_reference(g):
    """Deepest shared (level, position) ancestor of each pair, from sets."""
    def ancestors(v):
        j = v.position - 1
        return {(l, (j >> (v.level - l)) + 1) for l in range(v.level + 1)}

    active = [(v.level, ancestors(v)) for v in g.active_vertices()]
    return max(
        (la + lb - 2 * max(l for l, _ in sa & sb)
         for (la, sa), (lb, sb) in combinations(active, 2)),
        default=0,
    )


def test_distance_matches_ancestor_set_reference():
    for k in (1, 2, 3):
        for g in all_portraits(k):
            assert distance(g) == _distance_reference(g)
    rng = random.Random(37)
    for _ in range(2000):
        k = rng.randrange(4, 10)
        # a few active vertices anywhere, so that every distance occurs
        g = from_vertices(k, [
            Vertex(l, rng.randrange(1 << l) + 1)
            for l in (rng.randrange(k) for _ in range(rng.randrange(8)))
        ])
        assert distance(g) == _distance_reference(g)


def test_distance_isometry_random():
    # conjugating by labels strictly above the active level preserves distance
    assert claim("portrait/distance-isometry", seed=23) is True
