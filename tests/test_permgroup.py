import ast
import bisect
import collections
import inspect
import itertools
import random
import sys
from pathlib import Path

import pytest

from conftest import bruteforce_closure
from sylow2 import cli, composite, derived, permgroup, verify, wreath
from sylow2.composite import build_gens_A, build_gens_S, order_syl2_S
from sylow2.kernels import inv_perm, mult_perm
from sylow2.permgroup import (
    PermGroup,
    Permutation,
    derived_subgroup,
    format_cycles,
    frattini_of_2group,
    group_from_generators,
    normal_closure,
    parse_cycles,
    rank_of_2group,
)
from sylow2.portrait import leaf_permutation
from sylow2.wreath import gen_set_B, gen_set_G


def perms(texts, degree):
    return [parse_cycles(t, degree) for t in texts]


A14_PUBLISHED_GENS = [
    "(11,12)(13,14)",
    "(9,11)(10,12)",
    "(7,8)(9,10)",
    "(1,5)(2,6)(3,7)(4,8)",
    "(1,3)(2,4)",
]
S4_GENS = ["(1,2,3,4)", "(1,2)"]


class ClosureGroup(PermGroup):
    """The reference: PermGroup's chain and queries, built by the
    deterministic Schreier-Sims closure, so any group is accepted.  Frattini,
    derived and rank use it all the way down: normal_closure builds type(G).
    With an ambient set, _adjoin also adjoins the conjugates by it of every
    element that grew the group, so normal closures are true ones in any
    group, not only in a 2-group."""

    def __init__(self, degree, generators=()):
        self._sifted = set()  # (level, point, generator index) done
        super().__init__(degree, generators)

    def _adjoin(self, raw, ambient=()):
        grew = []
        queue = [raw]
        while queue:
            raw = queue.pop()
            residue, level = self._strip(raw)
            if residue == self._identity:
                continue
            while residue != self._identity:
                self._install(residue, level)
                residue, level = self._unsifted_schreier_generator()
            grew.append(raw)
            queue.extend(mult_perm(g, mult_perm(raw, g_inv)) for g, g_inv in ambient)
        return grew

    def _unsifted_schreier_generator(self):
        """Residue and stuck level of the first Schreier generator that does
        not sift; deepest level first keeps the sweep finite."""
        for i in range(len(self._bases) - 1, -1, -1):
            # level i's strong generators: the installed elements that fix
            # bases[:i], in the order they were installed
            fixed = self._bases[:i]
            gens = [g for g in self._extensions if all(g[b] == b for b in fixed)]
            transversal = self._transversals[i]
            points = list(transversal)
            for p in points:  # grows until the orbit is complete
                up = inv_perm(transversal[p])
                for gi, s in enumerate(gens):
                    if s[p] not in transversal:
                        transversal[s[p]] = inv_perm(mult_perm(s, up))
                        points.append(s[p])
                    elif (i, p, gi) not in self._sifted:
                        self._sifted.add((i, p, gi))
                        schreier = mult_perm(transversal[s[p]], mult_perm(s, up))
                        residue, level = self._strip(schreier)  # fixes bases[:i + 1]
                        if residue != self._identity:
                            return residue, level
        return self._identity, 0


def closure_only(degree, gens):
    """The closure reference for a group that PermGroup must refuse."""
    with pytest.raises(ValueError, match="not a 2-group"):
        PermGroup(degree, gens)
    return ClosureGroup(degree, gens)


# -- cycle text --------------------------------------------------------------

def test_parse_cycles_examples():
    assert parse_cycles("(1,3)(2,4)", 4).images == (2, 3, 0, 1)
    assert format_cycles(Permutation.identity(5)) == "e"
    p = parse_cycles("(1,2,3)", 8)
    assert p.images[3:] == (3, 4, 5, 6, 7)
    assert p.cycles() == [(0, 1, 2)]


def test_parse_cycles_roundtrip():
    for text in ["(1,2)", "(1,5)(2,6)(3,7)(4,8)", "(2,7,3)(4,5)", "e"]:
        assert format_cycles(parse_cycles(text, 8)) == text


@pytest.mark.parametrize(
    "text",
    [
        "(1,1)", "(1,2)(2,3)", "(0,1)", "(1,9)", "(1,2", "1,2)", "(x,y)",
        # int() would read these as points 3, 1, 1 and 2
        "(0_3,2)", "(+1,2)", "(\u0661,2)", "(1,\t2)",
    ],
)
def test_parse_cycles_rejects(text):
    with pytest.raises(ValueError):
        parse_cycles(text, 8)


def test_parse_cycles_names_the_bad_point():
    with pytest.raises(ValueError, match=r"^invalid point '' in '\(1,2,\)'$"):
        parse_cycles("(1,2,)", 8)


def reference_cycle_text(p):
    """Cycle text as an index walk that marks every point it visits, then
    one generator expression per cycle."""
    seen = [False] * p.degree
    cycles = []
    for i in range(p.degree):
        if seen[i] or p.images[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p.images[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p.images[j]
        cycles.append(tuple(cyc))
    if not cycles:
        return "e"
    return "".join("(" + ",".join(str(x + 1) for x in cyc) + ")" for cyc in cycles)


def test_cycles_edge_cases():
    assert Permutation(()).cycles() == []
    assert format_cycles(Permutation(())) == "e"
    assert Permutation((0,)).cycles() == []
    assert format_cycles(Permutation((0,))) == "e"
    assert Permutation.identity(7).cycles() == []
    # 0 -> 3 -> 1 -> 2 -> 0 and 4 -> 5 -> 4: each cycle starts at its minimum
    p = Permutation((3, 2, 0, 1, 5, 4))
    assert p.cycles() == [(0, 3, 1, 2), (4, 5)]
    # written from 4, the cycle reaches its minimum last; the text starts at 1
    q = parse_cycles("(4,3,2,1)", 5)
    assert q.cycles() == [(0, 3, 2, 1)]
    assert format_cycles(q) == "(1,4,3,2)"


def test_cycle_text_matches_reference():
    rng = random.Random(17)
    samples = []
    for degree in range(1, 301):
        images = list(range(degree))
        rng.shuffle(images)
        samples.append(Permutation(tuple(images)))
    for k in (1, 2, 3):
        samples += [leaf_permutation(g) for g in wreath.all_portraits(k)]
    for n in [*range(1, 301), 1023, 1024, 4095, 4096]:
        samples += build_gens_A(n) + build_gens_S(n)
    for p in samples:
        assert format_cycles(p) == reference_cycle_text(p)


# -- arithmetic ---------------------------------------------------------------

def test_sign_examples():
    assert parse_cycles("(1,2)", 2).sign() == -1
    assert parse_cycles("(1,2)(7,8)", 8).sign() == 1
    assert parse_cycles("(1,2,3)", 3).sign() == 1


def inversion_parity(images):
    """Parity of the number of pairs i < j with images[i] > images[j]."""
    before = []
    inversions = 0
    for v in images:
        inversions += len(before) - bisect.bisect(before, v)
        bisect.insort(before, v)
    return inversions & 1


def test_sign_matches_cycle_parity_random():
    rng = random.Random(5)
    for degree in range(1, 65):
        for _ in range(5):
            images = list(range(degree))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            parity = sum(len(c) - 1 for c in p.cycles()) % 2
            assert p.sign() == (-1 if parity else 1)
    # a reference that walks no cycle: the parity of the inversion count
    for degree in range(7):
        for images in itertools.permutations(range(degree)):
            sign = Permutation(images).sign()
            assert sign == (-1 if inversion_parity(images) else 1)
    for degree in range(1, 301):
        images = list(range(degree))
        rng.shuffle(images)
        sign = Permutation(tuple(images)).sign()
        assert sign == (-1 if inversion_parity(images) else 1)


def test_multiply_is_left_action():
    # q applies first: (p*q)(x) = p(q(x)); pointwise this sends 1->2->3->1
    p, q = parse_cycles("(1,2)", 3), parse_cycles("(2,3)", 3)
    assert format_cycles(p * q) == "(1,2,3)"
    for x in range(3):
        assert (p * q).images[x] == p.images[q.images[x]]


def test_multiply_degree_mismatch():
    with pytest.raises(ValueError):
        parse_cycles("(1,2)", 2) * parse_cycles("(1,2)", 3)


def test_invert():
    p = parse_cycles("(1,2,3)", 4)
    assert p * p.inverse() == Permutation.identity(4)
    assert p.inverse() == parse_cycles("(1,3,2)", 4)


def test_cycle_type():
    assert parse_cycles("(1,2)(3,4,5)", 8).cycles() == [(0, 1), (2, 3, 4)]


def test_repr_of_images_that_failed_validation():
    # a traceback reprs the instance whose __post_init__ raised; the cycle
    # walk would never return on images that are not a bijection
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", (1, 2, 1))
    assert repr(p) == "Permutation(images=(1, 2, 1))"
    assert repr(parse_cycles("(1,3)", 4)) == "Permutation('(1,3)', degree=4)"


def test_permutation_validated():
    # a list of images would compare unequal to the same tuple and could not
    # key a dict, so it is refused like any other malformed images
    with pytest.raises(ValueError, match="images must be a tuple, got list"):
        Permutation([1, 0])
    for images in ((1, 2), (0, 0)):  # a point outside 0..n-1, a repeated image
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation(images)


@pytest.mark.parametrize("call, message", [
    (lambda: parse_cycles("(1,(2)", 4), "malformed parentheses in '(1,(2)'"),
    (lambda: parse_cycles("(1)", 4), "cycle too short in '(1)'"),
    (lambda: parse_cycles("e", -1), "degree must be >= 0, got -1"),
    (lambda: Permutation.identity(-3), "degree must be >= 0, got -3"),
    (lambda: PermGroup(0), "degree must be positive"),
    (lambda: group_from_generators([]), "no generators"),
    (lambda: normal_closure(PermGroup(4), [Permutation.identity(3)]), "degree mismatch"),
])
def test_error_texts(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# -- stabilizer chain ---------------------------------------------------------

def test_order_s4():
    assert closure_only(4, perms(S4_GENS, 4)).order == 24


def test_order_klein_four():
    assert group_from_generators(perms(["(1,3)(2,4)", "(1,2)(3,4)"], 4)).order == 4


def test_order_a14_published_generators():
    G = group_from_generators(perms(A14_PUBLISHED_GENS, 14))
    assert G.order == 2**10


def test_empty_generator_list_gives_trivial_group():
    G = PermGroup(5)
    assert G.order == 1
    assert G.contains(Permutation.identity(5))


def test_group_from_generators_is_the_one_list_to_group_builder():
    with pytest.raises(ValueError) as direct:
        group_from_generators([])
    with pytest.raises(ValueError) as via_leaves:
        wreath.leaf_group([])
    assert str(direct.value) == str(via_leaves.value) == "no generators"
    for gens in (perms(A14_PUBLISHED_GENS, 14), perms(["(1,2,3,4)", "(1,3)"], 4),
                 build_gens_A(12), [leaf_permutation(g) for g in gen_set_G(4)]):
        assert group_from_generators(gens).order == PermGroup(gens[0].degree, gens).order


def test_order_matches_bruteforce_closure():
    cases = [
        (["(1,2,3,4)", "(1,2)"], 4),
        (["(1,2,3,4)", "(1,3)"], 4),
        (["(1,3)(2,4)", "(1,2)(3,4)"], 4),
        (["(1,2,3)", "(2,3,4)"], 4),
        (["(1,2,3,4,5,6)"], 6),
        (["(1,2)", "(3,4)", "(5,6)"], 6),
    ]
    for texts, degree in cases:
        gens = perms(texts, degree)
        order = len(bruteforce_closure(gens))
        if order & (order - 1):  # S4, A4 and C6 are not 2-groups
            assert closure_only(degree, gens).order == order
        else:
            assert PermGroup(degree, gens).order == order
            assert ClosureGroup(degree, gens).order == order
    for k, gen_set in ((2, gen_set_B(2)), (3, gen_set_B(3)), (3, gen_set_G(3))):
        gens = [leaf_permutation(g) for g in gen_set]
        assert group_from_generators(gens).order == len(bruteforce_closure(gens))


def test_contains_examples():
    V4 = group_from_generators(perms(["(1,3)(2,4)", "(1,2)(3,4)"], 4))
    assert V4.contains(parse_cycles("(1,3)(2,4)", 4))
    assert V4.contains(parse_cycles("(1,4)(2,3)", 4))
    assert not V4.contains(parse_cycles("(1,2)", 4))
    C3 = closure_only(3, [parse_cycles("(1,2,3)", 3)])
    assert C3.contains(parse_cycles("(1,3,2)", 3))


def test_contains_agrees_with_enumeration():
    from itertools import permutations

    gens = perms(["(1,2,3,4)", "(1,3)"], 4)
    D4 = group_from_generators(gens)
    members = bruteforce_closure(gens)
    for images in permutations(range(4)):
        assert D4.contains(Permutation(images)) == (images in members)


def test_contains_degree_mismatch():
    G = group_from_generators(perms(["(1,2)"], 2))
    with pytest.raises(ValueError):
        G.contains(parse_cycles("(1,2)", 3))


def test_construction_degree_mismatch():
    with pytest.raises(ValueError):
        PermGroup(3, [parse_cycles("(1,2)", 2)])


def test_every_generator_is_a_member():
    S4 = closure_only(4, perms(S4_GENS, 4))
    for G in (S4, group_from_generators(perms(A14_PUBLISHED_GENS, 14))):
        assert all(G.contains(g) for g in G.generators)


# -- normal closure, derived, Frattini ----------------------------------------

def test_normal_closure_examples():
    S4 = closure_only(4, perms(S4_GENS, 4))
    assert normal_closure(S4, [parse_cycles("(1,2,3)", 4)]).order == 12
    assert normal_closure(S4, []).order == 1
    D4 = group_from_generators(perms(["(1,2,3,4)", "(1,3)"], 4))
    assert normal_closure(D4, [parse_cycles("(1,3)(2,4)", 4)]).order == 2


def test_derived_subgroup_examples():
    S3 = closure_only(3, perms(["(1,2,3)", "(1,2)"], 3))
    assert derived_subgroup(S3).order == 3
    V4 = group_from_generators(perms(["(1,3)(2,4)", "(1,2)(3,4)"], 4))
    assert derived_subgroup(V4).order == 1
    G3 = group_from_generators([leaf_permutation(g) for g in gen_set_G(3)])
    assert derived_subgroup(G3).order == 8


def test_frattini_examples():
    V4 = group_from_generators(perms(["(1,3)(2,4)", "(1,2)(3,4)"], 4))
    assert frattini_of_2group(V4).order == 1
    D4 = group_from_generators(perms(["(1,2,3,4)", "(1,3)"], 4))
    assert frattini_of_2group(D4).order == 2
    C4 = group_from_generators(perms(["(1,2,3,4)"], 4))
    assert frattini_of_2group(C4).order == 2


def test_frattini_rejects_non_2group():
    # a PermGroup is a 2-group, so S3 is refused before either call starts
    for f in (frattini_of_2group, rank_of_2group):
        with pytest.raises(ValueError, match="not a 2-group"):
            f(group_from_generators(perms(["(1,2,3)", "(1,2)"], 3)))


def test_frattini_is_normal_with_elementary_abelian_quotient():
    for texts, degree in [
        (["(1,2,3,4)", "(1,3)"], 4),
        (["(1,2,3,4,5,6,7,8)"], 8),
    ]:
        G = group_from_generators(perms(texts, degree))
        phi = frattini_of_2group(G)
        for a in G.generators:
            for s in phi.generators:
                assert phi.contains(a * s * a.inverse())
        for g in G.elements(512):
            assert phi.contains(g * g)
        for a in G.generators:
            for b in G.generators:
                assert phi.contains(a * b * a.inverse() * b.inverse())


def test_frattini_of_tree_group():
    G3 = group_from_generators([leaf_permutation(g) for g in gen_set_G(3)])
    phi = frattini_of_2group(G3)
    assert phi.order == 8
    assert G3.order // phi.order == 2**3


def test_rank_examples():
    assert rank_of_2group(group_from_generators(perms(["(1,2)", "(3,4)"], 4))) == 2
    assert rank_of_2group(group_from_generators(perms(A14_PUBLISHED_GENS, 14))) == 5
    assert rank_of_2group(PermGroup(3)) == 0


def test_enumerate_elements():
    V4 = group_from_generators(perms(["(1,3)(2,4)", "(1,2)(3,4)"], 4))
    elements = V4.elements(10)
    assert len(elements) == 4
    assert len({e.images for e in elements}) == 4
    B3 = group_from_generators([leaf_permutation(g) for g in gen_set_B(3)])
    assert len(B3.elements(200)) == 128
    with pytest.raises(ValueError):
        closure_only(4, perms(S4_GENS, 4)).elements(3)


def test_enumeration_matches_bruteforce_membership():
    gens = [leaf_permutation(g) for g in gen_set_G(3)]
    G3 = group_from_generators(gens)
    assert {e.images for e in G3.elements(100)} == bruteforce_closure(gens)


def test_elements_order_is_pinned():
    # elements() keeps its listing order; pinned without the closure
    # reference, which shares elements() with the chain it checks
    G = group_from_generators(perms(["(1,2,3,4)", "(1,3)"], 4))
    assert [str(g) for g in G.elements(8)] == [
        "e", "(2,4)", "(1,3)(2,4)", "(1,3)",
        "(1,2,3,4)", "(1,2)(3,4)", "(1,4,3,2)", "(1,4)(2,3)",
    ]


# -- index-2 chains against the Schreier-Sims closure --------------------------

def random_perms(degree, seed, count=50):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        images = list(range(degree))
        rng.shuffle(images)
        out.append(Permutation(tuple(images)))
    return out


def membership_probes(gens, randoms):
    """The generators, products of generators, and the given randoms."""
    return list(gens) + [a * b for a in gens[:3] for b in gens[-3:]] + randoms


def assert_matches_closure(gens, degree, randoms):
    """Order, Frattini rank and membership of generators, of products of
    generators and of the given random permutations, all as the closure;
    the whole group too, up to 4096 elements."""
    fast = PermGroup(degree, gens)  # every input here is a 2-group
    ref = ClosureGroup(degree, gens)
    assert fast.order == ref.order
    assert rank_of_2group(fast) == rank_of_2group(ref)
    for p in membership_probes(gens, randoms):
        assert fast.contains(p) == ref.contains(p)
    if fast.order <= 4096:
        got = {e.images for e in fast.elements(4096)}
        assert got == {e.images for e in ref.elements(4096)}
        assert len(got) == fast.order


@pytest.mark.parametrize("n", range(1, 33))
def test_composite_chains_match_closure(n):
    randoms = random_perms(n, seed=n)
    for gens in (build_gens_A(n), build_gens_S(n)):
        assert_matches_closure(gens, n, randoms)


RANDOM_2GROUP_DEGREES = [8, 12, 16, 24]


def random_2group_sets(n, randoms):
    """Ten generating sets of subgroups generated by random words in the
    Sylow 2-subgroup's generators, on points relabelled by a random
    permutation."""
    rng = random.Random(n)
    sylow = build_gens_S(n)
    out = []
    for relabel in randoms[:10]:
        gens = []
        for _ in range(rng.randrange(1, 4)):
            g = Permutation.identity(n)
            for _ in range(rng.randrange(1, 8)):
                g = g * rng.choice(sylow)
            gens.append(relabel * g * relabel.inverse())
        out.append(gens)
    return out


@pytest.mark.parametrize("n", RANDOM_2GROUP_DEGREES)
def test_random_2groups_match_closure(n):
    randoms = random_perms(n, seed=n)
    for gens in random_2group_sets(n, randoms):
        assert_matches_closure(gens, n, randoms)


def _diagonal_sets(kind, k):
    return [
        [leaf_permutation(g) for g in gens]
        for gens in wreath._diagonal_candidates(kind, k)
    ]


def test_chain_levels_store_inverse_representatives():
    # checked on PermGroup alone, since ClosureGroup shares the format: at
    # level i every stored u^-1 is a permutation that maps its orbit point
    # to bases[i] and fixes bases[:i]
    cases = [(n, composite.build_gens(kind, n)) for kind in "AS" for n in range(1, 33)]
    cases += [(8, gens) for kind in "BG" for gens in _diagonal_sets(kind, 3)]
    for degree, gens in cases:
        G = PermGroup(degree, gens)
        bases = G.base()
        assert len(G._transversals) == len(bases)
        for i, transversal in enumerate(G._transversals):
            assert transversal[bases[i]] == G._identity
            for point, u_inv in transversal.items():
                assert sorted(u_inv) == list(range(degree))
                assert u_inv[point] == bases[i]
                assert all(u_inv[b] == b for b in bases[:i])


def test_diagonal_chains_match_closure_depth_2_3():
    cases = [gens for kind in "BG" for k in (2, 3) for gens in _diagonal_sets(kind, k)]
    assert len(cases) == 2 + 16 + 1 + 8
    randoms = {degree: random_perms(degree, seed=degree) for degree in (4, 8)}
    for gens in cases:
        assert_matches_closure(gens, gens[0].degree, randoms[gens[0].degree])


def test_frattini_and_derived_match_bruteforce():
    # independent of the seeds normal_closure is given: G' is closed from the
    # commutators of all pairs of elements, and Phi(G) = G^2 for a 2-group
    # from the squares of all elements, by plain breadth-first products
    cases = [composite.build_gens(kind, n) for kind in "AS" for n in range(2, 11)]
    cases += [gens for kind in "BG" for k in (2, 3) for gens in _diagonal_sets(kind, k)]
    cases = [gens for gens in cases if gens]  # A_2 and A_3 are trivial
    assert len(cases) == 18 - 2 + 2 + 16 + 1 + 8
    for gens in cases:
        G = PermGroup(gens[0].degree, gens)
        elements = [g.images for g in G.elements(256)]
        points = range(G.degree)
        # a's inverse lists the points in the order of their images under a
        inverses = {a: sorted(points, key=a.__getitem__) for a in elements}
        commutators = {
            tuple(a[b[inverses[a][inverses[b][x]]]] for x in points)
            for a in elements
            for b in elements
        }
        squares = {tuple(a[a[x]] for x in points) for a in elements}
        derived_order = len(bruteforce_closure([Permutation(c) for c in commutators]))
        assert derived_subgroup(G).order == derived_order
        frattini_order = len(bruteforce_closure([Permutation(q) for q in squares]))
        assert frattini_of_2group(G).order == frattini_order


@pytest.mark.slow
def test_diagonal_chains_match_closure_depth_4_sample():
    cases = _diagonal_sets("B", 4) + _diagonal_sets("G", 4)
    assert len(cases) == 3072
    randoms = random_perms(16, seed=16)
    for gens in random.Random(4).sample(cases, 768):
        assert_matches_closure(gens, 16, randoms)


# -- index-2 steps against conjugation by every installed element ------------

class AllExtensionsGroup(PermGroup):
    """The reference for the index-2 step: PermGroup's chain, with an
    _extend that makes raw normalise H by conjugating every installed
    element of H, not a generating set of it, in both modes.  With an
    ambient set it then extends by the commutators with it as PermGroup
    does, so a normal closure that let H stop being normal in the ambient
    group would grow here where PermGroup's does not.  normal_closure builds
    type(G), so Frattini and derived subgroups use it all the way down."""

    def _extend(self, raw, depth, path, ambient):
        residue, level = self._strip(raw)
        if residue == self._identity:
            return
        if depth > self.degree:
            raise ValueError("not a 2-group: index-2 nesting deeper than the degree")
        size = len(self._extensions)
        if path.get(raw) == size:
            raise ValueError("not a 2-group: an element recurred while extending")
        path[raw] = size
        start = len(self._normalisers)
        self._extend(mult_perm(raw, raw), depth + 1, path, ambient)
        inverse = inv_perm(raw)
        for h in self._extensions:  # the list grows as H does
            conjugate = mult_perm(raw, mult_perm(h, inverse))
            if conjugate != h:
                self._extend(conjugate, depth + 1, path, ambient)
        for g, g_inv in ambient:
            commutator = mult_perm(raw, mult_perm(g, mult_perm(inverse, g_inv)))
            self._extend(commutator, depth + 1, path, ambient)
        if len(self._extensions) > size:
            residue, level = self._strip(raw)
        if residue == raw:
            self._double(raw, level, inverse)
        elif residue != self._identity:
            self._double(residue, level, inv_perm(residue))
        if not ambient:
            self._normalisers[start:] = [raw]
        elif residue != self._identity:
            self._normalisers.append(raw)


def assert_normalisers_generate(G, grew):
    """G conjugates by exactly the images of grew, which generate G."""
    assert G._normalisers == [g.images for g in grew]
    assert PermGroup(G.degree, grew).order == G.order


def assert_matches_all_extensions(gens, degree, randoms):
    """Order, base, each level's orbit, membership of the closure probes,
    and the order and generators of the Frattini and derived subgroups, all
    as the reference; coset representatives may differ.  Also checks that
    the chain conjugates by the generators whose replayed _adjoin grew the
    group, and each normal closure by its own generators."""
    fast = PermGroup(degree, gens)
    ref = AllExtensionsGroup(degree, gens)
    assert fast.order == ref.order
    assert fast.base() == ref.base()
    assert [sorted(t) for t in fast._transversals] == [sorted(t) for t in ref._transversals]
    for p in membership_probes(gens, randoms):
        assert fast.contains(p) == ref.contains(p)
    replay = PermGroup(degree)
    assert_normalisers_generate(fast, [g for g in gens if replay._adjoin(g.images)])
    for subgroup in (frattini_of_2group, derived_subgroup):
        N, M = subgroup(fast), subgroup(ref)
        assert type(M) is AllExtensionsGroup
        assert N.order == M.order
        assert [g.images for g in N.generators] == [g.images for g in M.generators]
        assert_normalisers_generate(N, N.generators)


@pytest.mark.slow
@pytest.mark.parametrize("kind", "AS")
def test_composite_chains_match_all_extensions(kind):
    for n in range(1, 65):
        assert_matches_all_extensions(composite.build_gens(kind, n), n, random_perms(n, seed=n))


@pytest.mark.slow
def test_diagonal_and_random_chains_match_all_extensions():
    randoms = {degree: random_perms(degree, seed=degree) for degree in (4, 8, 12, 16, 24)}
    cases = [gens for kind in "BG" for k in (2, 3) for gens in _diagonal_sets(kind, k)]
    depth4 = _diagonal_sets("B", 4) + _diagonal_sets("G", 4)
    cases += random.Random(256).sample(depth4, 256)
    cases += [gens for n in RANDOM_2GROUP_DEGREES for gens in random_2group_sets(n, randoms[n])]
    assert len(cases) == 27 + 256 + 40
    for gens in cases:
        degree = gens[0].degree
        assert_matches_all_extensions(gens, degree, randoms[degree])


def counted_work(monkeypatch, build):
    """What build() returns, and its calls of mult_perm, inv_perm and
    PermGroup._extend, by name."""
    calls = collections.Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    with monkeypatch.context() as patch:
        for owner, name in ((permgroup, "mult_perm"), (permgroup, "inv_perm"),
                            (PermGroup, "_extend")):
            patch.setattr(owner, name, counting(name, getattr(owner, name)))
        result = build()
    return result, calls


# _extend and inv_perm calls of the chain builds below.  An involution's
# square is the identity, so it is its own inverse and nothing is extended
# by its square; these generating sets are involutions.
CHAIN_EXTENDS_AND_INVERSIONS = {
    ("S", 32): (86, 20), ("A", 32): (91, 20), ("A", 128): (492, 105),
}


@pytest.mark.parametrize("kind, n, bound", [("S", 32, 700), ("A", 32, 700), ("A", 128, 6000)])
def test_chain_build_work(monkeypatch, kind, n, bound):
    # AllExtensionsGroup takes 1878, 1684 and 33,823 products here, and
    # PermGroup, conjugating by a generating set of H, 548, 582 and 4606
    gens = composite.build_gens(kind, n)
    G, calls = counted_work(monkeypatch, lambda: PermGroup(n, gens))
    assert G.order == 1 << composite.order_log2_syl2(kind, n)
    extends, inversions = CHAIN_EXTENDS_AND_INVERSIONS[kind, n]
    assert calls["mult_perm"] <= bound
    assert calls["_extend"] <= extends
    assert calls["inv_perm"] <= inversions


def test_diagonal_chain_work(monkeypatch):
    # most elements of the depth-4 diagonal groups are involutions, which
    # are neither squared nor inverted
    cases = random.Random(4).sample(_diagonal_sets("B", 4) + _diagonal_sets("G", 4), 512)
    groups, calls = counted_work(monkeypatch, lambda: [PermGroup(16, gens) for gens in cases])
    assert {G.order for G in groups} == {1 << 14, 1 << 15}
    assert calls["mult_perm"] <= 96088
    assert calls["_extend"] <= 18166
    assert calls["inv_perm"] <= 4581


# mult_perm, _extend and inv_perm calls of Phi(G) and of G' for the Sylow
# 2-subgroup's generators, keeping N normal in G at every step, one
# commutator per generator of G, and forming no identity square or
# commutator.  These generators are involutions, so both closures close the
# same nontrivial seeds at the same cost.  The conjugate queue
# (queue_normal_closure) took the products in the tests' parameters.
CLOSURE_WORK = {
    ("A", 32): (762, 67, 21),
    ("S", 32): (795, 65, 22),
    ("A", 128): (9962, 438, 113),
    ("S", 128): (9836, 420, 114),
}


def assert_closure_work(monkeypatch, closure, kind, n, queue_products):
    G = PermGroup(n, composite.build_gens(kind, n))
    N, calls = counted_work(monkeypatch, lambda: closure(G))
    # these Sylow 2-subgroups have an elementary abelian abelianisation, so
    # P' is Phi(P)
    assert N.order == G.order >> composite.rank_syl2(kind, n)
    products, extends, inversions = CLOSURE_WORK[kind, n]
    assert calls["mult_perm"] <= products < queue_products
    assert calls["_extend"] <= extends
    assert calls["inv_perm"] <= inversions


@pytest.mark.parametrize("kind, n, queue_products", [
    ("A", 32, 1291), ("S", 32, 1412), ("A", 128, 19517), ("S", 128, 19964),
])
def test_frattini_closure_work(monkeypatch, kind, n, queue_products):
    assert_closure_work(monkeypatch, frattini_of_2group, kind, n, queue_products)


@pytest.mark.parametrize("kind, n, queue_products", [
    ("A", 32, 1286), ("S", 32, 1407), ("A", 128, 19510), ("S", 128, 19957),
])
def test_derived_closure_work(monkeypatch, kind, n, queue_products):
    assert_closure_work(monkeypatch, derived_subgroup, kind, n, queue_products)


@pytest.mark.parametrize("closure, squares, built", [
    (frattini_of_2group, True, 35), (derived_subgroup, False, 35),
])
def test_closure_builds_one_permutation_per_seed_and_generator(
        monkeypatch, closure, squares, built):
    # each nontrivial seed is multiplied out on image tuples and wrapped
    # once; the rest are the generators of the closure.  The generators of
    # A_32's Sylow 2-subgroup are involutions, so their squares are no seeds.
    G = PermGroup(32, composite.build_gens("A", 32))
    made = 0
    real = Permutation.__post_init__

    def counting(self):
        nonlocal made
        made += 1
        real(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    N = closure(G)
    gens = [g.images for g in G.generators]
    identity = tuple(range(32))
    seeds = [mult_perm(a, a) for a in gens] if squares else []
    seeds += [
        mult_perm(a, mult_perm(b, mult_perm(inv_perm(a), inv_perm(b))))
        for a, b in itertools.combinations(gens, 2)
    ]
    nontrivial = sum(seed != identity for seed in seeds)
    assert made == nontrivial + len(N.generators) == built


# -- normal closures against the conjugate queue ------------------------------

def queue_normal_closure(G, seeds):
    """The reference: N grown by chain-build steps, which need not keep it
    normal in G, from a queue of the seeds and of the conjugates by G's
    generators of every element whose _adjoin grew N."""
    N = type(G)(G.degree)
    gen_pairs = [(g.images, inv_perm(g.images)) for g in G.generators]
    queue = [s.images for s in seeds]
    while queue:
        raw = queue.pop()
        if N._adjoin(raw):
            N.generators.append(Permutation(raw))
            queue.extend(mult_perm(h, mult_perm(raw, h_inv)) for h, h_inv in gen_pairs)
    return N


def assert_closures_match_queue(gens, degree):
    """Phi(G) and G', each from normal_closure and from the queue: equal
    orders, and each one's generators lie in the other."""
    G = PermGroup(degree, gens)
    commutators = [
        a * b * a.inverse() * b.inverse() for a, b in itertools.combinations(gens, 2)
    ]
    for seeds in ([g * g for g in gens] + commutators, commutators):
        N, M = normal_closure(G, seeds), queue_normal_closure(G, seeds)
        assert N.order == M.order
        assert all(M.contains(g) for g in N.generators)
        assert all(N.contains(g) for g in M.generators)


@pytest.mark.parametrize("kind", "AS")
def test_composite_closures_match_queue(kind):
    for n in range(1, 65):
        assert_closures_match_queue(composite.build_gens(kind, n), n)


def test_diagonal_and_random_closures_match_queue():
    cases = [gens for kind in "BG" for k in (2, 3) for gens in _diagonal_sets(kind, k)]
    for n in RANDOM_2GROUP_DEGREES:
        cases += random_2group_sets(n, random_perms(n, seed=n))
    assert len(cases) == 27 + 40
    for gens in cases:
        assert_closures_match_queue(gens, gens[0].degree)


# -- the steps that no involution or commuting pair shortens ------------------

# 2-groups with elements of order 4 and 8 and generators that do not commute
HIGHER_ORDER_2GROUPS = {
    "C4": (["(1,2,3,4)"], 4),
    "C8": (["(1,2,3,4,5,6,7,8)"], 8),
    "D16": (["(1,2,3,4,5,6,7,8)", "(2,8)(3,7)(4,6)"], 8),
    "SD16": (["(1,2,3,4,5,6,7,8)", "(2,4)(3,7)(6,8)"], 8),
    "Q8": (["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"], 8),  # one involution
}


def recorded_extensions(monkeypatch, build):
    """What build() returns, and (raw, ambient) of every PermGroup._extend
    call it made, in order."""
    calls = []
    real = PermGroup._extend

    def recording(self, raw, depth, path, ambient):
        calls.append((raw, ambient))
        return real(self, raw, depth, path, ambient)

    with monkeypatch.context() as patch:
        patch.setattr(PermGroup, "_extend", recording)
        result = build()
    return result, calls


def squared_non_involutions(calls):
    """The calls whose raw is no involution and which extended by its
    square, the call right after them."""
    return [
        raw
        for (raw, _), (after, _) in zip(calls, calls[1:])
        if mult_perm(raw, raw) == after != tuple(range(len(raw)))
    ]


def extended_commutators(calls):
    """The nontrivial commutators [raw, g] with an ambient generator g that
    a normal closure extended by."""
    raws = {raw for raw, _ in calls}
    return [
        commutator
        for raw, ambient in calls
        for g, g_inv in ambient
        if (commutator := mult_perm(raw, mult_perm(g, mult_perm(inv_perm(raw), g_inv))))
        != tuple(range(len(raw))) and commutator in raws
    ]


def test_higher_order_steps_run_and_match_the_references(monkeypatch):
    # the chain and both closures of each group must square an element of
    # order 4 or more, or extend by a nontrivial commutator, and all three
    # must match every reference
    cases = {
        name: (perms(texts, degree), degree)
        for name, (texts, degree) in HIGHER_ORDER_2GROUPS.items()
    }
    randoms = [
        (gens, n)
        for n in RANDOM_2GROUP_DEGREES
        for gens in random_2group_sets(n, random_perms(n, seed=n))
    ]
    cases.update(enumerate(randoms))
    squared, commutators = {}, {}
    for name, (gens, degree) in cases.items():
        G, calls = recorded_extensions(monkeypatch, lambda: PermGroup(degree, gens))
        squared[name] = len(squared_non_involutions(calls))
        commutators[name] = 0
        for closure in (frattini_of_2group, derived_subgroup):
            _, calls = recorded_extensions(monkeypatch, lambda: closure(G))
            squared[name] += len(squared_non_involutions(calls))
            commutators[name] += len(extended_commutators(calls))
        probes = random_perms(degree, seed=degree)
        assert_matches_all_extensions(gens, degree, probes)
        assert_matches_closure(gens, degree, probes)
        assert_closures_match_queue(gens, degree)
    assert all(squared[name] for name in HIGHER_ORDER_2GROUPS)
    # Phi(Q8) is its centre, so no commutator with Q8 is nontrivial there
    assert all(commutators[name] for name in ("D16", "SD16"))
    # of the 40 random 2-groups, 32 square such an element and 23 extend by
    # such a commutator
    assert sum(bool(squared[i]) for i in range(len(randoms))) == 32
    assert sum(bool(commutators[i]) for i in range(len(randoms))) == 23


class ClosureBuiltGroup(ClosureGroup):
    """Built by the closure, so any group is accepted, but its normal
    closures grow by PermGroup's index-2 steps with its generators as the
    ambient set."""

    def _adjoin(self, raw, ambient=()):
        if ambient:
            return PermGroup._adjoin(self, raw, ambient)
        return super()._adjoin(raw)


@pytest.mark.parametrize("texts, degree, seed", [
    (S4_GENS, 4, "(1,2,3)"),  # A4
    (S4_GENS, 4, "(1,2)"),  # S4, from an involution
    (["(1,2,3)"], 3, "(1,2,3)"),  # C3
    (["(1,2,3,4,5,6,7,8)", "(1,2)"], 8, "(1,2)"),  # S8, from an involution
])
def test_non_2groups_still_raise(texts, degree, seed):
    # an involution skips its square, and a commuting pair its commutator;
    # the index-2 steps must still refuse a group that is not a 2-group,
    # when it is generated and when it is a normal closure
    G = closure_only(degree, perms(texts, degree))
    with pytest.raises(ValueError, match="not a 2-group"):
        normal_closure(ClosureBuiltGroup(degree, G.generators), [parse_cycles(seed, degree)])
    with pytest.raises(ValueError, match="^seed is not in G$"):
        normal_closure(PermGroup(degree), [parse_cycles(seed, degree)])


def test_normal_closure_refuses_seeds_outside_G():
    # the index-2 step needs each seed to normalise the closure built so far
    D4 = group_from_generators(perms(["(1,2,3,4)", "(1,3)"], 4))
    with pytest.raises(ValueError, match="^seed is not in G$"):
        normal_closure(D4, [parse_cycles("(1,3)", 4), parse_cycles("(1,2)", 4)])
    A4 = closure_only(4, perms(["(1,2,3)", "(2,3,4)"], 4))
    with pytest.raises(ValueError, match="^seed is not in G$"):
        normal_closure(A4, [parse_cycles("(1,2)", 4)])


def test_random_sets_rejected_exactly_when_not_2groups():
    rng = random.Random(300)
    accepted = 0
    for _ in range(300):
        degree = rng.randrange(3, 8)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        order = len(bruteforce_closure(gens))
        if order & (order - 1):
            with pytest.raises(ValueError, match="not a 2-group"):
                PermGroup(degree, gens)
        else:
            assert PermGroup(degree, gens).order == order
            accepted += 1
    assert accepted == 69  # and 231 rejected


@pytest.mark.parametrize(
    "texts, degree, order",
    [
        (["(1,2,3)", "(1,2)"], 3, 6),  # S3
        (S4_GENS, 4, 24),  # S4
        (["(1,2,3,4,5)", "(1,2,3)"], 5, 60),  # A5
        (["(1,2,3)"], 3, 3),  # C3
        (["(1,2)", "(2,3)"], 3, 6),  # S3 from involutions only
    ],
)
def test_non_2group_falls_back_to_closure(texts, degree, order):
    # groups that are not 2-groups are left to the closure reference
    assert closure_only(degree, perms(texts, degree)).order == order


def test_normal_closures_switch_to_closure_part_way():
    # normal_closure builds type(G), so S4's normal closures are closures too
    S4 = closure_only(4, perms(S4_GENS, 4))
    for N in (normal_closure(S4, [parse_cycles("(1,2,3)", 4)]), derived_subgroup(S4)):
        assert type(N) is ClosureGroup
        assert closure_only(4, N.generators).order == N.order == 12
    V4 = normal_closure(S4, [parse_cycles("(1,2)(3,4)", 4)])
    assert PermGroup(4, V4.generators).order == V4.order == 4


def test_large_degree_fallback():
    # above the recursion limit the recurrence rule, not the degree bound or
    # a RecursionError, stops the index-2 attempt
    for degree in (sys.getrecursionlimit() + 1, 5000):
        with pytest.raises(ValueError, match="an element recurred"):
            PermGroup(degree, perms(["(1,2)", "(2,3)"], degree))
    # nor where C_1024's chain of squares, 10 deep, passes a lowered limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 12)
    try:
        with pytest.raises(ValueError) as info:
            PermGroup(1024, [Permutation(tuple(range(1, 1024)) + (0,))])
    finally:
        sys.setrecursionlimit(limit)
    assert "recursion limit" in str(info.value)


@pytest.mark.parametrize("m", range(1, 11))
def test_cyclic_2groups_accepted(m):
    # one 2^m-cycle nests its chain of squares m deep; 2^10 points is above
    # the recursion limit, so neither stopping rule may fire early
    n = 1 << m
    G = PermGroup(n, [Permutation(tuple(range(1, n)) + (0,))])
    assert G.order == n
    assert rank_of_2group(G) == 1


@pytest.mark.parametrize("n", sorted(random.Random(33).sample(range(33, 65), 8)))
def test_sylow_generators_accepted_in_either_order(n):
    for gens in (build_gens_S(n), build_gens_S(n)[::-1]):
        assert PermGroup(n, gens).order == order_syl2_S(n)


def test_oracle_imports_only_stdlib_and_kernels():
    # the oracle stays independent of the portrait code it checks
    for node in ast.walk(ast.parse(Path(permgroup.__file__).read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert name == "sylow2.kernels" or top in sys.stdlib_module_names, name


CHAIN_INTERNALS = {
    "_bases", "_transversals", "_extensions", "_normalisers", "_identity",
    "_strip", "_extend", "_install", "_double",
}


def test_elements_enter_a_chain_only_through_adjoin():
    # outside the PermGroup class body no library code touches the chain's
    # internals, and normal_closure grows its result through _adjoin alone
    for path in sorted(Path(permgroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # node id -> name of the top-level definition holding it
        if path.name == "permgroup.py":
            for top in tree.body:
                if getattr(top, "name", None) in ("PermGroup", "normal_closure"):
                    scope.update((id(node), top.name) for node in ast.walk(top))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            where = (path.name, node.lineno, node.attr)
            if scope.get(id(node)) != "PermGroup":
                assert node.attr not in CHAIN_INTERNALS, where
            if scope.get(id(node)) == "normal_closure":
                assert not node.attr.startswith("_") or node.attr == "_adjoin", where


def test_label_layout_stays_in_portrait_and_kernels():
    # outside portrait and kernels, label patterns are built with
    # portrait.from_vertices and read through Portrait methods, so no other
    # module spells out the heap layout of the label table
    for module in (wreath, composite, derived, verify, cli):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "bytearray", (module.__name__, node.lineno)
            elif isinstance(node, ast.Attribute):
                assert node.attr != "bits", (module.__name__, node.lineno)


def test_bottom_half_split_stays_in_bottom_halves():
    # outside portrait, only wreath.bottom_halves reads a level label by
    # label; every other parity rule counts through level_index or it
    for path in sorted(Path(wreath.__file__).parent.glob("*.py")):
        if path.name == "portrait.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and (path.name, node.name) == ("wreath.py", "bottom_halves")
            for inner in ast.walk(node)
        }
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "level_bits"
            and id(node) not in allowed
        ]
        assert not calls, (path.name, calls)
