"""Concrete 2-groups inside the depth-k tree automorphisms.

Three families live here, all given by label patterns:

* ``B`` -- the full iterated wreath power of C2 of the given depth, i.e.
  everything the portrait type can express.  Its leaf action realizes a
  Sylow 2-subgroup of the symmetric group on 2**k points.
* ``W`` -- automorphisms with labels only on the last level and an even
  number of them.
* ``G`` -- the even-leaf-action subgroup of B, a semidirect product of the
  depth-(k-1) wreath power acting on W.  Its leaf action realizes a Sylow
  2-subgroup of the alternating group on 2**k points.

Generating sets, the type-T / type-C element classes and the diagonal-base
enumeration follow the same label-pattern style.  Everything is a pure
function over immutable portraits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from sylow2 import permgroup
from sylow2.portrait import (
    Portrait,
    Vertex,
    compose,
    from_vertices,
    identity,
    inverse,
    labels_above,
    leaf_permutation,
    level_index,
    section,
)


@dataclass(frozen=True)
class GroupKind:
    """Family tag (B, G or W) plus tree depth."""

    tag: str
    depth: int

    def __post_init__(self):
        if self.tag not in ("B", "G", "W"):
            raise ValueError(f"unknown group kind {self.tag!r}")
        minimum = 1 if self.tag == "B" else 2
        if self.depth < minimum:
            raise ValueError(f"kind {self.tag} needs depth >= {minimum}")


def alpha(k: int, l: int) -> Portrait:
    """Single active label at the leftmost vertex of level l."""
    if not 0 <= l <= k - 1:
        raise ValueError(f"level {l} outside 0..{k - 1}")
    return from_vertices(k, [Vertex(l, 1)])


def tau_at(k: int, positions) -> Portrait:
    """Labels exactly at the given 1-based positions of the last level."""
    if k < 2:
        raise ValueError("depth must be >= 2")
    width = 1 << (k - 1)
    vertices = []
    for pos in positions:
        if not 1 <= pos <= width:
            raise ValueError(f"position {pos} outside 1..{width}")
        vertices.append(Vertex(k - 1, pos))
    return from_vertices(k, vertices)


def tau(k: int) -> Portrait:
    """The last-level pair at positions 1 and 2**(k-1)."""
    return tau_at(k, (1, 1 << (k - 1)))


def gen_set_B(k: int) -> list[Portrait]:
    """One single-label generator per level; generates all of depth-k B."""
    return [alpha(k, l) for l in range(k)]


def gen_set_G(k: int) -> list[Portrait]:
    """The k-element generating set of G: levels 0..k-2 plus tau."""
    if k < 2:
        raise ValueError("G needs depth >= 2")
    return [alpha(k, l) for l in range(k - 1)] + [tau(k)]


def in_G(g: Portrait) -> bool:
    """Even number of labels on the last level (flat criterion)."""
    if g.depth < 2:
        raise ValueError("G is undefined at depth 1")
    return level_index(g, g.depth - 1) % 2 == 0


def in_G_recursive(g: Portrait) -> bool:
    """Recursive criterion: the two root sections must multiply into the
    depth-(k-1) group; agrees with in_G everywhere."""
    if g.depth < 2:
        raise ValueError("G is undefined at depth 1")
    prod = compose(section(g, Vertex(1, 1)), section(g, Vertex(1, 2)))
    if prod.depth == 1:
        # the even subgroup of the depth-1 automorphisms is trivial
        return prod.is_identity()
    return in_G_recursive(prod)


def _upper_empty(g: Portrait) -> bool:
    return not labels_above(g, g.depth - 1)


def in_W(g: Portrait) -> bool:
    """Labels only on the last level, an even number of them."""
    if g.depth < 2:
        raise ValueError("W needs depth >= 2")
    return _upper_empty(g) and in_G(g)


def bottom_halves(g: Portrait) -> tuple[int, int]:
    """Label counts of the left and right halves of the last level."""
    last = g.level_bits(g.depth - 1)
    half = len(last) // 2
    return sum(last[:half]), sum(last[half:])


def is_type_T(g: Portrait) -> bool:
    """Last-level-only element with an odd label count in each half."""
    if g.depth < 2:
        raise ValueError("type T needs depth >= 2")
    return _upper_empty(g) and is_type_C(g)


def is_type_C(g: Portrait) -> bool:
    """Odd label count in each half of the last level; upper levels free."""
    if g.depth < 2:
        raise ValueError("type C needs depth >= 2")
    m1, m2 = bottom_halves(g)
    return m1 % 2 == 1 and m2 % 2 == 1


def split_semidirect(g: Portrait) -> tuple[Portrait, Portrait]:
    """Split g in G as b*w with b carrying the upper labels and w in W."""
    if not in_G(g):
        raise ValueError("element is not in G")
    last = g.depth - 1
    b = from_vertices(g.depth, [v for v in g.active_vertices() if v.level < last])
    w = compose(inverse(b), g)
    return b, w


def order_formula(kind: GroupKind) -> int:
    """Closed-form order: B and G of depth k, or the W subgroup at depth k."""
    k = kind.depth
    if kind.tag == "B":
        return 1 << ((1 << k) - 1)
    if kind.tag == "G":
        return 1 << ((1 << k) - 2)
    return 1 << ((1 << (k - 1)) - 1)


def leaf_group(gens) -> permgroup.PermGroup:
    """Oracle group generated by the leaf actions of the given portraits."""
    return permgroup.group_from_generators([leaf_permutation(g) for g in gens])


def _odd_weight_patterns(width):
    for mask in product((0, 1), repeat=width):
        if sum(mask) % 2 == 1:
            yield mask


def _type_t_patterns(width):
    half = width // 2
    for left in _odd_weight_patterns(half):
        for right in _odd_weight_patterns(half):
            yield left + right


def _check_diagonal_kind(kind: str):
    if kind not in ("B", "G"):
        raise ValueError(f"diagonal bases exist for kinds B and G, not {kind!r}")


def _diagonal_candidates(kind: str, k: int):
    _check_diagonal_kind(kind)
    level_choices = [list(_odd_weight_patterns(1 << l)) for l in range(k)]
    if kind == "G":
        level_choices[-1] = list(_type_t_patterns(1 << (k - 1)))
    for masks in product(*level_choices):
        yield [
            from_vertices(k, [Vertex(l, j + 1) for j, m in enumerate(mask) if m])
            for l, mask in enumerate(masks)
        ]


def enumerate_diagonal_bases(kind: str, k: int) -> list[list[Portrait]]:
    """All diagonal candidate sets that the oracle confirms to generate.

    Exhaustive, so k is capped at 4 (the k=4 run walks a couple thousand
    stabilizer chains).
    """
    if k > 4:
        raise ValueError("diagonal enumeration is capped at depth 4")
    target = order_formula(GroupKind(kind, k))
    out = []
    for gens in _diagonal_candidates(kind, k):
        if leaf_group(gens).order == target:
            out.append(gens)
    return out


def count_diagonal_bases(kind: str, k: int) -> int:
    """Closed-form diagonal-base count.

    The group order over 2**k: for kind B this is 2**(2**k - k - 1).  For
    kind G the returned form 2**(2**k - k - 2) is the one validated by
    exhaustive enumeration at depths 2..4 (every candidate with odd-count
    upper levels and a type-T bottom generator does generate).
    """
    _check_diagonal_kind(kind)
    return order_formula(GroupKind(kind, k)) >> k


def _counting_tables(width):
    """Every label string of the given width, in counting order: label i of
    the m-th string is bit i of m."""
    # product varies its last entry fastest; reversed makes that label 0
    return (bytes(reversed(labels)) for labels in product(b"\0\1", repeat=width))


def all_portraits(k: int):
    """Iterate every depth-k portrait (2**(2**k - 1) of them), in counting
    order: label i of the m-th portrait is bit i of m.

    The labels above the bottom level come first in the table, so each one
    is a depth-(k-1) table, all of them listed once up front, followed by a
    bottom-level string, which changes only once every upper table has
    passed."""
    if k < 1:
        raise ValueError("depth must be >= 1 (the depth-0 tree is empty)")
    uppers = list(_counting_tables((1 << (k - 1)) - 1))
    for bottom in _counting_tables(1 << (k - 1)):
        for upper in uppers:
            yield Portrait(k, upper + bottom)
