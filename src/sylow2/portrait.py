"""Automorphisms of the depth-k rooted binary tree as labeled portraits.

A portrait assigns one bit to every internal vertex of the tree; bit 1 at a
vertex means the automorphism swaps the two subtrees hanging there.  Levels
are 0-based with the root alone on level 0, so a depth-k portrait has levels
0..k-1 and acts on the 2**k leaves of level k.

Text format (bit-exact, stable): the levels root-down joined by "/", e.g.
"0/00/1001" for the depth-3 automorphism with labels at the first and last
positions of the bottom level.  Bit j of a level string is the label of the
level's (j+1)-th vertex counted left to right.

The labels are stored in heap order (level l starts at index 2**l - 1).
That layout is private to this module and ``sylow2.kernels``: everyone
else builds a label pattern with ``from_vertices``, the inverse of
``Portrait.active_vertices``, and reads labels through ``level_bits``
and ``level_index``.

Leaves are numbered 1 + sum(b_i * 2**(k-i)) from the path bits b_1..b_k, so
the leftmost leaf is 1 and a root label alone swaps the front and back
halves of 1..2**k.  All composition is left action: (g*h)(w) = g(h(w)).
Portraits are immutable values; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from sylow2.kernels import compose_labels, invert_labels, leaf_images
from sylow2.permgroup import Permutation

DEFAULT_SEED = 1729  # seed of every sampled check unless one is given


@dataclass(frozen=True)
class Vertex:
    """Tree vertex: 0-based level, 1-based position within the level."""

    level: int
    position: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if not 1 <= self.position <= 1 << self.level:
            raise ValueError(
                f"position {self.position} outside 1..{1 << self.level} "
                f"on level {self.level}"
            )


@dataclass(frozen=True)
class Portrait:
    """Label table of a depth-k tree automorphism.

    ``bits`` holds the 2**k - 1 labels in heap order (level l occupies
    indices 2**l - 1 .. 2**(l+1) - 2).
    """

    depth: int
    bits: bytes

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1 (the depth-0 tree is empty)")
        if not isinstance(self.bits, bytes):
            raise ValueError(f"labels must be bytes, got {type(self.bits).__name__}")
        if len(self.bits) != (1 << self.depth) - 1:
            raise ValueError(
                f"depth {self.depth} needs {(1 << self.depth) - 1} labels, "
                f"got {len(self.bits)}"
            )
        if self.bits.translate(None, b"\0\1"):  # any byte other than 0 and 1
            raise ValueError("labels must be 0 or 1")

    def level_bits(self, l: int) -> tuple[int, ...]:
        if not 0 <= l < self.depth:
            raise ValueError(f"level {l} outside 0..{self.depth - 1}")
        start = (1 << l) - 1
        return tuple(self.bits[start : start + (1 << l)])

    def active_vertices(self) -> list[Vertex]:
        """Vertices carrying label 1, in level order."""
        out = []
        for l in range(self.depth):
            start = (1 << l) - 1
            for j in range(1 << l):
                if self.bits[start + j]:
                    out.append(Vertex(l, j + 1))
        return out

    def is_identity(self) -> bool:
        return not any(self.bits)

    def __str__(self) -> str:
        return format_portrait(self)

    def __repr__(self) -> str:
        return f"Portrait({format_portrait(self)!r})"


def identity(k: int) -> Portrait:
    """The trivial automorphism of the depth-k tree."""
    if k < 1:
        raise ValueError("depth must be >= 1 (the depth-0 tree is empty)")
    return Portrait(k, bytes((1 << k) - 1))


def from_vertices(k: int, vertices) -> Portrait:
    """The depth-k portrait labelled 1 at exactly the given vertices (a
    repeated vertex counts once); inverse of ``Portrait.active_vertices``."""
    if k < 1:
        raise ValueError("depth must be >= 1 (the depth-0 tree is empty)")
    bits = bytearray((1 << k) - 1)
    for v in vertices:
        if v.level >= k:
            raise ValueError(f"level {v.level} outside depth-{k} portrait")
        bits[(1 << v.level) - 1 + v.position - 1] = 1
    return Portrait(k, bytes(bits))


def random_portrait(rng, k: int) -> Portrait:
    """Uniform depth-k portrait: one ``rng.getrandbits(1)`` per label, in
    storage order, so a seeded ``random.Random`` gives a fixed sequence."""
    return Portrait(k, bytes(map(rng.getrandbits, repeat(1, (1 << k) - 1))))


def compose(g: Portrait, h: Portrait) -> Portrait:
    """Product g*h, h applied first: (g*h)(w) = g(h(w)).

    The label of the product at v is label_h(v) XOR label_g(h(v)).
    """
    if g.depth != h.depth:
        raise ValueError(f"depth mismatch: {g.depth} != {h.depth}")
    return Portrait(g.depth, compose_labels(g.depth, g.bits, h.bits))


def inverse(g: Portrait) -> Portrait:
    """Inverse automorphism: label at v is g's label at g^-1(v)."""
    return Portrait(g.depth, invert_labels(g.depth, g.bits))


def vertex_image(g: Portrait, v: Vertex) -> Vertex:
    """Image of a vertex, walking the path and flipping branch bits where
    the label at the already-traversed original prefix is set."""
    if v.level >= g.depth:
        raise ValueError(f"vertex level {v.level} outside depth-{g.depth} portrait")
    j = v.position - 1  # root-to-vertex branch bits, 0 = left subtree
    flips = 0
    for i in range(v.level):
        # j >> (level - i) is the 0-based position of the level-i prefix
        flips = 2 * flips + g.bits[(1 << i) - 1 + (j >> (v.level - i))]
    return Vertex(v.level, (j ^ flips) + 1)


def leaf_permutation(g: Portrait) -> Permutation:
    """Action on the leaves 1..2**k (0-based internally)."""
    return Permutation(leaf_images(g.depth, g.bits))


def level_index(g: Portrait, l: int) -> int:
    """Number of active labels on level l."""
    if not 0 <= l < g.depth:
        raise ValueError(f"level {l} outside 0..{g.depth - 1}")
    start = (1 << l) - 1
    return g.bits.count(1, start, start + (1 << l))


def section(g: Portrait, v: Vertex) -> Portrait:
    """Portrait of the subtree rooted at v, carrying g's labels there.

    The root section is g itself; for v below the root the result has
    depth g.depth - v.level.
    """
    if v.level >= g.depth:
        raise ValueError(f"vertex level {v.level} outside depth-{g.depth} portrait")
    if v.level == 0:
        return g
    sub_depth = g.depth - v.level
    out = bytearray()
    j = v.position - 1
    for l in range(sub_depth):
        start = (1 << (v.level + l)) - 1 + (j << l)
        out.extend(g.bits[start : start + (1 << l)])
    return Portrait(sub_depth, bytes(out))


def moved_subtree(g: Portrait) -> Vertex | None:
    """Root of the smallest subtree holding every active label of g, or None
    for the identity.  g fixes every leaf outside that subtree and acts
    inside it as its section there.

    Vertex j of level l covers the leaves [j << (k - l), (j + 1) << (k - l));
    the subtree wanted is rooted at the common prefix of the path bits of
    the first and the last leaf that any active vertex covers."""
    k = g.depth
    lo, hi = 1 << k, 0
    for l in range(k):
        start = (1 << l) - 1
        first = g.bits.find(1, start, start + (1 << l))
        if first >= 0:
            last = g.bits.rfind(1, start, start + (1 << l))
            lo = min(lo, (first - start) << (k - l))
            hi = max(hi, (last - start + 1) << (k - l))
    if not hi:
        return None
    level = k - (lo ^ (hi - 1)).bit_length()
    return Vertex(level, (lo >> (k - level)) + 1)


def distance(g: Portrait) -> int:
    """Maximal tree distance between two active vertices (0 if fewer than
    two are active).

    Vertex h = label index + 1 is on level h.bit_length() - 1 and h >> d is
    its ancestor d levels up: two vertices cut to one level differ in as
    many low bits as there are levels up to their lowest common ancestor."""
    active = [h for h, bit in enumerate(g.bits, 1) if bit]  # in level order
    best = 0
    for i, a in enumerate(active):
        for b in active[i + 1:]:
            drop = b.bit_length() - a.bit_length()  # b is no shallower than a
            best = max(best, drop + 2 * (a ^ (b >> drop)).bit_length())
    return best


_NON_BITS = str.maketrans("", "", "01")  # deletes "0" and "1", keeps the rest
_TEXT_TO_LABELS = bytes.maketrans(b"01", b"\0\1")
_LABELS_TO_TEXT = bytes.maketrans(b"\0\1", b"01")


def parse_portrait(text: str) -> Portrait:
    """Parse the "b/bb/bbbb" level format; inverse of format_portrait."""
    if not text:
        raise ValueError("empty portrait text")
    levels = text.split("/")
    for l, level in enumerate(levels):
        if len(level) != 1 << l:
            raise ValueError(
                f"level {l} must have {1 << l} bits, got {len(level)!r}"
            )
        if level.translate(_NON_BITS):  # checked before anything is encoded
            raise ValueError(f"invalid characters in level {level!r}")
    labels = "".join(levels).encode().translate(_TEXT_TO_LABELS)
    return Portrait(len(levels), labels)


def format_portrait(g: Portrait) -> str:
    text = g.bits.translate(_LABELS_TO_TEXT).decode()
    return "/".join([text[(1 << l) - 1 : (2 << l) - 1] for l in range(g.depth)])
