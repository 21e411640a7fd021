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
``Portrait.active_vertices``, and reads labels through ``level_bits``,
``level_index`` and ``labels_above``.

Leaves are numbered 1 + sum(b_i * 2**(k-i)) from the path bits b_1..b_k, so
the leftmost leaf is 1 and a root label alone swaps the front and back
halves of 1..2**k.  All composition is left action: (g*h)(w) = g(h(w)).
Portraits are immutable values; every operation here is a pure function.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from sylow2.kernels import compose_labels, invert_labels, leaf_images
from sylow2.permgroup import Permutation


@dataclass(frozen=True)
class Vertex:
    """Tree vertex: 0-based level, 1-based position within the level."""

    level: int
    position: int

    def __post_init__(self):
        if type(self.level) is not int:
            raise ValueError(f"level must be an int, got {type(self.level).__name__}")
        if type(self.position) is not int:
            raise ValueError(f"position must be an int, got {type(self.position).__name__}")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if not 1 <= self.position <= 1 << self.level:
            raise ValueError(
                f"position {self.position} outside 1..{1 << self.level} "
                f"on level {self.level}"
            )


class Portrait:
    """Label table of a depth-k tree automorphism.

    ``bits`` holds the 2**k - 1 labels in heap order (level l occupies
    indices 2**l - 1 .. 2**(l+1) - 2).

    An immutable value, a plain ``__slots__`` class because it is built on
    every product (so ``dataclasses.fields``, ``asdict`` and ``replace`` do
    not apply): equality and hash are those of the field tuple
    ``(depth, bits)``, and ``copy``, ``deepcopy`` and ``pickle`` rebuild
    through the constructor, so they validate again.
    """

    __slots__ = ("depth", "bits")
    __match_args__ = ("depth", "bits")

    def __init__(self, depth: int, bits: bytes):
        _set_depth(self, depth)
        _set_bits(self, bits)
        self.__post_init__()

    def __post_init__(self):
        if type(self.depth) is not int:
            raise ValueError(f"depth must be an int, got {type(self.depth).__name__}")
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.depth, self.bits) == (other.depth, other.bits)
        return NotImplemented

    def __hash__(self):
        return hash((self.depth, self.bits))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a Portrait is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Portrait is immutable")

    def __reduce__(self):
        return (self.__class__, (self.depth, self.bits))

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


# the slot descriptors store a field past the __setattr__ that refuses it
_set_depth = Portrait.depth.__set__
_set_bits = Portrait.bits.__set__


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


_TOP_BIT = bytes(b >> 7 for b in range(256))  # a byte -> its top bit


def _draw_labels(rng, k: int, count: int) -> bytes:
    """The labels of ``count`` depth-k portraits, drawn as one
    ``rng.getrandbits(1)`` per label would draw them, from one rng call.

    CPython fills ``getrandbits(m)`` with 32-bit words, least significant
    first, in generator order, and ``getrandbits(1)`` is the top bit of one
    word; so the top bit of every fourth little-endian byte is the next
    label, and the rng state afterwards is the same."""
    if k < 1:
        raise ValueError("depth must be >= 1 (the depth-0 tree is empty)")
    words = count * ((1 << k) - 1)
    little_endian = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
    return little_endian[3::4].translate(_TOP_BIT)


def random_portrait(rng, k: int) -> Portrait:
    """Uniform depth-k portrait, labelled in storage order as by one
    ``rng.getrandbits(1)`` per label, so a seeded ``random.Random`` gives a
    fixed sequence; the labels come from a single rng call."""
    return Portrait(k, _draw_labels(rng, k, 1))


def random_portrait_counts(rng, k: int, count: int) -> Counter:
    """``Counter(random_portrait(rng, k) for _ in range(count))``, from one
    rng call: the label tables are counted as bytes first, and one
    ``Portrait`` is built per distinct table."""
    labels = _draw_labels(rng, k, count)
    size = (1 << k) - 1
    tables = Counter(labels[i : i + size] for i in range(0, len(labels), size))
    return Counter({Portrait(k, bits): m for bits, m in tables.items()})


def compose(g: Portrait, h: Portrait) -> Portrait:
    """Product g*h, h applied first: (g*h)(w) = g(h(w)).

    The label of the product at v is label_h(v) XOR label_g(h(v)).
    """
    if g.depth != h.depth:
        raise ValueError(f"depth mismatch: {g.depth} != {h.depth}")
    return Portrait(g.depth, compose_labels(g.bits, h.bits))


def inverse(g: Portrait) -> Portrait:
    """Inverse automorphism: label at v is g's label at g^-1(v)."""
    return Portrait(g.depth, invert_labels(g.bits))


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
    return Permutation(leaf_images(g.bits))


def level_index(g: Portrait, l: int) -> int:
    """Number of active labels on level l."""
    if not 0 <= l < g.depth:
        raise ValueError(f"level {l} outside 0..{g.depth - 1}")
    start = (1 << l) - 1
    return g.bits.count(1, start, start + (1 << l))


def labels_above(g: Portrait, l: int) -> int:
    """Number of active labels on levels 0..l-1, the levels above level l:
    0 at l = 0 and every active label at l = g.depth.  Levels 0..l-1 are
    the first 2**l - 1 labels of the table, so this is one count."""
    if type(l) is not int:
        raise ValueError(f"level must be an int, got {type(l).__name__}")
    if not 0 <= l <= g.depth:
        raise ValueError(f"level {l} outside 0..{g.depth}")
    return g.bits.count(1, 0, (1 << l) - 1)


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
