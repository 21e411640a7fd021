"""Sylow 2-subgroups of S_n and A_n for arbitrary n.

Writing n as a sum of distinct powers of 2 splits 1..n into contiguous
blocks, one tree per block, largest first.  The symmetric-group Sylow
subgroup is the direct product of the per-block wreath powers; the
alternating-group one is its even part, cut out by the parity congruence on
the bottom-level label counts (an index-2 subgroup whenever there is
anything to pair).

Minimal generating sets are built the way the congruence suggests: every
generator of a non-largest block is paired with the fixed odd generator of
the largest block, and the remaining generators of the largest block are
emitted alone.  The extra point of an odd n is a 1-point block: it carries
no tree, so it adds nothing to a rank and every generator fixes it.

An element of either product is ``SubdirectElement(n, parts)``: one
portrait per entry of ``block_layout(n)`` (None for a 1-point block), and
``embed`` turns it into a permutation of 1..n via the leaf numbering of
each block, expanding only the subtree under a part's active labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from sylow2.permgroup import Permutation
from sylow2.portrait import (
    Portrait,
    Vertex,
    from_vertices,
    identity,
    leaf_permutation,
    level_index,
    moved_subtree,
    section,
)
from sylow2.wreath import alpha, gen_set_B, gen_set_G


@dataclass(frozen=True)
class SubdirectElement:
    """One portrait per entry of ``block_layout(n)`` (None on 1-point blocks)."""

    n: int
    parts: tuple[Portrait | None, ...]

    def __post_init__(self):
        if not isinstance(self.parts, tuple):
            raise ValueError(f"parts must be a tuple, got {type(self.parts).__name__}")
        exponents = block_layout(self.n)
        if len(self.parts) != len(exponents):
            raise ValueError("part count does not match the block layout")
        for part, e in zip(self.parts, exponents):
            if e == 0:
                if part is not None:
                    raise ValueError("1-point blocks carry no portrait")
            elif part is None or part.depth != e:
                raise ValueError(f"block of size {1 << e} needs a depth-{e} portrait")


def _check_n(n: int) -> None:
    """Refuse an n that is not a positive int; a bool is no n."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {type(n).__name__}")
    if n < 1:
        raise ValueError("n must be positive")


def decompose(n: int) -> tuple[int, ...]:
    """The exponents e of n as a sum of distinct 2**e, ascending."""
    _check_n(n)
    return tuple(i for i in range(n.bit_length()) if n >> i & 1)


def block_layout(n: int) -> tuple[int, ...]:
    """The block exponents largest first: the order of the blocks of 1..n
    and of an element's parts."""
    return decompose(n)[::-1]


def embed(element: SubdirectElement) -> Permutation:
    """Block-diagonal permutation of 1..n induced by the part portraits.

    A part fixes every leaf outside ``moved_subtree(part)`` and acts inside
    it as its section there, so only that subtree's leaf action is
    expanded; identity blocks and 1-point blocks are left untouched."""
    images = list(range(element.n))
    off = 0
    for part in element.parts:
        if part is None:
            break
        v = moved_subtree(part)
        if v is not None:
            height = part.depth - v.level
            start = off + ((v.position - 1) << height)
            images[start:start + (1 << height)] = [
                start + x for x in leaf_permutation(section(part, v)).images
            ]
        off += 1 << part.depth
    return Permutation(tuple(images))


def check_congruence(element: SubdirectElement) -> bool:
    """Parity congruence: the bottom-level label counts sum to 0 mod 2,
    exactly when ``embed(element)`` is even (the self test checks this)."""
    total = 0
    for part in element.parts:
        if part is not None:
            total += level_index(part, part.depth - 1)
    return total % 2 == 0


def two_part_of_factorial(n: int) -> int:
    """Exponent of 2 in n!, summed the slow way (independent of s2)."""
    e = 0
    power = 2
    while power <= n:
        e += n // power
        power *= 2
    return e


def order_syl2_S(n: int) -> int:
    return 1 << order_log2_syl2("S", n)


def order_syl2_A(n: int) -> int:
    return 1 << order_log2_syl2("A", n)


def rank_syl2_S(n: int) -> int:
    return sum(decompose(n))


def rank_syl2_A(n: int) -> int:
    """Minimal generating set size: k for a single tree block of depth k,
    one less than for S_n with two or more."""
    trees = [e for e in decompose(n) if e]  # raises for n < 1
    if n < 4:
        return 0
    return trees[0] if len(trees) == 1 else sum(trees) - 1


def _element(n: int, parts: dict[int, Portrait]) -> SubdirectElement:
    """The element with portrait parts[i] on block i and the identity (None
    on a 1-point block) on every other block."""
    return SubdirectElement(n, tuple(
        parts[i] if i in parts else identity(e) if e else None
        for i, e in enumerate(block_layout(n))
    ))


def _odd_structure(k: int, j: int) -> Portrait:
    """Generator j of a size-2**k block in odd form: its own label plus the
    bottom-left label (just the bottom-left one when j is the last level)."""
    return from_vertices(k, [Vertex(j, 1), Vertex(k - 1, 1)])


# Explicit generators hold 2**k - 1 labels per depth-k block and n points
# each once embedded, so time and memory grow with n; the order and rank
# formulas need no such cap.
GENS_LIMIT = 1 << 20


def _check_gens_n(n: int) -> None:
    _check_n(n)
    if n > GENS_LIMIT:
        raise ValueError(f"n must be at most {GENS_LIMIT} to build generators")


def build_tuples_S(n: int) -> list[SubdirectElement]:
    """Per-block single-label generators of the full (symmetric) product;
    empty for n = 1."""
    _check_gens_n(n)
    return [
        _element(n, {bi: g})
        for bi, e in enumerate(block_layout(n)) if e
        for g in gen_set_B(e)
    ]


def build_gens_S(n: int) -> list[Permutation]:
    return [embed(t) for t in build_tuples_S(n)]


def build_tuples_A(n: int) -> list[SubdirectElement]:
    """Minimal generating tuples for the even part; empty below n = 4."""
    _check_gens_n(n)
    if n < 4:
        return []
    exponents = block_layout(n)
    big_k = exponents[0]
    if sum(e >= 1 for e in exponents) == 1:
        return [_element(n, {0: g}) for g in gen_set_G(big_k)]
    pair_with = alpha(big_k, big_k - 1)
    out = [
        _element(n, {0: pair_with, bi: _odd_structure(e, j)})
        for bi, e in enumerate(exponents[1:], start=1)
        for j in range(e)
    ]
    out += [_element(n, {0: alpha(big_k, j)}) for j in range(big_k - 1)]
    return out


def build_gens_A(n: int) -> list[Permutation]:
    return [embed(t) for t in build_tuples_A(n)]


# One entry point per job for a kind given as "A" or "S".  order_log2_syl2
# computes the exponent itself; rank_syl2, build_tuples and build_gens call
# the matching _A or _S function (the benchmark names those), looked up when
# called so that a replaced module attribute is used.

def _by_kind(kind: str, for_A, for_S):
    if kind not in ("A", "S"):
        raise ValueError(f"kind must be A or S, not {kind!r}")
    return for_A if kind == "A" else for_S


def order_log2_syl2(kind: str, n: int) -> int:
    """Exponent of the order, n - popcount(n), one less for A_n once
    n >= 2, without forming the power."""
    is_A = _by_kind(kind, True, False)
    _check_n(n)
    e = n - n.bit_count()
    return e - 1 if is_A and n >= 2 else e


def rank_syl2(kind: str, n: int) -> int:
    return _by_kind(kind, rank_syl2_A, rank_syl2_S)(n)


def build_tuples(kind: str, n: int) -> list[SubdirectElement]:
    return _by_kind(kind, build_tuples_A, build_tuples_S)(n)


def build_gens(kind: str, n: int) -> list[Permutation]:
    return _by_kind(kind, build_gens_A, build_gens_S)(n)


def iso_4k2(sigma: Permutation) -> Permutation:
    """Extend a permutation of 1..4k to 4k+2 points, appending the swap of
    the two new points exactly when sigma is odd.  The result is always
    even, and on a Sylow 2-subgroup of S_4k the map is an isomorphism onto
    the corresponding subgroup of A_4k+2."""
    n = sigma.degree
    if n % 4 != 0 or n == 0:
        raise ValueError(f"degree {n} is not a positive multiple of 4")
    tail = (n + 1, n) if sigma.sign() < 0 else (n, n + 1)
    return Permutation(sigma.images + tail)


def verification_record(
    n: int, kind: str, oracle_order_log2: int | None, oracle_rank: int | None,
    gens: list[Permutation],
) -> dict:
    """Oracle-vs-formula record for one n, in the stable report schema; the
    oracle values and ``gens`` (``build_gens(kind, n)``) are those the
    verify claims computed, so nothing is built here."""
    expected_order_log2 = order_log2_syl2(kind, n)
    expected_rank = rank_syl2(kind, n)
    all_even = all(g.sign() == 1 for g in gens)
    fixed = sorted(
        p + 1 for p in range(n) if all(g.images[p] == p for g in gens)
    )
    ok = (
        oracle_order_log2 == expected_order_log2
        and oracle_rank == expected_rank
        and (kind == "S" or all_even)
        and (n % 2 == 0 or n in fixed)
    )
    return {
        "n": n,
        "decomposition": list(decompose(n)),
        "expected_order_log2": expected_order_log2,
        "oracle_order_log2": oracle_order_log2,
        "expected_rank": expected_rank,
        "oracle_rank": oracle_rank,
        "all_even": all_even,
        "fixed_points": fixed,
        "pass": ok,
    }
