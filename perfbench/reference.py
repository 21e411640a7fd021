"""Independent answers for checking the library's outputs.

Nothing here imports ``sylow2``.  Portrait text is parsed by hand, leaf
actions are rebuilt by recursion on subtrees (a different route from the
library's level sweep), cycle text is formatted and parsed by hand, and
every membership answer is recomputed from label counts.  A wrong answer in
the library therefore cannot hide behind the same code path.

Conventions match the library's documented ones: points are 0-based inside,
1-based in text; products are left action, ``compose(p, q)[x] = p[q[x]]``.
"""

from __future__ import annotations

import functools


def parse_levels(text: str) -> list[str]:
    """Split "b/bb/bbbb" into level strings; ValueError if malformed."""
    if not text:
        raise ValueError("empty portrait text")
    levels = text.split("/")
    for l, level in enumerate(levels):
        if len(level) != 1 << l or set(level) - {"0", "1"}:
            raise ValueError(f"bad level {l}: {level!r}")
    return levels


def leaf_images(levels) -> list[int]:
    """Leaf action of a portrait, by recursion on the two root sections.

    A leaf word b.rest maps to (b XOR root label).(section b applied to rest).
    """
    k = len(levels)
    if k == 1:
        return [1, 0] if levels[0] == "1" else [0, 1]
    left = _sub_leaf_images(tuple([levels[l + 1][: 1 << l] for l in range(k - 1)]))
    right = _sub_leaf_images(tuple([levels[l + 1][1 << l :] for l in range(k - 1)]))
    half = 1 << (k - 1)
    if levels[0] == "1":
        return [v + half for v in left] + list(right)
    return list(left) + [v + half for v in right]


def _sub_leaf_images(levels: tuple):
    # subtrees of depth <= 3 (128 distinct ones) recur often; remember them
    return _small_leaf_images(levels) if len(levels) <= 3 else leaf_images(levels)


@functools.lru_cache(maxsize=None)
def _small_leaf_images(levels: tuple) -> tuple:
    return tuple(leaf_images(levels))


def compose(p, q) -> list[int]:
    """Left-action product, q applied first."""
    return [p[x] for x in q]


def inverse(p) -> list[int]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return out


def cycles(p) -> list[list[int]]:
    """Nontrivial cycles, 0-based, each from its least point, by least point."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(cyc)
    return out


def cycles_text(p) -> str:
    """Disjoint-cycle text on 1..n; the identity is "e"."""
    cs = cycles(p)
    if not cs:
        return "e"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cs)


def parse_cycles(text: str, degree: int) -> list[int]:
    """Images of a disjoint-cycle text; ValueError if it is not one."""
    images = list(range(degree))
    if text == "e":
        return images
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not cycle text: {text!r}")
    seen = set()
    for part in text[1:-1].split(")("):
        points = [int(tok) - 1 for tok in part.split(",")]
        if len(points) < 2 or not all(0 <= x < degree for x in points):
            raise ValueError(f"bad cycle {part!r}")
        if seen & set(points) or len(set(points)) != len(points):
            raise ValueError(f"repeated point in {text!r}")
        seen.update(points)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return images


def is_even(p) -> bool:
    return sum(len(c) - 1 for c in cycles(p)) % 2 == 0


# -- membership and abelianization from label counts -------------------------

def _counts(levels):
    return [level.count("1") for level in levels]


def _halves(levels):
    last = levels[-1]
    half = len(last) // 2
    return last[:half].count("1"), last[half:].count("1")


def in_G(levels) -> bool:
    return _counts(levels)[-1] % 2 == 0


def in_W(levels) -> bool:
    counts = _counts(levels)
    return not any(counts[:-1]) and counts[-1] % 2 == 0


def is_type_C(levels) -> bool:
    m1, m2 = _halves(levels)
    return m1 % 2 == 1 and m2 % 2 == 1


def is_type_T(levels) -> bool:
    return not any(_counts(levels)[:-1]) and is_type_C(levels)


def in_derived_B(levels) -> bool:
    return all(c % 2 == 0 for c in _counts(levels))


def in_derived_G(levels) -> bool:
    m1, m2 = _halves(levels)
    return all(c % 2 == 0 for c in _counts(levels)[:-1]) and m1 % 2 == 0 and m2 % 2 == 0


MEMBER = {
    "G": in_G,
    "W": in_W,
    "derived-B": in_derived_B,
    "derived-G": in_derived_G,
    "frattini-G": in_derived_G,  # defined on G only, where the two coincide
    "typeT": is_type_T,
    "typeC": is_type_C,
}

# predicates that reject an operand outside G
NEEDS_G = {"frattini-G", "abelianize-G"}


def abelianize_B(levels) -> str:
    return "".join(str(c % 2) for c in _counts(levels))


def abelianize_G(levels) -> str:
    return "".join(str(c % 2) for c in _counts(levels)[:-1]) + str(_halves(levels)[0] % 2)


# -- Sylow 2-subgroups of S_n and A_n ----------------------------------------

def block_exponents(n: int) -> list[int]:
    """Exponents of the binary expansion of n, largest first."""
    return [e for e in range(n.bit_length() - 1, -1, -1) if n >> e & 1]


def rank(kind: str, n: int) -> int:
    """Minimal generating set size of a Sylow 2-subgroup of S_n or A_n."""
    even = block_exponents(n - n % 2)
    if kind == "S":
        return sum(even)
    if n < 4:
        return 0
    return even[0] if len(even) == 1 else sum(even) - 1


def order_log2(kind: str, n: int) -> int:
    """log2 of the Sylow 2-subgroup order: the 2-part of n!, less one for A_n."""
    e, power = 0, 2
    while power <= n:
        e += n // power
        power *= 2
    return e - 1 if kind == "A" and n >= 2 else e


def tree_order_log2(kind: str, k: int) -> int:
    """log2 of the order of the depth-k wreath power B, or of its even part G."""
    return (1 << k) - (1 if kind == "B" else 2)
