"""Commutator and Frattini membership by level parities.

Reducing the level label counts mod 2 gives the abelianization of the full
wreath power B onto k copies of C2; on the even subgroup G the bottom
coordinate is counted on the first half of the last level instead.  Derived
membership is the kernel of these maps, and so is Frattini membership in G,
whose Frattini quotient is therefore elementary abelian of rank k.  The
command line answers ``member frattini-G`` through ``in_derived_G``;
``in_frattini_G`` keeps its ValueError outside G for its library callers.

The module holds label predicates only.  The oracle-side suites in the
tests rebuild the same subgroups from generator squares and commutators and
compare elementwise; that squares fall in the derived subgroup is the
``derived/squares-in-derived`` claim of ``verify.CLAIMS``.
"""

from __future__ import annotations

from sylow2.portrait import Portrait, level_index
from sylow2.wreath import bottom_halves, in_G


def abelianization_B(g: Portrait) -> tuple[int, ...]:
    """Level parities as a length-k vector over F2, root first."""
    return tuple(level_index(g, l) % 2 for l in range(g.depth))


def abelianization_G(g: Portrait) -> tuple[int, ...]:
    """Level parities with the bottom coordinate taken on the first half.

    Defined on G only; there both halves have equal parity, which is what
    makes the map a homomorphism.
    """
    if not in_G(g):
        raise ValueError("element is not in G")
    return abelianization_B(g)[:-1] + (bottom_halves(g)[0] % 2,)


def in_derived_B(g: Portrait) -> bool:
    """Kernel of abelianization_B: even label count on every level."""
    return not any(abelianization_B(g))


def in_derived_G(g: Portrait) -> bool:
    """Kernel of abelianization_G: even count on levels above the last, even
    count in each bottom half; False outside G.

    The root level is included in the evenness requirement; at depth >= 2
    a single root label already fails.
    """
    return in_G(g) and not any(abelianization_G(g))


def format_parity_vector(v) -> str:
    """Bit string, coordinate 0 first."""
    return "".join(str(b) for b in v)


def in_frattini_G(g: Portrait) -> bool:
    """Frattini membership for G, the kernel of abelianization_G: it
    coincides with the derived subgroup (squares generate nothing beyond
    the commutators here).  Raises ValueError outside G, where
    ``in_derived_G`` returns False; the reference of the portrait-calc
    benchmark relies on that error, while the CLI's ``frattini-G`` answers
    through ``in_derived_G``."""
    return not any(abelianization_G(g))

