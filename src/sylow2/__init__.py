"""Sylow 2-subgroups of symmetric and alternating groups.

Elements of the wreath-power realization are depth-k binary-tree portraits
(``sylow2.portrait``); the groups themselves, their generating sets and the
membership predicates live in ``sylow2.wreath`` and ``sylow2.derived``;
arbitrary-n constructions in ``sylow2.composite``.  Every structural claim
can be checked against the independent permutation oracle in
``sylow2.permgroup``; ``sylow2.verify`` packages those checks as reports.
"""

from sylow2.composite import (
    build_gens_A,
    build_gens_S,
    decompose,
    order_syl2_A,
    order_syl2_S,
    rank_syl2_A,
    rank_syl2_S,
)
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
from sylow2.portrait import (
    Portrait,
    Vertex,
    compose,
    distance,
    format_portrait,
    identity,
    inverse,
    leaf_permutation,
    level_index,
    parse_portrait,
    section,
    vertex_image,
)
from sylow2.wreath import (
    GroupKind,
    alpha,
    gen_set_B,
    gen_set_G,
    in_G,
    in_W,
    is_type_C,
    is_type_T,
    order_formula,
    split_semidirect,
    tau,
    tau_at,
)

__version__ = "0.1.0"
BACKEND = "python"  # the kernels are pure Python; reported in provenance

__all__ = [
    "BACKEND",
    "GroupKind",
    "PermGroup",
    "Permutation",
    "Portrait",
    "Vertex",
    "alpha",
    "build_gens_A",
    "build_gens_S",
    "compose",
    "decompose",
    "derived_subgroup",
    "distance",
    "format_cycles",
    "format_portrait",
    "frattini_of_2group",
    "gen_set_B",
    "gen_set_G",
    "group_from_generators",
    "identity",
    "in_G",
    "in_W",
    "inverse",
    "is_type_C",
    "is_type_T",
    "leaf_permutation",
    "level_index",
    "normal_closure",
    "order_formula",
    "order_syl2_A",
    "order_syl2_S",
    "parse_cycles",
    "parse_portrait",
    "rank_of_2group",
    "rank_syl2_A",
    "rank_syl2_S",
    "section",
    "split_semidirect",
    "tau",
    "tau_at",
    "vertex_image",
]
