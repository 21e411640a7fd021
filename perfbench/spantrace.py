"""Spans around the library's public functions, installed from outside.

The library binds kernels and portrait functions by name at import time, so
a function is wrapped at every ``sylow2.*`` module attribute that refers to
it, not only where it is defined.  Class construction is wrapped through
``Portrait.__post_init__``, ``Permutation.__post_init__`` and
``PermGroup.__init__``.  Nothing is reloaded and no library file changes;
``uninstall`` puts every original object back, so the runner can trace the
timed ops alone and leave its own output checks out of the spans.

Each span records name, parent span, start and end (``perf_counter_ns``).
Spans are kept in flat arrays while the traced phase runs (about 21 bytes a
span) and written out when it ends; self time is computed from them
afterwards, as span time minus the time of child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (span name, defining module, attribute); a dotted attribute is a class member
TARGETS = [
    ("kernels.mult_perm", "sylow2.kernels", "mult_perm"),
    ("kernels.inv_perm", "sylow2.kernels", "inv_perm"),
    ("kernels.compose_labels", "sylow2.kernels", "compose_labels"),
    ("kernels.invert_labels", "sylow2.kernels", "invert_labels"),
    ("kernels.leaf_images", "sylow2.kernels", "leaf_images"),
    ("portrait.Portrait", "sylow2.portrait", "Portrait.__post_init__"),
    ("portrait.parse_portrait", "sylow2.portrait", "parse_portrait"),
    ("portrait.format_portrait", "sylow2.portrait", "format_portrait"),
    ("portrait.compose", "sylow2.portrait", "compose"),
    ("portrait.inverse", "sylow2.portrait", "inverse"),
    ("portrait.leaf_permutation", "sylow2.portrait", "leaf_permutation"),
    ("portrait.level_index", "sylow2.portrait", "level_index"),
    ("permgroup.Permutation", "sylow2.permgroup", "Permutation.__post_init__"),
    ("permgroup.format_cycles", "sylow2.permgroup", "format_cycles"),
    ("permgroup.PermGroup", "sylow2.permgroup", "PermGroup.__init__"),
    ("permgroup.normal_closure", "sylow2.permgroup", "normal_closure"),
    ("permgroup.rank_of_2group", "sylow2.permgroup", "rank_of_2group"),
    ("permgroup.frattini_of_2group", "sylow2.permgroup", "frattini_of_2group"),
    ("permgroup.derived_subgroup", "sylow2.permgroup", "derived_subgroup"),
    ("permgroup.PermGroup.elements", "sylow2.permgroup", "PermGroup.elements"),
    ("wreath.leaf_group", "sylow2.wreath", "leaf_group"),
    ("wreath.predicates", "sylow2.wreath", "in_G"),
    ("wreath.predicates", "sylow2.wreath", "in_W"),
    ("wreath.predicates", "sylow2.wreath", "is_type_T"),
    ("wreath.predicates", "sylow2.wreath", "is_type_C"),
    ("derived.predicates", "sylow2.derived", "in_derived_B"),
    ("derived.predicates", "sylow2.derived", "in_derived_G"),
    ("derived.predicates", "sylow2.derived", "in_frattini_G"),
    ("derived.predicates", "sylow2.derived", "abelianization_B"),
    ("derived.predicates", "sylow2.derived", "abelianization_G"),
    ("composite.build_gens", "sylow2.composite", "build_gens_A"),
    ("composite.build_gens", "sylow2.composite", "build_gens_S"),
    ("composite.build_gens", "sylow2.composite", "build_tuples_A"),
    ("composite.build_gens", "sylow2.composite", "build_tuples_S"),
    ("composite.build_gens", "sylow2.composite", "embed"),
    ("composite.verification_record", "sylow2.composite", "verification_record"),
    ("verify.report", "sylow2.verify", "report_to_json"),
    ("verify.report", "sylow2.verify", "write_report"),
    ("cli.main", "sylow2.cli", "main"),
]

CLAIM_IDS = [
    "composite/all-even",
    "composite/enumeration-even",
    "composite/fixed-point",
    "composite/legendre-cross-check",
    "composite/neighbor-ratios",
    "composite/order-log2",
    "composite/rank",
    "tree/derived-matches-predicate",
    "tree/derived-order-log2",
    "tree/frattini-quotient-log2",
    "tree/order-log2",
    "tree/rank",
    "tree/sign-law-violations",
    "tree/w-count",
]

# spans reported with an exact call count, and spans reported by self time
_CALLS = [
    "kernels.mult_perm", "kernels.inv_perm", "kernels.compose_labels",
    "kernels.invert_labels", "kernels.leaf_images", "portrait.Portrait",
    "portrait.level_index", "permgroup.Permutation", "permgroup.PermGroup",
    "permgroup.normal_closure", "wreath.leaf_group",
    "composite.verification_record", "verify.run_claim",
]
_SELF = [
    "kernels.mult_perm", "kernels.inv_perm", "kernels.compose_labels",
    "kernels.invert_labels", "kernels.leaf_images", "portrait.Portrait",
    "portrait.level_index", "portrait.parse_portrait", "portrait.format_portrait",
    "portrait.compose", "portrait.inverse", "portrait.leaf_permutation",
    "permgroup.Permutation", "permgroup.PermGroup", "permgroup.normal_closure",
    "permgroup.format_cycles", "permgroup.rank_of_2group",
    "permgroup.frattini_of_2group", "permgroup.derived_subgroup",
    "permgroup.PermGroup.elements", "wreath.leaf_group", "wreath.predicates",
    "derived.predicates", "composite.build_gens", "composite.verification_record",
    "verify.run_claim", "verify.report", "cli.main",
]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{n}.calls", "count", "lower") for n in _CALLS]
    specs += [(f"{n}.self_s", "s", "lower") for n in _SELF]
    specs += [(f"verify.claim.{c.replace('/', '.')}.s", "s", "lower") for c in CLAIM_IDS]
    specs += [
        ("permgroup.chain_build.nonempty", "count", "lower"),
        ("permgroup.chain_build.repeat_ratio", "ratio", "lower"),
        ("permgroup.PermGroup.degree_sum", "points", "lower"),
        ("permgroup.PermGroup.base_len_sum", "points", "lower"),
        ("wreath.all_portraits.items", "count", "lower"),
        ("verify.claims_failed", "count", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


def _resolve(module_name, attr):
    obj = sys.modules[module_name]
    *owner, last = attr.split(".")
    for part in owner:
        obj = getattr(obj, part)
    return obj, last


class Tracer:
    """Span recorder plus the work-shape counters of one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("B")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._seen_builds: set = set()
        self._patched: list[tuple[object, str, object, object]] = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, nid, fn, after=None, name_of=None):
        """``fn`` recording a span per call, named by ``nid`` or ``name_of(args)``."""
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid if name_of is None else name_of(args))
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def _after_build(self, args, _result):
        group = args[0]
        if not group.generators:
            return  # e.g. the empty seed group of normal_closure
        key = (group.degree, tuple(g.images for g in group.generators))
        self.counters["permgroup.chain_build.nonempty"] += 1
        self.counters["permgroup.chain_build.repeats"] += key in self._seen_builds
        self._seen_builds.add(key)
        self.counters["permgroup.PermGroup.degree_sum"] += group.degree
        self.counters["permgroup.PermGroup.base_len_sum"] += len(group.base())

    def _after_claim(self, _args, record):
        self.counters["verify.claims_failed"] += not record.passed

    def _claim_name(self, args):
        return self._name_id(f"verify.run_claim:{args[0]}")

    def _count_items(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters["wreath.all_portraits.items"] += 1
                yield item

        return wrapper

    # -- installing -------------------------------------------------------

    def _patches(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        patches = []

        def rebind(original, wrapper):
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "sylow2" or mod_name.startswith("sylow2."):
                    for key, value in vars(module).items():
                        if value is original:
                            patches.append((module, key, original, wrapper))

        for name, module_name, attr in TARGETS:
            owner, last = _resolve(module_name, attr)
            after = self._after_build if name == "permgroup.PermGroup" else None
            if isinstance(owner, type):
                original = vars(owner)[last]
                patches.append((owner, last, original,
                                self._wrap(self._name_id(name), original, after)))
            else:
                original = getattr(owner, last)
                rebind(original, self._wrap(self._name_id(name), original, after))
        run_claim = sys.modules["sylow2.verify"].run_claim
        rebind(run_claim, self._wrap(None, run_claim, self._after_claim, self._claim_name))
        all_portraits = sys.modules["sylow2.wreath"].all_portraits
        rebind(all_portraits, self._count_items(all_portraits))
        return patches

    def install(self):
        """Route calls through the wrappers; cheap after the first call."""
        if not self._patched:
            self._patched = self._patches()
        for owner, key, _original, wrapper in self._patched:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _wrapper in self._patched:
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0] * n_names
        child = [0] * n_names
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            d = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            total[nid] += d
            p = parents[i]
            if p >= 0:
                child[names[p]] += d
        return {
            name: (calls[i], total[i], total[i] - child[i])
            for i, name in enumerate(self.names)
        }

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric of ``metric_specs``, 0 where nothing ran."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        claim_ns: Counter = Counter()
        for name, (n, incl, own) in self.totals().items():
            if name.startswith("verify.run_claim:"):
                claim_ns[name.split(":", 1)[1]] += incl
                name = "verify.run_claim"
            calls[name] += n
            self_ns[name] += own
        c = self.counters
        builds = c["permgroup.chain_build.nonempty"]
        out: dict[str, float] = {f"{n}.calls": calls[n] for n in _CALLS}
        out.update({f"{n}.self_s": self_ns[n] / 1e9 for n in _SELF})
        out.update({
            f"verify.claim.{claim.replace('/', '.')}.s": claim_ns[claim] / 1e9
            for claim in CLAIM_IDS
        })
        out.update({
            "permgroup.chain_build.nonempty": builds,
            "permgroup.chain_build.repeat_ratio":
                c["permgroup.chain_build.repeats"] / builds if builds else 0.0,
            "permgroup.PermGroup.degree_sum": c["permgroup.PermGroup.degree_sum"],
            "permgroup.PermGroup.base_len_sum": c["permgroup.PermGroup.base_len_sum"],
            "wreath.all_portraits.items": c["wreath.all_portraits.items"],
            "verify.claims_failed": c["verify.claims_failed"],
            "trace.ops": ops,
            "trace.overhead_ratio": overhead_ratio,
        })
        return out

    def write(self, stem):
        """Write the spans as ``stem.json`` (names, layout) and ``stem.bin``."""
        columns = [
            ("name", self.span_name), ("parent", self.span_parent),
            ("start_ns", self.span_start), ("end_ns", self.span_end),
        ]
        with open(f"{stem}.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {
            "spans": len(self.span_name),
            "names": self.names,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
            "layout": "each column in turn, native byte order; parent -1 = none",
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")
