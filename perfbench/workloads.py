"""The three workloads: seeded inputs, the timed op, and its output check.

A workload hands the runner *decks*: lists of ops whose mix is fixed, so a
run that stops after any whole deck has measured the same mix whatever the
seed.  The seed chooses operands and order.  ``run`` is the timed call into
the library; ``check`` runs afterwards, outside the timed region, against
``reference``.

The library is reached through module attributes looked up at call time
(``sylow2.portrait.compose``, not a name bound here), so that the spans the
tracer installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from itertools import product

import reference

import sylow2
import sylow2.cli
import sylow2.composite
import sylow2.derived
import sylow2.permgroup
import sylow2.portrait
import sylow2.verify
import sylow2.wreath

REJECTED = "rejected"  # the op raised ValueError, as a malformed operand must


# -- verify-sweep -------------------------------------------------------------

# claims whose computed value the benchmark derives on its own
_CLAIM_REFERENCE = {
    "composite/order-log2": lambda p: reference.order_log2(p["kind"], p["n"]),
    "composite/legendre-cross-check": lambda p: reference.order_log2(p["kind"], p["n"]),
    "composite/rank": lambda p: reference.rank(p["kind"], p["n"]),
    "tree/order-log2": lambda p: reference.tree_order_log2(p["kind"], p["k"]),
    "tree/rank": lambda p: p["k"],
    "tree/frattini-quotient-log2": lambda p: p["k"],
}


class VerifySweep:
    """``sylow2 verify`` in process through ``sylow2.cli.main``.

    One deck is one pass over all 132 (kind, target, level) ops: A and S for
    n = 4..32, B and G for depth 2..5, each at quick and full.  The same
    chains are rebuilt pass after pass, which is what a chain cache or a
    faster BSGS would show on.
    """

    name = "verify-sweep"
    trace_decks = 1

    def __init__(self, rng, out_dir):
        self.rng = rng
        self.out_dir = out_dir
        self.ops = [
            (kind, target, level)
            for level in ("quick", "full")
            for kind, targets in (("A", range(4, 33)), ("S", range(4, 33)),
                                  ("B", range(2, 6)), ("G", range(2, 6)))
            for target in targets
        ]
        self.first: dict[tuple, dict] = {}  # report of each op's first run
        self.passed = Counter()  # runs per op that passed the immediate check

    def decks(self):
        while True:
            deck = list(self.ops)
            self.rng.shuffle(deck)
            yield deck

    def _report_path(self, op):
        kind, target, level = op
        return self.out_dir / f"verify-{kind}-{target}-{level}.json"

    def run(self, op):
        kind, target, level = op
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = sylow2.cli.main(["verify", kind, str(target), "--level", level,
                                  "--json", str(self._report_path(op))])
        return rc, buf.getvalue()

    def check(self, op, out) -> bool:
        rc, text = out
        if rc != 0:
            return False
        with open(self._report_path(op), encoding="utf-8") as fh:
            doc = json.load(fh)
        claims = doc["claims"]
        ok = (
            (doc["kind"], doc["target"], doc["level"]) == op
            and doc["pass"] is True
            and len(claims) > 0
            and all(c["passed"] for c in claims)
            and len(text.splitlines()) == len(claims)
            and all(
                c["computed"] == _CLAIM_REFERENCE[c["claim"]](c["params"])
                for c in claims
                if c["claim"] in _CLAIM_REFERENCE
            )
        )
        first = self.first.setdefault(op, doc)
        ok = ok and [(c["claim"], c["computed"]) for c in claims] == [
            (c["claim"], c["computed"]) for c in first["claims"]
        ]
        self.passed[op] += ok
        return ok

    def final_check(self) -> int:
        """Re-run every claim of each op's first report with ``verify.recompute``;
        return how many checked runs that turns into failures."""
        failed = 0
        for op, doc in self.first.items():
            if any(sylow2.verify.recompute(c) != c["computed"] for c in doc["claims"]):
                failed += self.passed[op]
        return failed


# -- diagonal-bases -----------------------------------------------------------

def _odd_masks(width):
    return [m for m in product((0, 1), repeat=width) if sum(m) % 2]


def diagonal_candidates(kind: str, k: int) -> list[list]:
    """Every diagonal candidate generating set of depth-k kind B or G.

    Generator l carries an odd-weight pattern on level l alone; for G the
    last generator is type T instead (odd weight in each bottom half).
    """
    choices = [_odd_masks(1 << l) for l in range(k)]
    if kind == "G":
        half = _odd_masks(1 << (k - 2))
        choices[-1] = [a + b for a in half for b in half]
    out = []
    for masks in product(*choices):
        gens = []
        for l, mask in enumerate(masks):
            bits = bytearray((1 << k) - 1)
            bits[(1 << l) - 1 : (1 << (l + 1)) - 1] = bytes(mask)
            gens.append(sylow2.Portrait(k, bytes(bits)))
        out.append(gens)
    return out


class DiagonalBases:
    """Depth-4 diagonal candidates, each op ``wreath.leaf_group(gens).order``.

    No generating set repeats within a run: a deck is one G and two B sets
    (their 1024:2048 ratio), and the run ends at the last deck.
    """

    name = "diagonal-bases"
    trace_decks = 128
    depth = 4

    def __init__(self, rng, out_dir):
        g_sets = diagonal_candidates("G", self.depth)
        b_sets = diagonal_candidates("B", self.depth)
        rng.shuffle(g_sets)
        rng.shuffle(b_sets)
        self._decks = []
        for i, g in enumerate(g_sets):
            deck = [("G", g), ("B", b_sets[2 * i]), ("B", b_sets[2 * i + 1])]
            rng.shuffle(deck)
            self._decks.append(deck)

    def decks(self):
        return iter(self._decks)

    def run(self, op):
        return sylow2.wreath.leaf_group(op[1]).order

    def check(self, op, out) -> bool:
        kind = op[0]
        formula = sylow2.wreath.order_formula(sylow2.wreath.GroupKind(kind, self.depth))
        return out == formula == 1 << reference.tree_order_log2(kind, self.depth)

    def final_check(self) -> int:
        return 0


# -- portrait-calc ------------------------------------------------------------

CALC_OPS = ("mul", "inv", "comm", "abelianize-B", "abelianize-G")
DEPTHS = (4, 6, 8, 10, 12)
MALFORMED_PER_DECK = 4
# gens sizes, log-spaced over 4..4096.  Their cost swings with n's bit count
# (gens A 4095 takes five times gens A 4096), so every 16 decks run each size
# once in each (kind, format), in seeded order, to keep the mix fixed.
GENS_N = tuple(round(2 ** (2 + 10 * j / 15)) for j in range(16))
GENS_FORMS = tuple(product(("A", "S"), ("cycles", "portrait")))


def _calc(op, texts):
    P = sylow2.portrait
    D = sylow2.derived
    operands = [P.parse_portrait(t) for t in texts]
    a = operands[0]
    if op == "abelianize-B":
        return D.format_parity_vector(D.abelianization_B(a)), a
    if op == "abelianize-G":
        return D.format_parity_vector(D.abelianization_G(a)), a
    if op == "mul":
        r = P.compose(a, operands[1])
    elif op == "inv":
        r = P.inverse(a)
    else:
        b = operands[1]
        r = P.compose(P.compose(a, b), P.compose(P.inverse(a), P.inverse(b)))
    return (P.format_portrait(r), sylow2.permgroup.format_cycles(P.leaf_permutation(r))), r


_PREDICATES = {
    "G": ("wreath", "in_G"),
    "W": ("wreath", "in_W"),
    "derived-B": ("derived", "in_derived_B"),
    "derived-G": ("derived", "in_derived_G"),
    "frattini-G": ("derived", "in_frattini_G"),
    "typeT": ("wreath", "is_type_T"),
    "typeC": ("wreath", "is_type_C"),
}


def _member(predicate, text):
    g = sylow2.portrait.parse_portrait(text)
    module, attr = _PREDICATES[predicate]
    verdict = getattr(getattr(sylow2, module), attr)(g)
    return ("yes" if verdict else "no"), g


def _gens(kind, n, fmt):
    C = sylow2.composite
    tuples = C.build_tuples_A(n) if kind == "A" else C.build_tuples_S(n)
    if fmt == "cycles":
        return [sylow2.permgroup.format_cycles(C.embed(t)) for t in tuples]
    return [
        "|".join("e" if p is None else sylow2.portrait.format_portrait(p) for p in t.parts)
        for t in tuples
    ]


# label patterns that make an operand a member of each predicate
_SHAPES = {
    "G": ("bottom_even",),
    "W": ("upper_zero", "bottom_even"),
    "derived-B": ("upper_even", "bottom_even"),
    "derived-G": ("upper_even", "halves_even"),
    "frattini-G": ("upper_even", "halves_even"),
    "typeT": ("upper_zero", "halves_odd"),
    "typeC": ("halves_odd",),
}


def _with_parity(bits, odd):
    """bits, with its first bit flipped if its count of ones has the wrong parity."""
    if bits.count("1") % 2 == odd:
        return bits
    return ("1" if bits[0] == "0" else "0") + bits[1:]


class PortraitCalc:
    """Requests that ``calc``, ``member`` and ``gens`` serve, via the API.

    A deck holds, at each depth in DEPTHS, the five calc ops and the seven
    membership predicates, plus ``gens`` for A and S in both formats with n
    from GENS_N.  Four operands a deck are malformed and must be rejected
    with ValueError.
    """

    name = "portrait-calc"
    trace_decks = 16

    def __init__(self, rng, out_dir):
        self.rng = rng

    # -- inputs -------------------------------------------------------------

    def _levels(self, k):
        return [format(self.rng.getrandbits(1 << l), f"0{1 << l}b") for l in range(k)]

    def _operand(self, k, predicate=None):
        """Random depth-k text; for a predicate, half the time shaped into a
        member of it, and always inside G where the op is defined on G only."""
        levels = self._levels(k)
        shape = _SHAPES.get(predicate, ()) if self.rng.getrandbits(1) else ()
        if predicate in reference.NEEDS_G and not shape:
            shape = ("bottom_even",)
        if "upper_zero" in shape:
            levels[:-1] = ["0" * len(lv) for lv in levels[:-1]]
        if "upper_even" in shape:
            levels[:-1] = [_with_parity(lv, 0) for lv in levels[:-1]]
        half = 1 << (k - 2)
        low, high = levels[-1][:half], levels[-1][half:]
        if "halves_odd" in shape:
            low, high = _with_parity(low, 1), _with_parity(high, 1)
        if "halves_even" in shape:
            low, high = _with_parity(low, 0), _with_parity(high, 0)
        if "bottom_even" in shape:
            high = _with_parity(high, low.count("1") % 2)
        levels[-1] = low + high
        return "/".join(levels)

    def _malform(self, op):
        """The same op with one operand that the library must reject."""
        verb, arg, texts = op
        i = self.rng.randrange(len(texts))
        kinds = ["short", "char", "empty", "slash"]
        if len(texts) == 2:
            kinds.append("depth")
        if arg in reference.NEEDS_G:
            kinds.append("outside-G")
        how = self.rng.choice(kinds)
        text = texts[i]
        levels = text.split("/")
        if how == "short":
            l = self.rng.randrange(len(levels))
            levels[l] = levels[l][:-1]
            text = "/".join(levels)
        elif how == "char":
            j = self.rng.randrange(len(text))
            text = text[:j] + "2" + text[j + 1:]
        elif how == "empty":
            text = ""
        elif how == "slash":
            text += "/"
        elif how == "depth":
            text = "/".join(self._levels(len(levels) - 2))
        else:
            levels[-1] = _with_parity(levels[-1], 1)
            text = "/".join(levels)
        texts = list(texts)
        texts[i] = text
        return (verb, arg, texts, True)

    def decks(self):
        while True:
            sizes = [self.rng.sample(GENS_N, len(GENS_N)) for _ in GENS_FORMS]
            for cycle_pos in range(len(GENS_N)):
                yield self._deck([(kind, (n[cycle_pos], fmt))
                                  for (kind, fmt), n in zip(GENS_FORMS, sizes)])

    def _deck(self, gens):
        deck = []
        for k in DEPTHS:
            for op in CALC_OPS:
                arity = 2 if op in ("mul", "comm") else 1
                deck.append(("calc", op, [self._operand(k, op) for _ in range(arity)]))
            for predicate in reference.MEMBER:
                deck.append(("member", predicate, [self._operand(k, predicate)]))
        bad = set(self.rng.sample(range(len(deck)), MALFORMED_PER_DECK))
        deck = [self._malform(op) if i in bad else op + (False,) for i, op in enumerate(deck)]
        deck += [("gens", kind, payload, False) for kind, payload in gens]
        self.rng.shuffle(deck)
        return deck

    # -- the op and its check -----------------------------------------------

    def run(self, op):
        verb, arg, payload, _ = op
        try:
            if verb == "calc":
                return _calc(arg, payload)
            if verb == "member":
                return _member(arg, payload[0])
            return _gens(arg, *payload)
        except ValueError:
            return REJECTED

    def check(self, op, out) -> bool:
        verb, arg, payload, malformed = op
        if malformed or out == REJECTED:
            return malformed and out == REJECTED
        if verb == "gens":
            return _check_gens(arg, *payload, out)
        text, value = out
        P = sylow2.portrait
        if P.parse_portrait(P.format_portrait(value)) != value:
            return False
        levels = [reference.parse_levels(t) for t in payload]
        if verb == "member":
            return text == ("yes" if reference.MEMBER[arg](levels[0]) else "no")
        if arg == "abelianize-B":
            return text == reference.abelianize_B(levels[0])
        if arg == "abelianize-G":
            return text == reference.abelianize_G(levels[0])
        leaves = [reference.leaf_images(lv) for lv in levels]
        if arg == "mul":
            want = reference.compose(leaves[0], leaves[1])
        elif arg == "inv":
            want = reference.inverse(leaves[0])
        else:
            a, b = leaves
            want = reference.compose(
                reference.compose(a, b),
                reference.compose(reference.inverse(a), reference.inverse(b)),
            )
        portrait_text, cycle_text = text
        got = reference.leaf_images(reference.parse_levels(portrait_text))
        return got == want and cycle_text == reference.cycles_text(want)

    def final_check(self) -> int:
        return 0


def _check_gens(kind, n, fmt, lines) -> bool:
    """Count equals the rank; cycles are permutations of 1..n (even for A,
    fixing n for odd n); portrait tuples fit the block layout of n (with an
    even bottom-level label total for A)."""
    if len(lines) != reference.rank(kind, n):
        return False
    exps = reference.block_exponents(n)
    for line in lines:
        if fmt == "cycles":
            p = reference.parse_cycles(line, n)
            if (kind == "A" and not reference.is_even(p)) or (n % 2 and p[n - 1] != n - 1):
                return False
            continue
        parts = line.split("|")
        if len(parts) != len(exps):
            return False
        bottom = 0
        for part, e in zip(parts, exps):
            if e == 0:
                if part != "e":
                    return False
                continue
            levels = reference.parse_levels(part)
            if len(levels) != e:
                return False
            bottom += levels[-1].count("1")
        if kind == "A" and bottom % 2:
            return False
    return True


WORKLOADS = {w.name: w for w in (VerifySweep, DiagonalBases, PortraitCalc)}
