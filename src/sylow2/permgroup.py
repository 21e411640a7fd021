"""Exact permutation arithmetic and a deterministic stabilizer-chain engine.

This module is the independent oracle of the package: it never imports the
tree-portrait machinery, so every structural claim made on the portrait side
(orders, membership, derived and Frattini subgroups, minimal generating set
sizes) can be checked against plain permutation computations.

Permutations act on points 1..n in the text interface (cycle notation) and
on 0..n-1 internally.  All products are left action: ``(p * q)(x) = p(q(x))``.

The stabilizer chain keeps explicit transversals.  The groups that the
claims ask about are 2-groups, so the chain grows one index-2 step at a time
(Sims' method for solvable groups: C. C. Sims, "Computing the order of a
solvable permutation group", J. Symb. Comput. 9, 1990), forming squares and
conjugates but no Schreier generators.  A group that proves not to be a
2-group falls back to the classical deterministic Schreier-Sims closure.
Oracle claims stay at degree <= 32 (``verify.plan_claims``).  No step is
randomized, so every order or membership answer is exact, not Monte Carlo.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from sylow2.kernels import inv_perm, mult_perm


@dataclass(frozen=True)
class Permutation:
    """A bijection of 0..n-1, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images are not a bijection of 0..n-1")

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: Permutation) -> Permutation:
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(mult_perm(self.images, other.images))

    def inverse(self) -> Permutation:
        return Permutation(inv_perm(self.images))

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def apply(self, point: int) -> int:
        """Image of a 0-based point."""
        return self.images[point]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its minimum."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Counter:
        """Multiset of cycle lengths, fixed points included."""
        ct = Counter(len(c) for c in self.cycles())
        ct[1] += self.degree - sum(l * m for l, m in ct.items())
        if ct[1] == 0:
            del ct[1]
        return ct

    def sign(self) -> int:
        """+1 for even, -1 for odd: (-1)**(n - #cycles incl. fixed points)."""
        parity = sum(len(c) - 1 for c in self.cycles())
        return -1 if parity & 1 else 1

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation on points 1..degree.

    "e", "()" and the empty product all denote the identity.  Raises
    ValueError on repeated points, points outside 1..degree, or malformed
    parentheses.
    """
    stripped = text.replace(" ", "")
    if stripped in ("e", "()", ""):
        return Permutation.identity(degree)
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ValueError(f"malformed cycle text: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for part in stripped[1:-1].split(")("):
        if "(" in part or ")" in part:
            raise ValueError(f"malformed parentheses in {text!r}")
        points = [int(tok) for tok in part.split(",")] if part else []
        if len(points) < 2:
            raise ValueError(f"cycle too short in {text!r}")
        for pt in points:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {pt} outside 1..{degree}")
            if pt in seen:
                raise ValueError(f"repeated point {pt} in {text!r}")
            seen.add(pt)
        for a, b in zip(points, points[1:]):
            images[a - 1] = b - 1
        images[points[-1] - 1] = points[0] - 1
    return Permutation(tuple(images))


def format_cycles(p: Permutation) -> str:
    """Disjoint-cycle notation on 1..n; the identity prints as "e"."""
    cycles = p.cycles()
    if not cycles:
        return "e"
    return "".join("(" + ",".join(str(x + 1) for x in cyc) + ")" for cyc in cycles)


_ID_CACHE: dict[int, tuple[int, ...]] = {}


def _identity_raw(degree):
    t = _ID_CACHE.get(degree)
    if t is None:
        t = _ID_CACHE[degree] = tuple(range(degree))
    return t


class _NotA2Group(Exception):
    """Index-2 extensions nested deeper than any 2-group of the degree needs."""


class PermGroup:
    """Permutation group with an exact base-and-strong-generating-set chain.

    Construction grows the chain one index-2 step at a time (Sims' method
    for solvable groups, specialised to 2-groups), which forms no Schreier
    generators.  A group that turns out not to be a 2-group is rebuilt by
    the deterministic Schreier-Sims closure from every generator received so
    far, and keeps that closure for later generators.  Either way ``order``
    and ``contains`` are exact.  Instances are immutable after construction
    and safe to query concurrently.
    """

    _by_closure = False  # set once the instance falls back to the closure

    def __init__(self, degree: int, generators=()):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.generators: list[Permutation] = []
        self._received: list[tuple[int, ...]] = []  # replayed by the closure
        self._bases: list[int] = []
        # per level: strong generators fixing all earlier base points; on the
        # index-2 path level 0 holds every extension element, in order
        self._sgens: list[list[tuple[int, ...]]] = []
        # per level: orbit point -> (u, u_inverse) with u(base) = point
        self._transversals: list[dict[int, tuple]] = []
        self._processed: list[set[tuple[int, int]]] = []
        self._bfs_seen: list[int] = []  # generator count at last orbit BFS
        for g in generators:
            if g.degree != degree:
                raise ValueError("degree mismatch among generators")
            self._add_generator(g.images)
            self.generators.append(g)

    # -- construction ----------------------------------------------------

    def _add_generator(self, raw):
        """Extend the chain with one permutation."""
        self._received.append(raw)
        if self._by_closure:
            self._close_with(raw)
        elif not self._contains_raw(raw):
            try:
                self._extend(raw, 0)
            except (_NotA2Group, RecursionError):
                # at large degrees the interpreter's recursion limit comes
                # before the degree bound; either way, start over
                self._rebuild_by_closure()

    def _extend(self, raw, depth):
        """Add raw, not yet a member, by index-2 steps.

        First make raw normalise the group H built so far, with its square
        in H: add the square, then each conjugate raw.h.raw^-1 of an
        extension element h, whenever it is not a member yet.  Then H and
        raw generate a group with H at index 2.

        In a 2-group P, raw from the j-th term of P's lower exponent-2
        central series (times H) nests calls only for elements of the
        (j+1)-th term (times H).  The series has fewer terms than the degree,
        so nesting deeper than the degree proves P is not a 2-group.
        """
        if depth > self.degree:
            raise _NotA2Group
        square = mult_perm(raw, raw)
        if not self._contains_raw(square):
            self._extend(square, depth + 1)
        inverse = inv_perm(raw)
        i = 0
        while self._sgens and i < len(self._sgens[0]):  # grows as H does
            h = self._sgens[0][i]
            conjugate = mult_perm(raw, mult_perm(h, inverse))
            if conjugate != h and not self._contains_raw(conjugate):
                self._extend(conjugate, depth + 1)
            i += 1
        residue, level = self._strip(raw, 0)
        if residue != _identity_raw(self.degree):
            self._double(residue, level)

    def _double(self, raw, level):
        """Extend by raw, which fixes bases[:level], normalises the group
        and squares into it, so the orbit at that level doubles."""
        self._install(raw, level)
        inverse = inv_perm(raw)
        transversal = self._transversals[level]
        for point, (u, u_inv) in list(transversal.items()):
            transversal[raw[point]] = (mult_perm(raw, u), mult_perm(u_inv, inverse))

    def _rebuild_by_closure(self):
        """Start the chain over with the closure, from every generator."""
        self._by_closure = True
        self._bases, self._sgens, self._transversals = [], [], []
        self._processed, self._bfs_seen = [], []
        for raw in self._received:
            self._close_with(raw)

    def _close_with(self, raw):
        """Extend the chain with one permutation, then re-close it."""
        residue, level = self._strip(raw, 0)
        if residue == _identity_raw(self.degree):
            return
        self._install(residue, level)
        self._close()

    def _install(self, raw, level):
        # raw fixes bases[:level]; register it at that level and at every
        # shallower one, keeping the generator sets nested along the chain
        if level == len(self._bases):
            base = next(i for i, v in enumerate(raw) if i != v)
            identity = _identity_raw(self.degree)
            self._bases.append(base)
            self._sgens.append([])
            self._transversals.append({base: (identity, identity)})
            self._processed.append(set())
            self._bfs_seen.append(0)
        for j in range(level + 1):
            self._sgens[j].append(raw)

    def _close(self):
        """Close levels deepest-first until all Schreier generators sift.

        Processing the deep end first keeps the transversals consulted by
        _strip current, which is what makes the sweep terminate.
        """
        while True:
            for i in range(len(self._bases) - 1, -1, -1):
                if self._close_level(i):
                    break  # a new generator landed somewhere; start over
            else:
                return

    def _close_level(self, i):
        """Refresh the orbit at level i and sift its next Schreier generators.

        Stops at the first new strong generator and returns True; returns
        False once every pair at this level sifts to the identity.
        """
        gens = self._sgens[i]
        transversal = self._transversals[i]
        if self._bfs_seen[i] != len(gens):
            self._bfs_seen[i] = len(gens)
            queue = list(transversal)
            while queue:
                p = queue.pop()
                up = transversal[p][0]
                for s in gens:
                    q = s[p]
                    if q not in transversal:
                        u = mult_perm(s, up)
                        transversal[q] = (u, inv_perm(u))
                        queue.append(q)
        identity = _identity_raw(self.degree)
        for p in list(transversal):
            up = transversal[p][0]
            for gi, s in enumerate(gens):
                key = (p, gi)
                if key in self._processed[i]:
                    continue
                self._processed[i].add(key)
                uq_inv = transversal[s[p]][1]
                schreier = mult_perm(uq_inv, mult_perm(s, up))
                residue, level = self._strip(schreier, i + 1)
                if residue != identity:
                    self._install(residue, level)
                    return True
        return False

    def _strip(self, raw, start):
        """Sift raw through levels >= start; return (residue, stuck level)."""
        bases = self._bases
        for i in range(start, len(bases)):
            x = raw[bases[i]]
            if x == bases[i]:
                continue  # the coset representative is the identity
            entry = self._transversals[i].get(x)
            if entry is None:
                return raw, i
            raw = mult_perm(entry[1], raw)
        return raw, len(bases)

    # -- queries ----------------------------------------------------------

    @property
    def order(self) -> int:
        n = 1
        for t in self._transversals:
            n *= len(t)
        return n

    def base(self) -> list[int]:
        return list(self._bases)

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        return self._contains_raw(g.images)

    def _contains_raw(self, raw) -> bool:
        residue, _ = self._strip(raw, 0)
        return residue == _identity_raw(self.degree)

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    def elements(self, cap: int) -> list[Permutation]:
        """All elements, exactly once; raises ValueError above the cap."""
        if self.order > cap:
            raise ValueError(f"order {self.order} exceeds cap {cap}")
        raws = [_identity_raw(self.degree)]
        for level in range(len(self._bases) - 1, -1, -1):
            raws = [
                mult_perm(entry[0], h)
                for entry in self._transversals[level].values()
                for h in raws
            ]
        return [Permutation(r) for r in raws]

    def orbit(self, point: int) -> set[int]:
        """Orbit of a 0-based point under the group."""
        seen = {point}
        queue = [point]
        raws = [g.images for g in self.generators]
        while queue:
            p = queue.pop()
            for g in raws:
                q = g[p]
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
        return seen

    def is_2group(self) -> bool:
        n = self.order
        return n & (n - 1) == 0

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def group_from_generators(gens, degree: int | None = None) -> PermGroup:
    """Build a group; an empty generator list gives the trivial group."""
    gens = list(gens)
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = gens[0].degree
    return PermGroup(degree, gens)


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing the seeds and normalized by G."""
    N = type(G)(G.degree)
    gen_raws = [g.images for g in G.generators]
    queue = []
    for s in seeds:
        if s.degree != G.degree:
            raise ValueError("degree mismatch")
        queue.append(s.images)
    identity = _identity_raw(G.degree)
    while queue:
        raw = queue.pop()
        if raw == identity or N._contains_raw(raw):
            continue
        N._add_generator(raw)
        N.generators.append(Permutation(raw))
        for h in gen_raws:
            queue.append(mult_perm(h, mult_perm(raw, inv_perm(h))))
    return N


def derived_subgroup(G: PermGroup) -> PermGroup:
    """Commutator subgroup [G, G]."""
    seeds = []
    gens = G.generators
    for a in gens:
        for b in gens:
            seeds.append(a * b * a.inverse() * b.inverse())
    return normal_closure(G, seeds)


def frattini_of_2group(G: PermGroup) -> PermGroup:
    """Frattini subgroup of a 2-group, as the square-and-commutator closure.

    For a finite 2-group the Frattini subgroup equals G^2 [G,G]; as a normal
    subgroup it is generated by the squares and pairwise commutators of any
    generating set, which is what gets closed here.
    """
    if not G.is_2group():
        raise ValueError(f"order {G.order} is not a power of 2")
    seeds = [g * g for g in G.generators]
    gens = G.generators
    for a in gens:
        for b in gens:
            seeds.append(a * b * a.inverse() * b.inverse())
    return normal_closure(G, seeds)


def rank_of_2group(G: PermGroup) -> int:
    """Minimal generating set size of a 2-group (Burnside basis theorem).

    The trivial group reports rank 0.
    """
    if not G.is_2group():
        raise ValueError(f"order {G.order} is not a power of 2")
    if G.order == 1:
        return 0
    phi = frattini_of_2group(G)
    quotient = G.order // phi.order
    return quotient.bit_length() - 1
