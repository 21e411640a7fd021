"""Exact permutation arithmetic and a deterministic stabilizer-chain engine.

This module is the independent oracle of the package: it never imports the
tree-portrait machinery, so every structural claim made on the portrait side
(orders, membership, derived and Frattini subgroups, minimal generating set
sizes) can be checked against plain permutation computations.

Permutations act on points 1..n in the text interface (cycle notation) and
on 0..n-1 internally.  All products are left action: ``(p * q)(x) = p(q(x))``.

The stabilizer chain keeps explicit transversals: a level maps each orbit
point to u^-1, where u is its coset representative.  Every group the package
asks about is a 2-group (a Sylow 2-subgroup of S_n or A_n, a tree group, or
a derived or Frattini subgroup of one), so ``PermGroup`` accepts 2-groups
only and grows the chain one index-2 step at a time (Sims' method for
solvable groups: C. C. Sims, "Computing the order of a solvable permutation
group", J. Symb. Comput. 9, 1990), forming squares and conjugates but no
Schreier generators.  A normal closure (``_close``) grows its result N by
the same index-2 steps, keeping N normal in G at every one: an element of G
is adjoined after its square and its commutator with each generator of G, so
each step costs one commutator per generator of G, the usual way p-group
algorithms grow a normal subgroup down a central series (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005).  Neither kind of
step forms or sifts what it can prove trivial: an involution (most of the
elements these groups are built from) is its own inverse and has no square
to extend by, a commutator with a generator the element commutes with is
not finished, and the Frattini and derived subgroups are seeded with the
nontrivial squares and commutators of G's generators only.  Nor does one
construction (a chain build or a normal closure) sift an element again once
it is known to be a member (see ``PermGroup._extend``).  Generators of a
group that is not a 2-group raise ``ValueError``.  Oracle claims stay
at degree <= ``verify.ORACLE_LIMIT`` (``verify.plan_claims``).  No step is
randomized, so every order or membership answer is exact, not Monte Carlo.
"""

from __future__ import annotations

from itertools import combinations

from sylow2.kernels import inv_perm, mult_perm


class Permutation:
    """A bijection of 0..n-1, stored as the tuple of images.

    An immutable value, a plain ``__slots__`` class because it is built on
    every product (so ``dataclasses.fields``, ``asdict`` and ``replace`` do
    not apply): equality and hash are those of the field tuple
    ``(images,)``, and ``copy``, ``deepcopy`` and ``pickle`` rebuild
    through the constructor, so they validate again.
    """

    __slots__ = ("images",)
    __match_args__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        _set_images(self, images)
        self.__post_init__()

    def __post_init__(self):
        images = self.images
        if not isinstance(images, tuple):
            raise ValueError(f"images must be a tuple, got {type(images).__name__}")
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection of 0..n-1")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.images == other.images
        return NotImplemented

    def __hash__(self):
        return hash((self.images,))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a Permutation is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Permutation is immutable")

    def __reduce__(self):
        return (self.__class__, (self.images,))

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
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

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its minimum."""
        images = self.images
        seen = [False] * len(images)
        out = []
        for i, j in enumerate(images):
            # a cycle is met first at its minimum, so i itself needs no mark
            if j == i or seen[i]:
                continue
            cyc = [i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = images[j]
            out.append(tuple(cyc))
        return out

    def sign(self) -> int:
        """+1 for even, -1 for odd: a cycle of length L is L - 1 transpositions."""
        images = self.images
        seen = [False] * len(images)
        transpositions = 0
        for i, j in enumerate(images):
            if j == i or seen[i]:
                continue
            while j != i:
                transpositions += 1
                seen[j] = True
                j = images[j]
        return -1 if transpositions & 1 else 1

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        # cycles() never returns on images that are not a bijection, and a
        # traceback reprs the instance whose validation failed
        if sorted(self.images) != list(range(self.degree)):
            return f"Permutation(images={self.images!r})"
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


# the slot descriptor stores the field past the __setattr__ that refuses it
_set_images = Permutation.images.__set__


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation on points 1..degree.

    "e", "()" and the empty product all denote the identity.  Raises
    ValueError on a negative degree, repeated points, points outside
    1..degree, a point not in the ASCII digits 0-9, or malformed parentheses.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
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
        tokens = part.split(",") if part else []
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):  # int() takes "+1", "1_0"
                raise ValueError(f"invalid point {tok!r} in {text!r}")
        points = [int(tok) for tok in tokens]
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
    return "(" + ")(".join([",".join([str(x + 1) for x in c]) for c in cycles]) + ")"


# _extend's record mark for an element that is a member; an extension count
# is never negative
_FINISHED = -1


class PermGroup:
    """A 2-group of permutations with an exact base-and-strong-generating-set
    chain.

    Construction grows the chain one index-2 step at a time (Sims' method
    for solvable groups, specialised to 2-groups), which forms no Schreier
    generators.  Each step makes the new element normalise the group H
    built so far by conjugating a generating set of H, not every element
    installed in the chain; in a normal closure in G it takes the
    commutators with G's generators instead, so that H stays normal in G.
    Generators of a group that is not a 2-group raise ``ValueError``, from
    the constructor or from ``normal_closure``.  Elements enter the chain
    only through ``_adjoin``: the constructor adjoins each generator, and
    ``_close`` adjoins each seed of a normal closure the same way, with G's
    generators as the ambient set, before it returns the group.  Either
    passes one record of known members to all its ``_adjoin`` calls (see
    ``_extend``).  ``order`` and ``contains`` are exact.  Instances are
    immutable once returned and safe to query concurrently.
    """

    def __init__(self, degree: int, generators=()):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.generators: list[Permutation] = []
        self._identity = tuple(range(degree))
        self._bases: list[int] = []
        # every installed element, in order; level i's strong generators are
        # the ones that fix bases[:i]
        self._extensions: list[tuple[int, ...]] = []
        # a generating set of the group built so far, which _extend
        # conjugates by; once built, the images of the generators whose
        # _adjoin grew the group
        self._normalisers: list[tuple[int, ...]] = []
        # per level: orbit point -> u^-1, for the coset representative u
        # with u(base) = point
        self._transversals: list[dict[int, tuple[int, ...]]] = []
        record = {}  # one construction's record for _extend; dropped on return
        for g in generators:
            if g.degree != degree:
                raise ValueError("degree mismatch among generators")
            self._adjoin(g.images, record)
            self.generators.append(g)

    # -- construction ----------------------------------------------------

    def _adjoin(self, raw, record, ambient=()) -> list:
        """Extend the chain with one permutation; return the elements whose
        index-2 steps grew the group, which generate it together with the
        group before (none when raw was a member).

        ``record`` is one construction's record of known members (see
        ``_extend``).  ``ambient`` holds pairs (g, g^-1) for the generators
        of a 2-group G that contains raw and in which the group is normal;
        the group then stays normal in G at every step (see ``_extend``).
        """
        start = len(self._normalisers)
        try:
            self._extend(raw, 0, record, ambient)
        except RecursionError:
            raise ValueError(
                "index-2 extensions nested beyond the interpreter's "
                "recursion limit; the generators may not form a 2-group"
            ) from None
        return self._normalisers[start:]

    def _extend(self, raw, depth, record, ambient):
        """Add raw by index-2 steps; a member returns at once.

        First make raw normalise the group H built so far, with its square
        in H, by extending with the square and then with more elements;
        then H and raw generate a group with H at index 2, and the sift at
        the top is reused unless H grew since.  The identity is a member, so
        no step extends by it: when raw squares to the identity, raw is its
        own inverse and neither the square nor an inversion is taken.
        Which elements come second depends on the mode:

        - Chain build (no ambient set): each conjugate raw.h.raw^-1 of an
          element h of ``_normalisers``, a generating set of H that grows
          as H does; raw normalises H once it conjugates a generating set
          of H into H.  Last, raw takes the place of whatever nested calls
          appended to ``_normalisers``.  Each such element lies in the
          group that raw and H at entry generate, and that group is now H.
          A caller's loop stands at an index below this call's start, so
          the replacement moves no element it has yet to visit.
        - Normal closure (ambient pairs (g, g^-1) for the generators of a
          group G that holds raw and in which H is normal): each
          commutator [raw, g] = raw.g.raw^-1.g^-1 other than the identity,
          so g is skipped when raw.g.raw^-1 = g.  raw normalises H
          because H is normal in G, and once H holds these commutators,
          g.raw.g^-1 = [g, raw].raw lies in the group that H and raw
          generate, so that group is normal in G again.  The commutators
          need not lie in that group, so raw is appended to
          ``_normalisers`` after whatever nested calls appended, and only
          if its step grew H.

        Let P be a 2-group holding raw and H (G itself in a normal
        closure), and P_j the j-th term of its lower exponent-2 central
        series.  If raw lies in P_j.H, its square, its conjugates and its
        commutators with P lie in P_(j+1).H, since [P_j, P] lies in
        P_(j+1); so each nested call moves one term down.  Two rules stop
        generators that are not a 2-group, whose nesting never ends:

        - The series has fewer terms than the degree, so nesting deeper
          than the degree proves P is not a 2-group.
        - Take j maximal with raw in P_j.H.  While H does not grow, every
          element nested below raw lies in P_(j+1).H, which does not hold
          raw; so raw recurring on the nesting path with H unchanged since
          its entry proves P is not a 2-group.  ``record`` maps each element
          whose extension has started to the number of extension elements
          at its latest start, a count that grows exactly when H does.

        ``record`` lasts one construction: a chain build or a normal
        closure passes one dict, empty at first, to all its ``_adjoin``
        calls and drops it when it returns.  It also marks ``_FINISHED``
        every element whose extension has finished or whose sift gave the
        identity.  Such an element is a member, and H only grows while it is
        built, so it stays one: offered again, however many calls offer it,
        it returns at once, before the sift, which would only have returned
        the identity and changed nothing.  So no construction sifts a member
        it has recorded, and only elements on the nesting path can recur.
        """
        mark = record.get(raw)
        if mark == _FINISHED:
            return
        residue, level = self._strip(raw)
        if residue == self._identity:
            record[raw] = _FINISHED
            return
        if depth > self.degree:
            raise ValueError("not a 2-group: index-2 nesting deeper than the degree")
        size = len(self._extensions)
        if mark == size:
            raise ValueError("not a 2-group: an element recurred while extending")
        record[raw] = size
        start = len(self._normalisers)
        square = mult_perm(raw, raw)
        if square == self._identity:
            inverse = raw
        else:
            self._extend(square, depth + 1, record, ambient)
            inverse = inv_perm(raw)
        if ambient:
            for g, g_inv in ambient:
                conjugate = mult_perm(raw, mult_perm(g, inverse))
                if conjugate != g:
                    commutator = mult_perm(conjugate, g_inv)
                    self._extend(commutator, depth + 1, record, ambient)
        else:
            for h in self._normalisers:  # the list grows as H does
                conjugate = mult_perm(raw, mult_perm(h, inverse))
                if conjugate != h:
                    self._extend(conjugate, depth + 1, record, ambient)
        if len(self._extensions) > size:  # H grew, so the top sift is stale
            residue, level = self._strip(raw)
        if residue == raw:  # the sift moved nothing
            self._double(raw, level, inverse)
        elif residue != self._identity:  # H can swallow raw if P is no 2-group
            self._double(residue, level, inv_perm(residue))
        if not ambient:
            self._normalisers[start:] = [raw]
        elif residue != self._identity:
            self._normalisers.append(raw)
        record[raw] = _FINISHED

    def _double(self, raw, level, inverse):
        """Extend by raw, which fixes bases[:level], normalises the group
        and squares into it, so the orbit at that level doubles; inverse is
        raw^-1.  The representative raw.u of raw(point) is stored as
        u^-1.raw^-1."""
        self._install(raw, level)
        transversal = self._transversals[level]
        for point, u_inv in list(transversal.items()):
            transversal[raw[point]] = mult_perm(u_inv, inverse)

    def _install(self, raw, level):
        # raw fixes bases[:level]; open a new level if it fixes every base
        if level == len(self._bases):
            base = next(i for i, v in enumerate(raw) if i != v)
            self._bases.append(base)
            self._transversals.append({base: self._identity})
        self._extensions.append(raw)

    def _strip(self, raw):
        """Sift raw through the chain; return (residue, stuck level)."""
        for i, base in enumerate(self._bases):
            x = raw[base]
            if x == base:
                continue  # the coset representative is the identity
            u_inv = self._transversals[i].get(x)
            if u_inv is None:
                return raw, i
            raw = mult_perm(u_inv, raw)
        return raw, len(self._bases)

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
        return self._strip(g.images)[0] == self._identity

    def elements(self, cap: int) -> list[Permutation]:
        """All elements, exactly once; raises ValueError above the cap."""
        if self.order > cap:
            raise ValueError(f"order {self.order} exceeds cap {cap}")
        raws = [self._identity]
        for level in range(len(self._bases) - 1, -1, -1):
            reps = [inv_perm(u_inv) for u_inv in self._transversals[level].values()]
            raws = [mult_perm(u, h) for u in reps for h in raws]
        return [Permutation(r) for r in raws]

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def group_from_generators(gens) -> PermGroup:
    """The group of a nonempty generator list, of the first one's degree;
    ``PermGroup(degree)`` is the trivial group."""
    gens = list(gens)
    if not gens:
        raise ValueError("no generators")
    return PermGroup(gens[0].degree, gens)


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing the seeds and normalized by G, built by
    ``_close``, which needs every seed in G: one that is not raises
    ``ValueError``."""
    seeds = list(seeds)
    for s in seeds:
        if not G.contains(s):  # which checks the degree first
            raise ValueError("seed is not in G")
    return _close(G, [s.images for s in seeds], _inverse_pairs(G.generators))


def _close(G: PermGroup, seeds, pairs) -> PermGroup:
    """The normal closure N in G of seeds, image tuples of elements of G,
    grown by ``_adjoin`` with ``pairs``, the pairs (g, g^-1) of G's
    generators, as the ambient set: N is normal in G after every index-2
    step, so no conjugate of a seed needs adjoining.  ``N.generators`` lists
    the elements whose steps grew N; they generate it."""
    N = type(G)(G.degree)
    record = {}  # one construction's record for _extend; dropped on return
    for s in seeds:
        N.generators += map(Permutation, N._adjoin(s, record, pairs))
    return N


def _inverse_pairs(gens) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs (g, g^-1) of image tuples: an involution, found by one
    product, is its own inverse, and any other generator is inverted."""
    pairs = []
    for g in gens:
        a = g.images
        pairs.append((a, a if mult_perm(a, a) == tuple(range(len(a))) else inv_perm(a)))
    return pairs


def _commutators(pairs) -> list[tuple[int, ...]]:
    """The nontrivial commutators [a, b] = a.b.a^-1.b^-1 of the pairs
    (a, a^-1) before (b, b^-1), as image tuples: [a, a] = 1 and
    [b, a] = [a, b]^-1 add nothing to a normal closure, and neither does a
    commuting pair, found when a.b.a^-1 = b before the last product."""
    out = []
    for (a, a_inv), (b, b_inv) in combinations(pairs, 2):
        conjugate = mult_perm(a, mult_perm(b, a_inv))
        if conjugate != b:
            out.append(mult_perm(conjugate, b_inv))
    return out


def derived_subgroup(G: PermGroup) -> PermGroup:
    """Commutator subgroup [G, G]."""
    pairs = _inverse_pairs(G.generators)
    return _close(G, _commutators(pairs), pairs)


def frattini_of_2group(G: PermGroup) -> PermGroup:
    """Frattini subgroup of a 2-group, as the square-and-commutator closure.

    For a finite 2-group the Frattini subgroup equals G^2 [G,G]; as a normal
    subgroup it is generated by the squares and pairwise commutators of any
    generating set, which is what gets closed here.  A generator squares to
    the identity exactly when it is its own inverse, and the identity adds
    nothing, so only the other generators' squares are seeds.
    """
    pairs = _inverse_pairs(G.generators)
    squares = [mult_perm(a, a) for a, a_inv in pairs if a_inv != a]
    return _close(G, squares + _commutators(pairs), pairs)


def rank_of_2group(G: PermGroup) -> int:
    """Minimal generating set size of a 2-group (Burnside basis theorem).

    The trivial group reports rank 0.
    """
    phi = frattini_of_2group(G)
    quotient = G.order // phi.order
    return quotient.bit_length() - 1
