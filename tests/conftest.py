"""Shared test helpers: independent oracles and seeded portrait cases.

The oracle functions here deliberately avoid the package's kernel code
paths.  Leaf actions are rebuilt by recursion on subtrees, group closures
by plain breadth-first multiplication (``bruteforce_closure``, shared with
the self test), so an error in the iterative kernels cannot hide behind
itself.  ``claim`` is the one way a test runs a claim of ``verify.CLAIMS``:
a test that restates a claim runs it from the table and asserts the value
it states.  ``recorded`` is the one way a test counts or inspects the
calls of a package function.  ``portrait_cases`` draws the cases of the
portrait laws from the library's own sampler with a seeded
``random.Random``.
"""

import contextlib
import itertools
import random

from sylow2.permgroup import Permutation
from sylow2.portrait import Portrait, random_portrait
from sylow2.verify import bruteforce_closure, run_claim  # noqa: F401

# the published generating set of Syl_2 A_14
A14_GENS = [
    "(11,12)(13,14)",
    "(9,11)(10,12)",
    "(7,8)(9,10)",
    "(1,5)(2,6)(3,7)(4,8)",
    "(1,3)(2,4)",
]


def claim(claim_id, **params):
    """Run one claim from the table, require a pass, return the computed value."""
    record = run_claim(claim_id, params)
    assert record.passed, record
    return record.computed


@contextlib.contextmanager
def recorded(monkeypatch, owner, name):
    """Within the block, owner.name passes each call through unchanged and
    appends the call's positional arguments to the list it yields; a method
    records self first.  The attribute is restored on exit."""
    real = getattr(owner, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, recording)
        yield calls


def portrait_from_mask(k: int, mask: int) -> Portrait:
    size = (1 << k) - 1
    return Portrait(k, bytes((mask >> i) & 1 for i in range(size)))


def portrait_cases(seed, depths, arity=1):
    """Cases for a law of portraits, as tuples of ``arity`` portraits of one
    depth: for each depth every tuple of the identity and the all-ones
    portrait, then 60 tuples of uniform draws from ``random_portrait``
    with ``random.Random(seed)``, the depth cycling through ``depths``."""
    rng = random.Random(seed)
    for k in depths:
        yield from itertools.product(
            [portrait_from_mask(k, 0), portrait_from_mask(k, -1)], repeat=arity
        )
    for i in range(60):
        k = depths[i % len(depths)]
        yield tuple(random_portrait(rng, k) for _ in range(arity))


def oracle_leaf_images(levels):
    """Leaf action computed by recursion on subtrees.

    ``levels`` is a list of per-level bit lists.  A word b.rest maps to
    (b XOR root label).(left-or-right section applied to rest), which is a
    different route to the same permutation than the kernels' level sweep.
    """
    k = len(levels)
    n = 1 << k
    if k == 1:
        return [1, 0] if levels[0][0] else [0, 1]
    left = oracle_leaf_images(
        [levels[l + 1][: 1 << l] for l in range(k - 1)]
    )
    right = oracle_leaf_images(
        [levels[l + 1][1 << l :] for l in range(k - 1)]
    )
    root = levels[0][0]
    half = n // 2
    out = []
    for x in range(n):
        b, rest = divmod(x, half)
        sub = left[rest] if b == 0 else right[rest]
        out.append(((b ^ root) * half) + sub)
    return out


def oracle_leaf_permutation(g: Portrait) -> Permutation:
    levels = [list(g.level_bits(l)) for l in range(g.depth)]
    return Permutation(tuple(oracle_leaf_images(levels)))
