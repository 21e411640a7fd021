"""Shared test helpers: independent oracles and hypothesis strategies.

The oracle functions here deliberately avoid the package's kernel code
paths.  Leaf actions are rebuilt by recursion on subtrees, group closures
by plain breadth-first multiplication (``bruteforce_closure``, shared with
the self test), so an error in the iterative kernels cannot hide behind
itself.  ``recorded`` is the one way a test counts or inspects the calls of
a package function.
"""

import contextlib

from hypothesis import settings, strategies as st

from sylow2.permgroup import Permutation
from sylow2.portrait import Portrait, random_portrait  # noqa: F401
from sylow2.verify import bruteforce_closure  # noqa: F401

settings.register_profile("suite", max_examples=60, derandomize=True)
settings.load_profile("suite")

# the published generating set of Syl_2 A_14
A14_GENS = [
    "(11,12)(13,14)",
    "(9,11)(10,12)",
    "(7,8)(9,10)",
    "(1,5)(2,6)(3,7)(4,8)",
    "(1,3)(2,4)",
]


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


def portraits(k: int):
    """Hypothesis strategy for depth-k portraits."""
    size = (1 << k) - 1
    return st.integers(min_value=0, max_value=(1 << size) - 1).map(
        lambda m: portrait_from_mask(k, m)
    )


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
