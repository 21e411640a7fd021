"""Arithmetic kernels, in pure Python.

Everything else in the package reduces to the five functions below: tree
automorphism operations walk label tables, the stabilizer chain multiplies
permutations.  They stay in a module of their own so that each one can be
timed or wrapped by its name, ``sylow2.kernels.<name>``.

Data conventions:

* A depth-``k`` label table is a ``bytes`` object of length ``2**k - 1``
  holding 0/1 values in heap order: level ``l`` occupies the slice
  ``[2**l - 1, 2**(l+1) - 1)``, position ``j`` (0-based) of level ``l``
  sits at index ``2**l - 1 + j``.  A set bit means the automorphism swaps
  the two subtrees hanging off that vertex.
* A permutation of degree ``n`` is a tuple of ints where entry ``i`` is
  the image of point ``i`` (0-based).
* Products use the left-action convention throughout: ``mult_perm(p, q)``
  applies ``q`` first, then ``p``, and ``compose_labels(k, g, h)`` is the
  label table of the automorphism "h then g".

The three label kernels share one walk, ``_level_images``, which expands
the images of the vertices one level at a time from the labels above them.
``compose_labels`` and ``invert_labels`` read its levels ``0..k-1`` to
move labels to or from image positions, and ``leaf_images`` returns its
level ``k``.

``mult_perm`` is one ``operator.itemgetter`` gather, so its loop over the
points runs in C; degrees 0 and 1 take a plain tuple instead, because an
``itemgetter`` of one index returns the bare item and one of no index
cannot be made.
"""

from operator import itemgetter


def _level_images(k, labels):
    """Images of the vertices under the automorphism, levels 0..k.

    List ``l`` holds the 0-based positions that the ``2**l`` vertices of
    level ``l`` go to, so list ``k`` is the action on the leaves.  When a
    vertex goes to position ``p`` and carries label ``b``, its left and
    right children go to positions ``2p + b`` and ``2p + (1 - b)``.
    """
    img = [0]
    levels = [img]
    i = 0  # heap index of the label being read
    for l in range(k):
        nxt = [0] * (2 << l)
        j = 0
        for p in img:
            t = 2 * p + labels[i]
            nxt[j] = t
            nxt[j + 1] = t ^ 1
            j += 2
            i += 1
        levels.append(nxt)
        img = nxt
    return levels


def compose_labels(k, g, h):
    """Label table of the product g.h (h applied first)."""
    out = bytearray(len(h))
    for img in _level_images(k - 1, h):  # images under h of levels 0..k-1
        base = len(img) - 1  # heap index of the level's first vertex
        for i, p in enumerate(img, base):
            out[i] = h[i] ^ g[base + p]
    return bytes(out)


def invert_labels(k, g):
    """Label table of the inverse automorphism."""
    out = bytearray(len(g))
    for img in _level_images(k - 1, g):
        base = len(img) - 1
        for i, p in enumerate(img, base):
            out[base + p] = g[i]
    return bytes(out)


def leaf_images(k, g):
    """Action on the 2**k leaves as a tuple of 0-based images."""
    return tuple(_level_images(k, g)[k])


def mult_perm(p, q):
    """Left-action product: (p.q)(x) = p(q(x)).

    The gather loops in C; with one index it would return the bare item,
    not a 1-tuple, and with none it raises ``TypeError``, so degrees 0 and
    1 build the tuple directly.
    """
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(map(p.__getitem__, q))


def inv_perm(p):
    """Inverse permutation."""
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)
