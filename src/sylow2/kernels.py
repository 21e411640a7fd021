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

The three label kernels share one walk, ``_level_images``, the only loop
over the vertices: a generator that expands the images of the vertices
one level at a time and yields each level before it reads that level's
labels.  ``compose_labels`` and ``invert_labels`` read its levels
``0..k-1``, each with one ``itemgetter`` gather of a level's labels at
the level's images, so their work per vertex runs in C (``compose_labels``
then XORs the gathered table with h as one int); ``leaf_images`` returns
its level ``k``.  Because the walk is lazy, ``invert_labels``
can walk the table it is writing: the images of a level under the
inverse depend only on the levels above, which it has already filled.

``mult_perm`` is one ``operator.itemgetter`` gather, so its loop over the
points runs in C; degrees 0 and 1 take a plain tuple instead, because an
``itemgetter`` of one index returns the bare item and one of no index
cannot be made.
"""

from operator import itemgetter


def _level_images(k, labels):
    """Images of the vertices under the automorphism, levels 0..k, lazily.

    The list yielded for level ``l`` holds the 0-based positions that the
    ``2**l`` vertices of level ``l`` go to, so the last one is the action
    on the leaves.  When a vertex goes to position ``p`` and carries label
    ``b``, its left and right children go to positions ``2p + b`` and
    ``2p + (1 - b)``.  Level ``l`` is yielded before its labels are read,
    so ``labels`` may be a table that the caller fills level by level.
    """
    img = [0]
    i = 0  # heap index of the label being read
    for l in range(k):
        yield img
        nxt = [0] * (2 << l)
        j = 0
        for p in img:
            t = 2 * p + labels[i]
            nxt[j] = t
            nxt[j + 1] = t ^ 1
            j += 2
            i += 1
        img = nxt
    yield img


def compose_labels(k, g, h):
    """Label table of the product g.h (h applied first).

    The label of g.h at v is h's label at v XOR g's label at h(v).  Each
    level gathers g's labels at h's images; the root goes to itself, and
    takes a one-byte slice because ``itemgetter`` of one index returns the
    bare item.  One XOR of the joined levels with h, as ints, ends it.
    """
    levels = []
    for img in _level_images(k - 1, h):  # images under h of levels 0..k-1
        base = len(img) - 1  # heap index of the level's first vertex
        levels.append(bytes(itemgetter(*img)(g[base:2 * base + 1])) if base else g[:1])
    x = int.from_bytes(b"".join(levels), "little") ^ int.from_bytes(h, "little")
    return x.to_bytes(len(h), "little")


def invert_labels(k, g):
    """Label table of the inverse automorphism.

    The label of g^-1 at v is g's label at g^-1(v), so each level gathers
    g's labels at the images under g^-1, which the walk reads off the
    levels of the table already written (the root, as in
    ``compose_labels``, takes a one-byte slice).
    """
    out = bytearray(len(g))
    for img in _level_images(k - 1, out):
        base = len(img) - 1
        out[base:2 * base + 1] = itemgetter(*img)(g[base:2 * base + 1]) if base else g[:1]
    return bytes(out)


def leaf_images(k, g):
    """Action on the 2**k leaves as a tuple of 0-based images."""
    for img in _level_images(k, g):
        pass
    return tuple(img)


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
