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
"""


def compose_labels(k, g, h):
    """Label table of the product g.h (h applied first)."""
    out = bytearray(len(h))
    img = [0]  # images of this level's vertices under h, 0-based positions
    base = 0
    for l in range(k):
        width = 1 << l
        for j in range(width):
            out[base + j] = h[base + j] ^ g[base + img[j]]
        if l + 1 < k:
            nxt = [0] * (2 * width)
            for j in range(width):
                hb = h[base + j]
                t = 2 * img[j]
                nxt[2 * j] = t + hb
                nxt[2 * j + 1] = t + (1 ^ hb)
            img = nxt
        base += width
    return bytes(out)


def invert_labels(k, g):
    """Label table of the inverse automorphism."""
    out = bytearray(len(g))
    img = [0]
    base = 0
    for l in range(k):
        width = 1 << l
        inv = [0] * width
        for j in range(width):
            inv[img[j]] = j
        for j in range(width):
            out[base + j] = g[base + inv[j]]
        if l + 1 < k:
            nxt = [0] * (2 * width)
            for j in range(width):
                gb = g[base + j]
                t = 2 * img[j]
                nxt[2 * j] = t + gb
                nxt[2 * j + 1] = t + (1 ^ gb)
            img = nxt
        base += width
    return bytes(out)


def leaf_images(k, g):
    """Action on the 2**k leaves as a tuple of 0-based images."""
    img = [0]
    base = 0
    for l in range(k):
        width = 1 << l
        nxt = [0] * (2 * width)
        for j in range(width):
            gb = g[base + j]
            t = 2 * img[j]
            nxt[2 * j] = t + gb
            nxt[2 * j + 1] = t + (1 ^ gb)
        img = nxt
        base += width
    return tuple(img)


def mult_perm(p, q):
    """Left-action product: (p.q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def inv_perm(p):
    """Inverse permutation."""
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)
