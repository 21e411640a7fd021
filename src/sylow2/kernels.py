"""Kernel backend selection.

Imports the compiled kernels when the extension is available, otherwise the
pure-Python fallback.  Set SYLOW2_PURE=1 to force the fallback, for example
to run the test suite on it.

Exports: ``compose_labels``, ``invert_labels``, ``leaf_images``,
``mult_perm``, ``inv_perm`` and the string ``BACKEND`` ("c" or "python").
"""

import os

if os.environ.get("SYLOW2_PURE"):
    from sylow2 import _kernels_py as _impl

    BACKEND = "python"
else:
    try:
        from sylow2 import _ckernels as _impl  # type: ignore[attr-defined]

        BACKEND = "c"
    except ImportError:
        from sylow2 import _kernels_py as _impl

        BACKEND = "python"

compose_labels = _impl.compose_labels
invert_labels = _impl.invert_labels
leaf_images = _impl.leaf_images
mult_perm = _impl.mult_perm
inv_perm = _impl.inv_perm
