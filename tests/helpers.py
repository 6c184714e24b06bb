"""Shared test helper: leaf-by-leaf comparison of two state/payload trees."""

import numpy as np

from repro.util.tree import tree_leaves


def leaf_name(path) -> str:
    return ".".join(map(str, path)) or "<root>"


def assert_trees_identical(got, want, context=""):
    """Assert two trees hold the same leaves, bit for bit.

    Same leaf paths; arrays equal in dtype, shape and every byte (so the
    sign of a zero and the place of a NaN count); everything else ``==``.
    A failure names the path of the first differing leaf.
    """
    where = f"{context}: " if context else ""
    got_leaves, want_leaves = dict(tree_leaves(got)), dict(tree_leaves(want))
    assert got_leaves.keys() == want_leaves.keys(), (
        f"{where}leaf paths differ: "
        f"{sorted(map(leaf_name, got_leaves.keys() ^ want_leaves.keys()))}")
    for path, a in got_leaves.items():
        b = want_leaves[path]
        name = leaf_name(path)
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (
                f"{where}{name}: {a.dtype}{a.shape} vs {b.dtype}{b.shape}")
            assert a.tobytes() == b.tobytes(), (
                f"{where}{name} differs in "
                f"{np.count_nonzero(~((a == b) | ((a != a) & (b != b))))} "
                f"of {a.size} values (0: in the bits of a zero or a NaN)")
        else:
            assert type(a) is type(b) and a == b, f"{where}{name}: {a!r} != {b!r}"
