"""Shared test helpers: leaf-by-leaf comparison of two state/payload trees,
the kernel-vs-oracle tolerance of a numerics epoch, and the surface fluxes
a standalone physics call is handed."""

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


#: Numerics epoch 2: a spectral kernel sums its Legendre series in BLAS's
#: order and its oracle in ``einsum``'s, so they agree to rounding — a few
#: hundred ulp of the field's largest value leaves room for every sum
#: length in use (measured: 2-5e-16 at float64, 1-3e-7 at float32).
ORACLE_RTOL = {np.dtype(np.float64): 1e-13, np.dtype(np.float32): 5e-5}


def assert_matches_oracle(tr, got, want):
    """Same dtype and shape, and ``|got - want| <= rtol * max|want|`` with
    the epoch's ``rtol`` for the coarser of the data's precision and the
    tables' of the transform ``tr`` that made them."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    rtol = max(ORACLE_RTOL[np.finfo(want.dtype).dtype],
               ORACLE_RTOL[np.dtype(tr.policy.float_dtype)])
    err, scale = np.abs(got - want).max(), np.abs(want).max()
    assert err <= rtol * scale, f"off by {err:.3e}, {err / scale:.1e} of max"


def column_surface_fluxes(temp, q, u, v, ps, t_sfc, *, ocean, z0=1e-3,
                          wetness=1.0) -> dict:
    """The turbulent fluxes the coupler hands ``PhysicsSuite.compute``
    (``external_fluxes``) for a standalone column setup: the CCM3 ocean
    formulas where ``ocean`` (bool, the grid's shape), the land bulk
    formulas with ``z0`` / ``wetness`` elsewhere, read off the lowest
    model level."""
    from repro.atmosphere.physics import bulk_fluxes, ocean_fluxes

    air = (temp[-1], q[-1], u[-1], v[-1], ps, t_sfc)
    land = bulk_fluxes(*air, np.broadcast_to(z0, ps.shape),
                       np.broadcast_to(wetness, ps.shape))
    sea = ocean_fluxes(*air)
    return {k: np.where(ocean, sea[k], land[k]) for k in land}
