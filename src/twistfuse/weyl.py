"""Finite Weyl groups, signed orbits, dominant reduction, and the signed
alcove fold.

Group elements are integer matrices acting on Dynkin-label coordinates;
the simple reflection r_i subtracts coordinate i times column i of the
Cartan matrix.  `signed_orbit` enumerates the orbits of regular dominant
weights without materialising the group, once |W|, priced from the root
heights, has passed the element cap; it runs `cartan.orbit_walk`, one
vectorised step per length of W over all (node, point) pairs, and one walk
per block of rows: for a regular dominant x the label (w x, alpha_i^vee)
is positive exactly when l(r_i w) > l(w), so the steps depend on w alone
and a stack of rows shares them.  A node prefix restricts the walk to the
parabolic subgroup W_J of the first simple nodes.  `coset_representatives` runs the
same walk down from the last fundamental weight, carrying the identity
rows, and returns the minimal representatives of the cosets u W_J, J all
nodes but the last, as matrices with their signs: the S-matrix kernel
factors W = W^J W_J with them and never walks the whole group.
`generate_weyl` is the same walk steered by rho: all of W, in the same
format, behind the same priced gate; no kernel reads it.  `to_dominant`
runs `cartan.reflect_to_dominant` on the finite simple roots, one weight
at a time.  `alcove_fold` is the package's one alcove fold, of a stack of
rho-shifted weights by `rep._reflect`, the numpy form of that loop, on the
affine simple roots; the fusion tables fold every Klimyk component with it.
"""

from functools import lru_cache

import numpy as np

from .cartan import Weight, orbit_walk, reflect_to_dominant, simple_roots
from .errors import RankTooLarge
from .rep import _reflect, root_table

ELEMENT_CAP = 100_000


def generate_weyl(datum):
    """All of the finite Weyl group of datum's finite part, the identity
    first, as (mats, signs) in the format of `coset_representatives`: the
    walk is steered by rho, which is regular, so each w comes once, at
    level l(w).  Raises RankTooLarge, before any point is made, when |W|
    exceeds ELEMENT_CAP.
    """
    return _walk_identity(datum, np.ones(datum.finite.rank, dtype=np.int64))


@lru_cache(maxsize=64)
def weyl_order(datum):
    """|W| of datum's finite part, without enumerating W.

    The product over positive roots of (ht a + 1) / ht a telescopes, by
    height, to the product of the degrees of W.
    """
    num = den = 1
    for ht in root_table(datum.finite).heights:
        num *= ht + 1
        den *= ht
    return num // den


def _check_element_cap(fin):
    """Raise RankTooLarge when |W|, priced from the root heights, exceeds
    ELEMENT_CAP."""
    order = weyl_order(fin)
    if order > ELEMENT_CAP:
        raise RankTooLarge(
            f"{fin.type} (rank {fin.rank}) has a Weyl group of order {order}, "
            f"above the element cap {ELEMENT_CAP}")


def signed_orbit(datum, x, nodes=None):
    """Orbits of integer, regular, dominant label vectors, with signs.

    x is one label vector (rank,) or a stack of them (n, rank), walked
    together: one walk per call, of W, or of its parabolic subgroup W_J
    generated by the first `nodes` simple reflections (default: all of
    them).  The walk goes down from the dominant chamber.  For v = w x, the
    label v_i = (x, w^-1 alpha_i^vee) has the sign of the root w^-1 alpha_i,
    because x is regular dominant: it is positive exactly when
    l(r_i w) > l(w).  So level d holds the points w x with w of length d,
    their sign is (-1)^d, and every step depends on w alone, not on x: one
    row steers the walk, every row takes the same steps, and point p of
    each row is the same w, with one shared sign.  A point u of level d + 1
    is reached from level d through each i with u_i < 0; only the step
    through the smallest such i is kept, so every point appears once
    without a sort.

    Returns (points, signs) as int64 arrays, points of shape
    (|W_J|, n, rank) for a stack and (|W_J|, rank) for one vector, signs of
    shape (|W_J|,), in a fixed order (W_J = W without a prefix).  Raises
    ValueError unless every row is regular dominant and the prefix is in
    0..rank, and RankTooLarge, before any point is made, when |W| exceeds
    ELEMENT_CAP.
    """
    fin = datum.finite
    _check_element_cap(fin)
    nodes = fin.rank if nodes is None else nodes
    if not 0 <= nodes <= fin.rank:
        raise ValueError(f"node prefix {nodes} out of range 0..{fin.rank}")
    rows = np.array(x, dtype=np.int64)
    if (rows.ndim not in (1, 2) or rows.shape[-1] != fin.rank or not rows.size
            or (rows <= 0).any()):
        raise ValueError(f"signed_orbit needs regular dominant weights, got {x}")
    points, depth, _ = orbit_walk(simple_roots(fin.A), rows.reshape(1, -1, fin.rank),
                                  nodes)
    return points[:, 0] if rows.ndim == 1 else points, (-1) ** depth


def coset_representatives(datum):
    """Minimal representatives u of the cosets u W_J, J all simple nodes
    but the last, as integer matrices on label vectors, with eps(u).

    Every w in W is uniquely u v with v in W_J and l(w) = l(u) + l(v), so
    eps(w) = eps(u) eps(v) (Humphreys, Reflection Groups and Coxeter Groups,
    sec. 1.10).  W_J is the stabiliser of the last fundamental weight
    omega, so u -> u omega is a bijection onto its orbit, and the walk down
    from omega reaches u omega at level l(u): a positive label i of
    u omega means l(r_i u) > l(u) with r_i u again minimal, a zero label
    means r_i u lies in u W_J.  The walk (`_walk_identity`) carries the
    identity rows, steered by omega, so row j of point u is u omega_j,
    column j of the matrix U of u.

    Returns (mats, signs): mats (|W| / |W_J|, rank, rank) int64 with
    u(lam) = U @ lam, signs (-1)^l(u).  Raises RankTooLarge, before any
    point is made, when |W| exceeds ELEMENT_CAP.
    """
    return _walk_identity(datum, np.eye(datum.finite.rank, dtype=np.int64)[-1])


def _walk_identity(datum, steer):
    """One `cartan.orbit_walk` of the identity rows with the label vector
    steer appended as the steering last row.  Row j of point w is
    w omega_j, column j of the matrix W of w.  Returns (mats, signs): mats
    (points, rank, rank) int64 with w(lam) = W @ lam, signs (-1)^l(w).
    """
    fin = datum.finite
    _check_element_cap(fin)
    start = np.vstack([np.eye(fin.rank, dtype=np.int64), steer])
    points, depth, _ = orbit_walk(simple_roots(fin.A), start[None])
    return points[:, :fin.rank].transpose(0, 2, 1), (-1) ** depth


def to_dominant(datum, lam):
    """Dominant representative and orbit sign.

    Returns (rep, sign) with sign 0 exactly when lam lies on a reflection
    wall (the representative then has a zero coordinate), otherwise the
    parity of the reflections applied.
    """
    labels, sign = reflect_to_dominant(simple_roots(datum.finite.A), lam.coords)
    return Weight(lam.datum, labels), sign


def alcove_fold(affine, k, shifted):
    """Fold each row of shifted, an int64 array (n, rank) of rho-shifted
    finite labels, into the open alcove at level t = k + h^vee.

    The affine labels (x0, x), x0 = t minus the comark-weighted sum of x,
    are walked by `rep._reflect` with the columns of the affine Cartan
    matrix, which keep the level because comarks . A = 0; the sign is that
    of the finite Weyl component (translations are even).  At t > 0 each
    reflection crosses one of the finitely many walls between a point and
    the alcove, so the walk ends; k < 0 raises ValueError before it starts,
    as in `rep.dominant_level_weights`.  Returns (signs, folded labels),
    sign 0 for a row that ends on a wall.
    """
    if not affine.is_affine() or k < 0:
        raise ValueError(f"alcove folding needs an affine datum and k >= 0, "
                         f"not {affine.type} at level {k}")
    x0 = k + affine.hdual - shifted @ np.array(affine.comarks[1:], dtype=np.int64)
    labels = np.column_stack([x0, shifted])
    signs = _reflect(labels, np.array(simple_roots(affine.A), dtype=np.int64))
    return signs, labels[:, 1:]
