"""Finite Weyl groups, signed orbits, dominant reduction, and signed alcove
folding.

Group elements are integer matrices acting on Dynkin-label coordinates;
the simple reflection r_i subtracts coordinate i times column i of the
Cartan matrix.  `signed_orbit` enumerates the orbits of regular dominant
weights without materialising the group, once |W|, priced from the root
heights, has passed the element cap; it is a numpy walk, one vectorised
step per length of W over all (node, point) pairs, and one walk per block
of rows: for a regular dominant x the label (w x, alpha_i^vee) is positive
exactly when l(r_i w) > l(w), so the steps depend on w alone and a stack
of rows shares them.  A node prefix restricts the walk to the parabolic
subgroup W_J of the first simple nodes.  `coset_representatives` runs the
same walk down from the last fundamental weight, carrying the identity
rows, and returns the minimal representatives of the cosets u W_J, J all
nodes but the last, as matrices with their signs: the S-matrix kernel
factors W = W^J W_J with them and never walks the whole group.
`to_dominant` and `alcove_fold` run
`cartan.reflect_to_dominant`: the first on the finite simple roots, the
second on the columns of the affine Cartan matrix, which reduces a
rho-shifted weight into the interior of the fundamental alcove at level
t = k + h^vee, tracking the sign of the finite Weyl component
(translations are even).  Both work on one weight at a time.  The
vectorised form of the same walk is `rep._reflect`: the Klimyk sum of
`rep.klimyk_blocks` runs it on the finite simple roots, and the fusion
tables fold with it in `fusion`, for which `alcove_fold` is the scalar
reference in the tests.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .cartan import Weight, reflect_to_dominant, simple_roots
from .errors import CheckFailed, NonTermination, RankTooLarge
from .rep import root_table

MAX_RANK = 6
ELEMENT_CAP = 100_000


@dataclass(frozen=True)
class WeylGroup:
    datum: object                # finite CartanDatum
    elements: tuple              # integer matrices (tuples of row tuples)
    signs: tuple                 # epsilon(w) = (-1)^{l(w)}

    def __len__(self):
        return len(self.elements)

    def to_json_dict(self):
        l = self.datum.rank
        gens = [_reflection_matrix(self.datum.A, i) for i in range(l)]
        return {"type": str(self.datum.type), "order": len(self.elements),
                "generators": [[list(r) for r in g] for g in gens]}


def _reflection_matrix(a_fin, i):
    l = len(a_fin)
    return tuple(
        tuple((1 if r == c else 0) - (a_fin[r][i] if c == i else 0)
              for c in range(l))
        for r in range(l))


def simple_reflect(datum, i, lam):
    """Fundamental reflection r_i, 1-based node index on the finite part."""
    fin = datum.finite
    if not 1 <= i <= fin.rank:
        raise IndexError(f"node index {i} out of range 1..{fin.rank}")
    c = lam.coords[i - 1]
    col = tuple(fin.A[r][i - 1] for r in range(fin.rank))
    return Weight(lam.datum, tuple(x - c * col[r] for r, x in enumerate(lam.coords)))


# W(E6) alone is 51,840 matrices: keep only the last few groups.
@lru_cache(maxsize=4)
def _generate(datum):
    """W by breadth-first closure under the simple reflections.

    r_i w = w - A[:, i] (x) (row i of w) is a rank-one update: it changes
    only the rows r with A[r][i] != 0, node i and its neighbours, so no
    matrix product is formed.
    """
    fin = datum.finite
    l = fin.rank
    if l > MAX_RANK:
        raise RankTooLarge(f"rank {l} exceeds the configured maximum {MAX_RANK}")
    # Per generator i: (node i, the rows r and entries A[r][i] it changes).
    gens = [(i, [(r, fin.A[r][i]) for r in range(l) if fin.A[r][i]])
            for i in range(l)]
    ident = tuple(tuple(int(r == c) for c in range(l)) for r in range(l))
    signs = {ident: 1}
    frontier = [ident]
    order = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            s = -signs[w]
            for i, col in gens:
                wi = w[i]
                gw = list(w)
                for r, a in col:
                    gw[r] = tuple(x - a * y for x, y in zip(w[r], wi))
                gw = tuple(gw)
                if gw not in signs:
                    if len(signs) >= ELEMENT_CAP:
                        raise RankTooLarge(
                            f"Weyl group exceeds the element cap {ELEMENT_CAP}")
                    signs[gw] = s
                    order.append(gw)
                    nxt.append(gw)
        frontier = nxt
    return WeylGroup(fin, tuple(order), tuple(signs[w] for w in order))


def generate_weyl(datum):
    """Materialize the finite Weyl group of datum's finite part."""
    return _generate(datum.finite)


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


def _walk(fin, rows, nodes):
    """Signed walk down from a stack of label vectors (n, rank) through the
    simple reflections of the first `nodes` nodes, steered by the last row:
    the step through node i is taken where its label i is positive and kept
    where i is then its smallest negative label, so every point appears
    once.  All rows take the same steps, one vectorised step per level over
    all (node, point) pairs.  Returns (points, signs): points
    (walk length, n, rank), signs (-1)^d for the points of level d.
    """
    alpha = np.array(fin.A, dtype=np.int64).T[:nodes, None]  # r_i v = v - v_i alpha_i
    levels = [rows[None]]
    while True:
        level = levels[-1]
        i, p = np.nonzero(level[:, -1, :nodes].T > 0)
        if not len(i):
            break
        down = level[p] - level[p, :, i][:, :, None] * alpha[i]
        levels.append(down[(down[:, -1, :nodes] < 0).argmax(axis=1) == i])
    signs = np.array([1, -1] * len(levels))[:len(levels)]
    return np.concatenate(levels), signs.repeat([len(x) for x in levels])


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
    points, signs = _walk(fin, rows.reshape(-1, fin.rank), nodes)
    return points[:, 0] if rows.ndim == 1 else points, signs


def coset_representatives(datum):
    """Minimal representatives u of the cosets u W_J, J all simple nodes
    but the last, as integer matrices on label vectors, with eps(u).

    Every w in W is uniquely u v with v in W_J and l(w) = l(u) + l(v), so
    eps(w) = eps(u) eps(v) (Humphreys, Reflection Groups and Coxeter Groups,
    sec. 1.10).  W_J is the stabiliser of the last fundamental weight
    omega, so u -> u omega is a bijection onto its orbit, and the walk down
    from omega reaches u omega at level l(u): a positive label i of
    u omega means l(r_i u) > l(u) with r_i u again minimal, a zero label
    means r_i u lies in u W_J.  The walk carries the identity rows, whose
    last row is omega and steers, so row j of point u is u omega_j, column
    j of the matrix U of u.

    Returns (mats, signs): mats (|W| / |W_J|, rank, rank) int64 with
    u(lam) = U @ lam, signs (-1)^l(u).  Raises RankTooLarge, before any
    point is made, when |W| exceeds ELEMENT_CAP.
    """
    fin = datum.finite
    _check_element_cap(fin)
    points, signs = _walk(fin, np.eye(fin.rank, dtype=np.int64), fin.rank)
    return points.transpose(0, 2, 1), signs


def to_dominant(datum, lam):
    """Dominant representative and orbit sign.

    Returns (rep, sign) with sign 0 exactly when lam lies on a reflection
    wall (the representative then has a zero coordinate), otherwise the
    parity of the reflections applied.
    """
    labels, sign = reflect_to_dominant(root_table(datum.finite).simple, lam.coords)
    return Weight(lam.datum, labels), sign


@dataclass(frozen=True)
class FoldResult:
    sign: int                    # -1, 0, +1
    rep: object                  # Weight, or None when sign == 0

    def __post_init__(self):
        if (self.sign == 0) != (self.rep is None):
            raise CheckFailed(f"fold sign {self.sign} with representative {self.rep}")


def alcove_fold(affine_datum, k, x):
    """Fold the rho-shifted weight x into the open alcove at t = k + h^vee.

    The affine labels are (x0, x) with x0 = t minus the comark-weighted sum
    of the finite labels; `reflect_to_dominant` walks them with the columns
    of the affine Cartan matrix, which keep the level because comarks . A
    = 0.  Returns sign 0 when the terminal point lies on a wall.  At t > 0
    each reflection crosses one of the finitely many walls between x and the
    alcove, so the walk ends; at t <= 0 it need not, and NonTermination is
    raised before it starts.
    """
    if not affine_datum.is_affine():
        raise ValueError(f"alcove folding needs an affine datum, not {affine_datum.type}")
    t = k + affine_datum.hdual
    if t <= 0:
        raise NonTermination(f"alcove folding at level t = {t} <= 0 need not end")
    x0 = t - sum(map(mul, affine_datum.comarks[1:], x.coords))
    labels, sign = reflect_to_dominant(simple_roots(affine_datum.A), (x0, *x.coords))
    return FoldResult(sign, Weight(x.datum, labels[1:]) if sign else None)
