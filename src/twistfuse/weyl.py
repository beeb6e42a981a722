"""Finite Weyl groups, signed orbits, dominant reduction, and signed alcove
folding.

Group elements are integer matrices acting on Dynkin-label coordinates;
the simple reflection r_i subtracts coordinate i times column i of the
Cartan matrix.  `signed_orbit` enumerates the orbit of a regular dominant
weight without materialising the group, once |W|, priced from the root
heights, has passed the element cap.  Alcove folding reduces a rho-shifted
weight into the interior of the fundamental alcove at level t = k + h^vee,
tracking the sign of the finite Weyl component (translations are even).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartan import Weight
from .errors import NonTermination, RankTooLarge
from .rep import reflect_to_dominant, root_table

MAX_RANK = 6
ELEMENT_CAP = 100_000
FOLD_ITERATION_CAP = 100_000


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


def _mat_mul_int(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ar[k] * bc[k] for k in range(n)) for bc in bt)
        for ar in a)


def apply_matrix(m, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def simple_reflect(datum, i, lam):
    """Fundamental reflection r_i, 1-based node index on the finite part."""
    fin = datum.finite
    if not 1 <= i <= fin.rank:
        raise IndexError(f"node index {i} out of range 1..{fin.rank}")
    c = lam.coords[i - 1]
    col = tuple(fin.A[r][i - 1] for r in range(fin.rank))
    return Weight(lam.datum, tuple(x - c * col[r] for r, x in enumerate(lam.coords)))


@lru_cache(maxsize=None)
def _generate(datum):
    fin = datum.finite
    l = fin.rank
    if l > MAX_RANK:
        raise RankTooLarge(f"rank {l} exceeds the configured maximum {MAX_RANK}")
    gens = [_reflection_matrix(fin.A, i) for i in range(l)]
    ident = tuple(tuple(int(r == c) for c in range(l)) for r in range(l))
    signs = {ident: 1}
    frontier = [ident]
    order = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            s = -signs[w]
            for g in gens:
                gw = _mat_mul_int(g, w)
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


def signed_orbit(datum, x):
    """Orbit of the integer, regular, dominant label vector x, with signs.

    Walks down from the dominant chamber: for v = w x, the label v_i is
    positive exactly when r_i w is longer than w, so level d holds the
    points w x with w of length d, and their sign is (-1)^d.  A point u of
    level d + 1 is reached from level d through each i with u_i < 0; only
    the step through the smallest such i is kept, so every point appears
    once without a sort.  Returns (points, signs) as int64 arrays of shapes
    (|W|, rank) and (|W|,), in a fixed order.  Raises RankTooLarge, before
    any point is made, when |W| exceeds ELEMENT_CAP.
    """
    fin = datum.finite
    order = weyl_order(fin)
    if order > ELEMENT_CAP:
        raise RankTooLarge(
            f"{fin.type} (rank {fin.rank}) has a Weyl group of order {order}, "
            f"above the element cap {ELEMENT_CAP}")
    level = np.array([x], dtype=np.int64)
    if level.shape != (1, fin.rank) or (level <= 0).any():
        raise ValueError(f"signed_orbit needs a regular dominant weight, got {x}")
    cartan = np.array(fin.A, dtype=np.int64)
    points, signs = [], []
    sign = 1
    while len(level):
        points.append(level)
        signs.append(np.full(len(level), sign, dtype=np.int64))
        steps = []
        for i in range(fin.rank):
            up = level[level[:, i] > 0]
            down = up - up[:, i:i + 1] * cartan[:, i]
            steps.append(down[(down[:, :i] >= 0).all(axis=1)])
        level = np.concatenate(steps)
        sign = -sign
    return np.concatenate(points), np.concatenate(signs)


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
    reflections_used: int

    def __post_init__(self):
        assert (self.sign == 0) == (self.rep is None)


def alcove_fold(affine_datum, k, x):
    """Fold the rho-shifted weight x into the open alcove at t = k + h^vee.

    The implicit node-0 label is t minus the comark-weighted sum of the
    finite labels.  Reflection scheduling: most negative label first, lowest
    index on ties.  Returns sign 0 when the terminal point lies on a wall.
    """
    assert affine_datum.is_affine()
    t = k + affine_datum.hdual
    a = affine_datum.A
    l = affine_datum.rank
    covee = affine_datum.comarks[1:]
    col0 = tuple(a[r][0] for r in range(1, l + 1))  # finite labels of alpha_0
    v = list(x.coords)
    sign = 1
    used = 0
    for _ in range(FOLD_ITERATION_CAP):
        x0 = t - sum(covee[j] * v[j] for j in range(l))
        labels = [x0] + v
        i = min(range(l + 1), key=lambda j: labels[j])
        if labels[i] >= 0:
            if any(lab == 0 for lab in labels):
                return FoldResult(0, None, used)
            return FoldResult(sign, Weight(x.datum, tuple(v)), used)
        c = labels[i]
        if i == 0:
            for j in range(l):
                v[j] -= c * col0[j]
        else:
            for j in range(l):
                v[j] -= c * a[j + 1][i]
        sign = -sign
        used += 1
    raise NonTermination("alcove folding exceeded the iteration cap")
