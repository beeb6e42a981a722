"""Finite-dimensional representation combinatorics.

Weight systems via the Freudenthal recursion, dimensions via the Weyl
product formula, and the package's one Klimyk sum, for tensor products and
branching alike.  All multiplicities are exact integers.

The hot path is integer-only.  `root_table` prepares, once per finite
datum and on first use, the simple and positive roots with their
simple-root coefficients and heights, G_int . alpha for each, and
prod (rho, alpha), all with the Gram denominator cleared.  `dim` is then
one exact integer quotient, memoised per (datum, labels).

The Freudenthal recursion runs on the dominant weights only (Moody and
Patera, Bull. AMS 7, 1982).  They are found from the highest weight by
subtracting positive roots and keeping the dominant results, and are
taken in order of depth, the height of lam - mu.  Each m(mu + j alpha) is
read at its dominant representative, which is higher and so already
known.  Every other multiplicity follows by W-invariance: one
`cartan.orbit_walk` over all the dominant weights spreads each
multiplicity over its orbit, bounded by the dimension cap that
`freudenthal` checks first.  The system is stored once, as read-only int64
arrays of weights and multiplicities, which the Klimyk sum reads as they
are.  All caches are bounded.

`klimyk_blocks` runs the Klimyk sum over blocks of pairs with numpy: it
stacks lam + rho + tau over the weights tau of V, reflects the stack into
the dominant chamber (`_reflect`) and sums the signed multiplicities per
component.  Only the W-invariance of the weights tau is used, and the
restriction of V(lam) to a folded subalgebra is W_sub-invariant, so
Res V(lam) (x) V(0) is the branching rule: the Racah-Speiser argument
applied to restriction (Fulton and Harris, Representation Theory, 25.3).
`tensor_decompose` and `branch` are one-pair calls; `fusion` folds the
blocks of its tables and rows into the alcove.

Gates, all typed errors that survive `python -O`: the Freudenthal divmod
raises IntegralityFailure at each dominant weight, the only weights the
recursion computes; the mass of the whole expanded system is checked
against `dim`, and that of every Klimyk pair against the product of its
dims, for a branching dim lam (MassMismatch); a negative Klimyk
multiplicity raises NegativeMultiplicity; `root_table` raises
RootCountMismatch when the reflection closure misses a positive root.
The Fraction inner product `_ip` remains for the conformal data.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

import numpy as np

from .cartan import (LeveledWeight, Weight, orbit_walk, reflect_to_dominant,
                     simple_roots)
from .errors import (DimensionCap, IntegralityFailure, MassMismatch,
                     NegativeMultiplicity, RootCountMismatch)

DIMENSION_CAP = 10**6


# Compared by identity: == of array fields has no single truth value.
@dataclass(frozen=True, eq=False)
class WeightSystem:
    highest: Weight
    weights: np.ndarray  # int64 (n, rank), each weight once; read only
    mults: np.ndarray    # int64 (n,), positive; read only

    def total(self):
        return int(self.mults.sum())


@dataclass(frozen=True)
class DecompTable:
    entries: dict  # dominant Weight -> positive int


def dominant_level_weights(affine_datum, k):
    """All level-k dominant integral weights, in lexicographic label order."""
    if not affine_datum.is_affine() or k < 0:
        raise ValueError(f"level-{k} dominant weights need an affine datum "
                         f"and k >= 0, not {affine_datum.type}")
    covee = affine_datum.comarks[1:]
    l = affine_datum.rank
    out = []

    def rec(prefix, budget):
        if len(prefix) == l:
            out.append(tuple(prefix))
            return
        i = len(prefix)
        for c in range(budget // covee[i] + 1):
            rec(prefix + [c], budget - c * covee[i])

    rec([], k)
    out.sort()
    return [LeveledWeight(k, affine_datum.weight(c)) for c in out]


def is_level_dominant(affine_datum, lw):
    covee = affine_datum.comarks[1:]
    c = lw.finite.coords
    return (all(x >= 0 and x == int(x) for x in c)
            and sum(a * x for a, x in zip(covee, c)) <= lw.level)


def require_level_label(affine_datum, k, lw):
    """ValueError unless lw is a level-k dominant weight of affine_datum."""
    if lw.level != k or not is_level_dominant(affine_datum, lw):
        raise ValueError(f"{lw} is not a level-{k} dominant weight "
                         f"of {affine_datum.type}")


@dataclass(frozen=True)
class RootTable:
    """Integer data of the positive roots of one finite datum.

    (u, alpha) = u . gram_alpha / gram_den for a label tuple u, with
    (G_int, gram_den) = _gram_int(fin); gram_den cancels from every ratio
    of products and every Freudenthal quotient.
    """
    labels: tuple        # Dynkin labels of each positive root
    coeffs: tuple        # simple-root coefficients of each positive root
    heights: tuple
    gram_alpha: tuple    # G_int . alpha for each positive root
    rho_prod: int        # prod over the positive roots of rho . gram_alpha
    simple: tuple        # Dynkin labels of alpha_1..alpha_l, the columns of A


@lru_cache(maxsize=64)
def root_table(fin):
    """Positive roots of the finite datum fin by integer reflection closure.

    The reflection r_i sends a root with labels v to v - v_i alpha_i, so it
    lowers simple-root coefficient i by v_i.  It keeps every positive root
    positive except alpha_i itself, the one root whose coefficient i would
    drop below 0, so the closure of the simple roots under those steps is
    the positive system.  Built on first use, not with the datum.
    """
    a = fin.A
    l = fin.rank
    simple = simple_roots(a)
    found = {}
    for i, alpha in enumerate(simple):
        found[alpha] = tuple(int(j == i) for j in range(l))
    frontier = list(found)
    while frontier:
        nxt = []
        for v in frontier:
            c = found[v]
            for i in range(l):
                vi = v[i]
                if vi == 0 or c[i] < vi:
                    continue
                w = tuple(v[j] - vi * a[j][i] for j in range(l))
                if w not in found:
                    found[w] = c[:i] + (c[i] - vi,) + c[i + 1:]
                    nxt.append(w)
        frontier = nxt
    if len(found) != fin.npos:
        raise RootCountMismatch(
            f"the reflection closure of the simple roots of {fin.type} has "
            f"{len(found)} roots, not {fin.npos}")
    labels = tuple(sorted(found))
    g, _ = _gram_int(fin)
    gram_alpha = tuple(tuple(sum(g[i][j] * v[j] for j in range(l)) for i in range(l))
                       for v in labels)
    rho_prod = 1
    for ga in gram_alpha:
        rho_prod *= sum(ga)
    return RootTable(labels, tuple(found[v] for v in labels),
                     tuple(sum(found[v]) for v in labels), gram_alpha, rho_prod,
                     simple)


@lru_cache(maxsize=64)
def _gram_int(fin):
    """Weight-space Gram matrix as (integer matrix, common denominator)."""
    from . import _rational as rat
    rows = [x for row in fin.gram_weights for x in row]
    ints, den = rat.clear_denominators(rows)
    l = fin.rank
    g = tuple(tuple(ints[i * l + j] for j in range(l)) for i in range(l))
    return g, den


def _ip(fin, u, v):
    """Inner product of label tuples, exact Fraction."""
    g, den = _gram_int(fin)
    return Fraction(sum(u[i] * sum(g[i][j] * v[j] for j in range(len(v)))
                        for i in range(len(u))), den)


def dim(datum, lam):
    """Weyl dimension formula, exact integer; lam must be dominant (`_dominant`)."""
    coords = tuple(lam.coords) if isinstance(lam, Weight) else tuple(lam)
    return _dim(datum.finite, coords)


@lru_cache(maxsize=4096)
def _dim(fin, coords):
    """prod (lam + rho, alpha) / prod (rho, alpha) over the positive roots,
    as one exact integer quotient."""
    # On a miss only (a ValueError is not cached), and the key is not copied.
    _dominant(coords)
    table = root_table(fin)
    num = 1
    for ga in table.gram_alpha:
        num *= sum((c + 1) * g for c, g in zip(coords, ga))
    d, r = divmod(num, table.rho_prod)
    if r or d <= 0:
        raise IntegralityFailure(
            f"Weyl dimension of {coords} in {fin.type} is {num}/{table.rho_prod}, "
            f"not a positive integer")
    return int(d)


def freudenthal(datum, lam):
    """Full weight system of the irreducible with highest weight lam."""
    fin = datum.finite
    coords = _dominant(lam)
    d = dim(fin, coords)
    if d > DIMENSION_CAP:
        raise DimensionCap(f"dim {d} exceeds the cap {DIMENSION_CAP}")
    return _weight_system(fin, coords)


@lru_cache(maxsize=256)
def _weight_system(fin, coords):
    """Freudenthal recursion on integers over the dominant weights, in order
    of depth, then expanded by Weyl orbits.

    With norms and inner products scaled by gram_den,
    m(mu) = 2 sum_{alpha > 0, j >= 1} m(mu + j alpha) (mu + j alpha, alpha)
            / (|lam + rho|^2 - |mu + rho|^2)
    is an exact integer quotient; the denominator is positive for every
    dominant mu below lam.
    """
    l = fin.rank
    g, _ = _gram_int(fin)
    table = root_table(fin)
    simple = table.simple
    # Per positive root: labels, G_int . alpha, |alpha|^2 scaled, and the
    # simple roots it involves with their coefficients.
    roots = [(alpha, ga, sum(x * y for x, y in zip(alpha, ga)),
              tuple((i, c) for i, c in enumerate(cs) if c))
             for alpha, ga, cs in zip(table.labels, table.gram_alpha, table.coeffs)]

    def norm_rho(v):
        x = [c + 1 for c in v]
        return sum(x[i] * sum(g[i][j] * x[j] for j in range(l)) for i in range(l))

    # The dominant weights of V(lam), with depth[mu] = the coefficients of
    # lam - mu on the simple roots.
    depth = {coords: (0,) * l}
    frontier = [coords]
    while frontier:
        nxt = []
        for v in frontier:
            dv = depth[v]
            for alpha, cs in zip(table.labels, table.coeffs):
                mu = tuple(map(sub, v, alpha))
                if min(mu) >= 0 and mu not in depth:
                    depth[mu] = tuple(map(add, dv, cs))
                    nxt.append(mu)
        frontier = nxt
    norm_top = norm_rho(coords)
    dominant = {coords: 1}
    for mu in sorted(depth, key=lambda mu: sum(depth[mu]))[1:]:
        dmu = depth[mu]
        acc = 0
        for alpha, ga, alpha_norm, support in roots:
            # lam - (mu + j alpha) must stay in the positive root cone.
            jmax = min(dmu[i] // c for i, c in support)
            if not jmax:
                continue
            ip = sum(map(mul, mu, ga))
            up = mu
            for _ in range(jmax):
                up = tuple(map(add, up, alpha))
                ip += alpha_norm
                m_up = dominant.get(reflect_to_dominant(simple, up)[0])
                if m_up:
                    acc += m_up * ip
        denom = norm_top - norm_rho(mu)
        m, r = divmod(2 * acc, denom)
        if r or m < 0:
            raise IntegralityFailure(
                f"Freudenthal multiplicity of {mu} in {coords} ({fin.type}) "
                f"is {2 * acc}/{denom}, not a non-negative integer")
        if m:
            dominant[mu] = m
    points, _, origin = orbit_walk(
        simple, np.array(list(dominant), dtype=np.int64).reshape(-1, 1, l))
    weights = points[:, 0]
    mults = np.fromiter(dominant.values(), np.int64, len(dominant))[origin]
    total = int(mults.sum())
    d = dim(fin, coords)
    if total != d:
        raise MassMismatch(f"Freudenthal weight system of {coords}", total, d)
    # Cached and shared by every caller.
    weights.setflags(write=False)
    mults.setflags(write=False)
    return WeightSystem(Weight(fin, coords), weights, mults)


def _labels(lam):
    return tuple(int(c) for c in (lam.coords if isinstance(lam, Weight) else lam))


def _dominant(lam):
    """`_labels` of a highest weight; ValueError unless it is dominant."""
    coords = _labels(lam)
    if any(c < 0 for c in coords):
        raise ValueError(f"highest weight {coords} must be dominant")
    return coords


# Points of the Klimyk sum per block; a pair whose weight system alone is
# larger makes a block by itself.  Each point holds rank + 1 int64 labels,
# so a block's arrays stay near 100 KB.  At 2^14 points the kw-grid job's
# peak RSS was 0.4 MB higher than at 2^11, where the A3 k = 8 table takes
# 2.3 s instead of 1.9 s.
_POINTS = 1 << 11


def _reflect(points, simple):
    """`cartan.reflect_to_dominant` on each row of the int64 array points, in
    place, with the simple roots as the rows of simple: the finite ones in
    the Klimyk sum, the affine ones in `weyl.alcove_fold`.  Returns the
    signs: the parity of the reflections, 0 for a row that ends on a wall."""
    signs = np.ones(len(points), dtype=np.int64)
    live = np.flatnonzero(points.min(axis=1) < 0)
    while live.size:
        cur = points[live]
        i = cur.argmin(axis=1)
        cur -= cur[np.arange(len(cur)), i, None] * simple[i]
        points[live] = cur
        signs[live] *= -1
        live = live[cur.min(axis=1) < 0]
    signs[points.min(axis=1) == 0] = 0
    return signs


def _group_sums(rows, values):
    """The distinct rows of a 2-d int64 array, sorted, with the sum of values
    over each, less those that sum to 0.  The columns are packed into one
    int64 key by mixed radix, renumbered densely before it could overflow."""
    key = np.zeros(len(rows), dtype=np.int64)
    span = 1
    for col in rows.T:
        low = int(col.min(initial=0))
        radix = int(col.max(initial=0)) - low + 1
        if span * radix >= 2 ** 63:
            key = np.unique(key, return_inverse=True)[1].ravel()
            span = len(rows)
        key = key * radix + (col - low)
        span *= radix
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    sums = np.add.reduceat(values[order], starts)
    return rows[order[starts[sums != 0]]], sums[sums != 0]


def _base(fin, coords):
    """(lam + rho, dim lam) of the irreducible coords: a first factor."""
    return tuple(c + 1 for c in coords), dim(fin, coords)


def _system(fin, coords):
    """(name, weights, multiplicities, dim) of the irreducible coords: its
    weight system as int64 arrays (n, rank) and (n,).  A second factor."""
    ws = freudenthal(fin, coords)
    return coords, ws.weights, ws.mults, dim(fin, coords)


def _restricted(fin, coords, restriction_matrix):
    """`_system` of the irreducible coords of fin restricted to a subalgebra:
    its weights through restriction_matrix, equal images merged."""
    _, tau, mult, d = _system(fin, coords)
    pi = np.array(restriction_matrix, dtype=np.int64)
    return (f"Res {coords}", *_group_sums(tau @ pi.T, mult), d)


def _pair(bases, systems, i, j):
    """The pair (bases[i], systems[j]), named for error messages."""
    return f"{tuple(x - 1 for x in bases[i][0])} x {systems[j][0]}"


def klimyk_blocks(fin, bases, systems, b, s):
    """Klimyk sums of the pairs (bases[b[p]], systems[s[p]]), block by block.

    bases[i] is a `_base`, systems[j] a `_system` or `_restricted`.  The sum
    V(lam) (x) V = sum_tau m(tau) eps(w) V(w(lam + rho + tau) - rho) runs over
    blocks of at most _POINTS points (a pair is never split).  Per pair, a
    negative multiplicity raises NegativeMultiplicity and sum c dim(nu) must
    be the product of the dims (MassMismatch).  Yields (pair, comp, c, fresh)
    per block: pair pair[x] has component number comp[x] c[x] times; fresh
    holds the rho-shifted labels of the components first seen in the block,
    numbered on from those of the blocks before.  No pairs yield no block.
    """
    if not len(b):
        return
    simple = np.array(simple_roots(fin.A), dtype=np.int64)
    lam_rho = np.array([x for x, _ in bases], dtype=np.int64).reshape(-1, fin.rank)
    taus, mults = (np.concatenate([x[i] for x in systems]) for i in (1, 2))
    size = np.array([len(x[2]) for x in systems])
    first, ends = np.cumsum(size) - size, np.cumsum(size[s])
    want = [bases[i][1] * systems[j][3] for i, j in zip(b.tolist(), s.tolist())]
    comps, dims, lo = {}, [], 0
    while lo < len(b):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - size[s[lo]] + _POINTS,
                                             "right")))
        npts = size[s[lo:hi]]
        pair = np.repeat(np.arange(lo, hi), npts)
        at = (np.arange(len(pair)) - np.repeat(np.cumsum(npts) - npts, npts)
              + first[s[pair]])
        pts = lam_rho[b[pair]] + taus[at]
        signs = _reflect(pts, simple)
        hit = signs != 0
        grp, c = _group_sums(np.column_stack([pair[hit], pts[hit]]),
                             (signs * mults[at])[hit])
        if (c < 0).any():
            p, *nu = grp[c.argmin()].tolist()
            raise NegativeMultiplicity(
                f"tensor product {_pair(bases, systems, b[p], s[p])} has "
                f"multiplicity {c.min()} at {tuple(x - 1 for x in nu)}")
        ids, fresh = [], []
        for nu in map(tuple, grp[:, 1:].tolist()):
            if nu not in comps:
                comps[nu] = len(dims)
                dims.append(dim(fin, tuple(x - 1 for x in nu)))
                fresh.append(nu)
            ids.append(comps[nu])
        ids = np.array(ids, dtype=np.int64)
        # Exact mass sums: int64 where the bound allows, Python ints otherwise.
        kind = np.int64 if int(c.sum()) * max(dims, default=0) < 2 ** 63 else object
        mass = np.zeros(hi - lo, dtype=kind)
        np.add.at(mass, grp[:, 0] - lo, c.astype(kind) * np.array(dims, dtype=kind)[ids])
        for p, (got, expect) in enumerate(zip(mass.tolist(), want[lo:hi]), lo):
            if got != expect:
                raise MassMismatch(f"tensor product {_pair(bases, systems, b[p], s[p])}",
                                   got, expect)
        yield grp[:, 0], ids, c, fresh
        lo = hi


def _decompose(fin, base, system):
    """DecompTable of one Klimyk pair, which makes one block."""
    zero = np.zeros(1, dtype=np.int64)
    ((_, comp, c, shifted),) = klimyk_blocks(fin, [base], [system], zero, zero)
    return DecompTable({Weight(fin, tuple(x - 1 for x in shifted[i])): v
                        for i, v in zip(comp.tolist(), c.tolist())})


def tensor_decompose(datum, lam, mu):
    """Klimyk decomposition of lam (x) mu into dominant weights: one pair of
    `klimyk_blocks`, over the weights of the smaller factor."""
    fin = datum.finite
    big, small = sorted((_dominant(lam), _dominant(mu)), key=lambda c: dim(fin, c),
                        reverse=True)
    return _decompose(fin, _base(fin, big), _system(fin, small))


def branch(ambient_datum, sub_datum, restriction_matrix, lam):
    """Branching of the ambient irreducible lam to the subalgebra: the Klimyk
    sum Res V(lam) (x) V(0), one pair of `klimyk_blocks`.

    restriction_matrix maps ambient Dynkin labels to subalgebra labels (the
    Cartan-level dual of the subalgebra embedding).
    """
    sub = sub_datum.finite
    return _decompose(sub, _base(sub, (0,) * sub.rank),
                      _restricted(ambient_datum.finite, _labels(lam),
                                  restriction_matrix))
