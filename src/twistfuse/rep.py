"""Finite-dimensional representation combinatorics.

Weight systems via the Freudenthal recursion, dimensions via the Weyl
product formula, tensor decomposition by the Klimyk orbit-shift method, and
branching to a folded subalgebra by restrict-and-peel.  All multiplicities
are exact integers; weights are integer Dynkin-label tuples internally.

The hot path is integer-only.  `root_table` prepares, once per finite
datum and on first use, the positive roots with their simple-root
coefficients and heights, G_int . alpha for each, and prod (rho, alpha),
all with the Gram denominator cleared.  `dim` is then one exact integer
quotient, memoised per (datum, labels), and the Freudenthal step is an
integer divmod.  Both caches, and the weight-system cache, are bounded.
Every exactness and mass check raises a typed error (IntegralityFailure,
MassMismatch, NegativeMultiplicity), so the checks survive `python -O`.
The Fraction inner product `_ip` remains for the conformal data.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from .cartan import LeveledWeight, Weight
from .errors import (DimensionCap, IntegralityFailure, MassMismatch,
                     NegativeMultiplicity)

DIMENSION_CAP = 10**6


@dataclass(frozen=True)
class WeightSystem:
    highest: Weight
    mults: dict  # Weight -> positive int

    def total(self):
        return sum(self.mults.values())


@dataclass(frozen=True)
class DecompTable:
    entries: dict  # dominant Weight -> positive int


def dominant_level_weights(affine_datum, k):
    """All level-k dominant integral weights, in lexicographic label order."""
    assert affine_datum.is_affine() and k >= 0
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
    return (all(x >= 0 and Fraction(x).denominator == 1 for x in c)
            and sum(a * x for a, x in zip(covee, c)) <= lw.level)


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
    found = {}
    for i in range(l):
        found[tuple(a[r][i] for r in range(l))] = tuple(int(j == i) for j in range(l))
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
    assert len(found) == fin.npos, (len(found), fin.npos)
    labels = tuple(sorted(found))
    g, _ = _gram_int(fin)
    gram_alpha = tuple(tuple(sum(g[i][j] * v[j] for j in range(l)) for i in range(l))
                       for v in labels)
    rho_prod = 1
    for ga in gram_alpha:
        rho_prod *= sum(ga)
    return RootTable(labels, tuple(found[v] for v in labels),
                     tuple(sum(found[v]) for v in labels), gram_alpha, rho_prod)


def positive_roots(datum):
    """Positive roots as label tuples, sorted."""
    return root_table(datum.finite).labels


@lru_cache(maxsize=64)
def _ainv(fin):
    from . import _rational as rat
    return rat.mat_inverse(fin.A)


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
    """Weyl dimension formula, exact integer."""
    coords = tuple(lam.coords) if isinstance(lam, Weight) else tuple(lam)
    return _dim(datum.finite, coords)


@lru_cache(maxsize=4096)
def _dim(fin, coords):
    """prod (lam + rho, alpha) / prod (rho, alpha) over the positive roots,
    as one exact integer quotient."""
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


def freudenthal(datum, lam, dim_cap=DIMENSION_CAP):
    """Full weight system of the irreducible with highest weight lam."""
    fin = datum.finite
    coords = tuple(int(c) for c in (lam.coords if isinstance(lam, Weight) else lam))
    if any(c < 0 for c in coords):
        raise ValueError(f"highest weight {coords} must be dominant")
    d = dim(fin, coords)
    if d > dim_cap:
        raise DimensionCap(f"dim {d} exceeds the cap {dim_cap}")
    return _weight_system(fin, coords)


@lru_cache(maxsize=256)
def _weight_system(fin, coords):
    """Freudenthal recursion on integers, level by level down from coords.

    With norms and inner products scaled by gram_den,
    m(mu) = 2 sum_{alpha > 0, j >= 1} m(mu + j alpha) (mu + j alpha, alpha)
            / (|lam + rho|^2 - |mu + rho|^2)
    is an exact integer quotient.
    """
    l = fin.rank
    g, _ = _gram_int(fin)
    table = root_table(fin)
    simple = [tuple(fin.A[r][i] for r in range(l)) for i in range(l)]
    # Per positive root: labels, G_int . alpha, |alpha|^2 scaled, and the
    # simple roots it involves with their coefficients.
    roots = [(alpha, ga, sum(x * y for x, y in zip(alpha, ga)),
              tuple((i, c) for i, c in enumerate(cs) if c))
             for alpha, ga, cs in zip(table.labels, table.gram_alpha, table.coeffs)]

    def norm_rho(v):
        x = [c + 1 for c in v]
        return sum(x[i] * sum(g[i][j] * x[j] for j in range(l)) for i in range(l))

    norm_top = norm_rho(coords)
    mults = {coords: 1}
    # depth[mu] = coefficients of lam - mu on the simple roots.
    depth = {coords: (0,) * l}
    level = [coords]
    while level:
        candidates = {}
        for v in level:
            dv = depth[v]
            for i, col in enumerate(simple):
                cand = tuple(map(sub, v, col))
                if cand not in mults and cand not in candidates:
                    candidates[cand] = dv[:i] + (dv[i] + 1,) + dv[i + 1:]
        nxt = []
        for mu, dmu in candidates.items():
            denom = norm_top - norm_rho(mu)
            if denom <= 0:
                continue
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
                    m_up = mults.get(up)
                    if m_up:
                        acc += m_up * ip
            m, r = divmod(2 * acc, denom)
            if r or m < 0:
                raise IntegralityFailure(
                    f"Freudenthal multiplicity of {mu} in {coords} ({fin.type}) "
                    f"is {2 * acc}/{denom}, not a non-negative integer")
            if m:
                mults[mu] = m
                depth[mu] = dmu
                nxt.append(mu)
        level = nxt
    total = sum(mults.values())
    d = dim(fin, coords)
    if total != d:
        raise MassMismatch(f"Freudenthal weight system of {coords}", total, d)
    return WeightSystem(Weight(fin, coords),
                        {Weight(fin, mu): m for mu, m in mults.items()})


def _mults_raw(fin, coords, dim_cap=DIMENSION_CAP):
    ws = freudenthal(fin, coords, dim_cap)
    return {w.coords: m for w, m in ws.mults.items()}


def tensor_decompose(datum, lam, mu, dim_cap=DIMENSION_CAP):
    """Klimyk decomposition of lam (x) mu into dominant weights."""
    from .weyl import to_dominant
    fin = datum.finite
    lam_c = tuple(int(c) for c in (lam.coords if isinstance(lam, Weight) else lam))
    mu_c = tuple(int(c) for c in (mu.coords if isinstance(mu, Weight) else mu))
    if dim(fin, lam_c) < dim(fin, mu_c):
        lam_c, mu_c = mu_c, lam_c  # enumerate weights of the smaller factor
    sys_small = _mults_raw(fin, mu_c, dim_cap)
    l = fin.rank
    out = {}
    for tau, m in sys_small.items():
        shifted = tuple(lam_c[i] + tau[i] + 1 for i in range(l))
        rep, sign = to_dominant(fin, Weight(fin, shifted))
        if sign == 0:
            continue
        target = tuple(c - 1 for c in rep.coords)
        out[target] = out.get(target, 0) + sign * m
    out = {k: v for k, v in out.items() if v != 0}
    for k, v in out.items():
        if v < 0:
            raise NegativeMultiplicity(
                f"tensor product {lam_c} x {mu_c} has multiplicity {v} at {k}")
    total = sum(v * dim(fin, k) for k, v in out.items())
    expect = dim(fin, lam_c) * dim(fin, mu_c)
    if total != expect:
        raise MassMismatch(f"tensor product {lam_c} x {mu_c}", total, expect)
    return DecompTable({Weight(fin, k): v for k, v in out.items()})


def branch(ambient_datum, sub_datum, restriction_matrix, lam, dim_cap=DIMENSION_CAP):
    """Restrict the ambient irreducible lam and peel into sub-irreducibles.

    restriction_matrix maps ambient Dynkin labels to subalgebra labels (the
    Cartan-level dual of the subalgebra embedding).
    """
    amb = ambient_datum.finite
    sub = sub_datum.finite
    lam_c = tuple(int(c) for c in (lam.coords if isinstance(lam, Weight) else lam))
    amb_sys = _mults_raw(amb, lam_c, dim_cap)
    rmat = [tuple(int(x) for x in row) for row in restriction_matrix]
    ls = sub.rank
    rest = {}
    for w, m in amb_sys.items():
        y = tuple(sum(rmat[i][j] * w[j] for j in range(len(w))) for i in range(ls))
        rest[y] = rest.get(y, 0) + m
    ainv = _ainv(sub)

    def height(y):
        return sum(sum(ainv[i][j] * y[j] for j in range(ls)) for i in range(ls))

    out = {}
    guard = sum(rest.values())
    while True:
        dominant = [(y, m) for y, m in rest.items() if m != 0 and all(c >= 0 for c in y)]
        if not dominant:
            break
        if any(m < 0 for _, m in dominant) or guard < 0:
            raise NegativeMultiplicity("branching produced a negative multiplicity")
        # Highest weight first: maximal height, then lexicographically highest.
        y, m = max(dominant, key=lambda item: (height(item[0]), item[0]))
        if m < 0:
            raise NegativeMultiplicity("branching produced a negative multiplicity")
        out[y] = m
        for w, mw in _mults_raw(sub, y, dim_cap).items():
            rest[w] = rest.get(w, 0) - m * mw
            if rest[w] < 0:
                raise NegativeMultiplicity("branching produced a negative multiplicity")
        guard -= m * dim(sub, y)
    if any(m != 0 for m in rest.values()):
        raise NegativeMultiplicity("branching left unresolved non-dominant mass")
    total = sum(m * dim(sub, y) for y, m in out.items())
    expect = dim(amb, lam_c)
    if total != expect:
        raise MassMismatch(f"branching of {lam_c}", total, expect)
    return DecompTable({Weight(sub, y): m for y, m in out.items()})
