"""Finite-dimensional representation combinatorics.

Weight systems via the Freudenthal recursion, dimensions via the Weyl
product formula, tensor decomposition by the Klimyk orbit-shift method, and
branching to a folded subalgebra by restrict-and-peel.  All multiplicities
are exact integers; weights are integer Dynkin-label tuples internally.

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
known.  Every other multiplicity follows by W-invariance: `_orbit`
expands each dominant weight's orbit, bounded by the dimension cap that
`freudenthal` checks first.  The Klimyk sum reflects each shifted weight
to the dominant chamber with its sign.  Both kernels,
`reflect_to_dominant` and `_orbit`, live in `cartan` and are imported here
under their own names.  All caches, the weight-system cache too, are
bounded.

Gates, all typed errors that survive `python -O`: the Freudenthal divmod
raises IntegralityFailure at each dominant weight, the only weights the
recursion computes; the mass of the whole expanded system, the tensor
product and the branching is checked against `dim` (MassMismatch);
negative tensor or branching multiplicities raise NegativeMultiplicity;
`root_table` raises RootCountMismatch when the reflection closure misses
a positive root.  The Fraction inner product `_ip` remains for the
conformal data.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul, sub

from .cartan import (LeveledWeight, Weight, _orbit, reflect_to_dominant,
                     simple_roots)
from .errors import (DimensionCap, IntegralityFailure, MassMismatch,
                     NegativeMultiplicity, RootCountMismatch)

DIMENSION_CAP = 10**6


@dataclass(frozen=True)
class WeightSystem:
    highest: Weight
    mults: dict  # Weight -> positive int

    def total(self):
        return sum(self.mults.values())

    @cached_property
    def label_mults(self):
        """{label tuple: multiplicity}, built once per system; read only."""
        return {w.coords: m for w, m in self.mults.items()}


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
    mults = {Weight(fin, u): m for mu, m in dominant.items() for u in _orbit(simple, mu)}
    total = sum(mults.values())
    d = dim(fin, coords)
    if total != d:
        raise MassMismatch(f"Freudenthal weight system of {coords}", total, d)
    return WeightSystem(Weight(fin, coords), mults)


def tensor_decompose(datum, lam, mu, dim_cap=DIMENSION_CAP):
    """Klimyk decomposition of lam (x) mu into dominant weights."""
    fin = datum.finite
    lam_c = tuple(int(c) for c in (lam.coords if isinstance(lam, Weight) else lam))
    mu_c = tuple(int(c) for c in (mu.coords if isinstance(mu, Weight) else mu))
    out = tensor_labels(fin, lam_c, mu_c, dim_cap)
    return DecompTable({Weight(fin, k): v for k, v in out.items()})


def tensor_labels(fin, lam_c, mu_c, dim_cap=DIMENSION_CAP):
    """`tensor_decompose` on label tuples: {labels: multiplicity} of the
    dominant components of lam (x) mu, for the finite datum fin, with the
    same positivity and mass gates."""
    if dim(fin, lam_c) < dim(fin, mu_c):
        lam_c, mu_c = mu_c, lam_c  # enumerate weights of the smaller factor
    sys_small = freudenthal(fin, mu_c, dim_cap).label_mults
    simple = root_table(fin).simple
    lam_rho = tuple(c + 1 for c in lam_c)
    out = {}
    for tau, m in sys_small.items():
        shifted, sign = reflect_to_dominant(simple, tuple(map(add, lam_rho, tau)))
        if sign:
            target = tuple(c - 1 for c in shifted)
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
    return out


def branch(ambient_datum, sub_datum, restriction_matrix, lam, dim_cap=DIMENSION_CAP):
    """Restrict the ambient irreducible lam and peel into sub-irreducibles.

    restriction_matrix maps ambient Dynkin labels to subalgebra labels (the
    Cartan-level dual of the subalgebra embedding).
    """
    amb = ambient_datum.finite
    sub = sub_datum.finite
    lam_c = tuple(int(c) for c in (lam.coords if isinstance(lam, Weight) else lam))
    amb_sys = freudenthal(amb, lam_c, dim_cap).label_mults
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
        for w, mw in freudenthal(sub, y, dim_cap).label_mults.items():
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
