"""Root-system data: Cartan matrices, bilinear forms, and the index [M*:M].

Node numbering follows Kac's tables.  Finite diagrams:

    A_l   1 - 2 - ... - l
    B_l   1 - 2 - ... - (l-1) => l          (l short)
    C_l   1 - 2 - ... - (l-1) <= l          (l long)
    D_l   1 - ... - (l-2) < (l-1), l        (fork at l-2)
    E_6   1 - 2 - 3 - 4 - 5, 6 on 3
    E_7   1 - 2 - 3 - 4 - 5 - 6, 7 on 3
    E_8   1 - 2 - 3 - 4 - 5 - 6 - 7, 8 on 3
    F_4   1 - 2 => 3 - 4                    (3, 4 short)
    G_2   1 => 2 (triple edge; 2 short)

Untwisted affine matrices are assembled from the highest root, and their
marks and comarks are (1, those of theta).  `_TWISTED` is the one table of
twisted types: X_l^(r) names its partner P_p, whose untwisted table,
transposed, is Kac's table Aff 2 or Aff 3 of X_l^(r) in canonical node
numbering, and l as a function of p:

    A_{2p-1}^{(2)} = (B_p^{(1)})^T     D_{p+1}^{(2)} = (C_p^{(1)})^T
    E_6^{(2)}      = (F_4^{(1)})^T     D_4^{(3)}     = (G_2^{(1)})^T

X_l^(r) exists when P_p does, its (co)marks are the partner's, swapped by
the transpose, its finite part is the dual P_p^vee (B <-> C), and its
adjacent type (the orbit algebra of `fold`) is partnered with P_p^vee.

The Weyl-reflection kernels of the package live here, the one module that
`rep`, `weyl` and `fold` all import without a cycle.  `simple_roots` gives
the columns of a Cartan matrix; `reflect_to_dominant` is the one
reflect-to-dominant loop on a label tuple, and `orbit_walk` the one orbit
walk, in numpy over a stack of points.  Here the loop gives the highest
root.  `rep` uses the loop for the Freudenthal lookups and the walk to
spread the dominant multiplicities over their orbits, `weyl.to_dominant` and
`weyl.alcove_fold` run the loop on the finite and the affine simple roots,
and `weyl.signed_orbit` and `weyl.coset_representatives` run the walk for
the S-matrix kernel.  The Klimyk sum, of tensor products and branching
alike, runs the numpy form of the reflect-to-dominant loop, `rep._reflect`,
in `rep.klimyk_blocks`.

The translation lattice M of an affine datum has Kac's closed-form basis
alpha_i / m_i, m_i = min(1, d_i) (Infinite-dimensional Lie algebras,
section 6.5): untwisted M = nu(Q^vee), twisted (a_0 = 1, d_i >= 1) the
root lattice.  So Gram(M)_ij = d_j A_fin[j][i] / (m_i m_j), and
[M*:M] = det Gram(M) (`CartanDatum.M_index`); no basis of M is built.

Root data and forms are exact rationals; the orbit walk runs on int64
label arrays.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import _rational as rat
from .errors import CheckFailed, MixedDatum, NotSublattice, UnsupportedType

FINITE = "finite"
AFFINE_R1 = "affine-r1"
AFFINE_R2 = "affine-r2"
AFFINE_R3 = "affine-r3"
KINDS = (FINITE, AFFINE_R1, AFFINE_R2, AFFINE_R3)


@dataclass(frozen=True)
class LieType:
    family: str
    rank: int
    kind: str = FINITE

    def __post_init__(self):
        validate_type(self)

    @property
    def twist_order(self):
        return {FINITE: 1, AFFINE_R1: 1, AFFINE_R2: 2, AFFINE_R3: 3}[self.kind]

    def __str__(self):
        if self.kind == FINITE:
            return f"{self.family}{self.rank}"
        return f"{self.family}{self.rank}^({self.twist_order})"


def _valid_finite(family, rank):
    return {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(family, False)


def validate_type(t):
    if t.kind not in KINDS:
        raise UnsupportedType(f"unknown kind {t.kind!r}")
    if t.family not in "ABCDEFG" or len(t.family) != 1:
        raise UnsupportedType(f"unknown family {t.family!r}")
    if t.kind in (FINITE, AFFINE_R1):
        ok = _valid_finite(t.family, t.rank)
    else:
        ok = partner(t.family, t.rank, t.kind) is not None
    if not ok:
        raise UnsupportedType(f"no diagram named ({t.family}, {t.rank}, {t.kind})")


def parse_type(spec, kind=FINITE):
    """Parse a string like 'A3' or 'D4' into a LieType of the given kind."""
    spec = spec.strip()
    if not spec or spec[0].upper() not in "ABCDEFG" or not spec[1:].isdigit():
        raise UnsupportedType(f"cannot parse type spec {spec!r}")
    return LieType(spec[0].upper(), int(spec[1:]), kind)


# Positive-root counts of the finite types.
_NPOS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
    "F": lambda l: 24,
    "G": lambda l: 6,
}


def _finite_cartan(family, l):
    """Finite Cartan matrix a[i][j] = <alpha_j, alpha_i^vee>, 0-based storage."""
    a = [[2 * (i == j) for j in range(l)] for i in range(l)]

    def link(i, j, aij=-1, aji=-1):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    if family in "ABCD":
        chain = l - 1 if family == "D" else l
        for i in range(1, chain):
            link(i, i + 1)
        if family == "B":
            a[l - 2][l - 1], a[l - 1][l - 2] = -1, -2  # l short
        elif family == "C":
            a[l - 2][l - 1], a[l - 1][l - 2] = -2, -1  # l long
        elif family == "D":
            link(l - 2, l)
    elif family == "E":
        for i in range(1, l - 1):
            link(i, i + 1)
        link(3, l)
    elif family == "F":
        link(1, 2)
        link(2, 3, -1, -2)
        link(3, 4)
    elif family == "G":
        link(1, 2, -1, -3)
    return tuple(tuple(row) for row in a)


def _require(holds, what):
    if not holds:
        raise CheckFailed(what)


def _symmetrizers(a):
    """Positive rationals d with diag(d) @ a symmetric, normalized d[0] = 1.

    Requires a connected diagram (true for all supported types).
    """
    n = len(a)
    d = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and a[i][j] != 0 and d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                todo.append(j)
    _require(all(x is not None and x > 0 for x in d), "symmetrizers not positive")
    _require(all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(n) for j in range(n)),
             "not symmetrizable")
    return tuple(d)


def simple_roots(a):
    """Dynkin labels of the simple roots: the columns of the Cartan matrix a."""
    return tuple(zip(*a))


def reflect_to_dominant(simple, v):
    """Dominant representative of the label tuple v, and its orbit sign.

    Reflects v -> v - v_i simple[i] at the most negative label, lowest
    index on ties, until no label is negative.  Returns (labels, sign):
    sign is 0 exactly when v lies on a reflection wall (the representative
    then has a zero label), otherwise the parity of the reflections.
    """
    sign = 1
    c = min(v)
    while c < 0:
        i = v.index(c)
        v = tuple([x - c * y for x, y in zip(v, simple[i])])
        sign = -sign
        c = min(v)
    return v, sign if c else 0


def orbit_walk(simple, start, nodes=None):
    """Orbits of a stack of points under W_J, the reflections of the first
    `nodes` nodes (default: all), each point once.

    start is an int64 array (n, m, rank): n points of m label rows, each
    steered by its own last row, dominant on J (zero labels allowed).  The
    walk steps from u through node i where that row's label u_i is
    positive, to u - u_i alpha_i on every row (simple: the labels of the
    alpha_i), and keeps the step where i is then the first negative label
    on J.  So every point w is reached once, from r_j w for its first
    negative label j, one vectorised step per level over all (node, point)
    pairs, without a sort.  For a regular last row level d holds the w x
    with l(w) = d.

    Returns (points, depth, origin): points (N, m, rank), the level of
    each (N,), so the sign (-1)^depth on a regular row, and the index in
    start of the point each came from (N,).
    """
    alpha = np.array(simple, dtype=np.int64)[:nodes, None]
    level, origin = start, np.arange(len(start))
    levels, origins = [level], [origin]
    while True:
        i, p = np.nonzero(level[:, -1, :nodes].T > 0)
        if not len(i):
            break
        down = level[p] - level[p, :, i][:, :, None] * alpha[i]
        keep = (down[:, -1, :nodes] < 0).argmax(axis=1) == i
        level, origin = down[keep], origin[p[keep]]
        levels.append(level)
        origins.append(origin)
    depth = np.arange(len(levels)).repeat([len(x) for x in levels])
    return np.concatenate(levels), depth, np.concatenate(origins)


@dataclass(frozen=True)
class Weight:
    """Exact weight in the Dynkin-label basis of a finite root system."""
    datum: "CartanDatum"
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != self.datum.rank:
            raise ValueError(f"{len(self.coords)} labels for a weight of {self.datum.type}")

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.coords) + ")"

    def to_json(self):
        """The Dynkin labels as a list of ints: the one label serializer."""
        return [int(x) for x in self.coords]


@dataclass(frozen=True)
class LeveledWeight:
    level: int
    finite: Weight

    def __str__(self):
        return f"k={self.level}:{self.finite}"


class CartanDatum:
    """Immutable bundle of root data for one finite or affine type.

    For affine types the weight-level fields (gram matrix, theta)
    refer to the finite part with the symmetrizers inherited from the affine
    normalization (d_0 = 1), which for twisted types scales the finite form
    by the twist order.  ``finite`` is the corresponding finite-part view.
    Affine (co)marks come from build_cartan; _check_invariants gates them.
    """

    def __init__(self, type_, A, d, finite_view=None, marks=None, comarks=None):
        self.type = type_
        self.A = A
        self.d = d
        self.rank = len(A) - (0 if type_.kind == FINITE else 1)
        self.marks = marks
        self.comarks = comarks
        if type_.kind == FINITE:
            self.finite = self
            a_fin, d_fin = A, d
        else:
            self.finite = finite_view
            a_fin = tuple(tuple(row[1:]) for row in A[1:])
            d_fin = d[1:]
            _require(min(marks + comarks) > 0, f"{type_}: (co)marks not positive")
        self.A_fin = a_fin
        self.d_fin = d_fin
        a_inv = rat.mat_inverse(a_fin)
        self.gram_weights = tuple(
            tuple(d_fin[j] * a_inv[j][i] for j in range(self.rank))
            for i in range(self.rank))
        ft = _finite_type_of(type_)
        self.npos = _NPOS[ft.family](ft.rank)
        if type_.kind == FINITE:
            # theta = dominant long root, the representative of the first
            # long simple root; its norm is 2 max(d).
            simple = simple_roots(a_fin)
            theta_labels = reflect_to_dominant(simple, simple[d_fin.index(max(d_fin))])[0]
            scale = max(d_fin)
            marks_fin = rat.solve(a_fin, theta_labels)
            self.marks = tuple(int(x) for x in marks_fin)
            covec = tuple(d_fin[i] * marks_fin[i] / scale for i in range(self.rank))
            self.hdual = 1 + sum(int(x) for x in covec)
        else:
            # theta = delta - alpha_0; its norm is 2 a_0 = 2.
            theta_labels = rat.mat_vec(a_fin, marks[1:])
            covec = tuple(d_fin[i] * marks[i + 1] for i in range(self.rank))
            self.hdual = sum(self.comarks)
        self.theta = Weight(self.finite, tuple(int(x) for x in theta_labels))
        _require(all(Fraction(x).denominator == 1 for x in covec), "theta covector not integral")
        if type_.kind == FINITE:
            self.comarks = tuple(int(x) for x in covec)
        _check_invariants(self)

    @cached_property
    def M_index(self):
        """[M*:M] = det Gram(M) on first use, Gram(M) on Kac's basis
        alpha_i / min(1, d_i) of M (module docstring; a finite X_l reads
        that of X_l^(1)).  M lies in M* exactly when Gram(M) is integral
        (NotSublattice).  The S- and a-matrix normalisations read it."""
        a, d, n = self.A_fin, self.d_fin, range(self.rank)
        m = [min(x, 1) for x in d]
        gram = [[d[j] * a[j][i] / (m[i] * m[j]) for j in n] for i in n]
        if any(x.denominator != 1 for row in gram for x in row):
            raise NotSublattice(f"{self.type}: Gram(M) is not integral, so M "
                                f"is not contained in its dual lattice")
        return int(rat.mat_det(gram))

    def is_affine(self):
        return self.type.kind != FINITE

    def weight(self, coords):
        return Weight(self.finite, tuple(coords))

    def leveled(self, level, coords):
        return LeveledWeight(level, self.weight(coords))

    def dim_adjoint(self):
        """Dimension of the finite-part simple Lie algebra."""
        return 2 * self.npos + self.rank

    def __repr__(self):
        return f"CartanDatum({self.type})"


def _check_invariants(datum):
    a, d = datum.A, datum.d
    n = len(a)
    _require(all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(n) for j in range(n)),
             f"{datum.type}: diag(d) A not symmetric")
    if datum.is_affine():
        _require(rat.mat_vec(a, datum.marks) == (0,) * n, "A marks != 0")
        _require(rat.mat_vec(rat.transpose(a), datum.comarks) == (0,) * n, "comarks A != 0")
        # d_i = comark_i / mark_i holds for every supported affine type.
        _require(all(d[i] == Fraction(datum.comarks[i], datum.marks[i]) for i in range(n)),
                 f"{datum.type}: d_i != comark_i / mark_i")
    # (theta, theta) = 2 a_0 with a_0 = 1 for every supported affine type.
    # Finite theta is the dominant long root, norm 2 max(d); max(d) exceeds 1
    # only on the scaled finite part of a twisted affine datum.
    tt = inner_product(datum.theta, datum.theta)
    if datum.is_affine():
        _require(tt == 2, f"(theta,theta) = {tt} != 2 for {datum.type}")
        if datum.type.kind == AFFINE_R1:
            _require(max(datum.d_fin) == 1, f"{datum.type}: scaled finite part")
    else:
        _require(tt == 2 * max(datum.d), f"bad long-root norm for {datum.type}")


def _affine_matrix_from_theta(fin):
    """Untwisted affine Cartan matrix: node 0 attached through theta."""
    l = fin.rank
    theta = fin.theta.coords
    row0 = [2] + [-int(fin.d[j] * theta[j]) for j in range(l)]
    rows = [tuple(row0)]
    for i in range(l):
        rows.append(tuple([-int(theta[i])] + list(fin.A[i])))
    return tuple(rows)


# Twisted (kind, family) -> (partner family P, m, c): the table of X_l^(r)
# is the transpose of that of P_p^(1), at the rank l = m p + c.
_TWISTED = {
    (AFFINE_R2, "A"): ("B", 2, -1),
    (AFFINE_R2, "D"): ("C", 1, 1),
    (AFFINE_R2, "E"): ("F", 1, 2),
    (AFFINE_R3, "D"): ("G", 1, 2),
}
_PARTNERED = {entry[0]: key for key, entry in _TWISTED.items()}
_DUAL = {"B": "C", "C": "B"}
TWISTED_KINDS = {2: AFFINE_R2, 3: AFFINE_R3}


def partner(family, rank, kind):
    """(P, p): the partner family and rank of the twisted type (family,
    rank, kind), or None when the table holds no such type."""
    entry = _TWISTED.get((kind, family))
    if entry is None:
        return None
    p_family, m, c = entry
    p, rest = divmod(rank - c, m)
    return (p_family, p) if not rest and _valid_finite(p_family, p) else None


def adjacent_type(t):
    """The twisted type partnered with the dual of t's partner, at its rank."""
    family, p = partner(t.family, t.rank, t.kind)
    kind, adjacent = _PARTNERED[_DUAL.get(family, family)]
    _, m, c = _TWISTED[kind, adjacent]
    return LieType(adjacent, m * p + c, kind)


def _finite_type_of(t):
    """Finite LieType of the finite part of t (t itself when finite)."""
    if t.kind in (FINITE, AFFINE_R1):
        return LieType(t.family, t.rank, FINITE)
    family, p = partner(t.family, t.rank, t.kind)
    return LieType(_DUAL.get(family, family), p, FINITE)


# Unbounded: data are interned, and inner_product detects MixedDatum by identity.
@lru_cache(maxsize=None)
def build_cartan(type_):
    """Construct the CartanDatum for a LieType.  Results are interned."""
    t = type_
    if t.kind == FINITE:
        a = _finite_cartan(t.family, t.rank)
        d = _symmetrizers(a)
        scale = max(d)
        d = tuple(x / scale for x in d)  # long roots get norm 2
        return CartanDatum(t, a, d)
    if t.kind == AFFINE_R1:
        fin = build_cartan(LieType(t.family, t.rank, FINITE))
        a = _affine_matrix_from_theta(fin)
        marks, comarks = (1,) + fin.marks, (1,) + fin.comarks
    else:
        fin = build_cartan(LieType(*partner(t.family, t.rank, t.kind), FINITE))
        a = rat.transpose(_affine_matrix_from_theta(fin))
        # The transpose swaps the null vectors of A and of A^T.
        marks, comarks = (1,) + fin.comarks, (1,) + fin.marks
    d = _symmetrizers(a)
    d = tuple(x / d[0] for x in d)  # normalization d_0 = 1
    # Finite view: same matrix block with the inherited symmetrizers.
    a_fin = tuple(tuple(row[1:]) for row in a[1:])
    d_fin = d[1:]
    view = _FiniteView(t, a_fin, d_fin)
    return CartanDatum(t, a, d, view, marks, comarks)


class _FiniteView(CartanDatum):
    """Finite part of an affine datum, keeping the affine normalization."""

    def __init__(self, affine_type, a_fin, d_fin):
        ft = _finite_type_of(affine_type)
        self.affine_type = affine_type
        super().__init__(ft, a_fin, d_fin)

    def __repr__(self):
        return f"CartanDatum({self.type} part of {self.affine_type})"


def inner_product(lam, mu):
    """Normalized invariant form on weights, lam^T G mu."""
    if lam.datum is not mu.datum:
        raise MixedDatum("weights belong to different data")
    g = lam.datum.gram_weights
    return sum(lam.coords[i] * g[i][j] * mu.coords[j]
               for i in range(len(lam.coords)) for j in range(len(mu.coords)))
