"""Root-system data: Cartan matrices, bilinear forms, and translation lattices.

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

Untwisted affine matrices are assembled from the highest root; the twisted
tables Aff 2 and Aff 3 are the transposes of the untwisted tables of the
dual finite types, which keeps the node numbering canonical:

    A_{2l-1}^{(2)} = (B_l^{(1)})^T     D_{l+1}^{(2)} = (C_l^{(1)})^T
    E_6^{(2)}      = (F_4^{(1)})^T     D_4^{(3)}     = (G_2^{(1)})^T

The Weyl-reflection kernels of the package live here, the one module that
`rep`, `weyl` and `fold` all import without a cycle.  `simple_roots` gives
the columns of a Cartan matrix; `reflect_to_dominant` is the one
reflect-to-dominant loop and `_orbit` the one tuple orbit walk.  Here they
give the highest root and the span of its orbit, the lattice M; `rep` uses
them for the Freudenthal lookups, the Klimyk sum and the orbit expansion,
`weyl.to_dominant` for the finite group, and `weyl.alcove_fold` for the
affine one, on the columns of the affine Cartan matrix.

All arithmetic in this module is exact rational.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _rational as rat
from .errors import (DegenerateLattice, MixedDatum, NotAffine, NotSublattice,
                     UnsupportedType)

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
        if t.kind == AFFINE_R1 and t.family == "B":
            ok = t.rank >= 2  # B_2^(1) is admitted (C_2^(1) with relabeled nodes)
    elif t.kind == AFFINE_R2:
        if t.family == "A":
            if t.rank >= 2 and t.rank % 2 == 0:
                raise UnsupportedType(f"A{t.rank}^(2) is excluded")
            ok = t.rank >= 3 and t.rank % 2 == 1
        elif t.family == "D":
            ok = t.rank >= 3
        elif t.family == "E":
            ok = t.rank == 6
        else:
            ok = False
    else:  # AFFINE_R3
        ok = (t.family, t.rank) == ("D", 4)
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
    assert all(x is not None and x > 0 for x in d)
    for i in range(n):
        for j in range(n):
            assert d[i] * a[i][j] == d[j] * a[j][i], "not symmetrizable"
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


def _orbit(simple, v):
    """Weyl orbit of the dominant label tuple v, each point once.

    Walks down from the dominant chamber, as `weyl.signed_orbit` does, but
    for a singular v too: from a point u, every r_i u with u_i > 0 is one
    step further down, and r_i u is kept only when i is its smallest
    negative label, so no point is reached twice.
    """
    out = [v]
    level = [v]
    while level:
        nxt = []
        for u in level:
            for i, c in enumerate(u):
                if c > 0:
                    w = tuple([x - c * y for x, y in zip(u, simple[i])])
                    if min(w[:i], default=0) >= 0:
                        nxt.append(w)
        out += nxt
        level = nxt
    return out


@dataclass(frozen=True)
class Weight:
    """Exact weight in the Dynkin-label basis of a finite root system."""
    datum: "CartanDatum"
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        assert len(self.coords) == self.datum.rank

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.coords) + ")"


@dataclass(frozen=True)
class LeveledWeight:
    level: int
    finite: Weight

    def __str__(self):
        return f"k={self.level}:{self.finite}"


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice in a finite weight space; rows are basis vectors."""
    datum: "CartanDatum"
    basis: tuple  # tuple of coordinate tuples (Fractions), in the weight basis

    def __post_init__(self):
        object.__setattr__(
            self, "basis",
            tuple(tuple(Fraction(x) for x in v) for v in self.basis))
        n = self.datum.rank
        if len(self.basis) != n:
            raise DegenerateLattice(f"a lattice of rank {n} needs {n} basis "
                                    f"vectors, not {len(self.basis)}")
        if rat.mat_det(self.basis) == 0:
            raise DegenerateLattice(f"lattice basis {self.basis} is not full rank")

    def scaled(self, factor):
        f = Fraction(factor)
        return LatticeBasis(self.datum, tuple(tuple(f * x for x in v) for v in self.basis))

    def gram(self):
        g = self.datum.gram_weights
        return tuple(
            tuple(sum(vi[r] * g[r][s] * vj[s]
                      for r in range(len(vi)) for s in range(len(vj)))
                  for vj in self.basis)
            for vi in self.basis)


class CartanDatum:
    """Immutable bundle of root data for one finite or affine type.

    For affine types the weight-level fields (gram matrices, theta, rhobar)
    refer to the finite part with the symmetrizers inherited from the affine
    normalization (d_0 = 1), which for twisted types scales the finite form
    by the twist order.  ``finite`` is the corresponding finite-part view.
    """

    def __init__(self, type_, A, d, finite_view=None):
        self.type = type_
        self.A = A
        self.d = d
        self.rank = len(A) - (0 if type_.kind == FINITE else 1)
        if type_.kind == FINITE:
            self.finite = self
            a_fin, d_fin = A, d
            self.marks = None
            self.comarks = None
        else:
            self.finite = finite_view
            a_fin = tuple(tuple(row[1:]) for row in A[1:])
            d_fin = d[1:]
            self.marks = rat.nullspace_primitive(A)
            self.comarks = rat.nullspace_primitive(rat.transpose(A))
            assert all(x > 0 for x in self.marks) and all(x > 0 for x in self.comarks)
            assert self.marks[0] == 1, "a_0 = 1 required (A_2l^(2) excluded upstream)"
        self.A_fin = a_fin
        self.d_fin = d_fin
        self.gram_roots = tuple(
            tuple(d_fin[i] * Fraction(a_fin[i][j]) for j in range(self.rank))
            for i in range(self.rank))
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
            covec = tuple(d_fin[i] * marks_fin[i] / scale for i in range(self.rank))
            self.hdual = 1 + sum(int(x) for x in covec)
        else:
            # theta = delta - alpha_0; its norm is 2 a_0 = 2.
            theta_labels = rat.mat_vec(a_fin, self.marks[1:])
            marks_fin = rat.solve(a_fin, theta_labels)
            covec = tuple(d_fin[i] * marks_fin[i] for i in range(self.rank))
            self.hdual = sum(self.comarks)
        self.theta = Weight(self.finite, tuple(int(x) for x in theta_labels))
        assert all(x.denominator == 1 for x in map(Fraction, covec))
        self.theta_covec = tuple(int(x) for x in covec)
        if type_.kind == FINITE:
            self.marks = tuple(int(x) for x in marks_fin)
            self.comarks = self.theta_covec
        self.rhobar = Weight(self.finite, (1,) * self.rank)
        self.M_basis = _orbit_lattice(self) if type_.kind != FINITE else None
        _check_invariants(self)

    def is_affine(self):
        return self.type.kind != FINITE

    def weight(self, coords):
        return Weight(self.finite, tuple(coords))

    def leveled(self, level, coords):
        return LeveledWeight(level, self.weight(coords))

    def dim_adjoint(self):
        """Dimension of the finite-part simple Lie algebra."""
        return 2 * self.npos + self.rank

    def to_json_dict(self):
        return {
            "type": str(self.type),
            "A": [list(r) for r in self.A],
            "d": [str(x) for x in self.d],
            "marks": list(self.marks),
            "comarks": list(self.comarks),
            "hdual": self.hdual,
            "theta": [int(x) for x in self.theta.coords],
            "theta_covec": list(self.theta_covec),
            "npos": self.npos,
            "gram_weights": [[str(x) for x in row] for row in self.gram_weights],
            "M_basis": None if self.M_basis is None else
                       [[str(x) for x in v] for v in self.M_basis.basis],
        }

    def __repr__(self):
        return f"CartanDatum({self.type})"


def _check_invariants(datum):
    a, d = datum.A, datum.d
    n = len(a)
    for i in range(n):
        for j in range(n):
            assert d[i] * a[i][j] == d[j] * a[j][i]
    if datum.is_affine():
        assert all(sum(a[i][j] * datum.marks[j] for j in range(n)) == 0 for i in range(n))
        assert all(sum(a[j][i] * datum.comarks[j] for j in range(n)) == 0 for i in range(n))
        assert datum.hdual == sum(datum.comarks)
        # d_i = comark_i / mark_i holds for every supported affine type.
        assert all(d[i] == Fraction(datum.comarks[i], datum.marks[i]) for i in range(n))
    # (theta, theta) = 2 a_0 with a_0 = 1 for every supported affine type.
    # Finite theta is the dominant long root, norm 2 max(d); max(d) exceeds 1
    # only on the scaled finite part of a twisted affine datum.
    tt = inner_product(datum.theta, datum.theta)
    if datum.is_affine():
        assert tt == 2, f"(theta,theta) = {tt} != 2 for {datum.type}"
        if datum.type.kind == AFFINE_R1:
            assert max(datum.d_fin) == 1
    else:
        assert tt == 2 * max(datum.d), f"bad long-root norm for {datum.type}"


def _affine_matrix_from_theta(fin):
    """Untwisted affine Cartan matrix: node 0 attached through theta."""
    l = fin.rank
    theta = fin.theta.coords
    row0 = [2] + [-int(fin.d[j] * theta[j]) for j in range(l)]
    rows = [tuple(row0)]
    for i in range(l):
        rows.append(tuple([-int(theta[i])] + list(fin.A[i])))
    return tuple(rows)


# Twisted (kind, family) -> (partner family, finite-part family, their rank
# from the twisted rank).  The twisted table is the transpose of the
# partner's untwisted table; its finite part is the dual of the partner.
_TWISTED = {
    (AFFINE_R2, "A"): ("B", "C", lambda l: (l + 1) // 2),
    (AFFINE_R2, "D"): ("C", "B", lambda l: l - 1),
    (AFFINE_R2, "E"): ("F", "F", lambda l: 4),
    (AFFINE_R3, "D"): ("G", "G", lambda l: 2),
}


def _finite_type_of(t):
    """Finite LieType of the finite part of t (t itself when finite)."""
    if t.kind in (FINITE, AFFINE_R1):
        return LieType(t.family, t.rank, FINITE)
    _, family, rank = _TWISTED[t.kind, t.family]
    return LieType(family, rank(t.rank), FINITE)


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
    else:
        family, _, rank = _TWISTED[t.kind, t.family]
        partner = build_cartan(LieType(family, rank(t.rank), FINITE))
        a = rat.transpose(_affine_matrix_from_theta(partner))
    d = _symmetrizers(a)
    d = tuple(x / d[0] for x in d)  # normalization d_0 = 1
    # Finite view: same matrix block with the inherited symmetrizers.
    a_fin = tuple(tuple(row[1:]) for row in a[1:])
    d_fin = d[1:]
    view = _FiniteView(t, a_fin, d_fin)
    return CartanDatum(t, a, d, finite_view=view)


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


def _orbit_lattice(datum):
    """Lattice M: span of the finite Weyl orbit of nu(theta^vee) = theta."""
    fin = datum.finite
    orbit = _orbit(simple_roots(fin.A), datum.theta.coords)
    rows = rat.lattice_basis_rows(sorted(orbit))
    assert len(rows) == fin.rank, "orbit of theta must span the weight space"
    return LatticeBasis(fin, rows)


def lattice_M(datum):
    """Translation lattice of the affine Weyl group, in finite weight coords."""
    if not datum.is_affine():
        raise NotAffine(f"{datum.type} is not affine")
    return datum.M_basis


def lattice_index(l1, l2):
    """Index [l1 : l2] for a sublattice l2 of l1; |det(B1^-1 B2)|."""
    b1inv = rat.mat_inverse(l1.basis)
    coeffs = rat.mat_mul(l2.basis, b1inv)
    for row in coeffs:
        for x in row:
            if Fraction(x).denominator != 1:
                raise NotSublattice("second lattice is not contained in the first")
    idx = abs(rat.mat_det(coeffs))
    if idx.denominator != 1 or idx <= 0:
        raise DegenerateLattice(f"index [l1 : l2] = {idx} is not a positive integer")
    return int(idx)


def dual_lattice(lat, datum=None):
    """Dual lattice with respect to the weight-space inner product."""
    datum = datum or lat.datum
    g = datum.gram_weights
    bg = rat.mat_mul(lat.basis, g)
    dual = rat.mat_inverse(rat.transpose(bg))
    return LatticeBasis(lat.datum, dual)
