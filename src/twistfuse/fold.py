"""Diagram automorphisms and orbit Lie algebra folding.

For an order-p automorphism of an untwisted affine diagram this module
builds the orbit Cartan matrix, identifies it with the adjacent affine
type, and assembles the three coordinate bridges used downstream:

    Pstar      adjacent-type weights  ->  symmetric weights of the base
    phi        adjacent-type weights  ->  twisted-type weights
    iota_dual  base weights           ->  twisted-type weights (restriction)

All identities relating them are checked exactly at construction time;
these checks, those of the automorphism and the orbit matrix, and that of
`symmetric_weights` raise typed errors, so python -O keeps them.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from . import _rational as rat
from .cartan import (AFFINE_R1, AFFINE_R2, AFFINE_R3, LatticeBasis, LieType,
                     build_cartan, lattice_M)
from .errors import (CheckFailed, FoldingIdentityFailure, NoBuiltinAutomorphism,
                     SectorLabelMismatch, UnrecognizedFoldedType)
from .rep import dominant_level_weights


@dataclass(frozen=True)
class DiagramAutomorphism:
    base: object   # untwisted affine CartanDatum
    perm: tuple    # permutation of nodes 0..l
    order: int

    def __post_init__(self):
        a = self.base.A
        n = len(a)
        p = self.perm
        where = f"diagram automorphism {p} of {self.base.type}"
        if sorted(p) != list(range(n)):
            raise CheckFailed(f"{where}: not a permutation of the nodes 0..{n - 1}")
        if p[0] != 0:
            raise CheckFailed(f"{where}: node 0 must stay fixed")
        if self.order not in (2, 3):
            raise CheckFailed(f"{where}: order {self.order} is not 2 or 3")
        ident = list(range(n))
        q = [p[i] for i in ident]
        true_order = 1
        while q != ident:
            q = [p[i] for i in q]
            true_order += 1
        if true_order != self.order:
            raise CheckFailed(f"{where}: the permutation has order {true_order}, "
                              f"not {self.order}")
        if any(a[p[i]][p[j]] != a[i][j] for i in range(n) for j in range(n)):
            raise CheckFailed(f"{where}: the permutation does not fix the "
                              f"Cartan matrix")

    def orbits(self):
        """Orbits keyed by their smallest element, in ascending order."""
        n = len(self.base.A)
        seen = set()
        out = []
        for i in range(n):
            if i in seen:
                continue
            orb = [i]
            j = self.perm[i]
            while j != i:
                orb.append(j)
                j = self.perm[j]
            seen.update(orb)
            out.append((min(orb), tuple(sorted(orb))))
        out.sort()
        return out


def builtin_sigma(type_, order=None):
    """The standard nontrivial diagram automorphism for a supported type.

    D4^(1) carries both an order-3 rotation (the default) and the order-2
    swap of the last two nodes; pass order to select.
    """
    if type_.kind != AFFINE_R1:
        raise NoBuiltinAutomorphism(f"{type_} is not an untwisted affine type")
    base = build_cartan(type_)
    fam, l = type_.family, type_.rank
    if fam == "A" and l >= 3 and l % 2 == 1:
        if order not in (None, 2):
            raise NoBuiltinAutomorphism(f"{type_} has no order-{order} automorphism")
        # i -> 2n - i mod 2n on the cycle 0..2n-1.
        perm = tuple((l + 1 - i) % (l + 1) for i in range(l + 1))
        return DiagramAutomorphism(base, perm, 2)
    if fam == "D" and l == 4 and order in (None, 3):
        perm = (0, 3, 2, 4, 1)  # 1 -> 3 -> 4 -> 1
        return DiagramAutomorphism(base, perm, 3)
    if fam == "D" and l >= 4:
        if order not in (None, 2):
            raise NoBuiltinAutomorphism(f"{type_} has no builtin order-{order} automorphism")
        perm = list(range(l + 1))
        perm[l - 1], perm[l] = l, l - 1
        return DiagramAutomorphism(base, tuple(perm), 2)
    if fam == "E" and l == 6:
        if order not in (None, 2):
            raise NoBuiltinAutomorphism(f"{type_} has no order-{order} automorphism")
        perm = (0, 5, 4, 3, 2, 1, 6)
        return DiagramAutomorphism(base, perm, 2)
    raise NoBuiltinAutomorphism(f"no builtin diagram automorphism for {type_}")


def _orbit_matrix(auto):
    """FRS orbit Cartan matrix over ascending orbit representatives."""
    a = auto.base.A
    orbits = auto.orbits()
    reps = [r for r, _ in orbits]
    members = {r: mem for r, mem in orbits}
    s = {}
    for r in reps:
        diag = sum(a[r][j] for j in members[r])
        s[r] = Fraction(a[r][r], diag) if diag > 0 else Fraction(1)
    ahat = tuple(
        tuple(s[rj] * sum(a[ri][j] for j in members[rj]) for rj in reps)
        for ri in reps)
    if any(Fraction(x).denominator != 1 for row in ahat for x in row):
        raise CheckFailed(f"orbit Cartan matrix of {auto.base.type} is not "
                          f"integral: {ahat}")
    return reps, members, s, tuple(tuple(int(x) for x in row) for row in ahat)


def _identify(auto):
    """(twisted type, adjacent type) of the folding of auto's base."""
    t = auto.base.type
    l = t.rank
    if t.family == "A":
        return LieType("A", l, AFFINE_R2), LieType("D", (l + 1) // 2 + 1, AFFINE_R2)
    if t.family == "D" and auto.order == 3:
        return LieType("D", 4, AFFINE_R3), LieType("D", 4, AFFINE_R3)
    if t.family == "D":
        return LieType("D", l, AFFINE_R2), LieType("A", 2 * l - 3, AFFINE_R2)
    if t.family == "E":
        return LieType("E", 6, AFFINE_R2), LieType("E", 6, AFFINE_R2)
    raise UnrecognizedFoldedType(f"no folding pairing for {t}")


def _match_relabeling(ahat, target):
    """Permutation pi with ahat[pi^-1(i)][pi^-1(j)] = target[i][j], pi(0) = 0."""
    n = len(ahat)
    if len(target) != n:
        raise CheckFailed(f"orbit matrix of size {n} matched against a "
                          f"matrix of size {len(target)}")
    for perm in permutations(range(1, n)):
        pi = (0,) + perm
        if all(target[pi[i]][pi[j]] == ahat[i][j] for i in range(n) for j in range(n)):
            return pi
    raise UnrecognizedFoldedType("orbit matrix does not match the expected type")


def orbit_cartan(auto):
    """Identify the orbit Lie algebra; returns the canonical CartanDatum."""
    _, _, _, ahat = _orbit_matrix(auto)
    _, adjacent_type = _identify(auto)
    datum = build_cartan(adjacent_type)
    _match_relabeling(ahat, datum.A)  # raises if the identification fails
    return datum


@dataclass(frozen=True)
class FoldingData:
    auto: DiagramAutomorphism
    twisted: object         # CartanDatum of the twisted partner type
    adjacent: object        # CartanDatum of the adjacent type (= orbit algebra)
    r: int
    N: tuple                # orbit lengths, by canonical adjacent node 0..l
    s: tuple                # FRS scaling factors, same indexing
    raw_orbit_matrix: tuple
    relabel: tuple          # orbit representative -> canonical adjacent node
    Pstar: tuple            # adjacent finite labels -> base finite labels
    phi: tuple              # adjacent finite labels -> twisted finite labels
    iota_dual: tuple        # base finite labels -> twisted finite labels

    @property
    def base(self):
        return self.auto.base

    def finite_perm(self):
        """The label permutation induced on base finite Dynkin labels."""
        p = self.auto.perm
        return tuple(p[i + 1] - 1 for i in range(self.base.rank))

    def to_json_dict(self):
        def mat(m):
            return [[str(Fraction(x)) for x in row] for row in m]
        return {
            "base": str(self.base.type),
            "perm": list(self.auto.perm),
            "order": self.auto.order,
            "twisted": str(self.twisted.type),
            "adjacent": str(self.adjacent.type),
            "r": self.r,
            "N": list(self.N),
            "s": [str(x) for x in self.s],
            "orbit_matrix": [list(r_) for r_ in self.raw_orbit_matrix],
            "relabel": list(self.relabel),
            "Pstar": mat(self.Pstar),
            "phi": mat(self.phi),
            "iota_dual": mat(self.iota_dual),
        }


def _phi_label_matrix(folding_twisted, folding_adjacent, reversal):
    """phi on finite Dynkin labels: adjacent -> twisted."""
    tw, adj = folding_twisted, folding_adjacent
    l = tw.rank
    # Column i of the coefficient map: alpha'_i -> (a/a_vee)_{c(i)} alpha^dag_{c(i)}.
    coeff = [[Fraction(0)] * l for _ in range(l)]
    for i in range(1, l + 1):
        ci = l + 1 - i if reversal else i
        coeff[ci - 1][i - 1] = Fraction(tw.marks[ci], tw.comarks[ci])
    a_dag = rat.frac_matrix(tw.A_fin)
    a_adj_inv = rat.mat_inverse(adj.A_fin)
    return rat.mat_mul(a_dag, rat.mat_mul(tuple(map(tuple, coeff)), a_adj_inv))


# Unbounded, as build_cartan: its data are interned, compared by identity.
@lru_cache(maxsize=None)
def build_folding(type_, order=None):
    """Assemble all folding data for a supported untwisted affine type."""
    auto = builtin_sigma(type_, order)
    base = auto.base
    reps, members, s_by_rep, ahat = _orbit_matrix(auto)
    twisted_type, adjacent_type = _identify(auto)
    twisted = build_cartan(twisted_type)
    adjacent = build_cartan(adjacent_type)
    relabel_pi = _match_relabeling(ahat, adjacent.A)
    # relabel[idx] = canonical adjacent node of orbit representative reps[idx]
    relabel = {reps[idx]: relabel_pi[idx] for idx in range(len(reps))}
    l = adjacent.rank
    N = [0] * (l + 1)
    s = [Fraction(0)] * (l + 1)
    for idx, r_ in enumerate(reps):
        N[relabel[r_]] = len(members[r_])
        s[relabel[r_]] = s_by_rep[r_]

    # Pstar on labels: base node j reads the adjacent label of its orbit node.
    lb = base.rank
    orbit_of = {}
    for r_, mem in members.items():
        for j in mem:
            orbit_of[j] = r_
    pstar = tuple(
        tuple(Fraction(1) if relabel[orbit_of[j + 1]] == i + 1 else Fraction(0)
              for i in range(l))
        for j in range(lb))

    reversal = (twisted_type.kind == AFFINE_R3
                or (twisted_type.kind == AFFINE_R2 and twisted_type.family == "E"))
    phi = _phi_label_matrix(twisted, adjacent, reversal)

    # iota_dual: twisted node i sums base labels over the i-th ascending orbit.
    fin_reps = [r_ for r_ in reps if r_ != 0]
    iota_dual = tuple(
        tuple(Fraction(1) if (j + 1) in members[fin_reps[i]] else Fraction(0)
              for j in range(lb))
        for i in range(l))

    folding = FoldingData(
        auto=auto, twisted=twisted, adjacent=adjacent,
        r=auto.order, N=tuple(N), s=tuple(s), raw_orbit_matrix=ahat,
        relabel=tuple(relabel[r_] for r_ in reps),
        Pstar=pstar, phi=phi, iota_dual=iota_dual)
    _check_folding(folding)
    return folding


def _check_folding(f):
    """All coordinate identities, exactly in rational arithmetic; a failed
    one raises FoldingIdentityFailure."""
    base, tw, adj = f.base, f.twisted, f.adjacent
    lb, l = base.rank, adj.rank

    def require(holds, what):
        if not holds:
            raise FoldingIdentityFailure(f"{base.type}, order {f.r}: {what}")
    require(rat.mat_vec(f.Pstar, (1,) * l) == (1,) * lb, "Pstar does not fix rho")
    # (Pstar x, Pstar y) = (x, y)' on the fundamental weights.
    g_base = base.gram_weights
    g_adj = adj.gram_weights
    lhs = rat.mat_mul(rat.transpose(f.Pstar), rat.mat_mul(g_base, f.Pstar))
    require(lhs == rat.frac_matrix(g_adj), "Pstar is not isometric")
    # (phi x, phi y)^dag = (1/r)(x, y)'.
    g_tw = tw.gram_weights
    lhs = rat.mat_mul(rat.transpose(f.phi), rat.mat_mul(g_tw, f.phi))
    rhs = tuple(tuple(x / f.r for x in row) for row in rat.frac_matrix(g_adj))
    require(lhs == rhs, "phi does not scale the form by 1/r")
    # nu o iota o nu^dag^-1 = Pstar o phi^-1 on finite labels.
    d_dag = [tw.d_fin[i] for i in range(l)]
    rt = rat.transpose(f.iota_dual)  # base x twisted 0/1 matrix
    mid = tuple(tuple(rt[i][j] * d_dag[j] for j in range(l)) for i in range(lb))
    t1 = rat.mat_mul(rat.frac_matrix(base.A_fin),
                     rat.mat_mul(mid, rat.mat_inverse(tw.A_fin)))
    t2 = rat.mat_mul(f.Pstar, rat.mat_inverse(f.phi))
    require(t1 == t2, "iota and Pstar/phi bridges disagree")
    # sigma-invariance of the base matrix is checked by DiagramAutomorphism.


def pstar_apply(folding, lw):
    """Image of an adjacent-type leveled weight under Pstar."""
    coords = rat.mat_vec(folding.Pstar, lw.finite.coords)
    return folding.base.leveled(lw.level, tuple(int(x) for x in coords))


def symmetric_weights(folding, k):
    """Sigma-fixed level-k weights of the base, in adjacent enumeration order:
    the Pstar images of the adjacent level-k weights, which must be the
    fixed-point set, each once (SectorLabelMismatch)."""
    adj_weights = dominant_level_weights(build_cartan(folding.adjacent.type), k)
    images = [pstar_apply(folding, lw) for lw in adj_weights]
    perm = folding.finite_perm()
    base_weights = (lw.finite.coords for lw in dominant_level_weights(folding.base, k))
    fixed = {c for c in base_weights if tuple(c[i] for i in perm) == c}
    if len(images) != len(fixed) or {w.finite.coords for w in images} != fixed:
        raise SectorLabelMismatch(
            f"{folding.base.type} level {k}: the Pstar images of the adjacent "
            f"weights are not the symmetric weights, each once")
    return images


def phi_apply_shifted(folding, coords):
    """phi image of a rho-shifted adjacent finite label vector."""
    return rat.mat_vec(folding.phi, coords)


def transported_adjacent_M(folding):
    """The adjacent translation lattice carried into twisted coordinates."""
    m_adj = lattice_M(build_cartan(folding.adjacent.type))
    rows = [rat.mat_vec(folding.phi, v) for v in m_adj.basis]
    return LatticeBasis(folding.twisted.finite, rat.lattice_basis_rows(rows))
