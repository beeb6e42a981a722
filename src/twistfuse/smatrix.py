"""Conformal data and Kac-Peterson modular matrices.

The untwisted S-matrix and the twisted a-matrix are both Weyl sums
sum_w eps(w) exp(-2 pi i (w(row), col) / t), evaluated by one kernel from
the signed orbit of each rho-shifted row (`weyl.signed_orbit`); the Weyl
group itself is never materialised.  Before any orbit point is made, |W| is
priced from the root heights, and a group above `weyl.ELEMENT_CAP` raises
RankTooLarge.  Every phase exponent is an exact integer over
N = gram_den * den * t, reduced mod N as an integer, and only then used to
index a table of N-th roots of unity; exponents that could leave the int64
range raise ExponentOverflow.  The numeric field is double-precision
complex: exactness lives in the integer exponents, and a root of unity is
the only floating-point value the kernel reads.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _rational as rat
from .cartan import LeveledWeight, dual_lattice, lattice_index, lattice_M
from .errors import ExponentOverflow, NotSublattice
from .fold import (pstar_apply, phi_apply_shifted, symmetric_weights,
                   transported_adjacent_M)
from .rep import dominant_level_weights, _gram_int
from .weyl import signed_orbit

UNTWISTED_S = "untwisted-S"
TWISTED_A = "twisted-a"
ORBIFOLD_BLOCK = "orbifold-block"


@dataclass(frozen=True)
class ConformalData:
    k: int
    m: Fraction
    h: Fraction
    c: Fraction


def conformal(affine_datum, k, lam):
    """Anomaly, conformal weight, and central charge for a level-k weight.

    The anomaly and weight reduce to finite-part inner products; the central
    charge is the Sugawara value of the underlying untwisted algebra, and
    h - m = c/24 holds exactly.
    """
    fin = affine_datum.finite
    coords = tuple(lam.finite.coords) if hasattr(lam, "finite") else tuple(lam.coords)
    t = k + affine_datum.hdual
    rho = (1,) * fin.rank
    lam_rho = tuple(c + 1 for c in coords)
    from .rep import _ip
    rho_norm = _ip(fin, rho, rho)
    m = _ip(fin, lam_rho, lam_rho) / (2 * t) - rho_norm / (2 * affine_datum.hdual)
    lam2rho = tuple(c + 2 for c in coords)
    h = _ip(fin, lam2rho, coords) / (2 * t)
    # 12 (rho, rho) / h^vee extends the Sugawara value k dim g / (k + h^vee)
    # to the twisted types; on untwisted data the two agree exactly.
    c = 12 * k * rho_norm / (t * affine_datum.hdual)
    if affine_datum.type.kind == "affine-r1":
        assert c == Fraction(k * affine_datum.dim_adjoint(), t), \
            "strange-formula cross-check failed"
    assert h - m == c / 24, "normalized-character shift identity failed"
    assert h >= 0 and (h == 0) == all(x == 0 for x in coords)
    return ConformalData(k=k, m=m, h=h, c=c)


@dataclass
class ModularMatrix:
    rows: tuple       # row labels
    cols: tuple       # column labels
    entries: object   # numpy complex array
    provenance: str

    def __getitem__(self, rc):
        return self.entries[rc]

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    def unitarity_defect(self):
        s = self.entries
        return float(np.abs(s @ s.conj().T - np.eye(s.shape[0])).max())

    def symmetry_defect(self):
        s = self.entries
        return float(np.abs(s - s.T).max())

    def to_json_dict(self):
        s = self.entries
        return {
            "rows": [_label_json(x) for x in self.rows],
            "cols": [_label_json(x) for x in self.cols],
            **complex_json(s),
            "provenance": self.provenance,
            "precision": 53,  # the mantissa of complex128, the one numeric field
        }


def complex_json(entries):
    """{"re": ..., "im": ...}: the doubles of a complex array as nested lists."""
    return {"re": entries.real.tolist(), "im": entries.imag.tolist()}


def _label_json(label):
    """JSON dict of a row, column or fusion-table label: a leveled weight, a
    sector label (anything with .sector and .weight), or a (label, eigen
    tag) pair from the orbifold blocks."""
    if isinstance(label, LeveledWeight):
        return {"level": label.level, "weight": [int(x) for x in label.finite.coords]}
    if isinstance(label, tuple):
        inner, eigen = label
        d = _label_json(inner)
        d["eigen"] = eigen
        return d
    return {"sector": label.sector, **_label_json(label.weight)}


def _roots_of_unity(n):
    """exp(-2 pi i m / n) for m = 0..n-1: every phase an exponent reduced
    mod n can take."""
    return np.exp(1j * (-2.0 * math.pi * (np.arange(n) / n)))


# Points times columns per block of exponents: bounds the work arrays of one
# row at about 2 MB each, whatever the orbit size.
_BLOCK = 1 << 18


def _weyl_sum_matrix(fin, t, row_shifted, col_shifted):
    """Matrix of sum_w eps(w) exp(-2 pi i (w(row), col) / t).

    row_shifted: integer, regular, dominant label tuples (rho-shifted rows).
    col_shifted: label tuples with a common denominator cleared, as
                 (int tuple, den) pairs.

    Equal to the sum of eps(w) exp(-2 pi i (row, w(col)) / t), since W is
    orthogonal and eps(w^-1) = eps(w).  Each row's signed orbit is walked
    once.  For the columns of one denominator d, the exponents
    orbit @ G_int @ cols.T are integers taken mod N = gram_den * d * t, the
    signs are summed per residue, and the integer residue counts are
    contracted with the table of N-th roots of unity.
    """
    gram_int, gram_den = _gram_int(fin)
    l = fin.rank
    groups = {}
    for j, (mu, den) in enumerate(col_shifted):
        groups.setdefault(den, []).append((j, mu))
    _check_exponent_range(fin, row_shifted, gram_den * max(groups) * t)
    blocks = []
    for den, members in groups.items():
        n = gram_den * den * t
        # G_int @ cols.T, reduced mod n exactly before the int64 cast.
        gc = [[sum(gram_int[a][b] * mu[b] for b in range(l)) % n
               for _, mu in members] for a in range(l)]
        blocks.append(([j for j, _ in members], n, np.array(gc, dtype=np.int64),
                       _roots_of_unity(n)))
    out = np.zeros((len(row_shifted), len(col_shifted)), dtype=complex)
    for i, lam in enumerate(row_shifted):
        pts, signs = signed_orbit(fin, lam)
        width = max(1, _BLOCK // len(pts))
        for idx, n, gc, roots in blocks:
            for lo in range(0, len(idx), width):
                part = gc[:, lo:lo + width]
                m = part.shape[1]
                # Residue r of column c lands in bin c * n + r.
                bins = (pts @ part) % n + n * np.arange(m)
                counts = np.bincount(bins.ravel(), weights=np.repeat(signs, m),
                                     minlength=m * n).reshape(m, n)
                out[i, idx[lo:lo + m]] = np.rint(counts).astype(np.int64) @ roots
    return out


def _check_exponent_range(fin, row_shifted, n_max):
    """Raise ExponentOverflow unless every exponent fits in int64.

    An orbit label (w x, alpha_i^vee) is at most 2 |x| / |alpha_i| by
    Cauchy-Schwarz, and an exponent is a sum of rank such labels times
    entries of G_int @ cols.T, which are reduced below N <= n_max.
    """
    g, _ = _gram_int(fin)
    l = fin.rank

    def norm(v):
        return sum(v[a] * g[a][b] * v[b] for a in range(l) for b in range(l))

    x_norm = max(norm(x) for x in row_shifted)
    alpha_norm = min(norm([fin.A[r][i] for r in range(l)]) for i in range(l))
    label_bound = math.isqrt(4 * x_norm // alpha_norm) + 1
    bound = l * label_bound * n_max
    if bound > 2 ** 62:
        raise ExponentOverflow(
            f"phase exponents of {fin.type} may reach {bound}, past the int64 "
            f"range of the orbit kernel")


def _require_level(k):
    if k < 1:
        raise ValueError(f"modular matrices need level >= 1, not {k}")


def untwisted_S(affine_datum, k):
    """Kac-Peterson S-matrix over the level-k dominant weights."""
    if affine_datum.type.kind != "affine-r1":
        raise ValueError(f"untwisted_S needs an untwisted affine datum, "
                         f"not {affine_datum.type}")
    _require_level(k)
    fin = affine_datum.finite
    t = k + affine_datum.hdual
    labels = dominant_level_weights(affine_datum, k)
    m_lat = lattice_M(affine_datum)
    norm_sq = lattice_index(dual_lattice(m_lat), m_lat.scaled(t))
    assert norm_sq == t ** fin.rank * lattice_index(dual_lattice(m_lat), m_lat)
    shifted = [tuple(c + 1 for c in lw.finite.coords) for lw in labels]
    raw = _weyl_sum_matrix(fin, t, shifted, [(s, 1) for s in shifted])
    scale = 1 / math.sqrt(norm_sq)
    phase = (1, 1j, -1, -1j)[fin.npos % 4]
    return ModularMatrix(tuple(labels), tuple(labels), raw * (phase * scale),
                         UNTWISTED_S)


def twisted_a(folding, k):
    """Modular coefficient matrix between twisted-type and adjacent-type
    characters; rows over the twisted weights, columns over the adjacent
    weights."""
    _require_level(k)
    tw = folding.twisted
    adj = folding.adjacent
    fin = tw.finite
    t = k + tw.hdual
    rows = dominant_level_weights(tw, k)
    cols = dominant_level_weights(adj, k)
    m_dag = lattice_M(tw)
    m_adj = transported_adjacent_M(folding)
    try:
        idx_pair = lattice_index(m_adj, m_dag)
    except NotSublattice:
        raise NotSublattice("phi(M') does not contain M^dag; folding data bug")
    norm_sq = lattice_index(dual_lattice(m_dag), m_dag.scaled(t))
    row_shifted = [tuple(c + 1 for c in lw.finite.coords) for lw in rows]
    col_shifted = []
    for lw in cols:
        img = phi_apply_shifted(folding, tuple(c + 1 for c in lw.finite.coords))
        col_shifted.append(rat.clear_denominators(img))
    raw = _weyl_sum_matrix(fin, t, row_shifted, col_shifted)
    scale = math.sqrt(idx_pair) / math.sqrt(norm_sq)
    phase = (1, 1j, -1, -1j)[fin.npos % 4]
    return ModularMatrix(tuple(rows), tuple(cols), raw * (phase * scale), TWISTED_A)


def twisted_sector_S(folding, k):
    """S-matrix block from the twisted sector to the sigma-stable untwisted
    modules: the twisted-a matrix with columns relabeled through Pstar."""
    a = twisted_a(folding, k)
    new_cols = tuple(pstar_apply(folding, lw) for lw in a.cols)
    sym = symmetric_weights(folding, k)
    assert tuple(w.finite.coords for w in new_cols) == \
        tuple(w.finite.coords for w in sym)
    return ModularMatrix(a.rows, new_cols, a.entries, ORBIFOLD_BLOCK)
