"""Conformal data and Kac-Peterson modular matrices.

The untwisted S-matrix and the twisted a-matrix share one assembly,
`_kac_peterson` (rows, the normalisation [M*:tM] = t^rank [M*:M], rho-shift,
phase and scale) at every level k >= 0; S is its case idx_pair = 1 with the
columns equal to the rows, or to a subset of them: a twisted fusion table
reads only the sigma-stable columns (`fusion.SectorMatrices`), and one
untwisted coefficient only the columns of the vacuum and its three labels
(`fusion.coefficient`), so neither builds the full S.
Both are Weyl sums sum_w eps(w) exp(-2 pi i (w(row), col) / t), evaluated
by one kernel that factors W through its parabolic subgroup W_J, J all
simple nodes but the last: w = u v with u a minimal coset representative
(`weyl.coset_representatives`), v in W_J and eps(w) = eps(u) eps(v).  The
cosets are folded into each block of columns once per call, as
U^T G_int col, and the rho-shifted rows walk only W_J
(`weyl.signed_orbit` with a node prefix), one walk per block of rows: for
a regular dominant row x the label (v x, alpha_i^vee) is positive exactly
when l(r_i v) > l(v), so every step of the walk depends on v alone, and
all rows of a block share the steps and one sign vector.  E6 walks
|W(A5)| = 720 points per row against 72 cosets, not the 51,840 points of
W(E6).  The Weyl group itself is never materialised.  Before any orbit
point is made, |W| is priced from the root heights, and a group above
`weyl.ELEMENT_CAP` raises RankTooLarge.  Every phase exponent is an
exact integer over N = gram_den * den * t, reduced mod N as an integer;
the signs are counted per residue, exactly, and the counts are contracted
with a table of N-th roots of unity by np.einsum, on the calling thread.
The kernel's working set is fixed: each sub-block of cells computes its
exponents, their reduction mod N and their bin offsets in three int64
buffers of at most `_BLOCK` entries, made once per call and reused, and a
cell whose |W| exponents pass that budget takes its cosets in chunks,
whose exact counts add up before the cell's one contraction.  When the
columns are the rows, as for the full S, the kernel computes only the
cells on and above the diagonal and mirrors them: cell (j, i) counts the
same residues as cell (i, j), so the mirror has the same bits.  The one
orthonormality gate of every block, `ModularMatrix.unitarity_defect`,
likewise reads the Gram M^H M on and above its diagonal.
Exponents that could leave the int64 range raise ExponentOverflow.  The
numeric field is double-precision complex: exactness lives in the integer
exponents and counts, and a root of unity is the only floating-point value
the kernel reads.  Both lattice indices come from the Cartan data, with
no lattice basis built: [M*:M] = det Gram(M) on Kac's closed-form basis of
M (`CartanDatum.M_index`), and idx_pair = d_1 ... d_l (`fold.pair_index`).
Their containment checks and those of the conformal data raise typed
errors, so python -O keeps them.  S is
written to JSON from its distinct doubles by `compact_json`: S is symmetric
bit for bit and the Galois action permutes its entries up to sign, so they
are few.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _rational as rat
from .cartan import LeveledWeight
from .errors import ConformalMismatch, ExponentOverflow
from .fold import pair_index, phi_apply_shifted, symmetric_weights
from .rep import dominant_level_weights, require_level_label, _gram_int, _ip
from .weyl import coset_representatives, signed_orbit, weyl_order

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
    rho_norm = _ip(fin, rho, rho)
    m = _ip(fin, lam_rho, lam_rho) / (2 * t) - rho_norm / (2 * affine_datum.hdual)
    lam2rho = tuple(c + 2 for c in coords)
    h = _ip(fin, lam2rho, coords) / (2 * t)
    # 12 (rho, rho) / h^vee extends the Sugawara value k dim g / (k + h^vee)
    # to the twisted types; on untwisted data the two agree exactly.
    c = 12 * k * rho_norm / (t * affine_datum.hdual)
    where = f"{affine_datum.type} level {k}, weight {coords}"
    if (affine_datum.type.kind == "affine-r1"
            and c != Fraction(k * affine_datum.dim_adjoint(), t)):
        raise ConformalMismatch(f"{where}: central charge {c} fails the "
                                f"strange formula")
    if h - m != c / 24:
        raise ConformalMismatch(f"{where}: h - m = {h - m} != c/24 = {c / 24}")
    if h < 0 or (h == 0) != all(x == 0 for x in coords):
        raise ConformalMismatch(f"{where}: conformal weight {h} is negative "
                                f"or vanishes off the vacuum")
    return ConformalData(k=k, m=m, h=h, c=c)


# Rows per block of `ModularMatrix.unitarity_defect`: on the S of B2 k=16
# (153 rows), 0.57 times the full Gram's time, against 0.89 for one row.
_GRAM_ROWS = 16


@dataclass
class ModularMatrix:
    rows: tuple       # row labels, the level-k weights of datum
    cols: tuple       # column labels
    entries: object   # numpy complex array
    provenance: str
    datum: object     # the affine datum of the row labels

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    def unitarity_defect(self):
        """max |M^H M - I|, the columns' defect from orthonormal, from the
        Gram of M^T (copied C-contiguous: S itself, as S is symmetric bit
        for bit) on and above the diagonal, _GRAM_ROWS rows at a time, by
        np.einsum on the calling thread, as in `_weyl_sum_matrix`.  einsum's
        G[k, i] is the exact conjugate of G[i, k], so this is the max over
        all cells, bit for bit."""
        s = np.ascontiguousarray(self.entries.T)
        sc = s.conj()
        worst = 0.0
        for r in range(0, len(s), _GRAM_ROWS):
            gram = np.einsum("ij,kj->ik", s[r:r + _GRAM_ROWS], sc[r:])
            diag = np.arange(len(gram))
            gram[diag, diag] -= 1
            worst = max(worst, float(np.abs(gram).max()))
        return worst

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
    """{"re": ..., "im": ...}: the doubles of a complex array, as C-contiguous arrays."""
    return {"re": np.ascontiguousarray(entries.real), "im": np.ascontiguousarray(entries.imag)}


def compact_json(obj):
    """json.dumps(obj, separators=(",", ":")), but a numpy array in obj or its
    (string-keyed) dicts is written as json writes its float64 tolist(): json
    formats each distinct int64 bit pattern once (-0.0 and 0.0 print apart, NaN
    != NaN), and the rows are joined from a gather.  The worst case, all values
    distinct, costs about 1.3 times json; a symmetric S has at most n(n+1)/2 values.
    Only a dict with a dict or an array among its values is split key by key;
    any other value, a label dict included, is one json.dumps call."""
    if isinstance(obj, dict) and any(isinstance(v, (dict, np.ndarray))
                                     for v in obj.values()):
        return "{%s}" % ",".join(f"{compact_json(str(k))}:{compact_json(v)}"
                                 for k, v in obj.items())
    if not isinstance(obj, np.ndarray):
        return json.dumps(obj, separators=(",", ":"))
    a = np.ascontiguousarray(obj, dtype=np.float64)
    bits, inverse = np.unique(a.ravel().view(np.int64), return_inverse=True)
    distinct = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    cells = np.array(distinct, dtype=object)[inverse].tolist()
    for axis in range(a.ndim - 1, -1, -1):
        n = a.shape[axis]
        cells = ["[%s]" % ",".join(cells[i * n:i * n + n])
                 for i in range(math.prod(a.shape[:axis]))]
    return cells[0]


def _label_json(label):
    """JSON dict of a row, column or fusion-table label: a leveled weight or
    a sector label (anything with .sector and .weight)."""
    if isinstance(label, LeveledWeight):
        return {"level": label.level, "weight": label.finite.to_json()}
    return {"sector": label.sector, **_label_json(label.weight)}


def _roots_of_unity(n):
    """exp(-2 pi i m / n) for m = 0..n-1: every phase an exponent reduced
    mod n can take."""
    return np.exp(1j * (-2.0 * math.pi * (np.arange(n) / n)))


# Budgets of the orbit kernel, in array entries: module constants, not
# settings.  A walk of W_J holds at most _WALK orbit points (rows x |W_J|),
# so E6, with |W_J| = |W(A5)| = 720, walks 45 rows at a time.  A walk holds
# its levels and their concatenation at once: at twice this budget,
# `smatrix A7 --level 2` (|W_J| = 5,040, 6 rows a walk) peaked at 52 MB RSS
# against 45 MB for the one walk of W, and at a quarter of it, with six
# times the walks, it took 24 % more CPU.  A sub-block of the contraction
# works in three int64 buffers of at most _BLOCK entries (512 KB), made once
# per call and reused: its exponents (|W| = |W_J| x cosets per cell), their
# quotients by N, and their bin offsets.  Its bins, 2 N per cell, hold at
# most 2 _COUNTS <= _BLOCK counts.  A sub-block holds at least one cell, and
# a cell whose |W| exponents pass _BLOCK takes its cosets in chunks, of at
# least one coset, whose counts add up before its one contraction.  The
# counts stay at 64 KB of int64 for each sign, and 128 KB once their
# difference is cast to complex for the contraction: four times that bought
# no time and raised the peak RSS of the kw-grid benchmark by 0.3 MB.  At
# four times this _BLOCK, with every sub-block's arrays made afresh, the
# first untwisted_S(E6, 1) lifted a bare process from 30.3 to 35.4 MB; in
# these buffers it lifts it to 32.3 MB.
_BLOCK = 1 << 16
_COUNTS = 1 << 13
_WALK = 1 << 15


def _column_blocks(ncols, width):
    """Consecutive (lo, hi) column blocks of at most max(1, width) columns."""
    width = max(1, width)
    return [(lo, min(lo + width, ncols)) for lo in range(0, ncols, width)]


def _weyl_sum_matrix(fin, t, row_shifted, col_shifted):
    """Matrix of sum_w eps(w) exp(-2 pi i (w(row), col) / t).

    row_shifted: integer, regular, dominant label tuples (rho-shifted rows).
    col_shifted: label tuples with a common denominator cleared, as
                 (int tuple, den) pairs.

    Equal to the sum of eps(w) exp(-2 pi i (row, w(col)) / t), since W is
    orthogonal and eps(w^-1) = eps(w).  The sum is factored through the
    parabolic subgroup W_J, J all simple nodes but the last: w = u v with
    u a minimal coset representative (`weyl.coset_representatives`), v in
    W_J and eps(w) = eps(u) eps(v), so the exponent (u v x) G_int col is
    (v x) . (U^T G_int col).  For the columns of one denominator d,
    N = gram_den * d * t, and each tile of columns folds the cosets in
    once per call: part = U^T @ G_int @ cols.T mod N, stacked over u.  The
    rows then walk W_J alone (`signed_orbit` with the node prefix J), a
    block of up to _WALK / |W_J| rows at once: for a regular dominant row
    the steps depend on v alone, so point p of each row is the same v.
    The exponents (v x) @ part, mod N, are the |W| exponents of the one
    walk of W, the signs eps(u) eps(v) are summed per residue, and the
    exact integer residue counts are contracted with the table of N-th
    roots of unity, in sub-blocks of rows and columns whose work arrays
    are buffers reused within the _BLOCK and _COUNTS budgets.  A cell
    whose |W| exponents pass _BLOCK takes its cosets in chunks, and its
    counts, exact integers, add up over the chunks before the contraction,
    so every budget gives the same bits.

    When the columns are the rows (the pairs (row, 1), in order), the
    matrix is symmetric: (w x, y) = (x, w^-1 y) and eps(w^-1) = eps(w), so
    cells (i, j) and (j, i) count the same residues.  Each sub-block then
    takes the columns of its tile from its first row on, contiguous views
    since the cosets are innermost, skips a tile that lies wholly left of
    that row, and the cells below the diagonal are mirrored in place.
    """
    gram_int, gram_den = _gram_int(fin)
    l = fin.rank
    square = col_shifted == [(x, 1) for x in row_shifted]
    groups = {}
    for j, (mu, den) in enumerate(col_shifted):
        groups.setdefault(den, []).append((j, mu))
    _check_exponent_range(fin, row_shifted, gram_den * max(groups) * t)
    order = weyl_order(fin)
    cosets, coset_signs = coset_representatives(fin)
    sub = order // len(cosets)                              # |W_J|
    chunk = len(cosets) if order <= _BLOCK else max(1, _BLOCK // sub)
    # One tile per block of columns of one denominator: (output columns, n,
    # pieces, roots of unity, rows per sub-block).  A piece is U^T @ G_int
    # @ cols.T for one chunk of cosets u, reduced mod n, as (rank, columns
    # x cosets), with the slice of the chunk; a tile of more than one
    # piece has one column.
    tiles = []
    for den, members in groups.items():
        n = gram_den * den * t
        gc = np.array([[sum(gram_int[a][b] * mu[b] for b in range(l)) % n
                        for _, mu in members] for a in range(l)], dtype=np.int64)
        cols = np.array([j for j, _ in members])
        roots = _roots_of_unity(n)
        cells = min(_BLOCK // order, _COUNTS // n)
        for lo, hi in _column_blocks(len(members), cells):
            # part[a, c, u] = (U_u^T gc)[a, c], the cosets innermost.
            part = np.einsum("uba,bc->acu", cosets, gc[:, lo:hi]) % n
            pieces = [(part[:, :, u:u + chunk].reshape(l, -1), slice(u, u + chunk))
                      for u in range(0, len(cosets), chunk)]
            tiles.append((cols[lo:hi], n, pieces, roots,
                          max(1, cells // (hi - lo))))
    out = np.zeros((len(row_shifted), len(col_shifted)), dtype=complex)
    walk = max(1, _WALK // sub)
    rows_max = min(walk, len(row_shifted))
    size = sub * max(min(step, rows_max) * pieces[0][0].shape[1]
                     for _, _, pieces, _, step in tiles)
    exps_buf, scratch_buf, offsets_buf = (np.empty(size, dtype=np.int64)
                                          for _ in range(3))
    for start in range(0, len(row_shifted), walk):
        pts, signs = signed_orbit(fin, row_shifted[start:start + walk], l - 1)
        for cols, n, pieces, roots, step in tiles:
            m = len(cols)
            step = min(step, pts.shape[1])
            # Residue r of cell c (row-major over rows x columns) lands in
            # bin c * n + r, or in bin half + c * n + r for a negative
            # term: the signed count of a residue is then a difference of
            # two integer counts.
            half = step * m * n
            cell_bins = n * np.arange(step * m).reshape(step, m, 1)
            for r0 in range(0, pts.shape[1], step):
                rows = min(step, pts.shape[1] - r0)
                # A square matrix takes the columns c0.. of the tile, from
                # the sub-block's first row on: the cells on and above the
                # diagonal, and no tile that lies left of that row.
                c0 = max(0, start + r0 - cols[0]) if square else 0
                if c0 >= m:
                    break
                counts = None
                for part, us in pieces:
                    width = part.shape[1]
                    offsets = offsets_buf[:sub * step * width].reshape(sub, step, m, -1)
                    if r0 == 0 or len(pieces) > 1:
                        # The bin offsets, in the (v, row, column, u) order
                        # of the exponents, from the (v, u) pairs of sign
                        # eps(v) eps(u) = -1: once per tile and walk, or
                        # once per chunk of cosets.
                        negative = np.multiply.outer(signs, coset_signs[us]) < 0
                        np.multiply(negative[:, None, None], half, out=offsets)
                        offsets += cell_bins
                    # One (rows, rank) @ (rank, m x cosets) product per v:
                    # the exponents of (v, row, column, u), from column c0.
                    part = part[:, c0 * (width // m):]
                    exps = exps_buf[:sub * rows * part.shape[1]].reshape(sub, rows, -1)
                    np.matmul(pts[:, r0:r0 + rows], part, out=exps)
                    # exps mod n, as exps - n * (exps // n): numpy divides
                    # an integer array by a scalar several times faster
                    # than it takes the remainder.
                    scratch = scratch_buf[:exps.size].reshape(exps.shape)
                    np.floor_divide(exps, n, out=scratch)
                    scratch *= n
                    exps -= scratch
                    exps += offsets[:, :, c0:].reshape(sub, step, -1)[:, :rows]
                    bins = np.bincount(exps.ravel(), minlength=2 * half)
                    signed = bins[:rows * m * n] - bins[half:half + rows * m * n]
                    counts = signed if counts is None else counts + signed
                # einsum's own loops, not a BLAS gemv: each product is
                # small, but large enough for a threaded BLAS to wake its
                # pool, whose workers then spin far longer than the work.
                # It also sums each cell alone, in one order under any
                # budget (test_budgets_do_not_change_bits).
                out[start + r0:start + r0 + rows, cols[c0:]] = np.einsum(
                    "cr,r->c", counts.reshape(rows, m, n)[:, c0:].astype(complex)
                    .reshape(-1, n), roots).reshape(rows, m - c0)
    if square:
        # Cell (j, i) counts the same residues as (i, j), exactly, and
        # contracts them in the same order: the mirror has the same bits.
        for i in range(1, len(out)):
            out[i, :i] = out[:i, i]
    return out


def _check_exponent_range(fin, row_shifted, n_max):
    """Raise ExponentOverflow unless every exponent fits in int64.

    An orbit label (w x, alpha_i^vee) is at most 2 |x| / |alpha_i| by
    Cauchy-Schwarz, so every label of W x is below label_bound, and the
    bound l * label_bound * n_max covers both products of the factored
    kernel.  U^T @ (G_int @ cols.T mod N): column b of U holds the labels
    of u omega_b, in the orbit of omega_b, and |omega_b| <= |x| since x
    has every label >= 1 and the Gram matrix of the fundamental weights
    has positive entries; so each entry is a sum of rank terms below
    label_bound * N.  (v x) @ part: part is reduced mod N <= n_max before
    it meets v x, and v x, v in W_J, lies in the W-orbit of x.
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


def _kac_peterson(datum, k, provenance, columns=None):
    """i^npos sqrt(idx_pair / [M*:tM]) times the Weyl sum matrix of
    `_weyl_sum_matrix`, rows over the level-k weights of datum, at every
    level k >= 0: at level 0 the one row and column are the vacuum, and the
    matrix is (1) up to rounding (the phase and the root of unity leave
    about 1e-16: G2 reads im = 9.6e-17, the A3 twisted a re = 1 + 2^-52).

    `dominant_level_weights` checks the level before any weight is made.
    [M*:tM] = t^rank [M*:M] is exact, with [M*:M] = det Gram(M) read once
    per datum from `CartanDatum.M_index`.  The columns are the rows, with
    idx_pair = 1, unless columns() gives them as (labels, rho-shifted
    (int tuple, den) pairs, idx_pair).
    """
    fin = datum.finite
    t = k + datum.hdual
    rows = dominant_level_weights(datum, k)
    norm_sq = t ** fin.rank * datum.M_index
    shifted = [tuple(c + 1 for c in lw.finite.coords) for lw in rows]
    cols, col_shifted, idx_pair = (columns() if columns else
                                   (rows, [(s, 1) for s in shifted], 1))
    raw = _weyl_sum_matrix(fin, t, shifted, col_shifted)
    scale = math.sqrt(idx_pair) / math.sqrt(norm_sq)
    phase = (1, 1j, -1, -1j)[fin.npos % 4]
    return ModularMatrix(tuple(rows), tuple(cols), raw * (phase * scale),
                         provenance, datum)


def untwisted_S(affine_datum, k, cols=None):
    """Kac-Peterson S-matrix over the level-k dominant weights.

    Given cols, level-k dominant weights, only those columns are built:
    each cell is its own exact count and contraction, so they equal the
    same columns of the full S bit for bit, at a fraction of its cost.
    """
    if affine_datum.type.kind != "affine-r1":
        raise ValueError(f"untwisted_S needs an untwisted affine datum, "
                         f"not {affine_datum.type}")

    def columns():
        if not cols:
            raise ValueError("untwisted_S needs at least one column label, "
                             "not an empty column list")
        for lw in cols:
            require_level_label(affine_datum, k, lw)
        return cols, [(tuple(c + 1 for c in lw.finite.coords), 1) for lw in cols], 1

    return _kac_peterson(affine_datum, k, UNTWISTED_S,
                         None if cols is None else columns)


def twisted_a(folding, k):
    """Modular coefficient matrix between twisted-type and adjacent-type
    characters; rows over the twisted weights, columns over the adjacent
    weights, taken to the twisted weight space by `fold.phi_apply_shifted`,
    and idx_pair = [phi(M'):M^dag] from `fold.pair_index`."""
    def columns():
        cols = dominant_level_weights(folding.adjacent, k)
        shifted = [rat.clear_denominators(phi_apply_shifted(
            folding, tuple(c + 1 for c in lw.finite.coords))) for lw in cols]
        return cols, shifted, pair_index(folding)

    return _kac_peterson(folding.twisted, k, TWISTED_A, columns)


def twisted_sector_S(folding, k):
    """S-matrix block from the twisted sector to the sigma-stable untwisted
    modules: the twisted-a matrix with its columns, the adjacent level-k
    weights, relabeled as their Pstar images (`fold.symmetric_weights`)."""
    a = twisted_a(folding, k)
    return ModularMatrix(a.rows, tuple(symmetric_weights(folding, k)), a.entries,
                         ORBIFOLD_BLOCK, a.datum)
