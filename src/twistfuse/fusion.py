"""Fusion coefficients, four ways, with cross-validation.

Routes:
  verlinde            untwisted modules through the S-matrix
  kac_walton          untwisted modules through alcove-folded tensor products
  twisted_verlinde    mixed untwisted/twisted sectors through S-matrix blocks
  twisted_kac_walton  the same coefficients through branch + tensor + fold

A `FusionTable` holds one label tuple per slot and one int64 array
N[i, j, m], which the Verlinde route fills one first-slot row at a time,
rounded and gated in bulk.  Where a second route applies, its rows fill a
second array that must equal the first before the table is returned.  The
Kac-Walton side computes each piece once per table, in a `KacWaltonMemo`
that lives as long as the table build: one row per unordered pair of
untwisted weights (the tensor product is commutative), one alcove fold per
tensor component, one branched system per untwisted weight and one tensor
product per unordered pair of twisted factors.  Nothing is cached across
tables.  `FusionTable.to_json` encodes each slot label once and writes the
entries from the array in C order.
"""

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartan import LeveledWeight
from .errors import (MethodMismatch, NegativeCoefficient, NegativeMultiplicity,
                     NotInteger, SectorRuleViolation, UnknownWeight,
                     UnsupportedOrder, UnsupportedSectorPattern)
from .fold import symmetric_weights
from .rep import branch, dominant_level_weights, is_level_dominant, tensor_decompose
from .smatrix import (ORBIFOLD_BLOCK, ModularMatrix, _label_json, twisted_sector_S,
                      untwisted_S)
from .weyl import alcove_fold

INTEGER_TOLERANCE = 1e-6

UNTWISTED = "untwisted"
SIGMA = "sigma"
SIGMA2 = "sigma2"
_SECTOR_CLASS = {UNTWISTED: 0, "1": 0, SIGMA: 1, "s": 1, SIGMA2: 2, "s2": 2}
_SECTOR_NAME = (UNTWISTED, SIGMA)


@dataclass(frozen=True)
class SectorLabel:
    sector: str           # "untwisted" | "sigma"
    weight: LeveledWeight

    def __str__(self):
        tag = "1" if self.sector == UNTWISTED else "s"
        return f"[{tag}]{self.weight}"


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


@dataclass(eq=False)  # N is an array; compare tables through items()
class FusionTable:
    """Every coefficient of one sector pattern at one level: N[i, j, m] is
    the coefficient of (slots[0][i], slots[1][j], slots[2][m]), and every
    entry was computed by the routes `method` names."""
    algebra: str
    level: int
    twist: str            # "none" | "diagram"
    pattern: str
    slots: tuple          # one label tuple per slot
    N: np.ndarray         # int64, one axis per slot
    method: str

    def items(self):
        """((m1, m2, m3), coefficient) for every entry, in C order."""
        return zip(itertools.product(*self.slots), self.N.ravel().tolist())

    def to_json(self):
        """Schema-1 JSON of the table, compact, without a trailing newline.

        Each slot label and the method tag are encoded once by the json
        module; the entries are spliced from those fragments and the values
        of N, in C order.
        """
        first, second, third = ([_compact(_label_json(x)) for x in slot]
                                for slot in self.slots)
        thirds = [f'"m3":{x},"N":' for x in third]
        end = f',"method":{_compact(self.method)}}}'
        items = []
        for m1, plane in zip(first, self.N.tolist()):
            for m2, row in zip(second, plane):
                head = f'{{"m1":{m1},"m2":{m2},'
                items.extend(f"{head}{m3}{n}{end}" for m3, n in zip(thirds, row))
        head = _compact({"schema": 1, "algebra": self.algebra, "level": self.level,
                         "twist": self.twist, "pattern": self.pattern})
        return f'{head[:-1]},"entries":[{",".join(items)}]}}'

    def to_text(self):
        width = max(len(str(x)) for slot in self.slots for x in slot)
        return "\n".join(f"{str(m1):<{width}}  {str(m2):<{width}}  "
                         f"{str(m3):<{width}}  {n}  [{self.method}]"
                         for (m1, m2, m3), n in self.items())


def _rounded(values, tolerance=INTEGER_TOLERANCE):
    """Verlinde sums rounded to int64 in bulk.  NotInteger names the sum
    farthest from an integer when it is off by more than the tolerance (a
    NaN always fails); NegativeCoefficient names the most negative one."""
    values = np.asarray(values)
    n = np.rint(values.real)
    off = np.abs(values - n)
    worst = off.argmax()
    if not off.flat[worst] <= tolerance:
        raise NotInteger(f"Verlinde sum {values.flat[worst]} is off an integer by "
                         f"{off.flat[worst]:.3e} (tolerance {tolerance})")
    if n.min() < 0:
        raise NegativeCoefficient(f"fusion coefficient rounded to {int(n.min())}")
    return n.astype(np.int64)


def _verlinde_blocks(a, b, c, vac, tolerance):
    """N[i, j, m] = sum_x a[i, x] b[j, x] conj(c[m, x]) / vac[x], one
    first-slot row at a time, each block rounded and gated by `_rounded`."""
    b_over_vac = b / vac
    c_conj_t = np.conj(c).T
    return np.stack([_rounded((row * b_over_vac) @ c_conj_t, tolerance)
                     for row in a])


def _index(labels):
    """Label tuple -> position, for leveled weights of one level."""
    return {lw.finite.coords: i for i, lw in enumerate(labels)}


def _position(index, lw, level):
    i = index.get(lw.finite.coords) if lw.level == level else None
    if i is None:
        raise ValueError(f"{lw} is not one of the level-{level} labels")
    return i


def verlinde(s_matrix, lam1, lam2, lam3, tolerance=INTEGER_TOLERANCE):
    """Fusion coefficient from a square unitary untwisted S-matrix."""
    rows = s_matrix.rows
    if any(x != 0 for x in rows[0].finite.coords):
        raise ValueError("the vacuum row must come first (global label order)")
    index = _index(rows)
    s = s_matrix.entries
    a, b, c = (s[[_position(index, lw, rows[0].level)]] for lw in (lam1, lam2, lam3))
    return int(_verlinde_blocks(a, b, c, s[0], tolerance)[0, 0, 0])


class KacWaltonMemo:
    """Kac-Walton pieces shared by the rows of one table.

    Bound to one affine datum, whose alcove the folds are in, and one level
    k.  It holds the alcove fold of each tensor component, the branched
    system of each untwisted weight and the tensor product of each
    unordered pair of factors, all keyed by label tuples.  A table builds
    one and drops it when it returns.  Pool threads may fill it at once: a
    race only repeats a computation and stores an equal value.
    """

    def __init__(self, affine_datum, k):
        self.affine = affine_datum
        self.k = k
        self._folds = {}
        self._branches = {}
        self._tensors = {}

    def fold(self, mu):
        """(sign, labels) of mu + rho folded into the alcove, less rho;
        (0, None) when it lands on a wall."""
        hit = self._folds.get(mu)
        if hit is None:
            shifted = self.affine.finite.weight(tuple(c + 1 for c in mu))
            res = alcove_fold(self.affine, self.k, shifted)
            hit = self._folds[mu] = (
                (0, None) if res.sign == 0
                else (res.sign, tuple(c - 1 for c in res.rep.coords)))
        return hit

    def branch(self, folding, lam):
        """{labels: multiplicity} of the untwisted weight lam restricted to
        the twisted finite part."""
        hit = self._branches.get(lam)
        if hit is None:
            table = branch(folding.base.finite, folding.twisted.finite,
                           folding.iota_dual, lam)
            hit = self._branches[lam] = {nu.coords: b for nu, b in table.entries.items()}
        return hit

    def tensor(self, a, b):
        """{labels: multiplicity} of the tensor product of a and b."""
        key = (a, b) if a <= b else (b, a)
        hit = self._tensors.get(key)
        if hit is None:
            table = tensor_decompose(self.affine.finite, *key)
            hit = self._tensors[key] = {mu.coords: m for mu, m in table.entries.items()}
        return hit


def _memo_for(affine_datum, k, memo):
    if memo is None:
        return KacWaltonMemo(affine_datum, k)
    if memo.affine is not affine_datum or memo.k != k:
        raise ValueError(f"memo of {memo.affine.type} at level {memo.k} used for "
                         f"{affine_datum.type} at level {k}")
    return memo


def _require_level_dominant(affine_datum, lw):
    if not is_level_dominant(affine_datum, lw):
        raise ValueError(f"{lw} is not a level-{lw.level} dominant weight "
                         f"of {affine_datum.type}")


def _fold_row(memo, components):
    """Fold each tensor component (labels, multiplicity) into the alcove and
    sum the multiplicities with the fold signs.  Zero sums are dropped; a
    negative one raises NegativeMultiplicity."""
    out = {}
    for mu, mult in components:
        sign, target = memo.fold(mu)
        if sign:
            out[target] = out.get(target, 0) + sign * mult
    row = {key: v for key, v in out.items() if v}
    for key, v in row.items():
        if v < 0:
            raise NegativeMultiplicity(
                f"folded multiplicity {v} at {key} ({memo.affine.type}, "
                f"level {memo.k})")
    return row


def kac_walton(affine_datum, k, lam1, lam2, lam3):
    """Fusion coefficient by tensor decomposition and signed alcove folding."""
    row = kac_walton_row(affine_datum, k, lam1, lam2)
    return row.get(tuple(lam3.finite.coords), 0)


def kac_walton_row(affine_datum, k, lam1, lam2, memo=None):
    """All coefficients N_{lam1, lam2}^{*} at once; keys are label tuples.

    memo: a KacWaltonMemo of (affine_datum, k) shared by the rows of one
    table, or None for a fresh one.
    """
    memo = _memo_for(affine_datum, k, memo)
    for lw in (lam1, lam2):
        _require_level_dominant(affine_datum, lw)
    decomp = tensor_decompose(affine_datum.finite, lam1.finite, lam2.finite)
    return _fold_row(memo, ((mu.coords, m) for mu, m in decomp.entries.items()))


def twisted_kac_walton(folding, k, lam1, lam2_dag, lam3_dag):
    row = twisted_kac_walton_row(folding, k, lam1, lam2_dag)
    return row.get(tuple(lam3_dag.finite.coords), 0)


def twisted_kac_walton_row(folding, k, lam1, lam2_dag, memo=None):
    """Coefficients N_{lam1, lam2^dag}^{*}: restrict lam1 to the twisted
    finite part, tensor with lam2^dag there, fold over the twisted alcove.

    memo: a KacWaltonMemo of (folding.twisted, k), or None for a fresh one.
    """
    memo = _memo_for(folding.twisted, k, memo)
    _require_level_dominant(folding.base, lam1)
    _require_level_dominant(folding.twisted, lam2_dag)
    lam2 = tuple(lam2_dag.finite.coords)
    totals = {}
    for nu, b in memo.branch(folding, tuple(lam1.finite.coords)).items():
        for mu, m in memo.tensor(nu, lam2).items():
            totals[mu] = totals.get(mu, 0) + b * m
    return _fold_row(memo, totals.items())


class SectorMatrices:
    """The S-matrix blocks entering the twisted Verlinde sums.

    scol: untwisted S restricted to the sigma-stable columns (rows over all
    level-k weights, base_labels).  a: the twisted-sector block, rows over
    the twisted weights (twisted_labels), columns aligned with scol's.
    """

    def __init__(self, folding, k):
        self.folding = folding
        self.k = k
        self.sym = symmetric_weights(folding, k)
        full = untwisted_S(folding.base, k)
        self.full_S = full
        self.base_labels = full.rows
        self.base_index = _index(full.rows)
        self.sym_idx = [self.base_index[w.finite.coords] for w in self.sym]
        self.scol = full.entries[:, self.sym_idx]
        sector = twisted_sector_S(folding, k)
        self.sector_S = sector
        self.a = sector.entries
        self.twisted_labels = sector.rows
        self.twisted_index = _index(sector.rows)
        self.vac = self.scol[0]


# Each entry holds whole S-matrix blocks; a small bound keeps a long-lived
# process from growing without limit.
@lru_cache(maxsize=8)
def _sector_matrices(folding, k):
    return SectorMatrices(folding, k)


def _sector_classes(folding, labels):
    out = []
    for lab in labels:
        cls = _SECTOR_CLASS.get(lab.sector if isinstance(lab, SectorLabel) else lab)
        if cls is None:
            raise UnsupportedSectorPattern(f"unknown sector {lab!r}")
        out.append(cls)
    return tuple(out)


def check_sector_rule(folding, sectors):
    """Enforce g3 = g1 g2 in the cyclic group generated by the twist."""
    p = folding.r
    g1, g2, g3 = sectors
    if any(g >= p and g > 1 for g in sectors):
        raise SectorRuleViolation(f"sector power out of range for order {p}")
    if (g1 + g2) % p != g3 % p:
        raise SectorRuleViolation(
            f"sectors ({g1},{g2}->{g3}) violate g3 = g1*g2 for order {p}")


def twisted_verlinde(folding, k, m1, m2, m3, tolerance=INTEGER_TOLERANCE):
    """Fusion coefficient for mixed sectors via S-matrix blocks.

    Supported patterns: (1,s->s) and (s,1->s) for any order; (s,s->1) only
    for order 2.  Patterns needing a sigma^2 block are rejected.
    """
    sectors = _sector_classes(folding, (m1, m2, m3))
    if sectors == (0, 0, 0):
        raise SectorRuleViolation("use the untwisted routes for (1,1->1)")
    _check_sectors(folding, sectors)
    mats = _sector_matrices(folding, k)

    def row(label):
        block, index = ((mats.scol, mats.base_index) if label.sector == UNTWISTED
                        else (mats.a, mats.twisted_index))
        return block[[_position(index, label.weight, k)]]

    n = _verlinde_blocks(row(m1), row(m2), row(m3), mats.vac, tolerance)
    return int(n[0, 0, 0])


def orbifold_block_report(folding, k):
    """Labeled blocks of the fixed-point algebra S-matrix, order 2 only.

    Emits what is constructible from the untwisted S-matrix and the twisted
    sector block: eigencomponent blocks among stable modules, twisted-sector
    rows, and the rows of the unpaired orbit representatives (including
    their zero block against twisted columns).  No completeness claim.
    """
    if folding.r != 2:
        raise UnsupportedOrder("block report is limited to order-2 twists")
    p = folding.r
    mats = _sector_matrices(folding, k)
    sym = mats.sym
    sym_idx = mats.sym_idx
    s = mats.full_S.entries

    def eig_labels(labels, sector):
        return tuple((SectorLabel(sector, w), t) for w in labels for t in range(p))

    sym_rows = eig_labels(sym, UNTWISTED)
    tw_rows = eig_labels(mats.twisted_labels, SIGMA)

    n_sym, n_tw = len(sym), len(mats.twisted_labels)
    block1 = np.zeros((p * n_sym, p * n_sym), dtype=complex)
    for i in range(n_sym):
        for j in range(n_sym):
            v = s[sym_idx[i], sym_idx[j]] / p
            for a in range(p):
                for b in range(p):
                    block1[p * i + a, p * j + b] = v
    b1 = ModularMatrix(sym_rows, sym_rows, block1, ORBIFOLD_BLOCK)

    block2 = np.zeros((p * n_tw, p * n_sym), dtype=complex)
    for i in range(n_tw):
        for j in range(n_sym):
            v = mats.a[i, j] / p
            for a in range(p):
                for b in range(p):
                    block2[p * i + a, p * j + b] = v * (-1) ** b
    b2 = ModularMatrix(tw_rows, sym_rows, block2, ORBIFOLD_BLOCK)

    # Orbit representatives of the non-stable untwisted modules.
    perm = folding.finite_perm()
    reps = []
    seen = set()
    for i, lw in enumerate(mats.base_labels):
        c = tuple(lw.finite.coords)
        if c in seen:
            continue
        img = tuple(c[perm[j]] for j in range(len(c)))
        if img == c:
            continue
        seen.update({c, img})
        reps.append(i)
    rep_rows = tuple(SectorLabel(UNTWISTED, mats.base_labels[i]) for i in reps)
    block3 = np.zeros((len(reps), p * n_sym), dtype=complex)
    for r_out, i in enumerate(reps):
        for j in range(n_sym):
            for b in range(p):
                block3[r_out, p * j + b] = s[i, sym_idx[j]]
    b3 = ModularMatrix(rep_rows, sym_rows, block3, ORBIFOLD_BLOCK)

    block4 = np.zeros((len(reps), p * n_tw), dtype=complex)
    b4 = ModularMatrix(rep_rows, tw_rows, block4, ORBIFOLD_BLOCK)
    return [b1, b2, b3, b4]


# Sector classes of the patterns 1,1,1  1,s,s  s,1,s  s,s,1: those with
# S-matrix blocks.  A sigma^2 sector has none.
_COMPUTABLE = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
_TOKEN = {"1": 0, "s": 1, "s2": 2}


def parse_pattern(pattern):
    key = pattern.replace(" ", "").lower()
    toks = key.split(",")
    if len(toks) != 3 or any(t not in _TOKEN for t in toks):
        raise UnsupportedSectorPattern(
            f"pattern {pattern!r} not recognized; tokens are 1, s, s2")
    return key, tuple(_TOKEN[t] for t in toks)


def _check_sectors(folding, sectors):
    """Sector classes (g1, g2, g3) must obey the sector rule and have
    S-matrix blocks; (s,s->1) is limited to order-2 twists."""
    check_sector_rule(folding, sectors)
    if sectors not in _COMPUTABLE:
        g1, g2, g3 = sectors
        raise UnsupportedSectorPattern(
            f"sectors ({g1},{g2}->{g3}) are admissible but need an unavailable "
            f"S-matrix block")
    if sectors == (1, 1, 0) and folding.r != 2:
        raise UnsupportedSectorPattern("(s,s->1) is limited to order-2 twists")


def check_pattern(source, pattern):
    """Parse a sector pattern and check that it is computable; returns
    (key, sector classes).

    source is the CartanDatum or FoldingData the coefficients are taken
    over; any pattern but 1,1,1 needs a FoldingData.
    """
    key, sectors = parse_pattern(pattern)
    if key != "1,1,1":
        _check_sectors(source, sectors)
    return key, sectors


def fusion_table(folding_or_datum, k, pattern="1,1,1", tolerance=INTEGER_TOLERANCE,
                 parallelism=1):
    """Batch driver over all weight triples of one sector pattern.

    When both the S-matrix route and the folding route apply, every entry is
    computed twice and equality is checked before the table is returned.
    parallelism spreads the Kac-Walton rows over that many threads.
    """
    key, sectors = check_pattern(folding_or_datum, pattern)
    if key == "1,1,1":
        datum = getattr(folding_or_datum, "base", folding_or_datum)
        header = (str(datum.type), k, "none", key)
        return _untwisted_table(datum, k, header, tolerance, parallelism)
    header = (str(folding_or_datum.base.type), k, "diagram", key)
    return _twisted_table(folding_or_datum, k, header, sectors, tolerance, parallelism)


def _vacuum_table(header, vacua):
    """Level 0, where no modular matrix exists: each slot holds only the
    vacuum, which fuses with itself once."""
    return FusionTable(*header, tuple((v,) for v in vacua),
                       np.ones((1, 1, 1), dtype=np.int64), "kac-walton")


def _untwisted_table(datum, k, header, tolerance, parallelism):
    if k == 0:
        return _vacuum_table(header, dominant_level_weights(datum, 0) * 3)
    s = untwisted_S(datum, k)
    labels = s.rows
    nv = _verlinde_blocks(s.entries, s.entries, s.entries, s.entries[0], tolerance)
    memo = KacWaltonMemo(datum, k)

    def one_pair(i, j):
        # V_i (x) V_j = V_j (x) V_i: one Kac-Walton row fills both orders.
        return ((i, j), (j, i)), kac_walton_row(datum, k, labels[i], labels[j],
                                                memo=memo)

    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    slots = (labels,) * 3
    _cross_check(one_pair, pairs, _index(labels), slots, nv, parallelism)
    return FusionTable(*header, slots, nv, "verlinde+kac-walton")


def _twisted_table(folding, k, header, sectors, tolerance, parallelism):
    if k == 0:
        vacua = [dominant_level_weights(d, 0)[0]
                 for d in (folding.base, folding.twisted)]
        return _vacuum_table(header, [SectorLabel(_SECTOR_NAME[c], vacua[c])
                                      for c in sectors])
    mats = _sector_matrices(folding, k)
    blocks = (mats.scol, mats.a)
    labels = (mats.base_labels, mats.twisted_labels)
    slots = tuple(tuple(SectorLabel(_SECTOR_NAME[c], lw) for lw in labels[c])
                  for c in sectors)
    nv = _verlinde_blocks(*(blocks[c] for c in sectors), mats.vac, tolerance)
    if sectors == (1, 1, 0):
        return FusionTable(*header, slots, nv, "verlinde-only")
    memo = KacWaltonMemo(folding.twisted, k)

    def one_pair(i, j):
        u, t = (i, j) if sectors[0] == 0 else (j, i)
        return ((i, j),), twisted_kac_walton_row(folding, k, labels[0][u], labels[1][t],
                                                 memo=memo)

    pairs = list(itertools.product(range(nv.shape[0]), range(nv.shape[1])))
    _cross_check(one_pair, pairs, mats.twisted_index, slots, nv, parallelism)
    return FusionTable(*header, slots, nv, "twisted-verlinde+twisted-kac-walton")


def _cross_check(one_pair, pairs, index, slots, nv, parallelism):
    """Scatter the Kac-Walton rows into an array and compare it with nv.

    one_pair(i, j) returns the (first, second) slot positions its row fills
    and the row, {label tuple: coefficient}; index maps a label tuple to its
    third-slot position, and a label outside it raises UnknownWeight.  The
    first triple in C order where the arrays differ raises MethodMismatch.
    """
    nk = np.zeros_like(nv)
    for cells, row in _run_pairs(one_pair, pairs, parallelism):
        for coords, n in row.items():
            m = index.get(coords)
            if m is None:
                i, j = cells[0]
                raise UnknownWeight(f"the Kac-Walton row of {slots[0][i]}, "
                                    f"{slots[1][j]} names {coords}, not a label "
                                    f"of the third slot")
            for i, j in cells:
                nk[i, j, m] = n
    diff = np.flatnonzero(nv != nk)
    if diff.size:
        i, j, m = np.unravel_index(diff[0], nv.shape)
        raise MethodMismatch((slots[0][i], slots[1][j], slots[2][m]),
                             int(nv[i, j, m]), int(nk[i, j, m]))


def _run_pairs(fn, pairs, parallelism):
    """Evaluate fn over index pairs, optionally on a thread pool.

    Results are yielded in the submission order regardless of scheduling.
    """
    if parallelism <= 1:
        for i, j in pairs:
            yield fn(i, j)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        yield from pool.map(lambda ij: fn(*ij), pairs)
