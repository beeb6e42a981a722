"""Fusion coefficients, four ways, with cross-validation.

Routes:
  verlinde            untwisted modules through the S-matrix
  kac_walton          untwisted modules through alcove-folded tensor products
  twisted_verlinde    mixed untwisted/twisted sectors through S-matrix blocks
  twisted_kac_walton  the same coefficients through branch + tensor + fold

A fusion table computed with two applicable routes checks their equality
entry by entry before emitting anything.  The Verlinde value is computed
for every ordered triple.  The Kac-Walton side computes each piece once per
table, in a `KacWaltonMemo` that lives as long as the table build: one row
per unordered pair of untwisted weights (the tensor product is
commutative), one alcove fold per tensor component, one branched system per
untwisted weight and one tensor product per unordered pair of twisted
factors.  Nothing is cached across tables.  `FusionTable.to_json` encodes
each distinct label once and splices the fragments.
"""

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cartan import LeveledWeight
from .errors import (MethodMismatch, NegativeCoefficient, NegativeMultiplicity,
                     NotInteger, SectorRuleViolation, UnsupportedOrder,
                     UnsupportedSectorPattern)
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


@dataclass(frozen=True)
class SectorLabel:
    sector: str           # "untwisted" | "sigma"
    weight: LeveledWeight

    def __str__(self):
        tag = "1" if self.sector == UNTWISTED else "s"
        return f"[{tag}]{self.weight}"


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


@dataclass
class FusionTable:
    algebra: str
    level: int
    twist: str            # "none" | "diagram"
    pattern: str
    entries: dict = field(default_factory=dict)   # triple -> int
    methods: dict = field(default_factory=dict)   # triple -> method tag

    def add(self, triple, value, method):
        if value < 0:
            raise NegativeCoefficient(f"fusion coefficient {value} at {triple}")
        self.entries[triple] = value
        self.methods[triple] = method

    def to_json(self):
        """Schema-1 JSON of the table, compact, without a trailing newline.

        The header, each label, each method tag and each value are encoded
        once by the json module; entries are spliced from those fragments in
        insertion order.  Fragments are keyed by object identity, which is
        stable while the table holds the objects and avoids hashing labels;
        the table drivers use one object per distinct label.
        """
        labels, scalars = {}, {}

        def enc(cache, x, encode):
            s = cache.get(id(x))
            if s is None:
                s = cache[id(x)] = encode(x)
            return s

        def label(x):
            return enc(labels, x, lambda lab: _compact(_label_json(lab)))

        items = []
        for triple, n in self.entries.items():
            m1, m2, m3 = triple
            items.append(f'{{"m1":{label(m1)},"m2":{label(m2)},"m3":{label(m3)},'
                         f'"N":{enc(scalars, n, _compact)},'
                         f'"method":{enc(scalars, self.methods[triple], _compact)}}}')
        head = _compact({"schema": 1, "algebra": self.algebra, "level": self.level,
                         "twist": self.twist, "pattern": self.pattern})
        return f'{head[:-1]},"entries":[{",".join(items)}]}}'

    def to_text(self):
        lines = []
        width = max((len(str(k)) for trip in self.entries for k in trip), default=4)
        for (m1, m2, m3), n in self.entries.items():
            lines.append(f"{str(m1):<{width}}  {str(m2):<{width}}  "
                         f"{str(m3):<{width}}  {n}  [{self.methods[(m1, m2, m3)]}]")
        return "\n".join(lines)


def _round_coefficient(value, tolerance=INTEGER_TOLERANCE):
    n = int(round(float(value.real)))
    if abs(value - n) > tolerance:
        raise NotInteger(f"Verlinde sum {value} is not near an integer "
                         f"(tolerance {tolerance})")
    if n < 0:
        raise NegativeCoefficient(f"fusion coefficient rounded to {n}")
    return n


def _row_index(labels, lw):
    coords = tuple(lw.finite.coords)
    for i, lab in enumerate(labels):
        if tuple(lab.finite.coords) == coords and lab.level == lw.level:
            return i
    raise KeyError(f"label {lw} not found")


def verlinde(s_matrix, lam1, lam2, lam3, tolerance=INTEGER_TOLERANCE):
    """Fusion coefficient from a square unitary untwisted S-matrix."""
    if any(x != 0 for x in s_matrix.rows[0].finite.coords):
        raise ValueError("the vacuum row must come first (global label order)")
    i = _row_index(s_matrix.rows, lam1)
    j = _row_index(s_matrix.rows, lam2)
    k = _row_index(s_matrix.rows, lam3)
    s = s_matrix.entries
    value = np.sum(s[i] * s[j] * np.conj(s[k]) / s[0])
    return _round_coefficient(value, tolerance)


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
    level-k weights).  a: the twisted-sector block, rows over the twisted
    weights, columns aligned with scol's.
    """

    def __init__(self, folding, k):
        self.folding = folding
        self.k = k
        self.base_labels = dominant_level_weights(folding.base, k)
        self.sym = symmetric_weights(folding, k)
        full = untwisted_S(folding.base, k)
        self.full_S = full
        pos = {tuple(lw.finite.coords): i for i, lw in enumerate(full.cols)}
        col_idx = [pos[tuple(w.finite.coords)] for w in self.sym]
        self.scol = full.entries[:, col_idx]
        sector = twisted_sector_S(folding, k)
        self.sector_S = sector
        self.a = sector.entries
        self.twisted_labels = sector.rows
        self.vac = self.scol[0]

    def row_base(self, lw):
        return _row_index(self.base_labels, lw)

    def row_twisted(self, lw):
        return _row_index(self.twisted_labels, lw)


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
        if label.sector == UNTWISTED:
            return mats.scol[mats.row_base(label.weight)]
        return mats.a[mats.row_twisted(label.weight)]

    value = np.sum(row(m1) * row(m2) * np.conj(row(m3)) / mats.vac)
    return _round_coefficient(value, tolerance)


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
    sym_idx = [mats.row_base(w) for w in sym]
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
    computed twice and equality is asserted before emission.
    """
    key, sectors = check_pattern(folding_or_datum, pattern)
    if key == "1,1,1":
        datum = getattr(folding_or_datum, "base", folding_or_datum)
        return _untwisted_table(datum, k, tolerance, parallelism)
    return _twisted_table(folding_or_datum, k, key, sectors, tolerance, parallelism)


def _untwisted_table(datum, k, tolerance, parallelism):
    table = FusionTable(str(datum.type), k, "none", "1,1,1")
    labels = dominant_level_weights(datum, k)
    if k == 0:
        only = labels[0]
        table.add((only, only, only), 1, "kac-walton")
        return table
    smat = untwisted_S(datum, k).entries
    conj_over_vac = np.conj(smat)
    coords = [tuple(lab.finite.coords) for lab in labels]
    memo = KacWaltonMemo(datum, k)

    def checked(i, j, kw_row):
        values = conj_over_vac @ (smat[i] * smat[j] / smat[0])
        out = []
        for m, lab3 in enumerate(labels):
            nv = _round_coefficient(values[m], tolerance)
            nk = kw_row.get(coords[m], 0)
            if nv != nk:
                raise MethodMismatch((labels[i], labels[j], lab3), nv, nk)
            out.append(nv)
        return out

    def one_pair(i, j):
        # V_i (x) V_j = V_j (x) V_i: one Kac-Walton row checks both orders,
        # each against its own Verlinde values.
        kw_row = kac_walton_row(datum, k, labels[i], labels[j], memo=memo)
        orders = [(i, j)] if i == j else [(i, j), (j, i)]
        return [((a, b), checked(a, b, kw_row)) for a, b in orders]

    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    found = {}
    for chunk in _run_pairs(one_pair, pairs, parallelism):
        found.update(chunk)
    for i in range(n):
        for j in range(n):
            for lab3, nv in zip(labels, found[i, j]):
                table.add((labels[i], labels[j], lab3), nv, "verlinde+kac-walton")
    return table


def _twisted_table(folding, k, key, sectors, tolerance, parallelism):
    table = FusionTable(str(folding.base.type), k, "diagram", key)
    base_labels = dominant_level_weights(folding.base, k)
    tw_labels = dominant_level_weights(folding.twisted, k)
    sector_labels = ([SectorLabel(UNTWISTED, lw) for lw in base_labels],
                     [SectorLabel(SIGMA, lw) for lw in tw_labels])
    if k == 0:
        table.add(tuple(sector_labels[cls][0] for cls in sectors), 1, "kac-walton")
        return table
    # Built here, before the pool starts, so that its threads share one build.
    _sector_matrices(folding, k)
    first, second, third = (sector_labels[cls] for cls in sectors)

    if key in ("1,s,s", "s,1,s"):
        memo = KacWaltonMemo(folding.twisted, k)
        tw_coords = [tuple(lw.finite.coords) for lw in tw_labels]

        def one_pair(i, j):
            m1s, m2s = first[i], second[j]
            lam_untw, lam_tw = (m1s, m2s) if key == "1,s,s" else (m2s, m1s)
            kw_row = twisted_kac_walton_row(folding, k, lam_untw.weight,
                                            lam_tw.weight, memo=memo)
            out = []
            for m3s, c3 in zip(third, tw_coords):
                nv = twisted_verlinde(folding, k, m1s, m2s, m3s, tolerance)
                nk = kw_row.get(c3, 0)
                if nv != nk:
                    raise MethodMismatch((m1s, m2s, m3s), nv, nk)
                out.append(((m1s, m2s, m3s), nv))
            return out
        method = "twisted-verlinde+twisted-kac-walton"
    else:  # s,s,1
        def one_pair(i, j):
            m1s, m2s = first[i], second[j]
            return [((m1s, m2s, m3s),
                     twisted_verlinde(folding, k, m1s, m2s, m3s, tolerance))
                    for m3s in third]
        method = "verlinde-only"

    pairs = [(i, j) for i in range(len(first)) for j in range(len(second))]
    for chunk in _run_pairs(one_pair, pairs, parallelism):
        for triple, n in chunk:
            table.add(triple, n, method)
    return table


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
