"""Fusion coefficients, four ways, with cross-validation.

Routes:
  verlinde            untwisted modules through the S-matrix
  kac_walton          untwisted modules through alcove-folded tensor products
  twisted_verlinde    mixed untwisted/twisted sectors through S-matrix blocks
  twisted_kac_walton  the same coefficients through branch + tensor + fold

A fusion table computed with two applicable routes asserts their equality
entry by entry before emitting anything.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cartan import LeveledWeight
from .errors import (MethodMismatch, NegativeCoefficient, NotInteger,
                     SectorRuleViolation, UnsupportedOrder,
                     UnsupportedSectorPattern)
from .fold import symmetric_weights
from .rep import branch, dominant_level_weights, is_level_dominant, tensor_decompose
from .smatrix import ORBIFOLD_BLOCK, ModularMatrix, twisted_sector_S, untwisted_S
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


@dataclass
class FusionTable:
    algebra: str
    level: int
    twist: str            # "none" | "diagram"
    pattern: str
    entries: dict = field(default_factory=dict)   # triple -> int
    methods: dict = field(default_factory=dict)   # triple -> method tag

    def add(self, triple, value, method):
        assert value >= 0
        self.entries[triple] = value
        self.methods[triple] = method

    def to_json_dict(self):
        items = []
        for (m1, m2, m3), n in self.entries.items():
            items.append({
                "m1": _triple_json(m1), "m2": _triple_json(m2),
                "m3": _triple_json(m3), "N": n,
                "method": self.methods[(m1, m2, m3)],
            })
        return {"schema": 1, "algebra": self.algebra, "level": self.level,
                "twist": self.twist, "pattern": self.pattern, "entries": items}

    def to_text(self):
        lines = []
        width = max((len(str(k)) for trip in self.entries for k in trip), default=4)
        for (m1, m2, m3), n in self.entries.items():
            lines.append(f"{str(m1):<{width}}  {str(m2):<{width}}  "
                         f"{str(m3):<{width}}  {n}  [{self.methods[(m1, m2, m3)]}]")
        return "\n".join(lines)


def _triple_json(label):
    if isinstance(label, SectorLabel):
        return {"sector": label.sector, "level": label.weight.level,
                "weight": [int(x) for x in label.weight.finite.coords]}
    return {"level": label.level, "weight": [int(x) for x in label.finite.coords]}


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
    assert all(x == 0 for x in s_matrix.rows[0].finite.coords), \
        "vacuum row must come first (global label order)"
    i = _row_index(s_matrix.rows, lam1)
    j = _row_index(s_matrix.rows, lam2)
    k = _row_index(s_matrix.rows, lam3)
    s = np.asarray(s_matrix.entries, dtype=complex)
    value = np.sum(s[i] * s[j] * np.conj(s[k]) / s[0])
    return _round_coefficient(value, tolerance)


def kac_walton(affine_datum, k, lam1, lam2, lam3):
    """Fusion coefficient by tensor decomposition and signed alcove folding."""
    row = kac_walton_row(affine_datum, k, lam1, lam2)
    return row.get(tuple(lam3.finite.coords), 0)


def kac_walton_row(affine_datum, k, lam1, lam2):
    """All coefficients N_{lam1, lam2}^{*} at once; keys are label tuples."""
    for lw in (lam1, lam2):
        assert is_level_dominant(affine_datum, lw), f"{lw} not level-{k} dominant"
    fin = affine_datum.finite
    decomp = tensor_decompose(fin, lam1.finite, lam2.finite)
    out = {}
    for mu, mult in decomp.entries.items():
        shifted = fin.weight(tuple(c + 1 for c in mu.coords))
        res = alcove_fold(affine_datum, k, shifted)
        if res.sign == 0:
            continue
        target = tuple(c - 1 for c in res.rep.coords)
        out[target] = out.get(target, 0) + res.sign * mult
    out = {key: v for key, v in out.items() if v != 0}
    assert all(v > 0 for v in out.values()), "negative folded multiplicity"
    return out


def twisted_kac_walton(folding, k, lam1, lam2_dag, lam3_dag):
    row = twisted_kac_walton_row(folding, k, lam1, lam2_dag)
    return row.get(tuple(lam3_dag.finite.coords), 0)


def twisted_kac_walton_row(folding, k, lam1, lam2_dag):
    """Coefficients N_{lam1, lam2^dag}^{*}: restrict lam1 to the twisted
    finite part, tensor with lam2^dag there, fold over the twisted alcove."""
    base, tw = folding.base, folding.twisted
    assert is_level_dominant(base, lam1)
    assert is_level_dominant(tw, lam2_dag)
    fin = tw.finite
    branched = branch(base.finite, fin, folding.iota_dual, lam1.finite)
    totals = {}
    for nu, b in branched.entries.items():
        sub = tensor_decompose(fin, nu, lam2_dag.finite)
        for mu, m in sub.entries.items():
            totals[mu.coords] = totals.get(mu.coords, 0) + b * m
    out = {}
    for mu, mult in totals.items():
        shifted = fin.weight(tuple(c + 1 for c in mu))
        res = alcove_fold(tw, k, shifted)
        if res.sign == 0:
            continue
        target = tuple(c - 1 for c in res.rep.coords)
        out[target] = out.get(target, 0) + res.sign * mult
    out = {key: v for key, v in out.items() if v != 0}
    assert all(v > 0 for v in out.values()), "negative folded multiplicity"
    return out


class SectorMatrices:
    """The S-matrix blocks entering the twisted Verlinde sums.

    scol: untwisted S restricted to the sigma-stable columns (rows over all
    level-k weights).  a: the twisted-sector block, rows over the twisted
    weights, columns aligned with scol's.
    """

    def __init__(self, folding, k, bits=53):
        self.folding = folding
        self.k = k
        self.base_labels = dominant_level_weights(folding.base, k)
        self.sym = symmetric_weights(folding, k)
        full = untwisted_S(folding.base, k, bits)
        self.full_S = full
        pos = {tuple(lw.finite.coords): i for i, lw in enumerate(full.cols)}
        col_idx = [pos[tuple(w.finite.coords)] for w in self.sym]
        s = np.asarray(full.entries, dtype=complex)
        self.scol = s[:, col_idx]
        sector = twisted_sector_S(folding, k, bits)
        self.sector_S = sector
        self.a = np.asarray(sector.entries, dtype=complex)
        self.twisted_labels = sector.rows
        self.vac = self.scol[0]

    def row_base(self, lw):
        return _row_index(self.base_labels, lw)

    def row_twisted(self, lw):
        return _row_index(self.twisted_labels, lw)


@lru_cache(maxsize=None)
def _sector_matrices(folding, k, bits=53):
    return SectorMatrices(folding, k, bits)


def _sector_classes(folding, labels):
    out = []
    for lab in labels:
        cls = _SECTOR_CLASS.get(lab.sector if isinstance(lab, SectorLabel) else lab)
        if cls is None:
            raise UnsupportedSectorPattern(f"unknown sector {lab!r}")
        out.append(cls)
    return out


def check_sector_rule(folding, sectors):
    """Enforce g3 = g1 g2 in the cyclic group generated by the twist."""
    p = folding.r
    g1, g2, g3 = sectors
    if any(g >= p and g > 1 for g in sectors):
        raise SectorRuleViolation(f"sector power out of range for order {p}")
    if (g1 + g2) % p != g3 % p:
        raise SectorRuleViolation(
            f"sectors ({g1},{g2}->{g3}) violate g3 = g1*g2 for order {p}")


def twisted_verlinde(folding, k, m1, m2, m3, tolerance=INTEGER_TOLERANCE, bits=53):
    """Fusion coefficient for mixed sectors via S-matrix blocks.

    Supported patterns: (1,s->s) and (s,1->s) for any order; (s,s->1) only
    for order 2.  Patterns needing a sigma^2 block are rejected.
    """
    sectors = _sector_classes(folding, (m1, m2, m3))
    check_sector_rule(folding, sectors)
    if all(s == 0 for s in sectors):
        raise SectorRuleViolation("use the untwisted routes for (1,1->1)")
    if 2 in sectors:
        raise UnsupportedSectorPattern("no S-matrix block for the sigma^2 sector")
    if sectors == (1, 1, 0) and folding.r != 2:
        raise UnsupportedSectorPattern(
            "(s,s->1) requires the twisted and antitwisted sectors to agree (order 2)")
    mats = _sector_matrices(folding, k, bits)

    def row(label):
        if label.sector == UNTWISTED:
            return mats.scol[mats.row_base(label.weight)]
        return mats.a[mats.row_twisted(label.weight)]

    value = np.sum(row(m1) * row(m2) * np.conj(row(m3)) / mats.vac)
    return _round_coefficient(value, tolerance)


def orbifold_block_report(folding, k, bits=53):
    """Labeled blocks of the fixed-point algebra S-matrix, order 2 only.

    Emits what is constructible from the untwisted S-matrix and the twisted
    sector block: eigencomponent blocks among stable modules, twisted-sector
    rows, and the rows of the unpaired orbit representatives (including
    their zero block against twisted columns).  No completeness claim.
    """
    if folding.r != 2:
        raise UnsupportedOrder("block report is limited to order-2 twists")
    p = folding.r
    mats = _sector_matrices(folding, k, bits)
    sym = mats.sym
    sym_idx = [mats.row_base(w) for w in sym]
    s = np.asarray(mats.full_S.entries, dtype=complex)

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
    b1 = ModularMatrix(sym_rows, sym_rows, block1, ORBIFOLD_BLOCK, bits)

    block2 = np.zeros((p * n_tw, p * n_sym), dtype=complex)
    for i in range(n_tw):
        for j in range(n_sym):
            v = mats.a[i, j] / p
            for a in range(p):
                for b in range(p):
                    block2[p * i + a, p * j + b] = v * (-1) ** b
    b2 = ModularMatrix(tw_rows, sym_rows, block2, ORBIFOLD_BLOCK, bits)

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
    b3 = ModularMatrix(rep_rows, sym_rows, block3, ORBIFOLD_BLOCK, bits)

    block4 = np.zeros((len(reps), p * n_tw), dtype=complex)
    b4 = ModularMatrix(rep_rows, tw_rows, block4, ORBIFOLD_BLOCK, bits)
    return [b1, b2, b3, b4]


_COMPUTABLE = {
    "1,1,1": (0, 0, 0),
    "1,s,s": (0, 1, 1),
    "s,1,s": (1, 0, 1),
    "s,s,1": (1, 1, 0),
}
_TOKEN = {"1": 0, "s": 1, "s2": 2}


def parse_pattern(pattern):
    key = pattern.replace(" ", "").lower()
    toks = key.split(",")
    if len(toks) != 3 or any(t not in _TOKEN for t in toks):
        raise UnsupportedSectorPattern(
            f"pattern {pattern!r} not recognized; tokens are 1, s, s2")
    return key, tuple(_TOKEN[t] for t in toks)


def fusion_table(folding_or_datum, k, pattern="1,1,1", tolerance=INTEGER_TOLERANCE,
                 bits=53, parallelism=1):
    """Batch driver over all weight triples of one sector pattern.

    When both the S-matrix route and the folding route apply, every entry is
    computed twice and equality is asserted before emission.
    """
    key, sectors = parse_pattern(pattern)
    if key == "1,1,1":
        datum = getattr(folding_or_datum, "base", folding_or_datum)
        return _untwisted_table(datum, k, tolerance, bits, parallelism)
    folding = folding_or_datum
    check_sector_rule(folding, sectors)
    if key not in _COMPUTABLE:
        raise UnsupportedSectorPattern(
            f"pattern {key!r} is admissible but needs an unavailable sector block")
    if sectors == (1, 1, 0) and folding.r != 2:
        raise UnsupportedSectorPattern("(s,s->1) is limited to order-2 twists")
    return _twisted_table(folding, k, key, sectors, tolerance, bits, parallelism)


def _untwisted_table(datum, k, tolerance, bits, parallelism):
    table = FusionTable(str(datum.type), k, "none", "1,1,1")
    labels = dominant_level_weights(datum, k)
    if k == 0:
        only = labels[0]
        table.add((only, only, only), 1, "kac-walton")
        return table
    s = untwisted_S(datum, k, bits)
    smat = np.asarray(s.entries, dtype=complex)
    conj_over_vac = np.conj(smat)

    def one_pair(i, j):
        kw_row = kac_walton_row(datum, k, labels[i], labels[j])
        values = conj_over_vac @ (smat[i] * smat[j] / smat[0])
        out = []
        for m, lab3 in enumerate(labels):
            nv = _round_coefficient(values[m], tolerance)
            nk = kw_row.get(tuple(lab3.finite.coords), 0)
            if nv != nk:
                raise MethodMismatch((labels[i], labels[j], lab3), nv, nk)
            out.append(((labels[i], labels[j], lab3), nv))
        return out

    pairs = [(i, j) for i in range(len(labels)) for j in range(len(labels))]
    for chunk in _run_pairs(one_pair, pairs, parallelism):
        for triple, n in chunk:
            table.add(triple, n, "verlinde+kac-walton")
    return table


def _twisted_table(folding, k, key, sectors, tolerance, bits, parallelism):
    table = FusionTable(str(folding.base.type), k, "diagram", key)
    base_labels = dominant_level_weights(folding.base, k)
    tw_labels = dominant_level_weights(folding.twisted, k)
    if k == 0:
        m = (SectorLabel(UNTWISTED, base_labels[0]) if sectors[0] == 0
             else SectorLabel(SIGMA, tw_labels[0]))
        m2 = (SectorLabel(UNTWISTED, base_labels[0]) if sectors[1] == 0
              else SectorLabel(SIGMA, tw_labels[0]))
        m3 = (SectorLabel(UNTWISTED, base_labels[0]) if sectors[2] == 0
              else SectorLabel(SIGMA, tw_labels[0]))
        table.add((m, m2, m3), 1, "kac-walton")
        return table
    # Built here, before the pool starts, so that its threads share one build.
    _sector_matrices(folding, k, bits)

    def labset(cls):
        return (base_labels if cls == 0 else tw_labels)

    def seclab(cls, lw):
        return SectorLabel(UNTWISTED if cls == 0 else SIGMA, lw)

    if key in ("1,s,s", "s,1,s"):
        def one_pair(i, j):
            l1, l2 = labset(sectors[0])[i], labset(sectors[1])[j]
            lam_untw, lam_tw = (l1, l2) if key == "1,s,s" else (l2, l1)
            kw_row = twisted_kac_walton_row(folding, k, lam_untw, lam_tw)
            out = []
            for lab3 in tw_labels:
                m1s, m2s = seclab(sectors[0], l1), seclab(sectors[1], l2)
                m3s = seclab(1, lab3)
                nv = twisted_verlinde(folding, k, m1s, m2s, m3s, tolerance, bits)
                nk = kw_row.get(tuple(lab3.finite.coords), 0)
                if nv != nk:
                    raise MethodMismatch((m1s, m2s, m3s), nv, nk)
                out.append(((m1s, m2s, m3s), nv))
            return out
        method = "twisted-verlinde+twisted-kac-walton"
    else:  # s,s,1
        def one_pair(i, j):
            l1, l2 = tw_labels[i], tw_labels[j]
            out = []
            for lab3 in base_labels:
                m1s, m2s, m3s = seclab(1, l1), seclab(1, l2), seclab(0, lab3)
                nv = twisted_verlinde(folding, k, m1s, m2s, m3s, tolerance, bits)
                out.append(((m1s, m2s, m3s), nv))
            return out
        method = "verlinde-only"

    pairs = [(i, j) for i in range(len(labset(sectors[0])))
             for j in range(len(labset(sectors[1])))]
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
