"""Fusion coefficients, four ways, with cross-validation.

Routes:
  verlinde            untwisted modules through the S-matrix
  kac_walton          untwisted modules through the Klimyk sum, alcove-folded
  twisted_verlinde    mixed untwisted/twisted sectors through S-matrix blocks
  twisted_kac_walton  the same coefficients through the Klimyk sum of a
                      restricted module and a twisted one, folded

A `FusionTable` holds one label tuple per slot and one int64 array
N[i, j, m], which the Verlinde route fills one first-slot row at a time,
rounded and gated in bulk.  Where a second route applies, the Kac-Walton
side fills a second array that must equal the first (`_cross_check`).
That side is `_ring_module`: lam -> N_lam, and lam -> M_lam on the twisted
labels, represent one fusion ring (the twisted Verlinde formula
diagonalises both by S_{lam mu} / S_{0 mu}), so Klimyk runs for the
fundamental weights only and a recursion in the ring gives every other
label.  Klimyk is `_klimyk_fold`, over blocks of pairs: the gated blocks of
the package's one Klimyk sum, `rep.klimyk_blocks`, then one alcove fold
(`weyl.alcove_fold`) per distinct component.  `kac_walton_row` and
`twisted_kac_walton_row` are one-pair calls of it.  Every Verlinde sum,
the untwisted one being the twisted one with g = 1, reads S-matrix blocks
whose columns `_gated` gates orthonormal: those of `SectorMatrices` (the
full S of a datum; or S on the sigma-stable columns and the twisted-sector
block of a folding), which `_sector_matrices` caches for the last 8
(source, level) pairs, or the columns of S, the vacuum's and its labels',
that `coefficient` builds for `verlinde`.  `FusionTable.json_chunks` and
`text_chunks` yield the output one first-slot plane at a time, so the
array, not its text, sets the peak memory of a table; `to_json` and
`to_text` join them.  Both splice each
row from its (m1, m2) prefix and per-value tails: the tail of every
third-slot label and every value of N is formatted once per table, each
slot label encoded once, and one fancy index picks the tails of a plane.

`parse_pattern` reads a sector pattern into sector classes (0 untwisted,
1 sigma, 2 sigma^2), `pattern_text` writes their one canonical text, and
`check_pattern` also checks them (`_check_sectors`, as for SectorLabels).
`fusion_table` builds a table, and `coefficient`, the dispatcher of one
coefficient, runs every route that applies, which must agree.  Level 0 is
no special case: its S and a are 1 x 1, (1) up to rounding, and its one
label, the vacuum, fuses with itself once by every route.
"""

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import mul

import numpy as np

from .cartan import AFFINE_R1, LeveledWeight
from .errors import (MethodMismatch, NegativeCoefficient, NegativeMultiplicity,
                     NotInteger, NotOrthonormal, RingRecursionFailure,
                     SectorRuleViolation, UnknownWeight, UnsupportedSectorPattern)
from . import _rational as rat, rep
from .rep import dim, dominant_level_weights, require_level_label
from .smatrix import (UNTWISTED_S, _label_json, compact_json, twisted_sector_S,
                      untwisted_S)
from .weyl import alcove_fold

INTEGER_TOLERANCE = 1e-6
UNITARITY_TOLERANCE = 1e-9

# The pattern token and the SectorLabel name of each sector class g, the
# power of the twist: 0 untwisted, 1 sigma, 2 sigma^2 (no S-matrix block).
_TOKENS = ("1", "s", "s2")
_NAMES = ("untwisted", "sigma", "sigma2")


@dataclass(frozen=True)
class SectorLabel:
    sector: str           # "untwisted" | "sigma"
    weight: LeveledWeight

    def __str__(self):
        tag = "1" if self.sector == _NAMES[0] else "s"
        return f"[{tag}]{self.weight}"


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

    def json_chunks(self):
        """Schema-1 JSON of the table, compact, without a trailing newline,
        as an iterator of strings: the header, then the entries of one
        first-slot plane at a time (`_planes`), then the closing brackets.

        Each label and the method tag are encoded once by `compact_json`,
        however many slots hold the label: the fragments are keyed by object
        identity, stable while the table holds its labels.
        """
        labels = {id(x): x for slot in self.slots for x in slot}
        text = {key: compact_json(_label_json(x)) for key, x in labels.items()}
        first, second, third = ([text[id(x)] for x in slot] for slot in self.slots)
        end = f',"method":{compact_json(self.method)}}}'
        head = compact_json({"schema": 1, "algebra": self.algebra, "level": self.level,
                             "twist": self.twist, "pattern": self.pattern})
        yield f'{head[:-1]},"entries":['
        yield from self._planes([f'{{"m1":{m1},"m2":' for m1 in first],
                                [f"{m2}," for m2 in second], third,
                                lambda m3, n: f'"m3":{m3},"N":{n}{end}', ",")
        yield "]}"

    def to_json(self):
        """The chunks of `json_chunks`, joined."""
        return "".join(self.json_chunks())

    def text_chunks(self):
        """One line per entry, in C order, without a trailing newline, as an
        iterator of strings: the lines of one first-slot plane at a time
        (`_planes`)."""
        width = max(len(str(x)) for slot in self.slots for x in slot)
        first, second, third = ([f"{str(x):<{width}}  " for x in slot] for slot in self.slots)
        yield from self._planes(first, second, third,
                                lambda m3, n: f"{m3}{n}  [{self.method}]", "\n")

    def to_text(self):
        """The chunks of `text_chunks`, joined."""
        return "".join(self.text_chunks())

    def _planes(self, first, second, third, tail, sep):
        """The entries of one first-slot plane at a time, in C order, joined
        by sep: entry (i, j, m) is first[i] + second[j] + tail(third[m], n)
        for n = N[i, j, m].  The tail of every third-slot label and every
        value from 0 to max N (N is non-negative) is formatted once per
        table, one fancy index picks a plane's tails, and each row is
        spliced to its prefix."""
        values = range(int(self.N.max()) + 1)
        tails = np.array([[tail(m3, n) for n in values] for m3 in third], dtype=object)
        cols = np.arange(len(third))
        for i, (m1, plane) in enumerate(zip(first, self.N)):
            rows = tails[cols, plane].tolist()
            yield sep.join(([""] if i else []) + [
                pair + (sep + pair).join(row)
                for pair, row in zip([m1 + m2 for m2 in second], rows)])


def _rounded(values):
    """Verlinde sums rounded to int64 in bulk.  NotInteger names the sum
    farthest from an integer when it is off by more than INTEGER_TOLERANCE
    (a NaN always fails); NegativeCoefficient names the most negative one."""
    values = np.asarray(values)
    n = np.rint(values.real)
    off = np.abs(values - n)
    worst = off.argmax()
    if not off.flat[worst] <= INTEGER_TOLERANCE:
        raise NotInteger(f"Verlinde sum {values.flat[worst]} is off an integer by "
                         f"{off.flat[worst]:.3e} (tolerance {INTEGER_TOLERANCE})")
    if n.min() < 0:
        raise NegativeCoefficient(f"fusion coefficient rounded to {int(n.min())}")
    return n.astype(np.int64)


def _verlinde_blocks(a, b, c, vac):
    """N[i, j, m] = sum_x a[i, x] b[j, x] conj(c[m, x]) / vac[x], one
    first-slot row at a time, each block rounded and gated by `_rounded`."""
    b_over_vac = b / vac
    c_conj_t = np.conj(c).T
    return np.stack([_rounded((row * b_over_vac) @ c_conj_t) for row in a])


def _index(labels):
    """Label tuple -> position, for leveled weights of one level."""
    return {lw.finite.coords: i for i, lw in enumerate(labels)}


def _position(datum, k, index, lw):
    """The position of lw in index, once `require_level_label` has checked
    that it is a level-k label of datum; only a column block passed to
    `verlinde` can lack such a label (ValueError)."""
    require_level_label(datum, k, lw)
    i = index.get(lw.finite.coords)
    if i is None:
        raise ValueError(f"{lw} is not a column of the S block passed to verlinde")
    return i


def _gated(block):
    """The block's columns gated orthonormal: its defect max |M^H M - I|
    (`ModularMatrix.unitarity_defect`), or NotOrthonormal past
    UNITARITY_TOLERANCE (a NaN fails)."""
    defect = block.unitarity_defect()
    if not defect <= UNITARITY_TOLERANCE:
        raise NotOrthonormal(
            f"{block.datum.type} level {block.rows[0].level}: the columns of the "
            f"{block.provenance} block are off orthonormal by {defect:.3e} "
            f"(tolerance {UNITARITY_TOLERANCE})")
    return defect


def verlinde(s_matrix, lam1, lam2, lam3):
    """Fusion coefficient from an untwisted S-matrix whose columns include
    the vacuum and the three labels: the full S, or a block of its columns.
    S is symmetric, so those columns are the rows the sum reads; the
    distinct ones are gated orthonormal (`_gated`).  ValueError for any
    other ModularMatrix, or a label its columns lack (`_position`)."""
    if s_matrix.provenance != UNTWISTED_S:
        raise ValueError(f"verlinde needs an untwisted S, not a "
                         f"{s_matrix.provenance} matrix")
    datum, k = s_matrix.datum, s_matrix.rows[0].level
    index = _index(s_matrix.cols)
    cols = [_position(datum, k, index, lw)
            for lw in (datum.leveled(k, (0,) * datum.rank), lam1, lam2, lam3)]
    distinct = sorted(set(cols))
    _gated(replace(s_matrix, cols=tuple(s_matrix.cols[j] for j in distinct),
                   entries=s_matrix.entries[:, distinct]))
    vac, a, b, c = (s_matrix.entries[:, [j]].T for j in cols)
    return int(_verlinde_blocks(a, b, c, vac[0])[0, 0, 0])


def _klimyk_fold(affine, k, index, bases, systems, b, s):
    """Kac-Walton coefficients of the pairs (bases[b[p]], systems[s[p]]):
    each distinct component of the gated `rep.klimyk_blocks` is folded into
    the alcove once (`_fold_labels`).  A negative folded sum raises
    NegativeMultiplicity.  Returns an int64 array (pairs, len(index)): row
    p holds the coefficients of pair p over the third-slot labels."""
    folds = np.zeros((0, 2), dtype=np.int64)
    rows = np.zeros((len(b), len(index)), dtype=np.int64)
    for pair, comp, c, fresh in rep.klimyk_blocks(affine.finite, bases, systems, b, s):
        if fresh:
            folds = np.concatenate([folds, _fold_labels(affine, k, index, fresh)])
        cell, n = rep._group_sums(np.column_stack([pair, folds[comp, 1]]),
                                  c * folds[comp, 0])
        if (n < 0).any():
            p = cell[n.argmin(), 0]
            raise NegativeMultiplicity(
                f"folded multiplicity {n.min()} in "
                f"{rep._pair(bases, systems, b[p], s[p])} ({affine.type}, level {k})")
        rows[cell[:, 0], cell[:, 1]] = n
    return rows


def _fold_labels(affine, k, index, shifted):
    """(sign, third-slot index) of each rho-shifted component folded into the
    alcove by `weyl.alcove_fold`; UnknownWeight for a fold outside index."""
    signs, folded = alcove_fold(affine, k, np.array(shifted, dtype=np.int64))
    out = np.zeros((len(signs), 2), dtype=np.int64)
    out[:, 0] = signs
    for x, y in zip(np.flatnonzero(signs).tolist(), folded[signs != 0].tolist()):
        m = index.get(tuple(v - 1 for v in y))
        if m is None:
            raise UnknownWeight(f"a Kac-Walton component of {affine.type} at level "
                                f"{k} folds to {tuple(v - 1 for v in y)}, not a "
                                f"label of the third slot")
        out[x, 1] = m
    return out


def kac_walton(affine_datum, k, lam1, lam2, lam3):
    """Fusion coefficient by tensor decomposition and signed alcove folding."""
    require_level_label(affine_datum, k, lam3)
    row = kac_walton_row(affine_datum, k, lam1, lam2)
    return row.get(tuple(lam3.finite.coords), 0)


def kac_walton_row(affine_datum, k, lam1, lam2):
    """All coefficients N_{lam1, lam2}^{*} at once; keys are label tuples.
    One pair of `_klimyk_fold`, over the weights of the smaller factor.
    The datum must be untwisted, and every label a level-k dominant weight
    (ValueError)."""
    if affine_datum.type.kind != AFFINE_R1:
        raise ValueError(f"kac_walton needs an untwisted affine datum, "
                         f"not {affine_datum.type}")
    for lw in (lam1, lam2):
        require_level_label(affine_datum, k, lw)
    fin = affine_datum.finite
    big, small = sorted((lam1.finite.coords, lam2.finite.coords),
                        key=lambda c: dim(fin, c), reverse=True)
    return _one_pair(affine_datum, k, rep._base(fin, big), rep._system(fin, small))


def twisted_kac_walton(folding, k, lam1, lam2_dag, lam3_dag):
    require_level_label(folding.twisted, k, lam3_dag)
    row = twisted_kac_walton_row(folding, k, lam1, lam2_dag)
    return row.get(tuple(lam3_dag.finite.coords), 0)


def twisted_kac_walton_row(folding, k, lam1, lam2_dag):
    """Coefficients N_{lam1, lam2^dag}^{*}: Res lam1 (x) V(lam2^dag) over the
    twisted finite part, whose W-invariant weights (`rep._restricted`) enter
    the Klimyk sum of one pair of `_klimyk_fold`.  lam1 must be a level-k
    dominant weight of the base, lam2_dag of the twisted type (ValueError)."""
    require_level_label(folding.base, k, lam1)
    require_level_label(folding.twisted, k, lam2_dag)
    return _one_pair(folding.twisted, k,
                     rep._base(folding.twisted.finite, lam2_dag.finite.coords),
                     rep._restricted(folding.base.finite, lam1.finite.coords,
                                     folding.iota_dual))


def _one_pair(affine, k, base, system):
    labels = dominant_level_weights(affine, k)
    zero = np.zeros(1, dtype=np.int64)
    row = _klimyk_fold(affine, k, _index(labels), [base], [system], zero, zero)[0]
    return {lw.finite.coords: v for lw, v in zip(labels, row.tolist()) if v}


class SectorMatrices:
    """The gated (`_gated`) S-matrix blocks that the Verlinde sums over
    source, a CartanDatum or a FoldingData, read at level k.

    blocks[g], of sector class g, has rows over every level-k label of its
    sector, and index[g] maps a label to its row.  Over a datum the one
    block is the full S.  Over a folding, blocks[0] is S on the
    sigma-stable columns alone, so a table never builds the full S, and
    blocks[1] the twisted-sector block, with the same column labels.
    defect is the worst defect of the blocks, and vac the vacuum row of S.
    """

    def __init__(self, source, k):
        if hasattr(source, "twisted"):
            sector = twisted_sector_S(source, k)
            self.blocks = (untwisted_S(source.base, k, sector.cols), sector)
        else:
            self.blocks = (untwisted_S(source, k),)
        self.index = tuple(_index(block.rows) for block in self.blocks)
        self.defect = max(map(_gated, self.blocks))
        self.vac = self.blocks[0].entries[0]


# Each entry holds whole S-matrix blocks; a small bound keeps a long-lived
# process from growing without limit.
@lru_cache(maxsize=8)
def _sector_matrices(source, k):
    return SectorMatrices(source, k)


def twisted_verlinde(folding, k, m1, m2, m3):
    """Fusion coefficient for mixed sectors via S-matrix blocks.

    Supported patterns: (1,s->s) and (s,1->s) for any order; (s,s->1) only
    for order 2.  The SectorLabels are checked as a pattern is.
    """
    for m in (m1, m2, m3):
        if m.sector not in _NAMES:
            raise UnsupportedSectorPattern(f"unknown sector {m.sector!r}")
    sectors = tuple(_NAMES.index(m.sector) for m in (m1, m2, m3))
    if sectors == (0, 0, 0):
        raise SectorRuleViolation("use the untwisted routes for (1,1->1)")
    _check_sectors(folding, sectors)
    mats = _sector_matrices(folding, k)

    def row(g, label):
        block = mats.blocks[g]
        return block.entries[[_position(block.datum, k, mats.index[g], label.weight)]]

    n = _verlinde_blocks(*map(row, sectors, (m1, m2, m3)), mats.vac)
    return int(n[0, 0, 0])


def _check_sectors(folding, sectors):
    """Sector classes (g1, g2, g3) must obey g3 = g1 g2 in the cyclic group
    generated by the twist and have S-matrix blocks: a sigma^2 sector has
    none, so (s,s->1) is left, at order 2 only, beside (1,s->s) and (s,1->s)."""
    p = folding.r
    g1, g2, g3 = sectors
    if any(g >= p and g > 1 for g in sectors):
        raise SectorRuleViolation(f"sector power out of range for order {p}")
    if (g1 + g2) % p != g3 % p:
        raise SectorRuleViolation(
            f"sectors ({g1},{g2}->{g3}) violate g3 = g1*g2 for order {p}")
    if 2 in sectors:
        raise UnsupportedSectorPattern(
            f"sectors ({g1},{g2}->{g3}) are admissible but need an unavailable "
            f"S-matrix block")


def parse_pattern(pattern):
    """The sector classes of a pattern of three tokens 1, s, s2, read
    without spaces or case and without a source: (0, 0, 0) for 1,1,1."""
    toks = pattern.replace(" ", "").lower().split(",")
    if len(toks) != 3 or any(t not in _TOKENS for t in toks):
        raise UnsupportedSectorPattern(
            f"pattern {pattern!r} not recognized; tokens are 1, s, s2")
    return tuple(map(_TOKENS.index, toks))


def pattern_text(sectors):
    """The canonical pattern of sector classes, as every output writes it."""
    return ",".join(_TOKENS[g] for g in sectors)


def check_pattern(source, pattern):
    """`parse_pattern`, then a check that the classes are computable over
    source, the CartanDatum or FoldingData the coefficients are taken over;
    any pattern but 1,1,1 needs a FoldingData."""
    sectors = parse_pattern(pattern)
    if sectors != (0, 0, 0):
        _check_sectors(source, sectors)
    return sectors


def slot_data(source, sectors):
    """The affine datum of each slot: untwisted for class 0, else twisted."""
    sides = (getattr(source, "base", source), getattr(source, "twisted", None))
    return [sides[g] for g in sectors]


def _labels(source, sectors, k, coords):
    """Slot labels at level k: leveled weights for 1,1,1, else SectorLabels."""
    lws = tuple(d.leveled(k, c) for d, c in zip(slot_data(source, sectors), coords))
    if sectors == (0, 0, 0):
        return lws
    return tuple(SectorLabel(_NAMES[g], lw) for g, lw in zip(sectors, lws))


def coefficient(source, k, sectors, labels):
    """The one coefficient N of `sectors` (from `check_pattern`) at level k
    whose slots have the Dynkin label tuples `labels`.

    Every route that applies runs, and MethodMismatch is raised unless they
    agree; (s,s->1) has only the Verlinde route.
    """
    triple = _labels(source, sectors, k, labels)
    if sectors == (0, 0, 0):
        datum = slot_data(source, sectors)[0]
        nk = kac_walton(datum, k, *triple)
        cols = dict.fromkeys((datum.leveled(k, (0,) * datum.rank), *triple))
        nv = verlinde(untwisted_S(datum, k, tuple(cols)), *triple)
    else:
        nv = twisted_verlinde(source, k, *triple)
        if sectors == (1, 1, 0):
            return nv
        untw, tw = triple[:2] if sectors[0] == 0 else triple[1::-1]
        nk = twisted_kac_walton(source, k, untw.weight, tw.weight, triple[2].weight)
    if nv != nk:
        raise MethodMismatch(triple, nv, nk)
    return nv


def fusion_table(source, k, pattern="1,1,1"):
    """Every coefficient of one sector pattern at level k over source, a
    CartanDatum or a FoldingData, from the gated blocks of
    `SectorMatrices` (1,1,1 over a folding reads its base datum).

    When both the S-matrix route and the folding route apply, every entry is
    computed twice and equality is checked before the table is returned.
    """
    sectors = check_pattern(source, pattern)
    untwisted = sectors == (0, 0, 0)
    datum = getattr(source, "base", source)
    mats = _sector_matrices(datum if untwisted else source, k)
    labels = [block.rows for block in mats.blocks]
    slots = tuple(labels[g] if untwisted else
                  tuple(SectorLabel(_NAMES[g], lw) for lw in labels[g])
                  for g in sectors)
    nv = _verlinde_blocks(*(mats.blocks[g].entries for g in sectors), mats.vac)
    header = (str(datum.type), k, "none" if untwisted else "diagram",
              pattern_text(sectors), slots, nv)
    if sectors == (1, 1, 0):
        return FusionTable(*header, "verlinde-only")
    system = ((lambda c: rep._system(datum.finite, c)) if untwisted else
              (lambda c: rep._restricted(datum.finite, c, source.iota_dual)))
    m = _ring_module(datum, k, labels[0], mats.blocks[-1].datum, labels[-1], system)
    _cross_check(nv, m if sectors[0] == 0 else m.transpose(1, 0, 2), slots)
    return FusionTable(*header, "verlinde+kac-walton" if untwisted
                       else "twisted-verlinde+twisted-kac-walton")


def _ring_module(datum, k, labels, affine, module, system):
    """out[lam, a, b] = N(lam, a; b) for the level-k labels lam of datum
    acting on the labels a, b of module, over affine: datum itself, or the
    twisted sector.  lam -> out[lam] represents the fusion ring.

    out[0] = I.  The generators are the fundamental weights omega_i that
    are labels; out[omega_i] comes from one `_klimyk_fold` over the pairs
    (a, system(omega_i)) for every a.  Every other lam, in order of exact
    height (h . lam with A^T h = 1, the simple roots being the columns of
    A), is mu + omega_i for the generator of least dimension with
    lam_i > 0 (a label, as a_i^vee <= level(lam)), and
    out[lam] = out[mu] out[omega_i] - sum_{nu != lam} c_nu out[nu], with c
    the folded V(mu) (x) V(omega_i) over datum: out[omega_i][mu] when the
    module is the ring, else a row of one `_klimyk_fold` over those pairs
    alone.  mu and each nu lie below lam, so they come first.

    RingRecursionFailure unless the vacuum is the first label, c_lam = 1
    and max out[mu] * max out[omega_i] * n < 2^63 (int64 matmul wraps
    without a word); NegativeCoefficient for a negative entry.
    """
    if any(labels[0].finite.coords):
        raise RingRecursionFailure(f"the first label is {labels[0]}, not the vacuum")
    index, l, n = _index(labels), datum.rank, len(module)
    units = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    nodes = [i for i in range(l) if units[i] in index]
    gens = [index[units[i]] for i in nodes]
    h, _ = rat.clear_denominators(rat.solve(rat.transpose(datum.A_fin), (1,) * l))
    steps = []
    for lam in sorted(range(len(labels)), key=lambda x: sum(map(mul, h, labels[x].finite.coords))):
        c = labels[lam].finite.coords
        if any(c) and lam not in gens:
            i = min((i for i in nodes if c[i]), key=lambda i: dim(datum, units[i]))
            steps.append((lam, index[tuple(x - (j == i) for j, x in enumerate(c))],
                          index[units[i]]))
    out = np.zeros((len(labels), n, n), dtype=np.int64)
    out[0] = np.eye(n, dtype=np.int64)
    g, a = np.divmod(np.arange(len(gens) * n), n)
    out[gens] = _klimyk_fold(affine, k, _index(module),
                             [rep._base(affine.finite, lw.finite.coords) for lw in module],
                             [system(units[i]) for i in nodes], a, g).reshape(-1, n, n)
    if affine is datum:
        rows = [out[w, mu] for _, mu, w in steps]
    else:
        used = sorted({w for _, _, w in steps})
        rows = _klimyk_fold(
            datum, k, index,
            [rep._base(datum.finite, labels[mu].finite.coords) for _, mu, _ in steps],
            [rep._system(datum.finite, labels[w].finite.coords) for w in used],
            np.arange(len(steps)), np.array([used.index(w) for _, _, w in steps]))
    for (lam, mu, w), c in zip(steps, rows):
        names = [labels[x].finite.coords for x in (lam, mu, w)]
        if c[lam] != 1:
            raise RingRecursionFailure(f"the folded product {names[1]} (x) {names[2]} "
                                       f"holds {names[0]} {c[lam]} times, not once")
        left, right = out[mu], out[w]
        if int(left.max()) * int(right.max()) * n >= 2 ** 63:
            raise RingRecursionFailure(f"the ring product of {names[1]} and "
                                       f"{names[2]} could leave the int64 range")
        rest = np.flatnonzero(c)
        rest = rest[rest != lam]
        out[lam] = left @ right - np.tensordot(c[rest], out[rest], 1)
        if out[lam].min() < 0:
            raise NegativeCoefficient(f"the fusion-ring recursion gives {names[0]} "
                                      f"an entry {out[lam].min()}")
    return out


def _cross_check(nv, nk, slots):
    """MethodMismatch at the first triple, in C order, where the Verlinde
    array nv and the Kac-Walton array nk differ."""
    diff = np.flatnonzero(nv != nk)
    if diff.size:
        i, j, m = np.unravel_index(diff[0], nv.shape)
        raise MethodMismatch((slots[0][i], slots[1][j], slots[2][m]),
                             int(nv[i, j, m]), int(nk[i, j, m]))
