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
side fills a second array that must equal the first before the table is
returned.  That side is `_klimyk_fold`, over blocks of pairs: the gated
blocks of the package's one Klimyk sum, `rep.klimyk_blocks`, then one
alcove fold per distinct component and a scatter through the label index.
An untwisted table runs each unordered pair once; a twisted one runs
Res V(lam1) (x) V(lam2^dag), whose restricted weights are W-invariant.
`kac_walton_row` and `twisted_kac_walton_row` are one-pair calls of it.
One thing is cached across tables: `_sector_matrices`, the S- and a-matrix
blocks (`SectorMatrices`) of a folding at a level, which `_twisted_table`
and `twisted_verlinde` share; its `lru_cache` keeps the last 8 (folding,
level) pairs.  `FusionTable.json_chunks` encodes each slot label once and
yields the entries from the array in C order, one first-slot plane at a
time, and `text_chunks` yields the text lines the same way: the CLI writes
the chunks as they come, so the array, not its text, sets the peak memory
of a table.  `to_json` and `to_text` join them.

`parse_pattern` reads a sector pattern into sector classes (0 untwisted,
1 sigma, 2 sigma^2), `pattern_text` writes their one canonical text, and
`check_pattern` also checks them (`_check_sectors`, as for SectorLabels).
`fusion_table` builds a table; `coefficient`, the dispatcher of one
coefficient, applies the level-0 vacuum rule or runs every route that
applies, which must agree.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartan import LeveledWeight, simple_roots
from .errors import (MethodMismatch, NegativeCoefficient, NegativeMultiplicity,
                     NotInteger, NotOrthonormal, SectorRuleViolation,
                     UnknownWeight, UnsupportedSectorPattern)
from . import rep
from .rep import dim, dominant_level_weights, is_level_dominant
from .smatrix import _label_json, compact_json, twisted_sector_S, untwisted_S

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
        first-slot plane at a time, then the closing brackets.

        Each slot label and the method tag are encoded once by
        `compact_json`; the entries are spliced from those fragments and the
        values of N, in C order.  No more than one plane of entries is held
        as text at once.
        """
        first, second, third = ([compact_json(_label_json(x)) for x in slot]
                                for slot in self.slots)
        thirds = [f'"m3":{x},"N":' for x in third]
        end = f',"method":{compact_json(self.method)}}}'
        head = compact_json({"schema": 1, "algebra": self.algebra, "level": self.level,
                             "twist": self.twist, "pattern": self.pattern})
        yield f'{head[:-1]},"entries":['
        for i, (m1, plane) in enumerate(zip(first, self.N)):
            items = []
            for m2, row in zip(second, plane.tolist()):
                pair = f'{{"m1":{m1},"m2":{m2},'
                items.extend(f"{pair}{m3}{n}{end}" for m3, n in zip(thirds, row))
            yield ("," if i else "") + ",".join(items)
        yield "]}"

    def to_json(self):
        """The chunks of `json_chunks`, joined."""
        return "".join(self.json_chunks())

    def text_chunks(self):
        """One line per entry, in C order, without a trailing newline, as an
        iterator of strings: the lines of one first-slot plane at a time."""
        width = max(len(str(x)) for slot in self.slots for x in slot)
        second, third = ([f"{str(x):<{width}}  " for x in slot] for slot in self.slots[1:])
        tail = f"  [{self.method}]"
        for i, (m1, plane) in enumerate(zip(self.slots[0], self.N)):
            m1 = f"{str(m1):<{width}}  "
            yield ("\n" if i else "") + "\n".join(
                f"{m1}{m2}{m3}{n}{tail}" for m2, row in zip(second, plane.tolist())
                for m3, n in zip(third, row))

    def to_text(self):
        """The chunks of `text_chunks`, joined."""
        return "".join(self.text_chunks())


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


def _position(index, lw, level):
    i = index.get(lw.finite.coords) if lw.level == level else None
    if i is None:
        raise ValueError(f"{lw} is not one of the level-{level} labels")
    return i


def verlinde(s_matrix, lam1, lam2, lam3):
    """Fusion coefficient from a square unitary untwisted S-matrix."""
    rows = s_matrix.rows
    if any(x != 0 for x in rows[0].finite.coords):
        raise ValueError("the vacuum row must come first (global label order)")
    index = _index(rows)
    s = s_matrix.entries
    a, b, c = (s[[_position(index, lw, rows[0].level)]] for lw in (lam1, lam2, lam3))
    return int(_verlinde_blocks(a, b, c, s[0])[0, 0, 0])


def _require_level_dominant(affine_datum, lw):
    if not is_level_dominant(affine_datum, lw):
        raise ValueError(f"{lw} is not a level-{lw.level} dominant weight "
                         f"of {affine_datum.type}")


def _alcove(affine, k, shifted):
    """`weyl.alcove_fold` of each row of rho-shifted labels, by `rep._reflect` on
    (x0, x) with the affine simple roots.  Returns (signs, folded labels)."""
    x0 = k + affine.hdual - shifted @ np.array(affine.comarks[1:], dtype=np.int64)
    labels = np.column_stack([x0, shifted])
    signs = rep._reflect(labels, np.array(simple_roots(affine.A), dtype=np.int64))
    return signs, labels[:, 1:]


def _klimyk_fold(affine, k, index, bases, systems, b, s):
    """Kac-Walton coefficients of the pairs (bases[b[p]], systems[s[p]]):
    each distinct component of the gated `rep.klimyk_blocks` is folded into
    the alcove once (`_fold_labels`).  A negative folded sum raises
    NegativeMultiplicity.  Returns int64 arrays (p, m, n): N = n at
    third-slot index m of pair p."""
    folds, cells = np.zeros((0, 2), dtype=np.int64), []
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
        cells.append((cell[:, 0], cell[:, 1], n))
    return tuple(np.concatenate(x) for x in zip(*cells))


def _fold_labels(affine, k, index, shifted):
    """(sign, third-slot index) of each rho-shifted component folded into the
    alcove; UnknownWeight for a fold outside index."""
    signs, folded = _alcove(affine, k, np.array(shifted, dtype=np.int64))
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
    row = kac_walton_row(affine_datum, k, lam1, lam2)
    return row.get(tuple(lam3.finite.coords), 0)


def kac_walton_row(affine_datum, k, lam1, lam2):
    """All coefficients N_{lam1, lam2}^{*} at once; keys are label tuples.
    One pair of `_klimyk_fold`, over the weights of the smaller factor."""
    for lw in (lam1, lam2):
        _require_level_dominant(affine_datum, lw)
    fin = affine_datum.finite
    big, small = sorted((lam1.finite.coords, lam2.finite.coords),
                        key=lambda c: dim(fin, c), reverse=True)
    return _one_pair(affine_datum, k, rep._base(fin, big), rep._system(fin, small))


def twisted_kac_walton(folding, k, lam1, lam2_dag, lam3_dag):
    row = twisted_kac_walton_row(folding, k, lam1, lam2_dag)
    return row.get(tuple(lam3_dag.finite.coords), 0)


def twisted_kac_walton_row(folding, k, lam1, lam2_dag):
    """Coefficients N_{lam1, lam2^dag}^{*}: Res lam1 (x) V(lam2^dag) over the
    twisted finite part, whose W-invariant weights (`rep._restricted`) enter
    the Klimyk sum of one pair of `_klimyk_fold`."""
    _require_level_dominant(folding.base, lam1)
    _require_level_dominant(folding.twisted, lam2_dag)
    return _one_pair(folding.twisted, k,
                     rep._base(folding.twisted.finite, lam2_dag.finite.coords),
                     rep._restricted(folding.base.finite, lam1.finite.coords,
                                     folding.iota_dual))


def _one_pair(affine, k, base, system):
    labels = dominant_level_weights(affine, k)
    zero = np.zeros(1, dtype=np.int64)
    _, m, n = _klimyk_fold(affine, k, _index(labels), [base], [system], zero, zero)
    return {labels[x].finite.coords: v for x, v in zip(m.tolist(), n.tolist())}


class SectorMatrices:
    """The S-matrix blocks entering the twisted Verlinde sums.

    scol: untwisted S on the sigma-stable columns sym alone (rows over all
    level-k weights, base_labels), built by `untwisted_S` with those column
    labels, so a table never builds the full S; its columns are gated
    orthonormal, scol^H scol = I within UNITARITY_TOLERANCE (NotOrthonormal).
    a: the twisted-sector block, rows over the twisted weights
    (twisted_labels), columns sym, the sector block's own column labels
    (`fold.symmetric_weights`).
    """

    def __init__(self, folding, k):
        sector = twisted_sector_S(folding, k)
        self.sym = sector.cols
        s = untwisted_S(folding.base, k, self.sym)
        self.base_labels = s.rows
        self.base_index = _index(s.rows)
        self.scol = s.entries
        # np.einsum on the calling thread, as in ModularMatrix.unitarity_defect;
        # a NaN fails.
        gram = np.einsum("ij,ik->jk", self.scol.conj(), self.scol)
        defect = np.abs(gram - np.eye(len(self.sym))).max()
        if not defect <= UNITARITY_TOLERANCE:
            raise NotOrthonormal(
                f"{folding.base.type} level {k}: the sigma-stable columns of S are "
                f"off orthonormal by {defect:.3e} (tolerance {UNITARITY_TOLERANCE})")
        self.a = sector.entries
        self.twisted_labels = sector.rows
        self.twisted_index = _index(sector.rows)
        self.vac = self.scol[0]


# Each entry holds whole S-matrix blocks; a small bound keeps a long-lived
# process from growing without limit.
@lru_cache(maxsize=8)
def _sector_matrices(folding, k):
    return SectorMatrices(folding, k)


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
    blocks = ((mats.scol, mats.base_index), (mats.a, mats.twisted_index))

    def row(g, label):
        block, index = blocks[g]
        return block[[_position(index, label.weight, k)]]

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


def _vacua(source, sectors):
    """Level 0, where no modular matrix exists: each slot holds only the
    vacuum, which fuses with itself once."""
    return _labels(source, sectors, 0,
                   [(0,) * d.rank for d in slot_data(source, sectors)])


def coefficient(source, k, sectors, labels):
    """The one coefficient N of `sectors` (from `check_pattern`) at level k
    whose slots have the Dynkin label tuples `labels`.

    Every route that applies runs, and MethodMismatch is raised unless they
    agree; (s,s->1) has only the Verlinde route.
    """
    triple = _labels(source, sectors, k, labels)
    if k == 0:
        if triple != _vacua(source, sectors):
            raise ValueError("at level 0 the only weight is the vacuum")
        return 1
    if sectors == (0, 0, 0):
        datum = slot_data(source, sectors)[0]
        nk = kac_walton(datum, k, *triple)
        nv = verlinde(untwisted_S(datum, k), *triple)
    else:
        nv = twisted_verlinde(source, k, *triple)
        if sectors == (1, 1, 0):
            return nv
        untw, tw = triple[:2] if sectors[0] == 0 else triple[1::-1]
        nk = twisted_kac_walton(source, k, untw.weight, tw.weight, triple[2].weight)
    if nv != nk:
        raise MethodMismatch(triple, nv, nk)
    return nv


def fusion_table(folding_or_datum, k, pattern="1,1,1"):
    """Batch driver over all weight triples of one sector pattern.

    When both the S-matrix route and the folding route apply, every entry is
    computed twice and equality is checked before the table is returned.
    """
    sectors = check_pattern(folding_or_datum, pattern)
    untwisted = sectors == (0, 0, 0)
    datum = getattr(folding_or_datum, "base", folding_or_datum)
    header = (str(datum.type), k, "none" if untwisted else "diagram",
              pattern_text(sectors))
    if k == 0:
        vacua = _vacua(folding_or_datum, sectors)
        return FusionTable(*header, tuple((v,) for v in vacua),
                           np.ones((1, 1, 1), dtype=np.int64), "kac-walton")
    if untwisted:
        return _untwisted_table(datum, k, header)
    return _twisted_table(folding_or_datum, k, header, sectors)


def _untwisted_table(datum, k, header):
    s = untwisted_S(datum, k)
    labels = s.rows
    nv = _verlinde_blocks(s.entries, s.entries, s.entries, s.entries[0])
    fin = datum.finite
    systems = [rep._system(fin, lw.finite.coords) for lw in labels]
    bases = [rep._base(fin, lw.finite.coords) for lw in labels]
    # V_i (x) V_j = V_j (x) V_i: one pair per unordered {i, j}, over the
    # weights of the smaller factor j, fills both orders.
    order = sorted(range(len(labels)), key=lambda i: (bases[i][1], i))
    i, j = np.array([(i, j) for p, j in enumerate(order) for i in order[p:]]).T
    p, m, n = _klimyk_fold(datum, k, _index(labels), bases, systems, i, j)
    nk = np.zeros_like(nv)
    nk[i[p], j[p], m] = n
    nk[j[p], i[p], m] = n
    slots = (labels,) * 3
    _cross_check(nv, nk, slots)
    return FusionTable(*header, slots, nv, "verlinde+kac-walton")


def _twisted_table(folding, k, header, sectors):
    mats = _sector_matrices(folding, k)
    blocks = (mats.scol, mats.a)
    labels = (mats.base_labels, mats.twisted_labels)
    slots = tuple(tuple(SectorLabel(_NAMES[c], lw) for lw in labels[c])
                  for c in sectors)
    nv = _verlinde_blocks(*(blocks[c] for c in sectors), mats.vac)
    if sectors == (1, 1, 0):
        return FusionTable(*header, slots, nv, "verlinde-only")
    # Res V(lam1) (x) V(lam2^dag) for every untwisted lam1 and twisted lam2^dag.
    systems = [rep._restricted(folding.base.finite, lw.finite.coords, folding.iota_dual)
               for lw in labels[0]]
    bases = [rep._base(folding.twisted.finite, lw.finite.coords) for lw in labels[1]]
    u, t = np.divmod(np.arange(len(systems) * len(bases)), len(bases))
    p, m, n = _klimyk_fold(folding.twisted, k, mats.twisted_index, bases, systems, t, u)
    nk = np.zeros_like(nv)
    if sectors[0] == 0:
        nk[u[p], t[p], m] = n
    else:
        nk[t[p], u[p], m] = n
    _cross_check(nv, nk, slots)
    return FusionTable(*header, slots, nv, "twisted-verlinde+twisted-kac-walton")


def _cross_check(nv, nk, slots):
    """MethodMismatch at the first triple, in C order, where the Verlinde
    array nv and the Kac-Walton array nk differ."""
    diff = np.flatnonzero(nv != nk)
    if diff.size:
        i, j, m = np.unravel_index(diff[0], nv.shape)
        raise MethodMismatch((slots[0][i], slots[1][j], slots[2][m]),
                             int(nv[i, j, m]), int(nk[i, j, m]))
