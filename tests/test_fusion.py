import itertools
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import twistfuse
import twistfuse.cli as cli
import twistfuse.fusion as fusion_mod
import twistfuse.rep as rep_mod
from twistfuse.cartan import AFFINE_R1, AFFINE_R2, LieType, build_cartan, parse_type
from twistfuse.errors import (MethodMismatch, NegativeCoefficient, NotInteger,
                              RingRecursionFailure, SectorRuleViolation,
                              TwistfuseError, UnsupportedSectorPattern)
from twistfuse.fold import build_folding
from twistfuse.fusion import (SectorLabel, check_pattern, coefficient,
                              fusion_table, kac_walton, kac_walton_row,
                              parse_pattern, pattern_text, twisted_kac_walton,
                              twisted_kac_walton_row, twisted_verlinde, verlinde)
from twistfuse.rep import dominant_level_weights
from twistfuse.smatrix import _label_json, compact_json, twisted_a, untwisted_S
from twistfuse.weyl import alcove_fold

from oracles import (fusion_table_json_dict, fusion_table_text,
                     per_entry_json_chunks, per_entry_text_chunks,
                     per_pair_kac_walton_table, per_pair_twisted_kac_walton_table,
                     scalar_alcove_fold, scalar_kac_walton_row,
                     scalar_twisted_kac_walton_row)


@pytest.fixture(scope="module")
def a1():
    return build_cartan(LieType("A", 1, AFFINE_R1))


@pytest.fixture(scope="module")
def a3_folding():
    return build_folding(LieType("A", 3, AFFINE_R1))


class TestVerlinde:
    def test_a1_level1(self, a1):
        s = untwisted_S(a1, 1)
        one = a1.leveled(1, (1,))
        vac = a1.leveled(1, (0,))
        assert verlinde(s, one, one, vac) == 1
        assert verlinde(s, one, one, one) == 0

    def test_unit_law(self, a1):
        for name, k in [("A2", 2), ("B2", 2), ("G2", 1)]:
            d = build_cartan(parse_type(name, AFFINE_R1))
            s = untwisted_S(d, k)
            vac = dominant_level_weights(d, k)[0]
            for lw in dominant_level_weights(d, k):
                for mu in dominant_level_weights(d, k):
                    expected = 1 if lw == mu else 0
                    assert verlinde(s, vac, lw, mu) == expected

    def test_not_integer(self, a1):
        # A unit phase on one column keeps the columns orthonormal, so the
        # gate lets it through, and the sum N(1, 1; 0) = 1 turns by it twice.
        s = untwisted_S(a1, 1)
        s.entries = s.entries.copy()
        s.entries[:, 1] *= np.exp(0.3j)  # corrupt
        one = a1.leveled(1, (1,))
        vac = a1.leveled(1, (0,))
        with pytest.raises((NotInteger, NegativeCoefficient)):
            verlinde(s, one, one, vac)

    def test_takes_an_untwisted_s_holding_its_labels(self, a3_folding):
        # A twisted a-matrix is a ValueError, not a coefficient (it gave
        # 1), and so is a column block that lacks the vacuum or a label.
        base = a3_folding.base
        vac, one = base.leveled(2, (0, 0, 0)), base.leveled(2, (1, 0, 0))
        with pytest.raises(ValueError, match="needs an untwisted S"):
            verlinde(twisted_a(a3_folding, 2), vac, vac, vac)
        for cols, labels in [((vac,), (vac, vac, one)), ((one,), (one, one, one))]:
            with pytest.raises(ValueError, match="is not a column of the S block"):
                verlinde(untwisted_S(base, 2, cols), *labels)
        assert verlinde(untwisted_S(base, 2, (one, vac)), vac, one, one) == 1


def test_kac_walton_needs_an_untwisted_datum():
    # As untwisted_S and fusion_table: kac_walton gave 1 for the A3^(2)
    # labels below.
    twisted = build_cartan(LieType("A", 3, AFFINE_R2))
    omega, vac = twisted.leveled(1, (1, 0)), twisted.leveled(1, (0, 0))
    with pytest.raises(ValueError, match="kac_walton needs an untwisted affine datum"):
        kac_walton(twisted, 1, omega, omega, vac)
    with pytest.raises(ValueError, match="kac_walton needs an untwisted affine datum"):
        kac_walton_row(twisted, 1, omega, omega)
    with pytest.raises(ValueError, match="needs an untwisted affine datum"):
        fusion_table(twisted, 1)


def corrupt_kernel(monkeypatch, affine, hit):
    """Patch fusion._klimyk_fold to add 1 to the cells hit(pairs, thirds) of
    its calls over affine, among the nonzero cells of its rows: cell x is
    the coefficient of the third-slot label thirds[x] in the pair
    pairs[x] = (first-factor labels, second-factor name)."""
    real = fusion_mod._klimyk_fold

    def corrupted(aff, k, index, bases, systems, b, s):
        rows = real(aff, k, index, bases, systems, b, s)
        if aff is affine:
            p, m = np.nonzero(rows)
            pairs = [(tuple(x - 1 for x in bases[b[x]][0]), systems[s[x]][0])
                     for x in p.tolist()]
            names = {x: c for c, x in index.items()}
            cells = hit(pairs, [names[x] for x in m.tolist()])
            rows = rows.copy()
            rows[p[cells], m[cells]] += 1
        return rows

    monkeypatch.setattr(fusion_mod, "_klimyk_fold", corrupted)


def leading_cells(pairs, thirds):
    """hit for `corrupt_kernel`: the cell mu + omega of each pair (mu, omega)."""
    return [x for x, (mu, omega) in enumerate(pairs)
            if thirds[x] == tuple(map(sum, zip(mu, omega)))]


class TestKacWalton:
    def test_a1_level1(self, a1):
        one = a1.leveled(1, (1,))
        vac = a1.leveled(1, (0,))
        assert kac_walton(a1, 1, one, one, vac) == 1
        assert kac_walton(a1, 1, one, one, one) == 0

    def test_vacuum_delta(self, a1):
        d = build_cartan(LieType("C", 2, AFFINE_R1))
        vac = dominant_level_weights(d, 2)[0]
        for lw in dominant_level_weights(d, 2):
            row = kac_walton_row(d, 2, vac, lw)
            assert row == {tuple(lw.finite.coords): 1}

    def test_a1_level2(self, a1):
        one = a1.leveled(2, (1,))
        two = a1.leveled(2, (2,))
        assert kac_walton(a1, 2, one, one, two) == 1

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [(1, 1, 0), (2, 5, 5), (2, -1, 0)],
                             ids=["other-level", "above-level", "not-dominant"])
    def test_labels_are_level_k_dominant(self, slot, bad):
        # Every label of either untwisted route, lam3 included, is checked
        # against the level k of the call, as the Verlinde routes do.
        a2 = build_cartan(LieType("A", 2, AFFINE_R1))
        labels = [a2.leveled(2, (1, 0)), a2.leveled(2, (0, 1)), a2.leveled(2, (0, 0))]
        labels[slot] = a2.leveled(bad[0], bad[1:])
        with pytest.raises(ValueError, match="is not a level-2 dominant weight"):
            kac_walton(a2, 2, *labels)
        if slot < 2:
            with pytest.raises(ValueError, match="is not a level-2 dominant weight"):
                kac_walton_row(a2, 2, *labels[:2])

    @pytest.mark.parametrize("name,k", [
        ("A1", 3), ("A2", 2), ("A3", 1), ("B2", 2), ("G2", 2),
    ])
    def test_matches_verlinde(self, name, k):
        d = build_cartan(parse_type(name, AFFINE_R1))
        # fusion_table raises MethodMismatch if the routes disagree anywhere
        table = fusion_table(d, k)
        n = len(dominant_level_weights(d, k))
        assert len(list(table.items())) == n ** 3

    def test_method_mismatch_surfaces(self, monkeypatch):
        # Each cell of the generator rows, raised by 1, is caught: by the
        # recursion's gates (a leading coefficient, a negative entry) or by
        # the cross-check, which must see some of them itself.
        d = build_cartan(parse_type("A2", AFFINE_R1))
        with monkeypatch.context() as patch:
            calls = _recorded(patch, fusion_mod, "_klimyk_fold")
            fusion_table(d, 2)
        (_, rows), = calls
        caught = []
        for cell in range(np.count_nonzero(rows)):
            with monkeypatch.context() as patch:
                corrupt_kernel(patch, d, lambda pairs, thirds: [cell])
                with pytest.raises((MethodMismatch, NegativeCoefficient,
                                    RingRecursionFailure)) as info:
                    fusion_table(d, 2)
            caught.append(info.type)
            if info.type is MethodMismatch:
                assert info.value.value_a != info.value.value_b
        assert set(caught) == {MethodMismatch, NegativeCoefficient,
                               RingRecursionFailure}

    def test_leading_cell_gate(self, monkeypatch):
        d = build_cartan(parse_type("A2", AFFINE_R1))
        corrupt_kernel(monkeypatch, d, leading_cells)
        with pytest.raises(RingRecursionFailure, match="holds .* 2 times, not once"):
            fusion_table(d, 2)


class TestTwistedRoutes:
    def test_vacuum_branching_delta(self, a3_folding):
        f = a3_folding
        vac = f.base.leveled(1, (0, 0, 0))
        for lw in dominant_level_weights(f.twisted, 1):
            for mu in dominant_level_weights(f.twisted, 1):
                n = twisted_kac_walton(f, 1, vac, lw, mu)
                assert n == (1 if lw == mu else 0)

    def test_a3_k1_cross_validated(self, a3_folding):
        table = fusion_table(a3_folding, 1, "1,s,s")
        assert table.method == "twisted-verlinde+twisted-kac-walton"
        # the sigma-fixed node-2 weight acts like a simple current square root
        pairs = {(tuple(m1.weight.finite.coords),
                  tuple(m2.weight.finite.coords),
                  tuple(m3.weight.finite.coords)): n
                 for (m1, m2, m3), n in table.items()}
        assert pairs[((0, 1, 0), (0, 0), (0, 0))] == 1
        assert pairs[((0, 1, 0), (1, 0), (1, 0))] == 1
        assert pairs[((1, 0, 0), (0, 0), (1, 0))] == 1
        assert pairs[((1, 0, 0), (0, 0), (0, 0))] == 0

    def test_s1s_matches_1ss(self, a3_folding):
        t1 = fusion_table(a3_folding, 1, "1,s,s")
        t2 = fusion_table(a3_folding, 1, "s,1,s")
        flip = {(m2, m1, m3): n for (m1, m2, m3), n in t1.items()}
        assert flip == dict(t2.items())

    @pytest.mark.parametrize("type_,order,k", [
        (LieType("A", 3, AFFINE_R1), None, 2),
        (LieType("D", 4, AFFINE_R1), 2, 1),
        (LieType("D", 4, AFFINE_R1), 2, 2),
        (LieType("D", 4, AFFINE_R1), 3, 1),
        (LieType("D", 4, AFFINE_R1), 3, 2),
        (LieType("A", 5, AFFINE_R1), None, 1),
        (LieType("D", 5, AFFINE_R1), 2, 1),
    ])
    def test_cross_validation_grids(self, type_, order, k):
        f = build_folding(type_, order)
        fusion_table(f, k, "1,s,s")  # raises MethodMismatch on disagreement

    def test_sector_rule(self, a3_folding):
        f = a3_folding
        vac = SectorLabel("untwisted", f.base.leveled(1, (0, 0, 0)))
        tw = SectorLabel("sigma", f.twisted.leveled(1, (0, 0)))
        with pytest.raises(SectorRuleViolation):
            twisted_verlinde(f, 1, tw, tw, tw)
        with pytest.raises(SectorRuleViolation):
            twisted_verlinde(f, 1, vac, tw, vac)
        with pytest.raises(SectorRuleViolation):
            fusion_table(f, 1, "s,s,s")

    def test_p3_restrictions(self):
        f = build_folding(LieType("D", 4, AFFINE_R1), 3)
        with pytest.raises(SectorRuleViolation):
            fusion_table(f, 1, "s,s,1")
        with pytest.raises(UnsupportedSectorPattern):
            fusion_table(f, 1, "s,s,s2")
        tw = SectorLabel("sigma", f.twisted.leveled(1, (0, 0)))
        vac = SectorLabel("untwisted", f.base.leveled(1, (0, 0, 0, 0)))
        with pytest.raises(SectorRuleViolation):
            twisted_verlinde(f, 1, tw, tw, vac)  # sigma^2 != 1 at order 3

    def test_ss1_consistency_only(self, a3_folding):
        for k in (1, 2):
            table = fusion_table(a3_folding, k, "s,s,1")
            assert table.method == "verlinde-only"
            assert all(n >= 0 for _, n in table.items())

    def test_method_mismatch_surfaces(self, a3_folding, monkeypatch):
        # The first cell of a twisted generator matrix M_{omega_i}, which
        # the level-2 recursion also multiplies by.
        real = fusion_mod._klimyk_fold

        def corrupted(affine, *args):
            rows = real(affine, *args)
            if affine is a3_folding.twisted:
                rows = rows.copy()
                rows.flat[np.flatnonzero(rows)[0]] += 1
            return rows

        monkeypatch.setattr(fusion_mod, "_klimyk_fold", corrupted)
        with pytest.raises(MethodMismatch) as info:
            fusion_table(a3_folding, 2, "1,s,s")
        assert info.value.value_a != info.value.value_b

    def test_untwisted_leading_cell_gate(self, a3_folding, monkeypatch):
        # The twisted recursion reads its c from the untwisted rows.
        corrupt_kernel(monkeypatch, a3_folding.base, leading_cells)
        with pytest.raises(RingRecursionFailure, match="not once"):
            fusion_table(a3_folding, 2, "s,1,s")

    def test_level0_trivial(self, a3_folding):
        table = fusion_table(a3_folding, 0, "1,s,s")
        assert [n for _, n in table.items()] == [1]

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [(1, 1, 0), (2, 7, 7), (2, -1, 0)],
                             ids=["other-level", "above-level", "not-dominant"])
    def test_labels_are_level_k_dominant(self, a3_folding, slot, bad):
        base, tw = a3_folding.base, a3_folding.twisted
        labels = [base.leveled(2, (1, 0, 0)), tw.leveled(2, (1, 0)), tw.leveled(2, (0, 0))]
        datum = base if slot == 0 else tw
        labels[slot] = datum.leveled(bad[0], bad[1:] + (0,) * (datum.rank - 2))
        with pytest.raises(ValueError, match="is not a level-2 dominant weight"):
            twisted_kac_walton(a3_folding, 2, *labels)
        if slot < 2:
            with pytest.raises(ValueError, match="is not a level-2 dominant weight"):
                twisted_kac_walton_row(a3_folding, 2, *labels[:2])

    @pytest.mark.parametrize("source,pattern,method", [
        ("datum", "1,1,1", "verlinde+kac-walton"),
        ("folding", "1,1,1", "verlinde+kac-walton"),
        ("folding", "1,s,s", "twisted-verlinde+twisted-kac-walton"),
        ("folding", "s,1,s", "twisted-verlinde+twisted-kac-walton"),
        ("folding", "s,s,1", "verlinde-only"),
    ])
    def test_level0_tables_run_their_routes(self, a3_folding, source, pattern, method):
        # Level 0 is no special case: the vacuum fuses with itself once by
        # every route that applies, and the tag names those routes.
        table = fusion_table(a3_folding if source == "folding" else a3_folding.base,
                             0, pattern)
        assert [n for _, n in table.items()] == [1]
        assert table.method == method


def _recorded(monkeypatch, module, name):
    """Replace module.<name> by a wrapper that records (args, result)."""
    real = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, recording)
    return calls


def _generators(datum, k):
    """The label tuples of the fundamental weights that are level-k labels."""
    units = [tuple(int(i == j) for j in range(datum.rank)) for i in range(datum.rank)]
    labels = {lw.finite.coords for lw in dominant_level_weights(datum, k)}
    return [u for u in units if u in labels]


class TestComputeOnce:
    """A table runs Klimyk for the generators only: one weight system per
    fundamental weight that is a label, one kernel call over the pairs
    (mu, omega_i), each once, and one alcove fold of each distinct tensor
    component of a call; the fusion-ring recursion does the rest."""

    def record(self, monkeypatch, system):
        return (_recorded(monkeypatch, rep_mod, system),
                _recorded(monkeypatch, fusion_mod, "_klimyk_fold"),
                _recorded(monkeypatch, fusion_mod, "alcove_fold"))

    @staticmethod
    def kernel_pairs(call, folds):
        """The (first, second) factor indices of one kernel call, after
        checking that it folds each distinct component once."""
        (affine, _, _, _, _, b, s), _ = call
        folded = [tuple(x) for (aff, _, shifted), _ in folds if aff is affine
                  for x in shifted.tolist()]
        assert len(folded) == len(set(folded))
        return list(zip(b.tolist(), s.tolist()))

    @pytest.mark.parametrize("name,k", [("A2", 3), ("B2", 2), ("G2", 2)])
    def test_untwisted_rows(self, monkeypatch, name, k):
        d = build_cartan(parse_type(name, AFFINE_R1))
        systems, kernel, folds = self.record(monkeypatch, "_system")
        fusion_table(d, k)
        n = len(dominant_level_weights(d, k))
        gens = _generators(d, k)
        assert sorted(args[1] for args, _ in systems) == sorted(gens)
        assert len(kernel) == 1
        pairs = self.kernel_pairs(kernel[0], folds)
        assert sorted(pairs) == sorted(itertools.product(range(n), range(len(gens))))

    @pytest.mark.parametrize("type_,order,k,pattern", [
        (LieType("A", 3, AFFINE_R1), None, 2, "1,s,s"),
        (LieType("A", 3, AFFINE_R1), None, 2, "s,1,s"),
        (LieType("D", 4, AFFINE_R1), 3, 2, "1,s,s"),
    ])
    def test_twisted_rows(self, monkeypatch, type_, order, k, pattern):
        f = build_folding(type_, order)
        systems, kernel, folds = self.record(monkeypatch, "_restricted")
        plain = _recorded(monkeypatch, rep_mod, "_system")
        fusion_table(f, k, pattern)
        gens = _generators(f.base, k)
        assert sorted(args[1] for args, _ in systems) == sorted(gens)
        # The restricted systems of the generators and the plain ones of the
        # generators the untwisted steps use: no other weight system.
        assert {args[1] for args, _ in plain} <= set(gens)
        # One call over Res V(omega_i) (x) V(a) for every twisted a, and one
        # over the untwisted pairs (mu, omega_i) of the recursion steps.
        assert [call[0][0] for call in kernel] == [f.twisted, f.base]
        nt = len(dominant_level_weights(f.twisted, k))
        pairs = self.kernel_pairs(kernel[0], folds)
        assert sorted(pairs) == sorted(itertools.product(range(nt), range(len(gens))))
        n = len(dominant_level_weights(f.base, k))
        steps = self.kernel_pairs(kernel[1], folds)
        assert len(steps) == len(set(steps)) == n - 1 - len(gens)

    def test_no_untwisted_klimyk_when_every_label_is_a_generator(self, monkeypatch):
        # E6 at level 1: the vacuum and omega_1, omega_6.
        f = build_folding(parse_type("E6", AFFINE_R1))
        systems = _recorded(monkeypatch, rep_mod, "_system")
        klimyk = _recorded(monkeypatch, rep_mod, "klimyk_blocks")
        fusion_table(f, 1, "1,s,s")
        # The untwisted call has no pairs, and yields no block.
        assert [(args[0], len(args[3]) > 0) for args, _ in klimyk] == [
            (f.twisted.finite, True), (f.base.finite, False)]
        assert sorted(args[1] for args, _ in systems) == sorted(_generators(f.base, 1))


def _scalar_table(table, row):
    """N of a table rebuilt from scalar rows: row(a, b) for the first-slot
    label a and second-slot label b gives {third-slot label: N}."""
    coords = [[getattr(x, "weight", x).finite.coords for x in slot]
              for slot in table.slots]
    index = {c: m for m, c in enumerate(coords[2])}
    n = np.zeros_like(table.N)
    for i, a in enumerate(coords[0]):
        for j, b in enumerate(coords[1]):
            for key, v in row(a, b).items():
                n[i, j, index[key]] = v
    return n


@pytest.mark.parametrize("name,k", [
    ("A1", 3), ("A2", 3), ("A3", 3), ("B2", 3), ("C2", 3), ("G2", 3),
    ("D4", 2), ("B3", 2),
])
def test_untwisted_table_matches_scalar_rows(name, k):
    d = build_cartan(parse_type(name, AFFINE_R1))
    table = fusion_table(d, k)
    n = _scalar_table(table, lambda a, b: scalar_kac_walton_row(d, k, a, b))
    assert (n == table.N).all()


@pytest.mark.parametrize("type_,order,k", [
    (LieType("A", 3, AFFINE_R1), None, 2),
    (LieType("D", 4, AFFINE_R1), 2, 2),
    (LieType("D", 4, AFFINE_R1), 3, 2),
    (LieType("D", 5, AFFINE_R1), None, 1),
    (LieType("E", 6, AFFINE_R1), None, 1),
])
@pytest.mark.parametrize("pattern", ["1,s,s", "s,1,s"])
def test_twisted_table_matches_scalar_rows(type_, order, k, pattern):
    f = build_folding(type_, order)
    table = fusion_table(f, k, pattern)
    if pattern == "1,s,s":
        row = lambda a, b: scalar_twisted_kac_walton_row(f, k, a, b)
    else:
        row = lambda a, b: scalar_twisted_kac_walton_row(f, k, b, a)
    assert (_scalar_table(table, row) == table.N).all()


@pytest.mark.parametrize("name,k", [
    ("A2", 5), ("B2", 4), ("C3", 3), ("G2", 5), ("D4", 3), ("F4", 2), ("E6", 2),
])
def test_ring_table_equals_per_pair_oracle(name, k):
    # The table's Kac-Walton array passed the cross-check, so it is N.
    d = build_cartan(parse_type(name, AFFINE_R1))
    labels = dominant_level_weights(d, k)
    assert (fusion_table(d, k).N == per_pair_kac_walton_table(d, k, labels)).all()


@pytest.mark.parametrize("name,order,k", [
    ("A3", None, 4), ("D4", 2, 3), ("D4", 3, 3), ("A5", None, 3), ("D5", None, 3),
    ("E6", None, 2),
])
def test_twisted_ring_table_equals_per_pair_oracle(name, order, k):
    f = build_folding(parse_type(name, AFFINE_R1), order)
    base, twisted = (dominant_level_weights(x, k) for x in (f.base, f.twisted))
    m = per_pair_twisted_kac_walton_table(f, k, base, twisted)
    assert (fusion_table(f, k, "1,s,s").N == m).all()
    assert (fusion_table(f, k, "s,1,s").N == m.transpose(1, 0, 2)).all()


def test_block_budget_does_not_change_tables(monkeypatch):
    """A budget below every weight system makes one block per pair."""
    a2 = build_cartan(parse_type("A2", AFFINE_R1))
    a3 = build_folding(LieType("A", 3, AFFINE_R1))
    jobs = [(a2, 3, "1,1,1"), (a3, 2, "1,s,s")]
    wide = [fusion_table(src, k, p).to_json() for src, k, p in jobs]
    monkeypatch.setattr(rep_mod, "_POINTS", 2)
    assert [fusion_table(src, k, p).to_json() for src, k, p in jobs] == wide


def test_group_sums_match_a_dict():
    rng = np.random.default_rng(7)
    # Labels near 2**40 overflow a mixed-radix key of four columns, so the
    # key is renumbered on the way.
    pool = np.concatenate([rng.integers(-3, 4, (40, 4)),
                           rng.integers(-2 ** 40, 2 ** 40, (40, 4))])
    rows = pool[rng.integers(0, len(pool), 300)]
    values = rng.integers(-2, 3, len(rows))
    sums = {}
    for row, v in zip(map(tuple, rows.tolist()), values.tolist()):
        sums[row] = sums.get(row, 0) + v
    expect = sorted((row, v) for row, v in sums.items() if v)
    got_rows, got = rep_mod._group_sums(rows, values)
    assert list(zip(map(tuple, got_rows.tolist()), got.tolist())) == expect


@pytest.mark.parametrize("type_,k,window", [
    (LieType("A", 1, AFFINE_R1), 3, 8),
    (LieType("A", 2, AFFINE_R1), 3, 5),
    (LieType("A", 3, AFFINE_R2), 2, 4),
    (LieType("G", 2, AFFINE_R1), 2, 4),
])
def test_alcove_fold_matches_scalar_fold(type_, k, window):
    d = build_cartan(type_)
    pts = np.array(list(itertools.product(range(-window, window + 1), repeat=d.rank)))
    signs, folded = alcove_fold(d, k, pts.copy())
    for x, sign, y in zip(pts.tolist(), signs.tolist(), folded.tolist()):
        expected_sign, expected_rep = scalar_alcove_fold(d, k, tuple(x))
        assert expected_sign == sign
        if sign:
            assert expected_rep == tuple(y)


def _emitter_cases():
    cases = [(name, None, k, "1,1,1")
             for name in ("A1", "A2", "A3", "B2", "C2", "G2") for k in (0, 1, 2)]
    for name, order in (("A3", None), ("D4", 2), ("D4", 3)):
        patterns = ["1,s,s", "s,1,s"] + (["s,s,1"] if order != 3 else [])
        if name == "D4" and order == 2:
            patterns.append("1,1,1")
        cases += [(name, order, k, p) for p in patterns for k in (0, 1, 2)]
    return cases


@pytest.mark.parametrize("name,order,k,pattern", _emitter_cases())
def test_emitter_matches_dict_oracle(name, order, k, pattern):
    type_ = parse_type(name, AFFINE_R1)
    source = build_cartan(type_) if order is None and pattern == "1,1,1" \
        else build_folding(type_, order)
    table = fusion_table(source, k, pattern)
    expected = json.dumps(fusion_table_json_dict(table), separators=(",", ":"))
    assert table.to_json() == expected


@pytest.mark.parametrize("name,order,k,pattern", _emitter_cases())
def test_chunks_are_first_slot_planes(name, order, k, pattern):
    type_ = parse_type(name, AFFINE_R1)
    source = build_cartan(type_) if order is None and pattern == "1,1,1" \
        else build_folding(type_, order)
    table = fusion_table(source, k, pattern)
    # One chunk per first-slot label, between the header and the brackets.
    chunks = list(table.json_chunks())
    assert len(chunks) == len(table.slots[0]) + 2
    assert chunks[0].endswith('"entries":[') and chunks[-1] == "]}"
    assert "".join(chunks) == table.to_json()
    text = list(table.text_chunks())
    assert len(text) == len(table.slots[0])
    assert "".join(text) == table.to_text() == fusion_table_text(table)
    # Chunk for chunk, the writers equal the per-entry ones, on level-0
    # tables and twisted SectorLabel slots among these cases.
    assert chunks == list(per_entry_json_chunks(table))
    assert text == list(per_entry_text_chunks(table))
    for x in {x for slot in table.slots for x in slot}:
        assert compact_json(_label_json(x)) == json.dumps(_label_json(x),
                                                          separators=(",", ":"))


def test_spliced_writers_on_multi_digit_values(a3_folding):
    # Values of one, two and three digits, and a value range with gaps: the
    # tails are indexed by value, not by rank.
    base = dominant_level_weights(a3_folding.base, 1)
    untw = tuple(SectorLabel("untwisted", lw) for lw in base)
    tw = tuple(SectorLabel("sigma", lw)
               for lw in dominant_level_weights(a3_folding.twisted, 1))
    for slots, header in [((base, base, base), ("none", "1,1,1", "verlinde+kac-walton")),
                          ((untw, tw, tw), ("diagram", "1,s,s", "twisted-verlinde"))]:
        n = np.zeros(tuple(map(len, slots)), dtype=np.int64)
        n.flat[:4] = [0, 9, 10, 123]
        n.flat[-1] = 10
        twist, pattern, method = header
        table = fusion_mod.FusionTable("A3^(1)", 1, twist, pattern, slots, n, method)
        assert list(table.json_chunks()) == list(per_entry_json_chunks(table))
        assert list(table.text_chunks()) == list(per_entry_text_chunks(table))
        blob = json.loads(table.to_json())
        assert [e["N"] for e in blob["entries"]] == n.ravel().tolist()


def test_gates_fire_without_asserts():
    script = textwrap.dedent("""
        import numpy as np
        import twistfuse.fusion as fusion
        import twistfuse.rep as rep
        from twistfuse.cartan import AFFINE_R1, LieType, build_cartan
        from twistfuse.errors import (MethodMismatch, NegativeMultiplicity,
                                      TwistfuseError)
        from twistfuse.fold import build_folding
        from twistfuse.smatrix import twisted_a, untwisted_S

        a2 = build_cartan(LieType("A", 2, AFFINE_R1))
        a3 = build_folding(LieType("A", 3, AFFINE_R1))
        vac = a2.leveled(1, (0, 0))

        def run(call):
            try:
                call()
            except MethodMismatch as exc:
                print(type(exc).__name__, [lw.finite.coords for lw in exc.triple],
                      exc.value_a, exc.value_b)
            except NegativeMultiplicity as exc:
                print(type(exc).__name__, str(exc).split()[0])
            except (TwistfuseError, ValueError) as exc:
                print(type(exc).__name__)
            else:
                print("no error")

        def both_tables():
            run(lambda: fusion.fusion_table(a2, 1))
            run(lambda: fusion.fusion_table(a3, 1, "1,s,s"))

        def patched(module, name, fn):
            true = getattr(module, name)
            setattr(module, name, lambda *args: fn(true(*args)))
            both_tables()
            setattr(module, name, true)

        # Each fault is injected into one step of the kernel: the finite
        # reflection signs, the alcove fold signs, the weight multiplicities
        # and the folded labels.
        patched(rep, "_reflect", lambda signs: -signs)
        patched(fusion, "alcove_fold", lambda fold: (-fold[0], fold[1]))
        patched(rep, "_system", lambda sys: (sys[0], sys[1], 2 * sys[2], sys[3]))
        patched(fusion, "alcove_fold", lambda fold: (fold[0], fold[1] + 5))
        run(lambda: fusion.kac_walton_row(a2, 1, a2.leveled(1, (1, 1)), vac))
        run(lambda: fusion.twisted_kac_walton_row(
            a3, 1, a3.base.leveled(1, (0, 0, 0)), a3.twisted.leveled(1, (0, 1))))
        s = untwisted_S(a2, 1, (a2.leveled(1, (1, 0)),))
        run(lambda: fusion.verlinde(s, vac, vac, vac))
        run(lambda: fusion._rounded([2.0, -1.0]))

        # The pair of (1,0) and the generator (0,1) fills the generator
        # plane of (0,1): the triples ((0,1), (1,0), .).
        true_kernel = fusion._klimyk_fold

        def cell_set_to_two(*args):
            b, s = args[-2:]
            rows = true_kernel(*args).copy()
            rows[b + s == 3, 0] = 2
            return rows

        fusion._klimyk_fold = cell_set_to_two
        run(lambda: fusion.fusion_table(a2, 1))
        fusion._klimyk_fold = true_kernel

        def corrupt_s(datum, k):
            # A unit phase on one row: the columns stay orthonormal, and
            # the table's sums off the vacuum row turn by it.
            s = untwisted_S(datum, k)
            s.entries = s.entries.copy()
            s.entries[2] *= np.exp(0.3j)
            return s

        fusion.untwisted_S = corrupt_s
        fusion._sector_matrices.cache_clear()
        run(lambda: fusion.fusion_table(a2, 1))
    """)
    src = os.path.dirname(os.path.dirname(twistfuse.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "NegativeMultiplicity tensor", "NegativeMultiplicity tensor",
        "NegativeMultiplicity folded", "NegativeMultiplicity folded",
        "MassMismatch", "MassMismatch", "UnknownWeight", "UnknownWeight",
        "ValueError", "ValueError", "ValueError", "NegativeCoefficient",
        "MethodMismatch [(0, 1), (1, 0), (0, 0)] 1 2", "NotInteger"]


def test_ring_gates_fire_without_asserts():
    # The premises and bounds of the fusion-ring recursion are typed errors
    # that python -O keeps: a generator row patched to c_lam = 2, a first
    # label that is not the vacuum, a generator cell too large for int64
    # products, and one that drives a recursed entry below 0.
    script = textwrap.dedent("""
        import numpy as np
        import twistfuse.fusion as fusion
        from twistfuse.cartan import AFFINE_R1, LieType, build_cartan
        from twistfuse.errors import TwistfuseError
        from twistfuse.rep import dominant_level_weights

        a2 = build_cartan(LieType("A", 2, AFFINE_R1))
        labels = dominant_level_weights(a2, 2)
        true_kernel = fusion._klimyk_fold

        def run(call):
            try:
                call()
            except TwistfuseError as exc:
                print(f"{type(exc).__name__}: {exc}")
            else:
                print("no error")

        def patched(fn):
            # fn(pair, nu) gives the new value of the nonzero cell nu of the
            # pair (first factor, generator), or None.
            def kernel(affine, k, index, bases, systems, b, s):
                rows = true_kernel(affine, k, index, bases, systems, b, s).copy()
                for p, m in zip(*np.nonzero(rows)):
                    pair = (tuple(v - 1 for v in bases[b[p]][0]), systems[s[p]][0])
                    new = fn(pair, labels[m].finite.coords)
                    if new is not None:
                        rows[p, m] = new
                return rows
            fusion._klimyk_fold = kernel
            run(lambda: fusion.fusion_table(a2, 2))
            fusion._klimyk_fold = true_kernel

        # The step (1,1) = (0,1) + (1,0) comes first among the steps whose
        # mu and omega_i differ; patch its leading cell and those after it.
        patched(lambda pair, nu: 2 if pair[0] != pair[1] and nu == tuple(
            map(sum, zip(*pair))) else None)
        run(lambda: fusion._ring_module(a2, 2, labels[::-1], a2, labels[::-1], None))
        patched(lambda pair, nu: 2 ** 62 if pair == ((0, 1), (0, 1))
                and nu == (1, 0) else None)
        patched(lambda pair, nu: 9 if pair == ((0, 0), (1, 0)) and nu == (1, 0)
                else None)
    """)
    src = os.path.dirname(os.path.dirname(twistfuse.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    expected = [("RingRecursionFailure", "(0, 1) (x) (1, 0) holds (1, 1) 2 times"),
                ("RingRecursionFailure", "not the vacuum"),
                ("RingRecursionFailure", "int64"),
                ("NegativeCoefficient", "recursion gives")]
    assert len(lines) == len(expected), lines
    for line, (name, what) in zip(lines, expected):
        assert line.startswith(name) and what in line, line


class TestFusionTableOutput:
    def test_json_schema(self, a1):
        table = fusion_table(a1, 1)
        blob = json.loads(table.to_json())
        assert blob["schema"] == 1
        assert blob["algebra"] == "A1^(1)"
        assert {e["N"] for e in blob["entries"]} == {0, 1}

    def test_text_alignment(self, a1):
        text = fusion_table(a1, 1).to_text()
        assert len({line.index("[") for line in text.splitlines()}) == 1


def _count_calls(monkeypatch, fn):
    """Calls of fn through every package module attribute bound to it: the
    alias sites that the benchmark's tracer (perfbench/tracer.py) wraps."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "twistfuse" or name.startswith("twistfuse."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_table_builds_sector_matrices_once(monkeypatch, capsys):
    """One untwisted_S per table, and one twisted_a per twisted table, as
    the benchmark's traced self-test (perfbench/child.py SELFTEST) counts
    them, so a refactor that fails that run fails here first."""
    folding = build_folding(LieType("A", 3, AFFINE_R1))
    twisted = ["A3", "--level", "1", "--twist", "diagram", "--pattern", "1,s,s",
               "--parallelism", "1"]
    for run, want in [(lambda: fusion_table(folding, 2, "1,s,s"), (1, 1)),
                      (lambda: cli.main(["fusion", *twisted]), (1, 1)),
                      (lambda: cli.main(["fusion", "A1", "--level", "1"]), (1, 0))]:
        with monkeypatch.context() as patch:
            calls = [_count_calls(patch, f) for f in (untwisted_S, twisted_a)]
            fusion_mod._sector_matrices.cache_clear()
            run()
            fusion_mod._sector_matrices.cache_clear()
        capsys.readouterr()
        assert tuple(map(len, calls)) == want


def test_coefficient_builds_four_s_columns(monkeypatch):
    """One untwisted coefficient makes one untwisted_S call, on the columns
    of the vacuum and its three labels: never the full S."""
    a3 = build_cartan(LieType("A", 3, AFFINE_R1))
    calls = _count_calls(monkeypatch, untwisted_S)
    assert coefficient(a3, 4, (0, 0, 0), [(1, 0, 0), (0, 0, 1), (1, 0, 1)]) == 1
    (args,) = calls
    assert len(args) == 3 and len(args[2]) <= 4


def test_block_gates_fire_without_asserts():
    # One bumped S entry fails an untwisted table and a single untwisted
    # coefficient, and one bumped entry of the sector block a twisted
    # table, with NotOrthonormal (exit 2) before anything is printed.
    script = textwrap.dedent("""
        import contextlib, io
        import twistfuse.fusion as fusion
        from twistfuse import cli

        true_S, true_sector = fusion.untwisted_S, fusion.twisted_sector_S

        def bumped(true):
            def build(*args):
                m = true(*args)
                m.entries = m.entries.copy()
                m.entries[1, 1] += 1e-6
                return m
            return build

        def call(*argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            print(rc, repr(out.getvalue()), "off orthonormal" in err.getvalue())

        fusion.untwisted_S = bumped(true_S)
        call("fusion", "A2", "--level", "2")
        call("fusion", "A2", "--level", "2", "1,0", "0,1", "0,0")
        fusion.untwisted_S = true_S
        fusion.twisted_sector_S = bumped(true_sector)
        call("fusion", "A3", "--level", "2", "--twist", "diagram", "--pattern", "1,s,s")
        fusion.twisted_sector_S = true_sector
        call("fusion", "A3", "--level", "2", "--twist", "diagram", "--pattern",
             "1,s,s", "0,0,0", "1,0", "1,0")
    """)
    src = os.path.dirname(os.path.dirname(twistfuse.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2 '' True"] * 3 + [
        "0 '{\"schema\":1,\"algebra\":\"A3\",\"level\":2,\"pattern\":\"1,s,s\",\"N\":1}\\n' False"]


def test_twisted_smatrix_builds_the_printed_columns_only(monkeypatch, capsys):
    """`smatrix --twist diagram` makes one untwisted_S call, on the
    sigma-stable columns, outside the SectorMatrices cache: no full S."""
    fusion_mod._sector_matrices.cache_clear()
    with monkeypatch.context() as patch:
        calls = [_count_calls(patch, f) for f in (untwisted_S, twisted_a)]
        assert cli.main(["smatrix", "A3", "--level", "8", "--twist", "diagram"]) == 0
    out = json.loads(capsys.readouterr().out)
    (args,), sector = calls
    assert len(sector) == 1 and len(args) == 3
    cols = out["S_symmetric_columns"]
    assert [w.finite.to_json() for w in args[2]] == cols["cols"]
    assert (len(cols["rows"]), len(cols["cols"])) == (165, 25)
    assert fusion_mod._sector_matrices.cache_info().currsize == 0


@pytest.mark.parametrize("name,order,pattern", [
    ("A3", "datum", "1,1,1"),
    ("A3", None, "1,1,1"), ("A3", None, "1,s,s"), ("A3", None, "s,1,s"),
    ("A3", None, "s,s,1"),
    ("D4", 3, "1,1,1"), ("D4", 3, "1,s,s"), ("D4", 3, "s,1,s"),
])
@pytest.mark.parametrize("k", [0, 1])
def test_coefficient_equals_table(name, order, pattern, k):
    """The single-coefficient dispatcher, and each public route that applies
    to the pattern, give every entry of the table; s,s,1 has no Kac-Walton
    route."""
    type_ = parse_type(name, AFFINE_R1)
    source = build_cartan(type_) if order == "datum" else build_folding(type_, order)
    sectors = check_pattern(source, pattern)
    table = fusion_table(source, k, pattern)
    if sectors == (0, 0, 0):
        datum = getattr(source, "base", source)
        s = untwisted_S(datum, k)
        routes = [lambda a, b, c: verlinde(s, a, b, c),
                  lambda a, b, c: kac_walton(datum, k, a, b, c)]
    else:
        routes = [lambda a, b, c: twisted_verlinde(source, k, a, b, c)]
        if sectors != (1, 1, 0):
            def twisted_kw(*triple):
                untw, tw = triple[:2] if sectors[0] == 0 else triple[1::-1]
                return twisted_kac_walton(source, k, untw.weight, tw.weight,
                                          triple[2].weight)
            routes.append(twisted_kw)
    for triple, n in table.items():
        labels = [getattr(x, "weight", x).finite.coords for x in triple]
        assert coefficient(source, k, sectors, labels) == n
        assert [route(*triple) for route in routes] == [n] * len(routes)


def test_coefficient_level_zero_runs_the_routes(a3_folding):
    # No rule of its own: the routes run, and the vacuum is the one label.
    sectors = check_pattern(a3_folding, "1,s,s")
    assert coefficient(a3_folding, 0, sectors, [(0, 0, 0), (0, 0), (0, 0)]) == 1
    with pytest.raises(ValueError, match="is not a level-0 dominant weight of A3"):
        coefficient(a3_folding, 0, sectors, [(0, 0, 0), (1, 0), (0, 0)])


def test_coefficient_method_mismatch(a3_folding, monkeypatch):
    monkeypatch.setattr(fusion_mod, "twisted_kac_walton", lambda *args: 5)
    sectors = check_pattern(a3_folding, "s,1,s")
    with pytest.raises(MethodMismatch) as info:
        coefficient(a3_folding, 1, sectors, [(0, 0), (0, 0, 0), (0, 0)])
    assert (info.value.value_a, info.value.value_b) == (1, 5)


@pytest.mark.parametrize("pattern,order,error,message", [
    ("s,s,s", 2, SectorRuleViolation, "(1,1->1) violate g3 = g1*g2 for order 2"),
    ("s,s,s2", 2, SectorRuleViolation, "sector power out of range for order 2"),
    ("s,s,s2", 3, UnsupportedSectorPattern, "(1,1->2) are admissible but need"),
    ("s,s,1", 3, SectorRuleViolation, "(1,1->0) violate g3 = g1*g2 for order 3"),
    ("1,s,x", 2, UnsupportedSectorPattern, "not recognized; tokens are 1, s, s2"),
    ("1,s", 3, UnsupportedSectorPattern, "not recognized; tokens are 1, s, s2"),
])
def test_check_pattern_errors(pattern, order, error, message):
    folding = build_folding(LieType("D", 4, AFFINE_R1), order)
    with pytest.raises(error) as info:
        check_pattern(folding, pattern)
    assert message in str(info.value)


def test_check_pattern_classes():
    folding = build_folding(LieType("D", 4, AFFINE_R1), 2)
    assert parse_pattern(" S, 1 ,s") == (1, 0, 1)
    assert pattern_text(parse_pattern(" S, 1 ,s")) == "s,1,s"
    assert check_pattern(folding, " S, 1 ,s") == (1, 0, 1)
    assert check_pattern(folding, "s,s,1") == (1, 1, 0)
    assert check_pattern(build_cartan(LieType("A", 1, AFFINE_R1)), "1,1,1") == (0, 0, 0)
