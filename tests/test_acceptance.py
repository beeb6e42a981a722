"""Acceptance suite: one test per criterion, stated tolerances, one
pass/fail line each (run with -s to see them)."""

import itertools
import time

import numpy as np
import pytest

from twistfuse.cartan import (AFFINE_R1, AFFINE_R2, LieType, build_cartan,
                              parse_type)
from twistfuse.fold import build_folding, pstar_apply, symmetric_weights
from twistfuse.fusion import (SectorLabel, fusion_table, twisted_verlinde)
from twistfuse.rep import branch, dim, dominant_level_weights, freudenthal, tensor_decompose
from twistfuse.smatrix import conformal, twisted_a, untwisted_S
from twistfuse.weyl import alcove_fold

from oracles import a1_s_matrix, brute_force_fold

UNTWISTED_GRID = [("A1", 3), ("A2", 3), ("A3", 3), ("B2", 3), ("C2", 3),
                  ("G2", 3), ("D4", 3)]
TWISTED_GRID = [(LieType("A", 3, AFFINE_R1), None, 2),
                (LieType("D", 4, AFFINE_R1), 2, 1),
                (LieType("D", 4, AFFINE_R1), 3, 1),
                (LieType("E", 6, AFFINE_R1), None, 1)]


def report(n, label, elapsed, budget):
    line = f"PASS criterion {n}: {label} ({elapsed:.2f}s < {budget}s)"
    print(line)
    assert elapsed < budget, f"criterion {n} exceeded its time budget"


def test_criterion_01_a1_closed_form():
    t0 = time.monotonic()
    d = build_cartan(LieType("A", 1, AFFINE_R1))
    worst = 0.0
    for k in (1, 2, 3):
        s = untwisted_S(d, k)
        worst = max(worst, float(np.abs(s.entries - np.array(a1_s_matrix(k))).max()))
    assert worst < 1e-10
    report(1, f"A1 S-matrix vs sin oracle, max err {worst:.2e}",
           time.monotonic() - t0, 1.0)


def test_criterion_02_symmetry_unitarity():
    t0 = time.monotonic()
    worst = 0.0
    for name, kmax in UNTWISTED_GRID:
        d = build_cartan(parse_type(name, AFFINE_R1))
        for k in range(1, kmax + 1):
            s = untwisted_S(d, k)
            worst = max(worst, float(np.abs(s.entries - s.entries.T).max()),
                        s.unitarity_defect())
    assert worst < 1e-9
    report(2, f"S symmetric+unitary on 7 types, worst defect {worst:.2e}",
           time.monotonic() - t0, 30.0)


def test_criterion_03_verlinde_equals_kac_walton():
    t0 = time.monotonic()
    triples = 0
    for name, kmax in UNTWISTED_GRID:
        d = build_cartan(parse_type(name, AFFINE_R1))
        for k in range(1, kmax + 1):
            table = fusion_table(d, k)  # raises MethodMismatch on any triple
            triples += len(list(table.items()))
    report(3, f"verlinde == kac-walton on {triples} triples",
           time.monotonic() - t0, 60.0)


def test_criterion_04_twisted_a_unitarity():
    t0 = time.monotonic()
    grid = [(LieType("A", 3, AFFINE_R1), None, 2),
            (LieType("D", 4, AFFINE_R1), 3, 2),
            (LieType("E", 6, AFFINE_R1), None, 1)]
    worst = 0.0
    for type_, order, kmax in grid:
        f = build_folding(type_, order)
        for k in range(1, kmax + 1):
            a = twisted_a(f, k)
            assert a.shape[0] == a.shape[1]
            worst = max(worst, a.unitarity_defect())
    assert worst < 1e-9
    report(4, f"twisted a-matrix unitary, worst defect {worst:.2e}",
           time.monotonic() - t0, 60.0)


def test_criterion_05_twisted_verlinde_equals_kac_walton():
    t0 = time.monotonic()
    triples = 0
    for type_, order, kmax in TWISTED_GRID:
        f = build_folding(type_, order)
        for k in range(1, kmax + 1):
            table = fusion_table(f, k, "1,s,s")
            triples += len(list(table.items()))
    report(5, f"twisted verlinde == twisted kac-walton on {triples} triples",
           time.monotonic() - t0, 120.0)


def test_criterion_06_folding_identities():
    t0 = time.monotonic()
    for type_, order, _ in TWISTED_GRID:
        f = build_folding(type_, order)  # exact identity checks run inside
        adj = build_cartan(f.adjacent.type)
        for k in range(0, 4):
            for lw in dominant_level_weights(adj, k):
                image = pstar_apply(f, lw)
                assert conformal(adj, k, lw).m == conformal(f.base, k, image).m
    report(6, "folding map identities and anomaly invariance, exact",
           time.monotonic() - t0, 5.0)


def test_criterion_07_weight_set_bijections():
    t0 = time.monotonic()
    for type_, order, _ in TWISTED_GRID:
        f = build_folding(type_, order)
        for k in range(0, 4):
            n_tw = len(dominant_level_weights(f.twisted, k))
            n_adj = len(dominant_level_weights(build_cartan(f.adjacent.type), k))
            n_sym = len(symmetric_weights(f, k))
            assert n_tw == n_adj == n_sym
    report(7, "weight-set bijections at k <= 3", time.monotonic() - t0, 1.0)


def test_criterion_08_conservation():
    t0 = time.monotonic()
    checked = 0
    for name, kmax in UNTWISTED_GRID:
        d = build_cartan(parse_type(name, AFFINE_R1))
        weights = dominant_level_weights(d, kmax)
        for lw in weights:
            if dim(d, lw.finite.coords) > 5000:
                continue
            ws = freudenthal(d.finite, lw.finite)
            assert ws.total() == dim(d, lw.finite.coords)
            checked += 1
        small = [lw for lw in weights if dim(d, lw.finite.coords) <= 5000]
        for l1, l2 in itertools.product(small[:6], small[:6]):
            t = tensor_decompose(d.finite, l1.finite, l2.finite)
            total = sum(m * dim(d, w.coords) for w, m in t.entries.items())
            assert total == dim(d, l1.finite.coords) * dim(d, l2.finite.coords)
    for type_, order, kmax in TWISTED_GRID:
        f = build_folding(type_, order)
        for lw in dominant_level_weights(f.base, kmax):
            if dim(f.base, lw.finite.coords) > 5000:
                continue
            table = branch(f.base.finite, f.twisted.finite, f.iota_dual,
                           lw.finite)
            total = sum(m * dim(f.twisted, w.coords)
                        for w, m in table.entries.items())
            assert total == dim(f.base, lw.finite.coords)
            checked += 1
    report(8, f"mass and conservation checks on {checked} irreps",
           time.monotonic() - t0, 60.0)


def test_criterion_09_alcove_fold_brute_force():
    t0 = time.monotonic()
    cases = [(parse_type("A1", AFFINE_R1), 3, 8),
             (parse_type("A2", AFFINE_R1), 3, 5),
             (LieType("A", 3, AFFINE_R2), 2, 5)]
    points = 0
    for d_, kmax, window in cases:
        d = build_cartan(d_) if isinstance(d_, LieType) else d_
        l = d.rank
        for k in range(0, kmax + 1):
            for coords in itertools.product(range(-window, window + 1), repeat=l):
                res = alcove_fold(d, k, d.weight(coords))
                sign, rep = brute_force_fold(d, k, coords)
                assert res.sign == sign
                if sign != 0:
                    assert res.rep.coords == rep
                points += 1
    report(9, f"alcove folding vs exhaustive enumeration on {points} points",
           time.monotonic() - t0, 30.0)


def test_criterion_10_sigma_sigma_untwisted():
    t0 = time.monotonic()
    f = build_folding(LieType("A", 3, AFFINE_R1))
    for k in (1, 2):
        table = fusion_table(f, k, "s,s,1")
        assert all(n >= 0 for _, n in table.items())
        # vacuum unit law on the patterns that admit a vacuum slot
        vac = SectorLabel("untwisted", f.base.leveled(k, (0,) * 3))
        for lw in dominant_level_weights(f.twisted, k):
            for mu in dominant_level_weights(f.twisted, k):
                n = twisted_verlinde(f, k, vac, SectorLabel("sigma", lw),
                                     SectorLabel("sigma", mu))
                assert n == (1 if lw == mu else 0)
    report(10, "(s,s->1) integral, non-negative; vacuum unit law holds",
           time.monotonic() - t0, 10.0)
