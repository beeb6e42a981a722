import json
from fractions import Fraction

import numpy as np
import pytest

import twistfuse.smatrix as smatrix_mod
from twistfuse.cartan import (AFFINE_R1, AFFINE_R2, LieType, build_cartan,
                              parse_type)
from twistfuse.errors import ExponentOverflow
from twistfuse.fold import build_folding, symmetric_weights
from twistfuse.rep import dominant_level_weights
from twistfuse.smatrix import (conformal, twisted_a, twisted_sector_S,
                               untwisted_S)
from twistfuse.weyl import generate_weyl

from oracles import a1_s_matrix, materialised_weyl_sum


class TestConformal:
    def test_a1_level1(self):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        cd = conformal(d, 1, d.leveled(1, (1,)))
        assert cd.h == Fraction(1, 4)
        assert cd.c == 1

    def test_vacuum(self):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        cd = conformal(d, 1, d.leveled(1, (0,)))
        assert cd.h == 0
        assert cd.m == Fraction(-1, 24)

    @pytest.mark.parametrize("name,k", [("A2", 2), ("G2", 1), ("D4", 2)])
    def test_shift_identity(self, name, k):
        d = build_cartan(parse_type(name, AFFINE_R1))
        for lw in dominant_level_weights(d, k):
            cd = conformal(d, k, lw)
            assert cd.h - cd.m == cd.c / 24
            assert cd.h >= 0
            assert (cd.h == 0) == all(x == 0 for x in lw.finite.coords)


class TestUntwistedS:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a1_closed_form(self, k):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        s = untwisted_S(d, k)
        oracle = np.array(a1_s_matrix(k))
        assert np.abs(s.entries - oracle).max() < 1e-12

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C2", "G2", "D4"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_symmetric_unitary(self, name, k):
        s = untwisted_S(build_cartan(parse_type(name, AFFINE_R1)), k)
        assert s.symmetry_defect() < 1e-9
        assert s.unitarity_defect() < 1e-9

    def test_vacuum_row_positive(self):
        for name in ["A2", "C2", "G2"]:
            s = untwisted_S(build_cartan(parse_type(name, AFFINE_R1)), 2)
            assert (np.asarray(s.entries)[0].real > 1e-12).all()

    def test_label_order_is_global(self):
        d = build_cartan(LieType("A", 2, AFFINE_R1))
        s = untwisted_S(d, 2)
        assert list(s.rows) == dominant_level_weights(d, 2)
        assert list(s.cols) == dominant_level_weights(d, 2)

    def test_bad_input_raises_value_error(self):
        # Input checks, not asserts: python -O must keep them.
        a1 = build_cartan(LieType("A", 1, AFFINE_R1))
        with pytest.raises(ValueError, match="level >= 1"):
            untwisted_S(a1, 0)
        with pytest.raises(ValueError, match="untwisted affine"):
            untwisted_S(build_cartan(LieType("A", 3, AFFINE_R2)), 1)
        with pytest.raises(ValueError, match="level >= 1"):
            twisted_a(build_folding(LieType("A", 3, AFFINE_R1)), 0)

    def test_json_roundtrip(self):
        s = untwisted_S(build_cartan(LieType("A", 1, AFFINE_R1)), 1)
        blob = json.loads(json.dumps(s.to_json_dict()))
        assert blob["provenance"] == "untwisted-S"
        assert blob["precision"] == 53
        assert len(blob["re"]) == 2 and len(blob["im"]) == 2


class TestTwistedA:
    def test_a3_k1_values(self):
        # Hand-evaluated Weyl sums over the 8-element group: the matrix is
        # (1/sqrt 2) [[1, 1], [1, -1]].
        f = build_folding(LieType("A", 3, AFFINE_R1))
        a = twisted_a(f, 1)
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(a.entries - expected).max() < 1e-12

    def test_d4_triality_k1_value(self):
        # Rank-two Weyl sum evaluates to -7; the normalization makes it 1.
        f = build_folding(LieType("D", 4, AFFINE_R1), 3)
        a = twisted_a(f, 1)
        assert a.shape == (1, 1)
        assert abs(a.entries[0, 0] - 1.0) < 1e-12

    @pytest.mark.parametrize("type_,order,kmax", [
        (LieType("A", 3, AFFINE_R1), None, 2),
        (LieType("D", 4, AFFINE_R1), 3, 2),
        (LieType("D", 4, AFFINE_R1), 2, 2),
        (LieType("E", 6, AFFINE_R1), None, 1),
    ])
    def test_square_and_unitary(self, type_, order, kmax):
        f = build_folding(type_, order)
        for k in range(1, kmax + 1):
            a = twisted_a(f, k)
            assert a.shape[0] == a.shape[1]
            assert a.shape[0] == len(dominant_level_weights(f.twisted, k))
            assert a.unitarity_defect() < 1e-9

    def test_e6_summand_count(self):
        f = build_folding(LieType("E", 6, AFFINE_R1))
        assert len(generate_weyl(f.twisted.finite)) == 1152
        a = twisted_a(f, 1)
        assert a.shape == (1, 1)


class TestTwistedSectorS:
    def test_column_relabeling(self):
        f = build_folding(LieType("A", 3, AFFINE_R1))
        s = twisted_sector_S(f, 1)
        sym = symmetric_weights(f, 1)
        assert [w.finite.coords for w in s.cols] == \
            [w.finite.coords for w in sym]

    def test_values_unchanged(self):
        f = build_folding(LieType("A", 3, AFFINE_R1))
        a = twisted_a(f, 1)
        s = twisted_sector_S(f, 1)
        assert np.array_equal(np.asarray(a.entries), np.asarray(s.entries))

    def test_provenance(self):
        f = build_folding(LieType("A", 3, AFFINE_R1))
        assert twisted_sector_S(f, 1).provenance == "orbifold-block"


def _with_oracle_kernel(monkeypatch, build):
    """build() with the signed-orbit kernel, then with the materialised group."""
    fast = np.asarray(build().entries)
    with monkeypatch.context() as m:
        m.setattr(smatrix_mod, "_weyl_sum_matrix", materialised_weyl_sum)
        slow = np.asarray(build().entries)
    return fast, slow


class TestOrbitKernel:
    @pytest.mark.parametrize("name,kmax", [
        ("A1", 3), ("A2", 3), ("A3", 3), ("B2", 3), ("C2", 3), ("G2", 3),
        ("D4", 2), ("E6", 1),
    ])
    def test_untwisted_matches_materialised_group(self, monkeypatch, name, kmax):
        d = build_cartan(parse_type(name, AFFINE_R1))
        for k in range(1, kmax + 1):
            fast, slow = _with_oracle_kernel(monkeypatch, lambda: untwisted_S(d, k))
            assert np.abs(fast - slow).max() < 1e-12

    @pytest.mark.parametrize("name,order,kmax", [
        ("A3", None, 3), ("D4", 2, 2), ("D4", 3, 2), ("E6", None, 1),
    ])
    def test_twisted_matches_materialised_group(self, monkeypatch, name, order,
                                                kmax):
        f = build_folding(parse_type(name, AFFINE_R1), order)
        for k in range(1, kmax + 1):
            fast, slow = _with_oracle_kernel(monkeypatch, lambda: twisted_a(f, k))
            assert np.abs(fast - slow).max() < 1e-12

    def test_overflow_guard(self):
        fin = build_cartan(LieType("A", 2))
        with pytest.raises(ExponentOverflow):
            smatrix_mod._weyl_sum_matrix(fin, 4, [(2 ** 61, 1)], [((1, 1), 1)])
