import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import twistfuse
from twistfuse._rational import lattice_basis_rows
from twistfuse.cartan import (AFFINE_R1, AFFINE_R2, AFFINE_R3, FINITE,
                              LatticeBasis, LieType, _orbit, build_cartan,
                              dual_lattice, inner_product, lattice_M,
                              lattice_index, parse_type, simple_roots)
from twistfuse.errors import MixedDatum, NotAffine, NotSublattice, UnsupportedType

from oracles import (highest_root_labels, inverse_times_diag,
                     primitive_null_vector, weyl_orbit_set)

ALL_AFFINE = [
    LieType("A", 1, AFFINE_R1), LieType("A", 2, AFFINE_R1),
    LieType("A", 3, AFFINE_R1), LieType("A", 5, AFFINE_R1),
    LieType("B", 2, AFFINE_R1), LieType("B", 3, AFFINE_R1),
    LieType("C", 2, AFFINE_R1), LieType("C", 3, AFFINE_R1),
    LieType("D", 4, AFFINE_R1), LieType("E", 6, AFFINE_R1),
    LieType("F", 4, AFFINE_R1), LieType("G", 2, AFFINE_R1),
    LieType("A", 3, AFFINE_R2), LieType("A", 5, AFFINE_R2),
    LieType("D", 3, AFFINE_R2), LieType("D", 4, AFFINE_R2),
    LieType("E", 6, AFFINE_R2), LieType("D", 4, AFFINE_R3),
]


class TestLieType:
    def test_valid_triples(self):
        LieType("A", 1)
        LieType("D", 4, AFFINE_R3)
        LieType("D", 3, AFFINE_R2)
        LieType("E", 6, AFFINE_R2)

    @pytest.mark.parametrize("family,rank,kind", [
        ("A", 0, FINITE), ("D", 3, FINITE), ("E", 5, FINITE),
        ("G", 3, FINITE), ("H", 2, FINITE),
        ("B", 2, AFFINE_R2), ("D", 5, AFFINE_R3), ("E", 7, AFFINE_R2),
    ])
    def test_invalid_triples(self, family, rank, kind):
        with pytest.raises(UnsupportedType):
            LieType(family, rank, kind)

    @pytest.mark.parametrize("rank", [2, 4, 6])
    def test_a_even_twisted_rejected(self, rank):
        with pytest.raises(UnsupportedType):
            LieType("A", rank, AFFINE_R2)

    def test_parse(self):
        assert parse_type("A3") == LieType("A", 3)
        assert parse_type("g2", AFFINE_R1) == LieType("G", 2, AFFINE_R1)
        with pytest.raises(UnsupportedType):
            parse_type("X9")


class TestBuildCartan:
    def test_a1_finite(self):
        d = build_cartan(LieType("A", 1))
        assert d.A == ((2,),)
        assert d.d == (Fraction(1),)
        assert d.npos == 1

    def test_a3_affine_null_vectors(self):
        d = build_cartan(LieType("A", 3, AFFINE_R1))
        assert d.marks == primitive_null_vector(d.A)
        at = tuple(zip(*d.A))
        assert d.comarks == primitive_null_vector(at)
        assert d.marks == (1, 1, 1, 1)
        assert d.comarks == (1, 1, 1, 1)
        assert d.hdual == 4

    def test_a1_affine_hdual(self):
        assert build_cartan(LieType("A", 1, AFFINE_R1)).hdual == 2

    @pytest.mark.parametrize("type_", ALL_AFFINE, ids=str)
    def test_affine_invariants(self, type_):
        d = build_cartan(type_)
        n = len(d.A)
        # symmetrizability
        for i in range(n):
            for j in range(n):
                assert d.d[i] * d.A[i][j] == d.d[j] * d.A[j][i]
        # marks and comarks from an independent elimination
        assert d.marks == primitive_null_vector(d.A)
        assert d.comarks == primitive_null_vector(tuple(zip(*d.A)))
        assert d.marks[0] == 1
        assert d.hdual == sum(d.comarks)
        assert inner_product(d.theta, d.theta) == 2

    @pytest.mark.parametrize("type_", ALL_AFFINE, ids=str)
    def test_gram_consistency(self, type_):
        d = build_cartan(type_)
        l = d.rank
        gw = inverse_times_diag(d.A_fin, d.d_fin)
        assert [list(r) for r in d.gram_weights] == gw
        # alpha_i = sum_j A_ji omega_j carries one Gram matrix to the other
        for i in range(l):
            for j in range(l):
                val = sum(d.A_fin[r][i] * Fraction(d.gram_weights[r][s]) * d.A_fin[s][j]
                          for r in range(l) for s in range(l))
                assert val == d.gram_roots[i][j]

    def test_unsupported(self):
        with pytest.raises(UnsupportedType):
            build_cartan(LieType("A", 4, AFFINE_R2))

    def test_json_dump(self):
        d = build_cartan(LieType("A", 3, AFFINE_R2))
        blob = json.dumps(d.to_json_dict())
        assert "marks" in blob and "gram_weights" in blob


class TestInnerProduct:
    def test_a1(self):
        d = build_cartan(LieType("A", 1))
        w = d.weight((1,))
        gram = inverse_times_diag(d.A, d.d)
        assert inner_product(w, w) == gram[0][0] == Fraction(1, 2)

    def test_zero_bilinear(self):
        d = build_cartan(LieType("C", 2))
        z = d.weight((0, 0))
        assert inner_product(z, d.weight((3, 5))) == 0

    def test_a2(self):
        d = build_cartan(LieType("A", 2))
        gram = inverse_times_diag(d.A, d.d)
        assert inner_product(d.weight((1, 0)), d.weight((0, 1))) == gram[0][1]
        assert gram[0][1] == Fraction(1, 3)

    def test_mixed_datum(self):
        d1 = build_cartan(LieType("A", 2))
        d2 = build_cartan(LieType("A", 3))
        with pytest.raises(MixedDatum):
            inner_product(d1.weight((1, 0)), d2.weight((1, 0, 0)))


class TestLattices:
    def test_lattice_m_a1(self):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        assert lattice_M(d).basis == ((Fraction(2),),)

    def test_lattice_m_a2_index(self):
        d = build_cartan(LieType("A", 2, AFFINE_R1))
        weight_lattice = LatticeBasis(d.finite, ((1, 0), (0, 1)))
        assert lattice_index(weight_lattice, lattice_M(d)) == 3

    def test_lattice_m_d4_triality(self):
        d = build_cartan(LieType("D", 4, AFFINE_R3))
        m = lattice_M(d)
        assert len(m.basis) == 2  # full rank in the rank-2 weight space

    def test_not_affine(self):
        with pytest.raises(NotAffine):
            lattice_M(build_cartan(LieType("A", 2)))

    def test_index_scaling(self):
        d = build_cartan(LieType("A", 2))
        z2 = LatticeBasis(d, ((1, 0), (0, 1)))
        assert lattice_index(z2, z2.scaled(2)) == 4
        assert lattice_index(z2, z2) == 1

    def test_not_sublattice(self):
        d = build_cartan(LieType("A", 2))
        z2 = LatticeBasis(d, ((1, 0), (0, 1)))
        half = z2.scaled(Fraction(1, 2))
        with pytest.raises(NotSublattice):
            lattice_index(z2, half)

    def test_lattice_gates_fire_without_asserts(self):
        # The basis and index checks that every S build runs are typed
        # errors that python -O keeps.
        script = textwrap.dedent("""
            from twistfuse.cartan import LatticeBasis, LieType, build_cartan, lattice_index
            from twistfuse.errors import TwistfuseError

            def run(call):
                try:
                    call()
                except TwistfuseError as exc:
                    print(f"{type(exc).__name__}: {exc}")
                else:
                    print("no error")

            d = build_cartan(LieType("A", 2))
            z2 = LatticeBasis(d, ((1, 0), (0, 1)))
            run(lambda: LatticeBasis(d, ((1, 0),)))
            run(lambda: LatticeBasis(d, ((1, 2), (2, 4))))
            flat = object.__new__(LatticeBasis)  # skips the basis checks
            object.__setattr__(flat, "datum", d)
            object.__setattr__(flat, "basis", ((1, 0), (2, 0)))
            run(lambda: lattice_index(z2, flat))
            run(lambda: lattice_index(z2, z2.scaled(3)))
        """)
        src = os.path.dirname(os.path.dirname(twistfuse.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        expected = [("DegenerateLattice", "needs 2 basis vectors, not 1"),
                    ("DegenerateLattice", "not full rank"),
                    ("DegenerateLattice", "index [l1 : l2] = 0 "),
                    ("no error", "")]
        assert len(lines) == len(expected), lines
        for line, (name, what) in zip(lines, expected):
            assert line.startswith(name) and what in line, line

    def test_dual_a1(self):
        d = build_cartan(LieType("A", 1))
        alpha = LatticeBasis(d, ((2,),))
        assert dual_lattice(alpha).basis == ((Fraction(1),),)

    def test_dual_selfdual(self):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        m = lattice_M(d)
        # Rank-1: the lattice scaled to norm 1 is self-dual.
        unim = m.scaled(Fraction(1, 2)).scaled(2)  # sanity on scaled()
        assert unim.basis == m.basis
        dd = dual_lattice(dual_lattice(m))
        assert dd.basis == m.basis

    def test_dual_a2_root_to_weight(self):
        aff = build_cartan(LieType("A", 2, AFFINE_R1))
        q = lattice_M(aff)  # root lattice for simply-laced
        p = dual_lattice(q)
        weight_lattice = LatticeBasis(aff.finite, ((1, 0), (0, 1)))
        assert lattice_index(p, weight_lattice) == 1
        assert lattice_index(weight_lattice, p) == 1

    @pytest.mark.parametrize("type_", ALL_AFFINE, ids=str)
    def test_dual_index_is_gram_determinant(self, type_):
        from twistfuse._rational import mat_det
        d = build_cartan(type_)
        m = lattice_M(d)
        assert lattice_index(dual_lattice(m), m) == mat_det(m.gram())

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A5", "D4", "E6"])
    def test_simply_laced_m_is_root_lattice(self, name):
        d = build_cartan(parse_type(name, AFFINE_R1))
        m = lattice_M(d)
        l = d.rank
        roots = LatticeBasis(
            d.finite,
            tuple(tuple(d.A_fin[r][i] for r in range(l)) for i in range(l)))
        assert lattice_index(m, roots) == 1
        assert lattice_index(roots, m) == 1


UNTWISTED_FINITE = ([f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 8)]
                    + [f"C{l}" for l in range(2, 8)] + [f"D{l}" for l in range(4, 9)]
                    + ["E6", "E7", "E8", "F4", "G2"])
TWISTED = [
    LieType("A", 3, AFFINE_R2), LieType("A", 5, AFFINE_R2),
    LieType("D", 4, AFFINE_R2), LieType("D", 5, AFFINE_R2),
    LieType("E", 6, AFFINE_R2), LieType("D", 4, AFFINE_R3),
]


class TestReflectionKernel:
    """theta and the lattice M, both read off the shared reflection kernels,
    against the first-negative-label loop and the set-based orbit search."""

    @staticmethod
    def check_lattice(d):
        theta = d.theta.coords
        orbit = _orbit(simple_roots(d.finite.A), theta)
        expected = weyl_orbit_set(d.finite.A, theta)
        assert len(orbit) == len(expected) and set(orbit) == expected
        assert lattice_M(d).basis == LatticeBasis(
            d.finite, lattice_basis_rows(sorted(expected))).basis

    @pytest.mark.parametrize("name", UNTWISTED_FINITE)
    def test_untwisted(self, name):
        fin = build_cartan(parse_type(name))
        aff = build_cartan(parse_type(name, AFFINE_R1))
        assert fin.theta.coords == aff.theta.coords == highest_root_labels(fin.A, fin.d)
        self.check_lattice(aff)

    @pytest.mark.parametrize("type_", TWISTED, ids=str)
    def test_twisted(self, type_):
        self.check_lattice(build_cartan(type_))
