from fractions import Fraction
import os
import subprocess
import sys
import textwrap

import pytest

import twistfuse
import twistfuse.cartan as cartan_mod
from twistfuse._rational import (frac_matrix, mat_inverse, mat_mul, mat_vec,
                                 transpose)
from twistfuse.cartan import (AFFINE_R1, AFFINE_R2, AFFINE_R3, LieType,
                              build_cartan)
from twistfuse.errors import (CheckFailed, NoBuiltinAutomorphism,
                              UnrecognizedFoldedType)
from twistfuse.fold import (DiagramAutomorphism, build_folding, builtin_sigma,
                            orbit_cartan, pstar_apply, symmetric_weights)
from twistfuse.rep import dominant_level_weights
from twistfuse.smatrix import conformal

FOLDINGS = [
    (LieType("A", 3, AFFINE_R1), None),
    (LieType("A", 5, AFFINE_R1), None),
    (LieType("D", 4, AFFINE_R1), 2),
    (LieType("D", 4, AFFINE_R1), 3),
    (LieType("E", 6, AFFINE_R1), None),
]


class TestBuiltinSigma:
    def test_a3(self):
        auto = builtin_sigma(LieType("A", 3, AFFINE_R1))
        assert auto.perm == (0, 3, 2, 1) and auto.order == 2

    def test_d4_triality(self):
        auto = builtin_sigma(LieType("D", 4, AFFINE_R1))
        assert auto.perm == (0, 3, 2, 4, 1) and auto.order == 3

    def test_e6(self):
        auto = builtin_sigma(LieType("E", 6, AFFINE_R1))
        assert auto.perm == (0, 5, 4, 3, 2, 1, 6) and auto.order == 2

    def test_no_builtin(self):
        with pytest.raises(NoBuiltinAutomorphism):
            builtin_sigma(LieType("A", 4, AFFINE_R1))
        with pytest.raises(NoBuiltinAutomorphism):
            builtin_sigma(LieType("G", 2, AFFINE_R1))
        with pytest.raises(NoBuiltinAutomorphism):
            builtin_sigma(LieType("A", 3, AFFINE_R1), order=3)

    def test_identity_rejected(self):
        base = build_cartan(LieType("A", 3, AFFINE_R1))
        with pytest.raises(CheckFailed, match="order 1, not 2"):
            DiagramAutomorphism(base, (0, 1, 2, 3), 2)


class TestOrbitCartan:
    @pytest.mark.parametrize("type_,order,expected", [
        (LieType("A", 3, AFFINE_R1), None, LieType("D", 3, AFFINE_R2)),
        (LieType("A", 5, AFFINE_R1), None, LieType("D", 4, AFFINE_R2)),
        (LieType("D", 4, AFFINE_R1), 2, LieType("A", 5, AFFINE_R2)),
        (LieType("D", 4, AFFINE_R1), 3, LieType("D", 4, AFFINE_R3)),
        (LieType("E", 6, AFFINE_R1), None, LieType("E", 6, AFFINE_R2)),
    ])
    def test_identification(self, type_, order, expected):
        datum = orbit_cartan(builtin_sigma(type_, order))
        assert datum.type == expected

    def test_corrupted_table_detected(self, monkeypatch):
        folding = build_folding(LieType("A", 3, AFFINE_R1))
        auto = folding.auto
        from twistfuse import fold as fold_mod
        # Pretend the orbit matrix came out wrong.
        bad = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
        monkeypatch.setattr(fold_mod, "_orbit_matrix",
                            lambda a: ([0, 1, 2], {0: (0,), 1: (1, 3), 2: (2,)},
                                       {0: 1, 1: 1, 2: 1}, bad))
        with pytest.raises(UnrecognizedFoldedType):
            orbit_cartan(auto)


class TestBuildFolding:
    @pytest.mark.parametrize("type_,order,twisted,adjacent,r", [
        (LieType("A", 3, AFFINE_R1), None, "A3^(2)", "D3^(2)", 2),
        (LieType("E", 6, AFFINE_R1), None, "E6^(2)", "E6^(2)", 2),
        (LieType("D", 4, AFFINE_R1), 3, "D4^(3)", "D4^(3)", 3),
        (LieType("D", 4, AFFINE_R1), 2, "D4^(2)", "A5^(2)", 2),
    ])
    def test_pairings(self, type_, order, twisted, adjacent, r):
        f = build_folding(type_, order)
        assert str(f.twisted.type) == twisted
        assert str(f.adjacent.type) == adjacent
        assert f.r == r

    @pytest.mark.parametrize("type_,order", FOLDINGS)
    def test_pstar_rho(self, type_, order):
        f = build_folding(type_, order)
        rho_adj = (1,) * f.adjacent.rank
        assert mat_vec(f.Pstar, rho_adj) == (1,) * f.base.rank

    @pytest.mark.parametrize("type_,order", FOLDINGS)
    def test_pstar_isometry(self, type_, order):
        f = build_folding(type_, order)
        lhs = mat_mul(transpose(f.Pstar),
                      mat_mul(f.base.gram_weights, f.Pstar))
        assert lhs == frac_matrix(f.adjacent.gram_weights)

    @pytest.mark.parametrize("type_,order", FOLDINGS)
    def test_phi_form_scaling(self, type_, order):
        f = build_folding(type_, order)
        lhs = mat_mul(transpose(f.phi), mat_mul(f.twisted.gram_weights, f.phi))
        rhs = tuple(tuple(Fraction(x) / f.r for x in row)
                    for row in f.adjacent.gram_weights)
        assert lhs == rhs

    @pytest.mark.parametrize("type_,order", FOLDINGS)
    def test_iota_bridge(self, type_, order):
        f = build_folding(type_, order)
        tw, base = f.twisted, f.base
        l, lb = tw.rank, base.rank
        rt = transpose(f.iota_dual)
        mid = tuple(tuple(Fraction(rt[i][j]) * tw.d_fin[j] for j in range(l))
                    for i in range(lb))
        t1 = mat_mul(frac_matrix(base.A_fin), mat_mul(mid, mat_inverse(tw.A_fin)))
        t2 = mat_mul(f.Pstar, mat_inverse(f.phi))
        assert t1 == t2

    def test_iota_dual_is_orbit_sum(self):
        f = build_folding(LieType("E", 6, AFFINE_R1))
        assert [[int(x) for x in row] for row in f.iota_dual] == [
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
        ]


class TestSymmetricWeights:
    def test_a3_k1(self):
        f = build_folding(LieType("A", 3, AFFINE_R1))
        ws = symmetric_weights(f, 1)
        assert [w.finite.coords for w in ws] == [(0, 0, 0), (0, 1, 0)]

    def test_k0(self):
        f = build_folding(LieType("D", 4, AFFINE_R1), 3)
        ws = symmetric_weights(f, 0)
        assert len(ws) == 1 and set(ws[0].finite.coords) == {0}

    def test_d4_triality_k1(self):
        f = build_folding(LieType("D", 4, AFFINE_R1), 3)
        assert [w.finite.coords for w in symmetric_weights(f, 1)] == [(0, 0, 0, 0)]

    @pytest.mark.parametrize("type_,order", FOLDINGS)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_weight_set_bijections(self, type_, order, k):
        f = build_folding(type_, order)
        n_tw = len(dominant_level_weights(f.twisted, k))
        n_adj = len(dominant_level_weights(build_cartan(f.adjacent.type), k))
        assert n_tw == n_adj == len(symmetric_weights(f, k))

    @pytest.mark.parametrize("type_,order", FOLDINGS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_anomaly_invariance(self, type_, order, k):
        f = build_folding(type_, order)
        adj = build_cartan(f.adjacent.type)
        for lw in dominant_level_weights(adj, k):
            image = pstar_apply(f, lw)
            assert conformal(adj, k, lw).m == conformal(f.base, k, image).m


def test_folding_checks_fire_without_asserts():
    # Each coordinate identity of the folding data, and the fixed-point check
    # of the symmetric weights, is a typed error that python -O keeps.
    script = textwrap.dedent("""
        import dataclasses
        from fractions import Fraction
        import twistfuse.fold as fold
        from twistfuse.cartan import AFFINE_R1, LieType
        from twistfuse.errors import TwistfuseError

        f = fold.build_folding(LieType("A", 3, AFFINE_R1))

        def run(call):
            try:
                call()
            except TwistfuseError as exc:
                print(f"{type(exc).__name__}: {exc}")
            else:
                print("no error")

        def scaled(m, c):
            return tuple(tuple(Fraction(c) * x for x in row) for row in m)

        def check(**fields):
            run(lambda: fold._check_folding(dataclasses.replace(f, **fields)))

        check(Pstar=scaled(f.Pstar, 2))
        check(Pstar=tuple(row[::-1] for row in f.Pstar))
        check(phi=scaled(f.phi, 2))
        check(iota_dual=f.iota_dual[::-1])
        check()
        type(f).finite_perm = lambda self: tuple(range(self.base.rank))
        run(lambda: fold.symmetric_weights(f, 1))
    """)
    src = os.path.dirname(os.path.dirname(twistfuse.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    expected = [("FoldingIdentityFailure", "rho"),
                ("FoldingIdentityFailure", "isometric"),
                ("FoldingIdentityFailure", "1/r"),
                ("FoldingIdentityFailure", "bridges"),
                ("no error", ""),
                ("SectorLabelMismatch", "symmetric weights")]
    assert len(lines) == len(expected), lines
    for line, (name, what) in zip(lines, expected):
        assert line.startswith(name) and what in line, line


def test_automorphism_checks_fire_without_asserts():
    # The checks of a diagram automorphism, of the orbit Cartan matrix and of
    # the relabelling are CheckFailed errors that python -O keeps.
    script = textwrap.dedent("""
        from types import SimpleNamespace
        import twistfuse.fold as fold
        from twistfuse.cartan import AFFINE_R1, LieType, build_cartan
        from twistfuse.errors import CheckFailed

        a3 = build_cartan(LieType("A", 3, AFFINE_R1))

        def run(call):
            try:
                call()
            except CheckFailed as exc:
                print(f"{type(exc).__name__}: {exc}")
            else:
                print("no error")

        for perm, order in [((0, 1, 1, 3), 2), ((1, 0, 2, 3), 2),
                            ((0, 3, 2, 1), 4), ((0, 3, 2, 1), 3),
                            ((0, 2, 1, 3), 2), ((0, 3, 2, 1), 2)]:
            run(lambda: fold.DiagramAutomorphism(a3, perm, order))
        # An orbit {1, 2} whose diagonal sum 3 does not divide a_11 = 2.
        fake = SimpleNamespace(
            base=SimpleNamespace(type="fake", A=((2, -1, -1), (-1, 2, 1),
                                                 (-1, 1, 2))),
            orbits=lambda: [(0, (0,)), (1, (1, 2))])
        run(lambda: fold._orbit_matrix(fake))
        run(lambda: fold._match_relabeling(((2, -2), (-1, 2)), a3.A))
    """)
    src = os.path.dirname(os.path.dirname(twistfuse.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    expected = ["not a permutation", "node 0 must stay fixed", "order 4 is not",
                "has order 2, not 3", "does not fix the Cartan matrix",
                "no error", "not integral", "matched against a matrix of size 4"]
    assert len(lines) == len(expected), lines
    for line, what in zip(lines[:5] + lines[6:], expected[:5] + expected[6:]):
        assert line.startswith("CheckFailed: ") and what in line, line
    assert lines[5] == "no error"
