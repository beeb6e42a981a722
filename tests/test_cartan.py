import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

import twistfuse
from twistfuse._rational import mat_vec
from twistfuse.cartan import (AFFINE_R1, AFFINE_R2, AFFINE_R3, FINITE,
                              LieType, build_cartan, inner_product,
                              orbit_walk, parse_type, simple_roots)
from twistfuse.errors import MixedDatum, UnsupportedType
from twistfuse.fold import build_folding, pair_index

from oracles import (closed_form_M, dual_lattice, highest_root_labels,
                     inverse_times_diag, lattice_basis_rows, lattice_index,
                     orbit_span_lattice, phi_transported_M,
                     primitive_null_vector, weyl_orbit_set)
from test_rational import FOLDINGS, UNTWISTED

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
    LieType("A", 7, AFFINE_R1), LieType("B", 5, AFFINE_R1),
    LieType("C", 5, AFFINE_R1), LieType("D", 6, AFFINE_R1),
    LieType("E", 7, AFFINE_R1), LieType("E", 8, AFFINE_R1),
    LieType("A", 7, AFFINE_R2), LieType("A", 9, AFFINE_R2),
    LieType("D", 5, AFFINE_R2), LieType("D", 6, AFFINE_R2),
]

# The twisted types admitted over the families A-G and ranks 1-12.
TWISTED_ADMITTED = (
    {("A", l, AFFINE_R2) for l in (3, 5, 7, 9, 11)}
    | {("D", l, AFFINE_R2) for l in range(3, 13)}
    | {("E", 6, AFFINE_R2), ("D", 4, AFFINE_R3)})
# Every affine type of rank <= 9 that LieType admits.
AFFINE_UP_TO_9 = (
    [LieType("A", l, AFFINE_R1) for l in range(1, 10)]
    + [LieType(f, l, AFFINE_R1) for f in "BC" for l in range(2, 10)]
    + [LieType("D", l, AFFINE_R1) for l in range(4, 10)]
    + [LieType("E", l, AFFINE_R1) for l in (6, 7, 8)]
    + [LieType("F", 4, AFFINE_R1), LieType("G", 2, AFFINE_R1)]
    + [LieType(*x) for x in sorted(TWISTED_ADMITTED) if x[1] <= 9])


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

    def test_twisted_admission(self):
        admitted = set()
        for kind in (AFFINE_R2, AFFINE_R3):
            for family in "ABCDEFG":
                for rank in range(1, 13):
                    try:
                        LieType(family, rank, kind)
                    except UnsupportedType:
                        continue
                    admitted.add((family, rank, kind))
        assert admitted == TWISTED_ADMITTED

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
        # alpha_i = sum_j A_ji omega_j carries gram_weights to the Gram
        # matrix of the simple roots, (alpha_i, alpha_j) = d_i A_ij.
        for i in range(l):
            for j in range(l):
                val = sum(d.A_fin[r][i] * Fraction(d.gram_weights[r][s]) * d.A_fin[s][j]
                          for r in range(l) for s in range(l))
                assert val == d.d_fin[i] * d.A_fin[i][j]

    def test_unsupported(self):
        with pytest.raises(UnsupportedType):
            build_cartan(LieType("A", 4, AFFINE_R2))


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
    # The oracle's closed-form M, behind the M_index and pair_index tests.
    def test_lattice_m_a1(self):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        assert closed_form_M(d) == ((Fraction(2),),)

    def test_lattice_m_a2_index(self):
        d = build_cartan(LieType("A", 2, AFFINE_R1))
        assert lattice_index(((1, 0), (0, 1)), closed_form_M(d)) == 3

    def test_lattice_m_d4_triality(self):
        d = build_cartan(LieType("D", 4, AFFINE_R3))
        m = closed_form_M(d)
        assert len(m) == 2  # full rank in the rank-2 weight space
        assert lattice_index(((1, 0), (0, 1)), m) == 1

    # The oracle index behind the M_index and pair_index tests, on its
    # own: scaling, equality and a lattice that is not a sublattice.
    def test_index_scaling(self):
        z2 = ((1, 0), (0, 1))
        assert lattice_index(z2, ((2, 0), (0, 2))) == 4
        assert lattice_index(z2, z2) == 1

    def test_not_sublattice(self):
        half = ((Fraction(1, 2), 0), (0, Fraction(1, 2)))
        with pytest.raises(ValueError, match="not contained"):
            lattice_index(((1, 0), (0, 1)), half)

    def test_lattice_gates_fire_without_asserts(self):
        # The containment M in M* behind [M*:M] is a typed error that
        # python -O keeps, and a failed M_index caches nothing.
        script = textwrap.dedent("""
            from fractions import Fraction

            from twistfuse.cartan import AFFINE_R1, LieType, build_cartan
            from twistfuse.errors import TwistfuseError

            def run(call):
                try:
                    call()
                except TwistfuseError as exc:
                    print(f"{type(exc).__name__}: {exc}")
                else:
                    print("no error")

            # d_1 = 3/4 on A1^(1): Gram(M) = (3/4) 2 / (3/4)^2 = 8/3.
            a1 = build_cartan(LieType("A", 1, AFFINE_R1))
            true_d = a1.d_fin
            a1.d_fin = (Fraction(3, 4),)
            run(lambda: a1.M_index)
            print("cached" if "M_index" in vars(a1) else "nothing cached")
            a1.d_fin = true_d
            run(lambda: print(a1.M_index))
        """)
        src = os.path.dirname(os.path.dirname(twistfuse.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        expected = [("NotSublattice", "A1^(1): Gram(M) is not integral"),
                    ("nothing cached", ""), ("2", ""), ("no error", "")]
        assert len(lines) == len(expected), lines
        for line, (name, what) in zip(lines, expected):
            assert line.startswith(name) and what in line, line

    @staticmethod
    def run_optimized(body):
        """Run body under python -O, after the imports the checks need; it
        prints one line per call."""
        script = textwrap.dedent("""
            from fractions import Fraction
            from twistfuse.cartan import CartanDatum, LieType, Weight, build_cartan

            def run(call, expected):
                try:
                    call()
                except expected as exc:
                    print(f"{type(exc).__name__}: {exc}")
                else:
                    print("no error")
        """) + textwrap.dedent(body)
        src = os.path.dirname(os.path.dirname(twistfuse.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_datum_invariants_fire_without_asserts(self):
        # d = (1, 1) does not symmetrise the B2 or G2 Cartan matrix.
        lines = self.run_optimized("""
            from twistfuse.errors import CheckFailed
            for name in ("B2", "G2"):
                d = build_cartan(LieType(name[0], int(name[1])))
                run(lambda: CartanDatum(d.type, d.A, (Fraction(1), Fraction(1))),
                    CheckFailed)
            run(lambda: build_cartan(LieType("B", 2)), CheckFailed)
        """)
        assert lines == ["CheckFailed: B2: diag(d) A not symmetric",
                         "CheckFailed: G2: diag(d) A not symmetric",
                         "no error"]

    def test_wrong_partner_mark_fires_without_asserts(self):
        # A twisted datum reads its marks and comarks off its partner's
        # finite datum; a wrong one there is caught by the invariant gate.
        lines = self.run_optimized("""
            from twistfuse.cartan import AFFINE_R2
            from twistfuse.errors import CheckFailed
            b3 = build_cartan(LieType("B", 3))
            b3.comarks = (1, 2, 2)
            run(lambda: build_cartan(LieType("A", 5, AFFINE_R2)), CheckFailed)
            c3 = build_cartan(LieType("C", 3))
            c3.marks = (2, 2, 2)
            run(lambda: build_cartan(LieType("D", 4, AFFINE_R2)), CheckFailed)
            run(lambda: build_cartan(LieType("D", 5, AFFINE_R2)), CheckFailed)
        """)
        assert lines == ["CheckFailed: A marks != 0",
                         "CheckFailed: comarks A != 0",
                         "no error"]

    def test_weight_rank_fires_without_asserts(self):
        lines = self.run_optimized("""
            a2 = build_cartan(LieType("A", 2))
            run(lambda: Weight(a2, (1, 0, 0)), ValueError)
            run(lambda: a2.weight((1,)), ValueError)
            run(lambda: a2.weight((1, 0)), ValueError)
        """)
        assert lines == ["ValueError: 3 labels for a weight of A2",
                         "ValueError: 1 labels for a weight of A2",
                         "no error"]

    # The oracle dual lattice behind the M_index test, on its own.
    def test_dual_a1(self):
        d = build_cartan(LieType("A", 1))
        assert dual_lattice(((2,),), d.gram_weights) == ((Fraction(1),),)

    def test_dual_selfdual(self):
        # Taking the dual twice gives the lattice back.
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        m = closed_form_M(d)
        g = d.gram_weights
        assert dual_lattice(m, g) == ((Fraction(1),),)
        assert dual_lattice(dual_lattice(m, g), g) == m

    def test_dual_a2_root_to_weight(self):
        aff = build_cartan(LieType("A", 2, AFFINE_R1))
        q = closed_form_M(aff)  # root lattice for simply-laced
        p = dual_lattice(q, aff.gram_weights)
        weight_lattice = ((1, 0), (0, 1))
        assert lattice_index(p, weight_lattice) == 1
        assert lattice_index(weight_lattice, p) == 1

    @pytest.mark.parametrize("type_", sorted(
        {LieType(f, l, AFFINE_R1) for f, l in UNTWISTED} | set(ALL_AFFINE)
        | {LieType(*x) for x in TWISTED_ADMITTED} | set(AFFINE_UP_TO_9),
        key=str), ids=str)
    def test_dual_index_is_gram_determinant(self, type_):
        # On every type the suite builds, and every affine type of rank
        # <= 9: M_index, det Gram(M) from the Cartan data, is the index of
        # the oracle's closed-form M in its dual lattice.
        d = build_cartan(type_)
        m = closed_form_M(d)
        index = d.M_index
        assert type(index) is int
        assert index == lattice_index(dual_lattice(m, d.gram_weights), m)

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A5", "D4", "E6"])
    def test_simply_laced_m_is_root_lattice(self, name):
        d = build_cartan(parse_type(name, AFFINE_R1))
        m = closed_form_M(d)
        l = d.rank
        roots = tuple(tuple(d.A_fin[r][i] for r in range(l)) for i in range(l))
        assert lattice_index(m, roots) == 1
        assert lattice_index(roots, m) == 1


@pytest.mark.parametrize(
    "case", [LieType(f, l, AFFINE_R1) for f, l in UNTWISTED] + FOLDINGS,
    ids=lambda c: str(c) if isinstance(c, LieType) else f"{c[0]}/{c[1]}")
def test_closed_form_M_is_theta_orbit_span(case):
    """The oracle's closed-form M spans the lattice of its definition, the
    span of the Weyl orbit of theta (equal HNF), on every untwisted type and
    on the twisted and adjacent data of every folding; phi takes M' onto
    the lattice phi(orbit span of M')."""
    if isinstance(case, LieType):
        data = [build_cartan(case)]
    else:
        f = build_folding(*case)
        data = [f.twisted, f.adjacent]
        expected = [mat_vec(f.phi, v) for v in orbit_span_lattice(f.adjacent)]
        assert (lattice_basis_rows(phi_transported_M(f))
                == lattice_basis_rows(expected))
    for d in data:
        assert lattice_basis_rows(closed_form_M(d)) == orbit_span_lattice(d)


@pytest.mark.parametrize("type_,order", FOLDINGS, ids=str)
def test_pair_index_is_transported_lattice_index(type_, order):
    """fold.pair_index, the product of the twisted symmetrizers, is the
    index of M^dag in the oracle's phi(M') on every folding."""
    f = build_folding(type_, order)
    index = pair_index(f)
    assert type(index) is int
    assert index == lattice_index(phi_transported_M(f), closed_form_M(f.twisted))


UNTWISTED_FINITE = ([f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 8)]
                    + [f"C{l}" for l in range(2, 8)] + [f"D{l}" for l in range(4, 9)]
                    + ["E6", "E7", "E8", "F4", "G2"])
TWISTED = [
    LieType("A", 3, AFFINE_R2), LieType("A", 5, AFFINE_R2),
    LieType("D", 4, AFFINE_R2), LieType("D", 5, AFFINE_R2),
    LieType("E", 6, AFFINE_R2), LieType("D", 4, AFFINE_R3),
]


class TestReflectionKernel:
    """theta and its orbit, read off the shared reflection kernels, against
    the first-negative-label loop and the set-based orbit search; the
    lattice M against the span of that orbit."""

    @staticmethod
    def check_lattice(d):
        theta = d.theta.coords
        start = np.array(theta, dtype=np.int64)[None, None]
        points = orbit_walk(simple_roots(d.finite.A), start)[0]
        orbit = [tuple(p) for p in points[:, 0].tolist()]
        expected = weyl_orbit_set(d.finite.A, theta)
        assert len(orbit) == len(expected) and set(orbit) == expected
        assert lattice_basis_rows(closed_form_M(d)) == lattice_basis_rows(expected)

    @pytest.mark.parametrize("name", UNTWISTED_FINITE)
    def test_untwisted(self, name):
        fin = build_cartan(parse_type(name))
        aff = build_cartan(parse_type(name, AFFINE_R1))
        assert fin.theta.coords == aff.theta.coords == highest_root_labels(fin.A, fin.d)
        self.check_lattice(aff)

    @pytest.mark.parametrize("type_", TWISTED, ids=str)
    def test_twisted(self, type_):
        self.check_lattice(build_cartan(type_))


def walk_starts(fin):
    """Dominant start points: theta, regular weights, and singular ones
    (zero labels): each fundamental weight and a weight with a zero label."""
    l = fin.rank
    fundamental = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    return ([fin.theta.coords, (1,) * l, tuple(range(1, l + 1))] + fundamental
            + [(0, 2) + (1,) * (l - 2)])


class TestOrbitWalk:
    """The one orbit walk against the set-based orbit search, one start
    point at a time and all at once, with and without a node prefix."""

    @staticmethod
    def walk(fin, starts, nodes):
        start = np.array(starts, dtype=np.int64)[:, None]
        points, depth, origin = orbit_walk(simple_roots(fin.A), start, nodes)
        assert points.shape == (len(depth), 1, fin.rank) and depth.shape == origin.shape
        return [tuple(p) for p in points[:, 0].tolist()], depth.tolist(), origin.tolist()

    @pytest.mark.parametrize("nodes", [None, "prefix"])
    @pytest.mark.parametrize("name", ["A5", "B3", "D5", "E6", "F4", "G2"])
    def test_against_orbit_set(self, name, nodes):
        fin = build_cartan(parse_type(name))
        nodes = None if nodes is None else fin.rank - 1
        starts = walk_starts(fin)
        alone = [self.walk(fin, [x], nodes) for x in starts]
        for x, (orbit, depth, origin) in zip(starts, alone):
            assert orbit[0] == x and depth[0] == 0 and set(origin) == {0}
            assert depth == sorted(depth)
            assert len(orbit) == len(set(orbit))
            assert set(orbit) == weyl_orbit_set(fin.A, x, nodes)
        # All start points in one walk: the same orbits, told apart by origin.
        orbit, depth, origin = self.walk(fin, starts, nodes)
        for j, (one, one_depth, _) in enumerate(alone):
            mine = [(p, d) for p, d, o in zip(orbit, depth, origin) if o == j]
            assert mine == list(zip(one, one_depth))
