import dataclasses
import itertools
from fractions import Fraction
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistfuse.cartan import (AFFINE_R1, AFFINE_R2, AFFINE_R3, LeveledWeight,
                              LieType, build_cartan, orbit_walk, parse_type)
import twistfuse
import twistfuse.rep as rep
from twistfuse.errors import (DimensionCap, IntegralityFailure, MassMismatch,
                              NegativeMultiplicity)
from twistfuse.fold import build_folding
from twistfuse.fusion import kac_walton
from twistfuse.rep import (branch, dim, dominant_level_weights, freudenthal,
                           root_table, tensor_decompose)
from twistfuse._rational import mat_vec

from oracles import (clebsch_gordan_range, convolve_weight_dicts,
                     fraction_dim, fraction_freudenthal, lattice_freudenthal,
                     materialised_weyl, peel_branch, sl2_string, weight_dict)


def coords_dict(table):
    return {tuple(w.coords): m for w, m in table.entries.items()}


class TestDominantLevelWeights:
    def test_a1_level1(self):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        assert [w.finite.coords for w in dominant_level_weights(d, 1)] == [(0,), (1,)]

    def test_level0(self):
        d = build_cartan(LieType("D", 4, AFFINE_R1))
        ws = dominant_level_weights(d, 0)
        assert len(ws) == 1 and ws[0].finite.coords == (0, 0, 0, 0)

    def test_a3_level1(self):
        d = build_cartan(LieType("A", 3, AFFINE_R1))
        assert len(dominant_level_weights(d, 1)) == 4

    @pytest.mark.parametrize("name,k", [("A2", 2), ("C2", 3), ("G2", 3)])
    def test_matches_brute_enumeration(self, name, k):
        d = build_cartan(parse_type(name, AFFINE_R1))
        covee = d.comarks[1:]
        brute = sorted(
            c for c in itertools.product(range(k + 1), repeat=d.rank)
            if sum(a * x for a, x in zip(covee, c)) <= k)
        assert [w.finite.coords for w in dominant_level_weights(d, k)] == brute

    def test_lexicographic_order(self):
        d = build_cartan(LieType("A", 2, AFFINE_R1))
        ws = [w.finite.coords for w in dominant_level_weights(d, 2)]
        assert ws == sorted(ws)
        assert ws[0] == (0, 0)

    def test_rejects_finite_datum_and_negative_level(self):
        with pytest.raises(ValueError, match="affine datum"):
            dominant_level_weights(build_cartan(LieType("A", 2)), 1)
        with pytest.raises(ValueError, match="k >= 0"):
            dominant_level_weights(build_cartan(LieType("A", 2, AFFINE_R1)), -1)

    def test_is_level_dominant(self):
        d = build_cartan(LieType("A", 2, AFFINE_R1))

        def at_level_2(*labels):
            return rep.is_level_dominant(d, LeveledWeight(2, d.weight(labels)))

        assert at_level_2(1, 1) and at_level_2(0, 2) and at_level_2(Fraction(2), 0)
        assert at_level_2(2.0, 0)
        assert not at_level_2(Fraction(1, 2), 0)
        assert not at_level_2(Fraction(3, 2), Fraction(1, 2))
        assert not at_level_2(1.5, 0)
        assert not at_level_2(-1, 1)
        assert not at_level_2(3, -1)
        assert not at_level_2(2, 1)  # level 3
        vac = d.leveled(2, (0, 0))
        for labels in [(Fraction(1, 2), 0), (-1, 1)]:
            with pytest.raises(ValueError, match="not a level-2 dominant"):
                kac_walton(d, 2, d.leveled(2, labels), vac, vac)


class TestFreudenthal:
    def test_sl2_strings(self):
        d = build_cartan(LieType("A", 1))
        for k in range(5):
            ws = freudenthal(d, d.weight((k,)))
            assert weight_dict(ws) == sl2_string(k)

    def test_trivial(self):
        d = build_cartan(LieType("F", 4))
        ws = freudenthal(d, d.weight((0, 0, 0, 0)))
        assert weight_dict(ws) == {(0, 0, 0, 0): 1}

    def test_a2_adjoint(self):
        d = build_cartan(LieType("A", 2))
        ws = freudenthal(d, d.weight((1, 1)))
        assert ws.total() == 8
        assert weight_dict(ws)[(0, 0)] == 2

    @pytest.mark.parametrize("name,coords", [
        ("A2", (2, 1)), ("B2", (1, 1)), ("G2", (0, 1)), ("A3", (1, 0, 1)),
        ("C3", (0, 1, 0)), ("D4", (0, 1, 0, 0)),
    ])
    def test_mass_and_orbit_invariance(self, name, coords):
        d = build_cartan(parse_type(name))
        ws = freudenthal(d, d.weight(coords))
        assert ws.total() == dim(d, coords)
        mults = weight_dict(ws)
        W = materialised_weyl(d)
        for v, m in mults.items():
            for w in W:
                assert mults.get(mat_vec(w, v)) == m

    def test_dimension_cap(self, monkeypatch):
        d = build_cartan(LieType("A", 3))
        monkeypatch.setattr(rep, "DIMENSION_CAP", 1000)
        with pytest.raises(DimensionCap, match="exceeds the cap 1000"):
            freudenthal(d, d.weight((9, 9, 9)))

    def test_dimension_cap_after_cache_hit(self, monkeypatch):
        # The cap is read at call time and checked before the cached weight
        # system of (2, 2, 2) is returned.
        d = build_cartan(LieType("A", 3))
        assert freudenthal(d, (2, 2, 2)).total() == 729
        monkeypatch.setattr(rep, "DIMENSION_CAP", 100)
        with pytest.raises(DimensionCap, match="dim 729 exceeds the cap 100"):
            freudenthal(d, (2, 2, 2))


ORACLE_GRID = [(n, 3) for n in ("A1", "A2", "A3", "B2", "B3", "C2", "G2", "D4")] + [("E6", 1)]


class TestAgainstFractionOracles:
    """The integer kernel against the Fraction dim and Freudenthal it replaced."""

    @pytest.mark.parametrize("name,k", ORACLE_GRID)
    def test_level_weights(self, name, k):
        affine = build_cartan(parse_type(name, AFFINE_R1))
        fin = affine.finite
        for lw in dominant_level_weights(affine, k):
            coords = lw.finite.coords
            assert dim(fin, coords) == fraction_dim(fin, coords)
            assert weight_dict(freudenthal(fin, coords)) == fraction_freudenthal(fin, coords)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_dominant_weights(self, data):
        name = data.draw(st.sampled_from(["A2", "A3", "B2", "B3", "C2", "C3", "G2", "D4"]))
        fin = build_cartan(parse_type(name))
        coords = tuple(data.draw(st.lists(st.integers(0, 4), min_size=fin.rank,
                                          max_size=fin.rank)))
        expect = fraction_dim(fin, coords)
        assume(expect <= 5000)
        assert dim(fin, coords) == expect
        assert weight_dict(freudenthal(fin, coords)) == fraction_freudenthal(fin, coords)


LATTICE_GRID = [("F4", 2), ("E6", 2), ("B4", 2), ("C4", 2), ("D5", 2), ("E7", 1)]


class TestAgainstLatticeOracle:
    """The dominant-chamber recursion and orbit expansion against the
    full-lattice integer recursion they replaced."""

    @pytest.mark.parametrize("name,k", LATTICE_GRID)
    def test_level_weights(self, name, k):
        affine = build_cartan(parse_type(name, AFFINE_R1))
        fin = affine.finite
        for lw in dominant_level_weights(affine, k):
            coords = lw.finite.coords
            assert weight_dict(freudenthal(fin, coords)) == lattice_freudenthal(fin, coords)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_dominant_weights(self, data):
        name = data.draw(st.sampled_from(
            ["A2", "A3", "B2", "B3", "C2", "C3", "C4", "G2", "D4", "F4"]))
        fin = build_cartan(parse_type(name))
        coords = tuple(data.draw(st.lists(st.integers(0, 4), min_size=fin.rank,
                                          max_size=fin.rank)))
        assume(dim(fin, coords) <= 5000)
        assert weight_dict(freudenthal(fin, coords)) == lattice_freudenthal(fin, coords)


class TestRootTable:
    @pytest.mark.parametrize("name", ["A1", "A4", "B3", "C4", "D5", "E6", "E7", "E8", "F4", "G2"])
    def test_coefficients_and_heights(self, name):
        fin = build_cartan(parse_type(name))
        table = root_table(fin)
        assert len(table.labels) == len(set(table.labels)) == fin.npos
        assert table.labels == tuple(sorted(table.labels))
        for v, c, ht in zip(table.labels, table.coeffs, table.heights):
            assert min(c) >= 0 and sum(c) == ht
            # labels are A times the simple-root coefficients
            assert v == tuple(sum(fin.A[i][j] * c[j] for j in range(fin.rank))
                              for i in range(fin.rank))
        # the highest root has height h - 1, where 2 npos = rank * h
        assert max(table.heights) == 2 * fin.npos // fin.rank - 1

    def test_twisted_finite_part(self):
        affine = build_cartan(LieType("D", 4, AFFINE_R3))
        assert len(root_table(affine.finite).labels) == affine.finite.npos == 6


class TestGates:
    """Each exactness or mass check is a typed error, not an assert."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        rep._dim.cache_clear()
        rep._weight_system.cache_clear()
        yield
        rep._dim.cache_clear()
        rep._weight_system.cache_clear()

    def test_dim_exactness(self, monkeypatch):
        d = build_cartan(LieType("A", 2))
        table = root_table(d)
        bad = dataclasses.replace(table, rho_prod=2 * table.rho_prod)
        monkeypatch.setattr(rep, "root_table", lambda fin: bad)
        with pytest.raises(IntegralityFailure, match="Weyl dimension"):
            dim(d, (0, 0))

    def test_freudenthal_integrality(self, monkeypatch):
        d = build_cartan(LieType("A", 2))
        table = root_table(d)
        ga = list(table.gram_alpha)
        ga[0] = (ga[0][0] + 1,) + ga[0][1:]
        bad = dataclasses.replace(table, gram_alpha=tuple(ga))
        assert dim(d, (1, 1)) == 8  # memoised before the table is corrupted
        monkeypatch.setattr(rep, "root_table", lambda fin: bad)
        with pytest.raises(IntegralityFailure, match="Freudenthal multiplicity"):
            freudenthal(d, (1, 1))

    def test_freudenthal_mass(self, monkeypatch):
        d = build_cartan(LieType("A", 2))
        true_dim = rep.dim
        monkeypatch.setattr(rep, "dim", lambda datum, lam: true_dim(datum, lam) + 1)
        with pytest.raises(MassMismatch, match="8 != expected 9"):
            freudenthal(d, (1, 1))

    @staticmethod
    def corrupt(monkeypatch, highest, weight, delta):
        """Shift one multiplicity of one weight system by delta."""
        true_freudenthal = rep.freudenthal

        def corrupted(datum, lam):
            ws = true_freudenthal(datum, lam)
            if ws.highest.coords != highest:
                return ws
            hit = (ws.weights == weight).all(axis=1)
            return rep.WeightSystem(ws.highest, ws.weights, ws.mults + delta * hit)
        monkeypatch.setattr(rep, "freudenthal", corrupted)

    def test_tensor_mass(self, monkeypatch):
        d = build_cartan(LieType("A", 2))
        self.corrupt(monkeypatch, (1, 1), (0, 0), 1)
        with pytest.raises(MassMismatch, match="72 != expected 64"):
            tensor_decompose(d, (1, 1), (1, 1))

    def test_tensor_positivity(self, monkeypatch):
        d = build_cartan(LieType("A", 1))
        self.corrupt(monkeypatch, (1,), (1,), -2)
        with pytest.raises(NegativeMultiplicity, match="-1 at"):
            tensor_decompose(d, (1,), (1,))

    def test_branch_mass(self, monkeypatch):
        f = build_folding(LieType("A", 3, AFFINE_R1))
        self.corrupt(monkeypatch, (1, 0, 1), (0, 0, 0), 1)
        with pytest.raises(MassMismatch, match="16 != expected 15"):
            branch(f.base.finite, f.twisted.finite, f.iota_dual, (1, 0, 1))

    def test_gates_fire_without_asserts(self):
        script = textwrap.dedent("""
            import dataclasses
            import twistfuse.rep as rep
            from twistfuse.cartan import AFFINE_R1, LieType, build_cartan
            from twistfuse.errors import TwistfuseError
            from twistfuse.fold import build_folding

            a2 = build_cartan(LieType("A", 2))
            true_freudenthal, true_dim, true_table = rep.freudenthal, rep.dim, rep.root_table

            def zero_weight_plus_one(datum, lam):
                ws = true_freudenthal(datum, lam)
                if ws.highest.coords not in [(1, 1), (1, 0, 1)]:
                    return ws
                return rep.WeightSystem(ws.highest, ws.weights,
                                        ws.mults + ~ws.weights.any(axis=1))

            def run(call):
                rep._dim.cache_clear()
                rep._weight_system.cache_clear()
                try:
                    call()
                except TwistfuseError as exc:
                    print(type(exc).__name__)
                else:
                    print("no error")

            rep.freudenthal = zero_weight_plus_one
            run(lambda: rep.tensor_decompose(a2, (1, 1), (1, 1)))
            f = build_folding(LieType("A", 3, AFFINE_R1))
            run(lambda: rep.branch(f.base.finite, f.twisted.finite, f.iota_dual, (1, 0, 1)))
            rep.freudenthal = true_freudenthal
            rep.dim = lambda datum, lam: true_dim(datum, lam) + 1
            run(lambda: rep.freudenthal(a2, (1, 1)))
            rep.dim = true_dim
            table = true_table(a2)
            rep.root_table = lambda fin: dataclasses.replace(
                table, rho_prod=2 * table.rho_prod)
            run(lambda: rep.dim(a2, (0, 0)))
        """)
        src = os.path.dirname(os.path.dirname(twistfuse.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["MassMismatch", "MassMismatch",
                                       "MassMismatch", "IntegralityFailure"]


def drop_last_orbit_points(simple, start):
    """`orbit_walk` less the last point of each start point's orbit."""
    points, depth, origin = orbit_walk(simple, start)
    last = {o: n for n, o in enumerate(origin.tolist())}
    keep = np.setdiff1d(np.arange(len(origin)), list(last.values()))
    return points[keep], depth[keep], origin[keep]


class TestOrbitExpansion:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        rep._weight_system.cache_clear()
        yield
        rep._weight_system.cache_clear()

    @pytest.mark.parametrize("name,coords", [
        ("A3", (1, 0, 1)), ("B3", (0, 0, 1)), ("G2", (1, 1)), ("D4", (0, 1, 0, 0)),
    ])
    def test_orbit_against_materialised_group(self, name, coords):
        fin = build_cartan(parse_type(name))
        start = np.array(coords, dtype=np.int64)[None, None]
        points = orbit_walk(root_table(fin).simple, start)[0]
        orbit = [tuple(p) for p in points[:, 0].tolist()]
        assert len(orbit) == len(set(orbit))
        assert set(orbit) == {mat_vec(w, coords) for w in materialised_weyl(fin)}

    def test_dropped_orbit_point(self, monkeypatch):
        monkeypatch.setattr(rep, "orbit_walk", drop_last_orbit_points)
        d = build_cartan(LieType("A", 2))
        with pytest.raises(MassMismatch, match="5 != expected 8"):
            freudenthal(d, (1, 1))

    def test_arrays_are_read_only(self):
        d = build_cartan(LieType("B", 3))
        ws = freudenthal(d, (1, 0, 1))
        with pytest.raises(ValueError, match="read-only"):
            ws.weights[0, 0] = 7
        with pytest.raises(ValueError, match="read-only"):
            ws.mults += 1
        again = freudenthal(d, (1, 0, 1))
        assert again is ws
        assert weight_dict(again) == fraction_freudenthal(d, (1, 0, 1))

    def test_gates_fire_without_asserts(self):
        script = textwrap.dedent("""
            import copy
            import numpy as np
            import twistfuse.rep as rep
            from twistfuse.cartan import AFFINE_R1, LieType, build_cartan
            from twistfuse.errors import TwistfuseError

            def run(call):
                try:
                    call()
                except (TwistfuseError, ValueError) as exc:
                    print(type(exc).__name__)
                else:
                    print("no error")

            a2 = build_cartan(LieType("A", 2))
            run(lambda: rep.dominant_level_weights(a2, 1))
            run(lambda: rep.dominant_level_weights(build_cartan(LieType("A", 2, AFFINE_R1)), -1))
            miscounted = copy.copy(a2)
            miscounted.npos += 1
            run(lambda: rep.root_table(miscounted))
            true_walk = rep.orbit_walk

            def drop_last_orbit_points(simple, start):
                points, depth, origin = true_walk(simple, start)
                last = {o: n for n, o in enumerate(origin.tolist())}
                keep = np.setdiff1d(np.arange(len(origin)), list(last.values()))
                return points[keep], depth[keep], origin[keep]

            rep.orbit_walk = drop_last_orbit_points
            run(lambda: rep.freudenthal(a2, (1, 1)))
        """)
        src = os.path.dirname(os.path.dirname(twistfuse.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ValueError", "ValueError",
                                       "RootCountMismatch", "MassMismatch"]


class TestDim:
    def test_a1_closed_form(self):
        d = build_cartan(LieType("A", 1))
        for k in range(8):
            assert dim(d, (k,)) == k + 1

    def test_trivial(self):
        for name in ["A3", "G2", "F4"]:
            d = build_cartan(parse_type(name))
            assert dim(d, (0,) * d.rank) == 1

    def test_a3_exterior_square(self):
        # weights of the second exterior power of the defining module
        d = build_cartan(LieType("A", 3))
        vec = freudenthal(d, d.weight((1, 0, 0)))
        pts = [w for w, m in weight_dict(vec).items() for _ in range(m)]
        wedge = [tuple(a + b for a, b in zip(p, q))
                 for i, p in enumerate(pts) for q in pts[i + 1:]]
        assert dim(d, (0, 1, 0)) == len(wedge) == 6

    @pytest.mark.parametrize("coords", [(-4, 0), (-3, 0), (0, -5), (-1, 0)])
    def test_non_dominant_weight_is_a_value_error(self, coords):
        # As for freudenthal and tensor_decompose; the Weyl formula gave
        # 3, 1 and 6 for the first three, and IntegralityFailure, a failed
        # check, for (-1, 0).
        d = build_cartan(LieType("A", 2))
        for lam in (coords, d.weight(coords)):
            with pytest.raises(ValueError, match="must be dominant"):
                dim(d, lam)


class TestTensor:
    def test_a1_clebsch_gordan(self):
        d = build_cartan(LieType("A", 1))
        for a in range(4):
            for b in range(4):
                t = tensor_decompose(d, d.weight((a,)), d.weight((b,)))
                assert coords_dict(t) == {(c,): 1 for c in clebsch_gordan_range(a, b)}

    def test_unit(self):
        d = build_cartan(LieType("D", 4))
        lam = d.weight((1, 0, 0, 1))
        t = tensor_decompose(d, lam, d.weight((0, 0, 0, 0)))
        assert coords_dict(t) == {(1, 0, 0, 1): 1}

    @pytest.mark.parametrize("lam,mu", [((1, 0), (-3, 5)), ((-1, 0), (0, 0))])
    def test_non_dominant_factor_is_a_value_error(self, lam, mu):
        # An input error, raised before the dimension sort key meets the
        # factor (it raised IntegralityFailure, a failed check).
        with pytest.raises(ValueError, match="must be dominant"):
            tensor_decompose(build_cartan(LieType("A", 2)), lam, mu)

    def test_a3_square_of_vector(self):
        d = build_cartan(LieType("A", 3))
        t = tensor_decompose(d, d.weight((1, 0, 0)), d.weight((1, 0, 0)))
        assert coords_dict(t) == {(2, 0, 0): 1, (0, 1, 0): 1}
        assert dim(d, (2, 0, 0)) == 10 and dim(d, (0, 1, 0)) == 6

    def test_klimyk_blocks_of_no_pairs(self):
        # No pairs, with or without factors, yield no block.
        d = build_cartan(LieType("A", 2))
        none = np.zeros(0, dtype=np.int64)
        assert list(rep.klimyk_blocks(d, [], [], none, none)) == []
        bases = [rep._base(d, (1, 0))]
        systems = [rep._system(d, (0, 1))]
        assert list(rep.klimyk_blocks(d, bases, systems, none, none)) == []

    @pytest.mark.parametrize("name", ["A2", "B2", "G2"])
    def test_symmetric_and_conserved(self, name):
        d = build_cartan(parse_type(name))
        lam, mu = d.weight((1, 1)), d.weight((0, 2))
        t1 = tensor_decompose(d, lam, mu)
        t2 = tensor_decompose(d, mu, lam)
        assert coords_dict(t1) == coords_dict(t2)
        total = sum(m * dim(d, w.coords) for w, m in t1.entries.items())
        assert total == dim(d, lam.coords) * dim(d, mu.coords)

    @pytest.mark.parametrize("name,pairs", [
        ("A2", [((1, 0), (1, 0)), ((1, 1), (1, 0)), ((1, 1), (1, 1)),
                ((2, 0), (0, 2)), ((3, 0), (1, 1)), ((2, 1), (1, 2))]),
        ("B2", [((1, 0), (0, 1)), ((0, 1), (0, 1)), ((1, 1), (1, 0)),
                ((2, 0), (1, 1)), ((0, 3), (1, 1))]),
        ("C2", [((1, 0), (0, 1)), ((1, 1), (1, 1)), ((2, 0), (0, 2))]),
        ("G2", [((1, 0), (0, 1)), ((0, 1), (0, 1)), ((1, 1), (1, 0)),
                ((0, 2), (1, 0))]),
        ("A3", [((1, 0, 0), (0, 0, 1)), ((1, 0, 1), (0, 1, 0)),
                ((1, 1, 0), (0, 1, 1)), ((2, 0, 0), (0, 0, 2))]),
        ("B3", [((1, 0, 0), (0, 0, 1)), ((0, 0, 1), (0, 0, 1)),
                ((0, 1, 0), (1, 0, 1))]),
        ("D4", [((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 1, 0, 0)),
                ((1, 0, 0, 1), (0, 0, 1, 0))]),
    ])
    def test_against_character_product(self, name, pairs):
        d = build_cartan(parse_type(name))
        for lc, mc in pairs:
            sys1 = weight_dict(freudenthal(d, d.weight(lc)))
            sys2 = weight_dict(freudenthal(d, d.weight(mc)))
            product = convolve_weight_dicts(sys1, sys2)
            t = tensor_decompose(d, d.weight(lc), d.weight(mc))
            rebuilt = {}
            for w, mult in t.entries.items():
                comp = freudenthal(d, w)
                for v, m in weight_dict(comp).items():
                    rebuilt[v] = rebuilt.get(v, 0) + mult * m
            assert rebuilt == product


class TestBranch:
    def test_a3_to_c2_vector(self):
        f = build_folding(LieType("A", 3, AFFINE_R1))
        amb, sub = f.base.finite, f.twisted.finite
        t = branch(amb, sub, f.iota_dual, amb.weight((1, 0, 0)))
        assert coords_dict(t) == {(1, 0): 1}
        assert dim(sub, (1, 0)) == 4

    def test_trivial(self):
        f = build_folding(LieType("E", 6, AFFINE_R1))
        t = branch(f.base.finite, f.twisted.finite, f.iota_dual,
                   f.base.finite.weight((0,) * 6))
        assert coords_dict(t) == {(0, 0, 0, 0): 1}

    def test_d4_to_g2_vector(self):
        f = build_folding(LieType("D", 4, AFFINE_R1), 3)
        amb, sub = f.base.finite, f.twisted.finite
        t = branch(amb, sub, f.iota_dual, amb.weight((1, 0, 0, 0)))
        assert coords_dict(t) == {(1, 0): 1, (0, 0): 1}
        # weight-restriction oracle: restricted multiset equals the union
        restricted = {}
        for w, m in weight_dict(freudenthal(amb, amb.weight((1, 0, 0, 0)))).items():
            y = tuple(sum(int(r) * c for r, c in zip(row, w))
                      for row in f.iota_dual)
            restricted[y] = restricted.get(y, 0) + m
        rebuilt = {}
        for w, mult in t.entries.items():
            for v, m in weight_dict(freudenthal(sub, w)).items():
                rebuilt[v] = rebuilt.get(v, 0) + mult * m
        assert rebuilt == restricted

    def test_conservation(self):
        f = build_folding(LieType("A", 3, AFFINE_R1))
        amb, sub = f.base.finite, f.twisted.finite
        for coords in [(1, 1, 0), (0, 2, 0), (1, 0, 1)]:
            t = branch(amb, sub, f.iota_dual, amb.weight(coords))
            total = sum(m * dim(sub, w.coords) for w, m in t.entries.items())
            assert total == dim(amb, coords)

    @pytest.mark.parametrize("type_,order,k", [
        (LieType("A", 3, AFFINE_R1), None, 5), (LieType("A", 5, AFFINE_R1), None, 3),
        (LieType("D", 5, AFFINE_R1), None, 3), (LieType("D", 4, AFFINE_R1), 2, 3),
        (LieType("D", 4, AFFINE_R1), 3, 3), (LieType("E", 6, AFFINE_R1), None, 2),
    ])
    def test_against_restrict_and_peel(self, type_, order, k):
        """Every level-k weight, against restricting the weight system and
        peeling off highest weights."""
        f = build_folding(type_, order)
        for lw in dominant_level_weights(f.base, k):
            t = branch(f.base.finite, f.twisted.finite, f.iota_dual, lw.finite)
            assert coords_dict(t) == peel_branch(f, lw.finite.coords)

    def test_bad_restriction_matrix(self):
        f = build_folding(LieType("A", 3, AFFINE_R1))
        amb, sub = f.base.finite, f.twisted.finite
        bogus = ((1, 0, 0), (0, 0, 1))  # not the Cartan restriction
        with pytest.raises(NegativeMultiplicity):
            branch(amb, sub, bogus, amb.weight((1, 1, 0)))
