import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistfuse
import twistfuse.weyl as weyl
from twistfuse.cartan import AFFINE_R1, AFFINE_R2, LieType, build_cartan, parse_type
from twistfuse.errors import RankTooLarge
from twistfuse.rep import dominant_level_weights
from twistfuse._rational import mat_vec
from twistfuse.weyl import (ELEMENT_CAP, alcove_fold, coset_representatives,
                            generate_weyl, signed_orbit, to_dominant,
                            weyl_order)

from oracles import brute_force_fold, mat_mul_int, materialised_weyl, weyl_lengths

CLASSICAL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "B2": 8, "C2": 8, "B3": 48, "C3": 48,
    "G2": 12, "D4": 192, "F4": 1152,
}


class TestGenerateWeyl:
    @pytest.mark.parametrize("name,order", sorted(CLASSICAL_ORDERS.items()))
    def test_orders(self, name, order):
        W = generate_weyl(build_cartan(parse_type(name)))
        assert len(W) == order

    def test_sign_homomorphism(self):
        d = build_cartan(LieType("B", 2))
        W = generate_weyl(d)
        sign_of = dict(zip(W.elements, W.signs))
        for a in W.elements:
            for b in W.elements:
                assert sign_of[mat_mul_int(a, b)] == sign_of[a] * sign_of[b]

    @pytest.mark.parametrize("name", ["A3", "C3", "G2", "D4", "F4"])
    def test_generators_flip_the_sign(self, name):
        # r_i w, formed as a matrix product, is an element with the opposite
        # sign, for every element w and every simple reflection r_i.
        W = generate_weyl(build_cartan(parse_type(name)))
        sign_of = dict(zip(W.elements, W.signs))
        gens = [tuple(map(tuple, g)) for g in W.to_json_dict()["generators"]]
        for w, sign in sign_of.items():
            for g in gens:
                assert sign_of[mat_mul_int(g, w)] == -sign

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                      "C3", "D4", "D5", "G2", "F4", "E6"])
    def test_matches_materialised_group(self, name):
        d = build_cartan(parse_type(name))
        W = generate_weyl(d)
        assert len(set(W.elements)) == len(W) == weyl_order(d)
        assert dict(zip(W.elements, W.signs)) == materialised_weyl(d)

    def test_admits_any_group_under_the_cap(self):
        # A7 has rank 7 but only 8! elements.
        assert len(generate_weyl(build_cartan(LieType("A", 7)))) == math.factorial(8)

    def test_contains_identity(self):
        W = generate_weyl(build_cartan(LieType("A", 3)))
        ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
        assert W.elements[0] == ident and W.signs[0] == 1

    def test_rank_cap(self):
        with pytest.raises(RankTooLarge, match="order 2903040"):
            generate_weyl(build_cartan(LieType("E", 7)))

    def test_debug_dump(self):
        W = generate_weyl(build_cartan(LieType("G", 2)))
        blob = W.to_json_dict()
        assert blob["order"] == 12
        assert len(blob["generators"]) == 2


class TestSignedOrbit:
    @pytest.mark.parametrize("name,order", sorted(CLASSICAL_ORDERS.items()) + [
        ("E6", 51840), ("E7", 2903040), ("E8", 696729600),
        ("A20", math.factorial(21)),
    ])
    def test_order_from_root_heights(self, name, order):
        assert weyl_order(build_cartan(parse_type(name))) == order

    @pytest.mark.parametrize("name,k", [(n, 2) for n in sorted(CLASSICAL_ORDERS)]
                             + [("E6", 1)])
    def test_orbits_of_shifted_level_weights(self, name, k):
        affine = build_cartan(parse_type(name, AFFINE_R1))
        for lw in dominant_level_weights(affine, k):
            pts, signs = signed_orbit(affine, [c + 1 for c in lw.finite.coords])
            assert len(pts) == weyl_order(affine)
            assert len({tuple(p) for p in pts}) == len(pts)
            assert signs.sum() == 0

    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_materialised_group(self, name, data):
        d = build_cartan(parse_type(name))
        x = tuple(data.draw(st.integers(1, 7)) for _ in range(d.rank))
        pts, signs = signed_orbit(d, x)
        W = materialised_weyl(d)
        expected = {mat_vec(w, x): eps for w, eps in W.items()}
        got = {tuple(int(c) for c in p): int(s) for p, s in zip(pts, signs)}
        assert len(got) == len(pts) == len(W)
        assert got == expected

    def test_rejects_singular_weight(self):
        d = build_cartan(LieType("A", 2))
        with pytest.raises(ValueError):
            signed_orbit(d, (0, 1))

    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_stack_matches_materialised_group(self, name, data):
        d = build_cartan(parse_type(name))
        n = data.draw(st.integers(2, 4))
        rows = [tuple(data.draw(st.integers(1, 7)) for _ in range(d.rank))
                for _ in range(n)]
        pts, signs = signed_orbit(d, rows)
        W = materialised_weyl(d)
        assert pts.shape == (len(W), n, d.rank) and signs.shape == (len(W),)
        # Row 0 is regular, so its point names the element w; point p of
        # every row must be w of that row, with the sign of w.
        element = {mat_vec(w, rows[0]): (w, eps) for w, eps in W.items()}
        assert {tuple(int(c) for c in q) for q in pts[:, 0]} == set(element)
        for p in range(len(W)):
            w, eps = element[tuple(int(c) for c in pts[p, 0])]
            assert signs[p] == eps
            for i, x in enumerate(rows):
                assert tuple(int(c) for c in pts[p, i]) == mat_vec(w, x)
        for i, x in enumerate(rows):
            pts_i, signs_i = signed_orbit(d, x)
            assert np.array_equal(pts_i, pts[:, i])
            assert np.array_equal(signs_i, signs)

    def test_rejects_singular_later_row(self):
        # Row 0 steers the walk; a singular or non-dominant later row must
        # still be refused.
        d = build_cartan(LieType("A", 2))
        for rows in ([(1, 1), (2, 3), (0, 1)], [(3, 1), (2, -1)],
                     [(1, 2), (1, 2, 3)], []):
            with pytest.raises(ValueError):
                signed_orbit(d, rows)

    @pytest.mark.parametrize("name", ["E7", "A20"])
    def test_cost_gate(self, name, monkeypatch):
        # The priced gate fires before the walk makes any point.
        def no_walk(*args, **kwargs):
            raise AssertionError("the orbit walk started")

        monkeypatch.setattr(weyl, "orbit_walk", no_walk)
        d = build_cartan(parse_type(name))
        order = weyl_order(d)
        assert order > ELEMENT_CAP
        with pytest.raises(RankTooLarge, match=f"rank {d.rank}.*{order}"):
            signed_orbit(d, (1,) * d.rank)
        with pytest.raises(RankTooLarge, match=f"rank {d.rank}.*{order}"):
            generate_weyl(d)


class TestCosetRepresentatives:
    @pytest.mark.parametrize("name,cosets,sub", [
        ("A1", 2, 1), ("B2", 4, 2), ("D4", 8, 24), ("F4", 24, 48),
        ("E6", 72, 720),
    ])
    def test_sizes(self, name, cosets, sub):
        d = build_cartan(parse_type(name))
        mats, signs = coset_representatives(d)
        assert mats.shape == (cosets, d.rank, d.rank) and signs.shape == (cosets,)
        pts, sub_signs = signed_orbit(d, (1,) * d.rank, d.rank - 1)
        assert len(pts) == len(sub_signs) == sub == weyl_order(d) // cosets

    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3", "D4"])
    def test_matches_materialised_group(self, name):
        # W_J is generated by the reflections of all nodes but the last.
        d = build_cartan(parse_type(name))
        length = weyl_lengths(d.A)
        sub = weyl_lengths(d.A, d.rank - 1)
        mats, signs = coset_representatives(d)
        reps = [tuple(tuple(int(c) for c in row) for row in u) for u in mats]
        assert len(set(reps)) == len(reps) == len(length) // len(sub)
        products = [mat_mul_int(u, v) for u in reps for v in sub]
        assert set(products) == set(length) and len(products) == len(length)
        for u, sign in zip(reps, signs):
            # u is the shortest element of u W_J, with sign (-1)^l(u).
            assert length[u] == min(length[mat_mul_int(u, v)] for v in sub)
            assert sign == (-1) ** length[u]

    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3", "D4"])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_factored_orbit_is_the_signed_orbit(self, name, data):
        # {u v x} with eps(u) eps(v), v x from the walk of W_J, is the
        # signed orbit of x under all of W.
        d = build_cartan(parse_type(name))
        x = tuple(data.draw(st.integers(1, 7)) for _ in range(d.rank))
        sub_pts, sub_signs = signed_orbit(d, x, d.rank - 1)
        mats, signs = coset_representatives(d)
        got = {}
        for u, su in zip(mats, signs):
            for vx, sv in zip(sub_pts, sub_signs):
                got[tuple(int(c) for c in u @ vx)] = int(su * sv)
        pts, full_signs = signed_orbit(d, x)
        assert len(got) == len(pts) == weyl_order(d)
        assert got == {tuple(int(c) for c in p): int(s)
                       for p, s in zip(pts, full_signs)}

    def test_node_prefix_range(self):
        d = build_cartan(LieType("A", 2))
        for nodes in (-1, 3):
            with pytest.raises(ValueError, match="node prefix"):
                signed_orbit(d, (1, 1), nodes)
        pts, signs = signed_orbit(d, (2, 3), 0)
        assert pts.tolist() == [[2, 3]] and signs.tolist() == [1]

    @pytest.mark.parametrize("name", ["E7", "A20"])
    def test_cost_gate(self, name):
        d = build_cartan(parse_type(name))
        with pytest.raises(RankTooLarge, match=f"rank {d.rank}"):
            coset_representatives(d)
        with pytest.raises(RankTooLarge, match=f"rank {d.rank}"):
            signed_orbit(d, (1,) * d.rank, d.rank - 1)


class TestToDominant:
    def test_a1_negative(self):
        d = build_cartan(LieType("A", 1))
        rep, sign = to_dominant(d, d.weight((-3,)))
        assert rep.coords == (3,) and sign == -1

    def test_already_dominant(self):
        d = build_cartan(LieType("A", 2))
        rep, sign = to_dominant(d, d.weight((2, 1)))
        assert rep.coords == (2, 1) and sign == 1

    def test_wall(self):
        d = build_cartan(LieType("A", 2))
        rep, sign = to_dominant(d, d.weight((0, -1)))
        assert sign == 0

    @pytest.mark.parametrize("name", ["A2", "B2", "A3"])
    @given(coords=st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                            st.integers(-6, 6)))
    @settings(max_examples=40, deadline=None)
    def test_equivariance(self, name, coords):
        d = build_cartan(parse_type(name))
        v = coords[:d.rank]
        rep0, sign0 = to_dominant(d, d.weight(v))
        for w, eps in materialised_weyl(d).items():
            rep, sign = to_dominant(d, d.weight(mat_vec(w, v)))
            assert rep == rep0
            assert sign == (0 if sign0 == 0 else sign0 * eps)


class TestAlcoveFold:
    def test_a1_wall(self):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        res = alcove_fold(d, 1, d.weight((3,)))
        assert res.sign == 0 and res.rep is None

    def test_a1_interior(self):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        res = alcove_fold(d, 1, d.weight((1,)))
        assert (res.sign, res.rep.coords) == (1, (1,))

    def test_a1_reflected(self):
        d = build_cartan(LieType("A", 1, AFFINE_R1))
        res = alcove_fold(d, 1, d.weight((4,)))
        assert res.sign == -1 and res.rep.coords == (2,)

    def test_idempotent_on_rep(self):
        d = build_cartan(LieType("C", 2, AFFINE_R1))
        for coords in [(5, -2), (-1, 4), (7, 7)]:
            res = alcove_fold(d, 2, d.weight(coords))
            if res.sign == 0:
                continue
            again = alcove_fold(d, 2, res.rep)
            assert again.sign == 1 and again.rep == res.rep

    @pytest.mark.parametrize("name,kind,kmax,window", [
        ("A1", AFFINE_R1, 3, 9), ("A2", AFFINE_R1, 3, 6),
    ])
    def test_brute_force_rank_le_2(self, name, kind, kmax, window):
        d = build_cartan(parse_type(name, kind))
        l = d.rank
        import itertools
        for k in range(0, kmax + 1):
            for coords in itertools.product(range(-window, window + 1), repeat=l):
                res = alcove_fold(d, k, d.weight(coords))
                sign, rep = brute_force_fold(d, k, coords)
                assert res.sign == sign
                if sign != 0:
                    assert res.rep.coords == rep
                    level = sum(a * (x - 1) for a, x in
                                zip(d.comarks[1:], rep))
                    assert level <= k  # rep - rho is level-k dominant

    def test_brute_force_twisted(self):
        d = build_cartan(LieType("A", 3, AFFINE_R2))
        import itertools
        for k in (1, 2):
            for coords in itertools.product(range(-4, 7), repeat=2):
                res = alcove_fold(d, k, d.weight(coords))
                sign, rep = brute_force_fold(d, k, coords)
                assert res.sign == sign
                if sign != 0:
                    assert res.rep.coords == rep

    @given(coords=st.tuples(st.integers(-10, 10), st.integers(-10, 10)))
    @settings(max_examples=60, deadline=None)
    def test_fold_lands_in_alcove(self, coords):
        d = build_cartan(LieType("C", 2, AFFINE_R1))
        res = alcove_fold(d, 3, d.weight(coords))
        if res.sign != 0:
            t = 3 + d.hdual
            assert all(x >= 1 for x in res.rep.coords)
            assert sum(a * x for a, x in zip(d.comarks[1:], res.rep.coords)) <= t - 1

    def test_gates_fire_without_asserts(self):
        # At t = k + h^vee <= 0 NonTermination comes before any reflection:
        # the patched kernel would print if the walk started.
        script = textwrap.dedent("""
            import twistfuse.weyl as weyl
            from twistfuse._rational import mat_mul
            from twistfuse.cartan import AFFINE_R1, AFFINE_R2, LieType, build_cartan
            from twistfuse.errors import TwistfuseError

            def run(call):
                try:
                    call()
                except (TwistfuseError, ValueError) as exc:
                    print(type(exc).__name__)
                else:
                    print("no error")

            weyl.reflect_to_dominant = lambda simple, v: print("walked")
            for d in (build_cartan(LieType("A", 1, AFFINE_R1)),
                      build_cartan(LieType("A", 3, AFFINE_R2))):
                x = d.finite.weight((3,) * d.rank)
                run(lambda: weyl.alcove_fold(d, -d.hdual, x))
                run(lambda: weyl.alcove_fold(d, -d.hdual - 1, x))
            a2 = build_cartan(LieType("A", 2))
            run(lambda: weyl.alcove_fold(a2, 1, a2.weight((1, 1))))
            run(lambda: weyl.FoldResult(0, a2.weight((1, 1))))
            run(lambda: weyl.FoldResult(1, None))
            run(lambda: mat_mul(((1, 2),), ((1, 2),)))
        """)
        src = os.path.dirname(os.path.dirname(twistfuse.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == (["NonTermination"] * 4 + ["ValueError"]
                                       + ["CheckFailed"] * 3)
