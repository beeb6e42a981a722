import json
import os
import subprocess
import sys
import textwrap

import pytest

import twistfuse
import twistfuse.fusion as fusion_mod
from twistfuse.cartan import AFFINE_R1, LieType, build_cartan, parse_type
from twistfuse.errors import (MethodMismatch, NegativeCoefficient, NotInteger,
                              SectorRuleViolation, UnsupportedSectorPattern)
from twistfuse.fold import build_folding
from twistfuse.fusion import (SectorLabel, fusion_table, kac_walton,
                              kac_walton_row, twisted_kac_walton,
                              twisted_verlinde, verlinde)
from twistfuse.rep import dominant_level_weights
from twistfuse.smatrix import untwisted_S

from oracles import fusion_table_json_dict


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
        s = untwisted_S(a1, 1)
        s.entries = s.entries + 0.01  # corrupt
        one = a1.leveled(1, (1,))
        with pytest.raises((NotInteger, NegativeCoefficient)):
            verlinde(s, one, one, one)


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
        real = fusion_mod.kac_walton_row

        def corrupted(datum, k, lam1, lam2, **kwargs):
            # Only rows of two different weights, which serve both orders.
            row = dict(real(datum, k, lam1, lam2, **kwargs))
            if lam1 != lam2:
                key = next(iter(row))
                row[key] += 1
            return row

        monkeypatch.setattr(fusion_mod, "kac_walton_row", corrupted)
        with pytest.raises(MethodMismatch) as info:
            fusion_table(build_cartan(parse_type("A2", AFFINE_R1)), 2)
        assert info.value.value_a != info.value.value_b


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
        real = fusion_mod.twisted_kac_walton_row

        def corrupted(*args, **kwargs):
            row = dict(real(*args, **kwargs))
            key = next(iter(row))
            row[key] += 1
            return row

        monkeypatch.setattr(fusion_mod, "twisted_kac_walton_row", corrupted)
        with pytest.raises(MethodMismatch) as info:
            fusion_table(a3_folding, 1, "1,s,s")
        assert info.value.value_a != info.value.value_b

    def test_level0_trivial(self, a3_folding):
        table = fusion_table(a3_folding, 0, "1,s,s")
        assert [n for _, n in table.items()] == [1]


def _recorded(monkeypatch, name):
    """Replace fusion_mod.<name> by a wrapper that records (args, result)."""
    real = getattr(fusion_mod, name)
    calls = []

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(fusion_mod, name, recording)
    return calls


def _coords(x):
    return tuple(getattr(x, "coords", x))


class TestComputeOnce:
    """A table computes each piece of Kac-Walton work once."""

    def assert_each_component_folded_once(self, folds, tensors):
        folded = [args[2].coords for args, _ in folds]
        assert len(folded) == len(set(folded))
        components = {tuple(c + 1 for c in mu) for _, decomp in tensors for mu in decomp}
        assert set(folded) == components

    @pytest.mark.parametrize("name,k", [("A2", 3), ("B2", 2), ("G2", 2)])
    def test_untwisted_rows(self, monkeypatch, name, k):
        d = build_cartan(parse_type(name, AFFINE_R1))
        tensors = _recorded(monkeypatch, "tensor_labels")
        folds = _recorded(monkeypatch, "alcove_fold")
        fusion_table(d, k)
        n = len(dominant_level_weights(d, k))
        assert len(tensors) == n * (n + 1) // 2
        pairs = {frozenset((_coords(a), _coords(b))) for (_, a, b), _ in tensors}
        assert len(pairs) == len(tensors)
        self.assert_each_component_folded_once(folds, tensors)

    @pytest.mark.parametrize("type_,order,k,pattern", [
        (LieType("A", 3, AFFINE_R1), None, 2, "1,s,s"),
        (LieType("A", 3, AFFINE_R1), None, 2, "s,1,s"),
        (LieType("D", 4, AFFINE_R1), 3, 2, "1,s,s"),
    ])
    def test_twisted_rows(self, monkeypatch, type_, order, k, pattern):
        f = build_folding(type_, order)
        branches = _recorded(monkeypatch, "branch")
        tensors = _recorded(monkeypatch, "tensor_labels")
        folds = _recorded(monkeypatch, "alcove_fold")
        fusion_table(f, k, pattern)
        branched = [_coords(args[3]) for args, _ in branches]
        assert sorted(branched) == sorted(_coords(lw.finite)
                                          for lw in dominant_level_weights(f.base, k))
        pairs = [frozenset((_coords(a), _coords(b))) for (_, a, b), _ in tensors]
        assert len(pairs) == len(set(pairs))
        self.assert_each_component_folded_once(folds, tensors)

    def test_memo_bound_to_its_table(self, a1):
        c2 = build_cartan(parse_type("C2", AFFINE_R1))
        vac = c2.leveled(1, (0, 0))
        with pytest.raises(ValueError, match="memo"):
            kac_walton_row(c2, 1, vac, vac, memo=fusion_mod.KacWaltonMemo(a1, 1))
        with pytest.raises(ValueError, match="memo"):
            kac_walton_row(c2, 1, vac, vac, memo=fusion_mod.KacWaltonMemo(c2, 2))


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


def test_gates_fire_without_asserts():
    script = textwrap.dedent("""
        import twistfuse.fusion as fusion
        from twistfuse.cartan import AFFINE_R1, LieType, build_cartan
        from twistfuse.errors import MethodMismatch, TwistfuseError
        from twistfuse.fold import build_folding
        from twistfuse.smatrix import untwisted_S
        from twistfuse.weyl import FoldResult

        a2 = build_cartan(LieType("A", 2, AFFINE_R1))
        a3 = build_folding(LieType("A", 3, AFFINE_R1))
        vac = a2.leveled(1, (0, 0))

        def run(call):
            try:
                call()
            except MethodMismatch as exc:
                print(type(exc).__name__, [lw.finite.coords for lw in exc.triple],
                      exc.value_a, exc.value_b)
            except (TwistfuseError, ValueError) as exc:
                print(type(exc).__name__)
            else:
                print("no error")

        true_fold = fusion.alcove_fold

        def sign_flipped(affine, k, x):
            res = true_fold(affine, k, x)
            return FoldResult(-res.sign, res.rep)

        fusion.alcove_fold = sign_flipped
        run(lambda: fusion.fusion_table(a2, 1))
        run(lambda: fusion.fusion_table(a3, 1, "1,s,s"))
        fusion.alcove_fold = true_fold
        run(lambda: fusion.kac_walton_row(a2, 1, a2.leveled(1, (1, 1)), vac))
        run(lambda: fusion.twisted_kac_walton_row(
            a3, 1, a3.base.leveled(1, (0, 0, 0)), a3.twisted.leveled(1, (0, 1))))
        s = untwisted_S(a2, 1)
        s.rows = s.rows[::-1]
        run(lambda: fusion.verlinde(s, vac, vac, vac))
        run(lambda: fusion._rounded([2.0, -1.0]))

        true_row = fusion.kac_walton_row
        true_twisted_row = fusion.twisted_kac_walton_row

        def corrupt_row(edit):
            def row(datum, k, lam1, lam2, **kwargs):
                out = dict(true_row(datum, k, lam1, lam2, **kwargs))
                if (lam1.finite.coords, lam2.finite.coords) == ((0, 1), (1, 0)):
                    edit(out)
                return out
            return row

        # The row of the off-diagonal pair (0,1), (1,0) fills the triples
        # ((0,1), (1,0), .) and ((1,0), (0,1), .); the first in C order is
        # named.
        fusion.kac_walton_row = corrupt_row(lambda row: row.update({(0, 0): 2}))
        run(lambda: fusion.fusion_table(a2, 1))
        fusion.kac_walton_row = corrupt_row(lambda row: row.update({(5, 5): 1}))
        run(lambda: fusion.fusion_table(a2, 1))
        fusion.kac_walton_row = true_row

        def twisted_row_with_stray_key(*args, **kwargs):
            return {**true_twisted_row(*args, **kwargs), (9, 9): 1}

        fusion.twisted_kac_walton_row = twisted_row_with_stray_key
        run(lambda: fusion.fusion_table(a3, 1, "1,s,s"))
        fusion.twisted_kac_walton_row = true_twisted_row

        def corrupt_s(datum, k):
            s = untwisted_S(datum, k)
            s.entries = s.entries.copy()
            s.entries[1, 2] += 0.01
            return s

        fusion.untwisted_S = corrupt_s
        run(lambda: fusion.fusion_table(a2, 1))
    """)
    src = os.path.dirname(os.path.dirname(twistfuse.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "NegativeMultiplicity", "NegativeMultiplicity", "ValueError", "ValueError",
        "ValueError", "NegativeCoefficient",
        "MethodMismatch [(0, 1), (1, 0), (0, 0)] 1 2",
        "UnknownWeight", "UnknownWeight", "NotInteger"]


def test_shared_memo_under_thread_switching():
    a2 = build_cartan(parse_type("A2", AFFINE_R1))
    a3 = build_folding(LieType("A", 3, AFFINE_R1))
    jobs = [(a2, 3, "1,1,1"), (a3, 2, "1,s,s")]
    serial = [fusion_table(src, k, p).to_json() for src, k, p in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = [fusion_table(src, k, p, parallelism=4).to_json()
                    for src, k, p in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


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


def test_pool_shares_one_sector_build(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return untwisted_S(*args)

    folding = build_folding(LieType("A", 3, AFFINE_R1))
    monkeypatch.setattr(fusion_mod, "untwisted_S", counted)
    fusion_mod._sector_matrices.cache_clear()
    fusion_table(folding, 2, "1,s,s", parallelism=2)
    fusion_mod._sector_matrices.cache_clear()
    assert len(calls) == 1
