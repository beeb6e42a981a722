import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

import twistfuse
import twistfuse.smatrix as smatrix_mod
from twistfuse import cli
from twistfuse.cartan import (AFFINE_R1, AFFINE_R2, LieType, build_cartan,
                              parse_type)
from twistfuse.errors import ExponentOverflow
from twistfuse.fold import build_folding, symmetric_weights
from twistfuse.fusion import SectorMatrices
from twistfuse.rep import dominant_level_weights
from twistfuse.smatrix import (compact_json, complex_json, conformal,
                               twisted_a, twisted_sector_S, untwisted_S)
from twistfuse.weyl import coset_representatives, generate_weyl, weyl_order

from oracles import (a1_s_matrix, full_gram_unitarity_defect,
                     materialised_weyl_sum, one_walk_weyl_sum)


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
        assert np.abs(s.entries - s.entries.T).max() < 1e-9
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
        with pytest.raises(ValueError, match="k >= 0"):
            untwisted_S(a1, -1)
        with pytest.raises(ValueError, match="untwisted affine"):
            untwisted_S(build_cartan(LieType("A", 3, AFFINE_R2)), 1)
        with pytest.raises(ValueError, match="k >= 0"):
            twisted_a(build_folding(LieType("A", 3, AFFINE_R1)), -1)

    def test_empty_column_list_is_named(self):
        a2 = build_cartan(LieType("A", 2, AFFINE_R1))
        with pytest.raises(ValueError, match="empty column list"):
            untwisted_S(a2, 2, ())

    def test_json_roundtrip(self):
        s = untwisted_S(build_cartan(LieType("A", 1, AFFINE_R1)), 1)
        blob = json.loads(compact_json(s.to_json_dict()))
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
        mats, signs = generate_weyl(f.twisted.finite)
        assert len(mats) == len(signs) == 1152
        a = twisted_a(f, 1)
        assert a.shape == (1, 1)


# Level 0 runs the one Kac-Peterson path: one row and one column, the
# vacuum, and S = a = (1).
@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A7", "B2", "B3",
                                  "C2", "C3", "D4", "D5", "E6", "F4", "G2"])
def test_level_zero_s_is_one(name):
    d = build_cartan(parse_type(name, AFFINE_R1))
    s = untwisted_S(d, 0)
    assert s.rows == s.cols == (d.leveled(0, (0,) * d.rank),)
    assert abs(s.entries - 1).max() < 1e-15


@pytest.mark.parametrize("name,order", [
    ("A3", None), ("A5", None), ("A7", None), ("D4", 2), ("D4", 3),
    ("D5", None), ("D6", None), ("E6", None)])
def test_level_zero_a_is_one(name, order):
    f = build_folding(parse_type(name, AFFINE_R1), order)
    a = twisted_a(f, 0)
    assert a.shape == (1, 1)
    assert abs(a.entries - 1).max() < 1e-15


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


# The S- and a-matrices of the kw-grid benchmark (its fusion tables, the
# untwisted S beside each twisted one, and its two smatrix calls), and the
# E6 ones of twisted-e6 and beyond.
BENCHMARK_MATRICES = [
    ("S", n, None, k) for n in ("A1", "A2", "A3", "B2", "C2", "G2", "D4")
    for k in (1, 2, 3)] + [
    ("S", "B3", None, 3), ("S", "B2", None, 16), ("S", "A3", None, 8),
    ("S", "E6", None, 1), ("S", "E6", None, 2),
    ("a", "A3", None, 1), ("a", "A3", None, 2), ("a", "A3", None, 8),
    ("a", "D4", 2, 1), ("a", "D4", 3, 1), ("a", "E6", None, 1),
]


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

    @pytest.mark.parametrize("kind,name,order,k", BENCHMARK_MATRICES)
    def test_bits_equal_the_one_walk_kernel(self, monkeypatch, kind, name,
                                            order, k):
        # Each cell sums the same |W| exponents mod N as one walk of all of
        # W: the residue counts are the same integers, so every entry is
        # the same double.
        _, build = _build(kind, name, order, k)
        factored = np.asarray(build().entries)
        with monkeypatch.context() as m:
            m.setattr(smatrix_mod, "_weyl_sum_matrix", one_walk_weyl_sum)
            one_walk = np.asarray(build().entries)
        assert np.array_equal(factored, one_walk)

    def test_overflow_guard(self):
        fin = build_cartan(LieType("A", 2))
        with pytest.raises(ExponentOverflow):
            smatrix_mod._weyl_sum_matrix(fin, 4, [(2 ** 61, 1)], [((1, 1), 1)])

    @pytest.mark.parametrize("name", ["B2", "D4", "E6"])
    def test_overflow_guard_fires_before_any_walk(self, monkeypatch, name):
        # Groups with cosets u != 1: the gate bounds U^T G_int cols.T and
        # (v x) @ part alike, and raises before either walk starts.
        fin = build_cartan(parse_type(name))
        walks = _counted_walks(monkeypatch)
        big = (2 ** 40,) + (1,) * (fin.rank - 1)
        with pytest.raises(ExponentOverflow, match="int64"):
            smatrix_mod._weyl_sum_matrix(fin, 2 ** 20, [big], [(big, 1)])
        assert walks == []
        row = (3,) * fin.rank
        smatrix_mod._weyl_sum_matrix(fin, 3, [row], [(row, 1)])
        assert walks == ["cosets", (1, fin.rank - 1)]


def _build(kind, name, order, k):
    """(finite datum summed over, a builder of the matrix) of one case."""
    if kind == "S":
        d = build_cartan(parse_type(name, AFFINE_R1))
        return d.finite, lambda: untwisted_S(d, k)
    f = build_folding(parse_type(name, AFFINE_R1), order)
    return f.twisted.finite, lambda: twisted_a(f, k)


def _counted_walks(monkeypatch):
    """Patch the kernel's two walks to record them: the rows and node prefix
    of each walk of W_J, and "cosets" for each walk of the coset
    representatives."""
    walks = []
    true_orbit = smatrix_mod.signed_orbit
    true_cosets = smatrix_mod.coset_representatives

    def counted(fin, rows, nodes):
        walks.append((len(rows), nodes))
        return true_orbit(fin, rows, nodes)

    def counted_cosets(fin):
        walks.append("cosets")
        return true_cosets(fin)

    monkeypatch.setattr(smatrix_mod, "signed_orbit", counted)
    monkeypatch.setattr(smatrix_mod, "coset_representatives", counted_cosets)
    return walks


def _counted_bincounts(monkeypatch):
    """Patch np.bincount to record the (input length, bins) of each call."""
    calls = []
    bincount = np.bincount

    def counted(x, minlength=0):
        calls.append((len(x), minlength))
        return bincount(x, minlength=minlength)

    monkeypatch.setattr(np, "bincount", counted)
    return calls


class TestBlockBoundaries:
    @pytest.mark.parametrize("kind,name,order,k", [
        ("S", "B2", None, 6), ("a", "A3", None, 3), ("a", "D4", 3, 2),
        ("S", "E6", None, 1), ("S", "D4", None, 1),
    ])
    def test_budgets_do_not_change_bits(self, monkeypatch, kind, name, order, k):
        fin, build = _build(kind, name, order, k)
        default = np.asarray(build().entries)
        size = weyl_order(fin)
        sub = size // len(coset_representatives(fin)[0])    # |W_J|
        # Two rows per walk of W_J with five cells (rows x columns) per
        # sub-block, bound by the exponents (|W| per cell); then one row per
        # walk with 100 residue counts per sub-block, fewer than one
        # column's N at some denominators.  B2 k=6 has 28 columns, so they
        # span six blocks under either budget.  Then exponent budgets below
        # one cell's |W|, which split each cell's cosets into chunks: of
        # all cosets but one and one, and of one coset each, below |W_J|.
        for walk, block, counts in [(2 * sub, 5 * size, 1 << 62),
                                    (sub, 1 << 62, 100),
                                    (2 * sub, size - 1, 1 << 62),
                                    (sub, sub - 1, 1 << 62)]:
            with monkeypatch.context() as m:
                m.setattr(smatrix_mod, "_WALK", walk)
                m.setattr(smatrix_mod, "_BLOCK", block)
                m.setattr(smatrix_mod, "_COUNTS", counts)
                walks = _counted_walks(m)
                got = np.asarray(build().entries)
            rows = walk // sub
            assert walks == ["cosets"] + [
                (min(rows, len(default) - lo), fin.rank - 1)
                for lo in range(0, len(default), rows)]
            assert np.array_equal(got, default)

    @pytest.mark.parametrize("kind,name,order,k", BENCHMARK_MATRICES)
    def test_bincount_inputs_within_budget(self, monkeypatch, kind, name,
                                           order, k):
        # Every sub-block's exponents and bins fit the _BLOCK budget.
        _, build = _build(kind, name, order, k)
        calls = _counted_bincounts(monkeypatch)
        build()
        assert calls
        assert max(max(c) for c in calls) <= smatrix_mod._BLOCK

    @pytest.mark.parametrize("name,chunks", [("E6", 3), ("D4", 2)])
    def test_coset_chunks_within_budget(self, monkeypatch, name, chunks):
        # A budget below |W| splits each cell's cosets into chunks whose
        # counts add up, and every chunk's exponents fit the budget.  The
        # square S computes the n(n+1)/2 cells on and above its diagonal,
        # one bincount per chunk of each.
        fin, build = _build("S", name, None, 1)
        default = np.asarray(build().entries)
        size = weyl_order(fin)
        ncosets = len(coset_representatives(fin)[0])
        block = size // ncosets * -(-ncosets // chunks)
        monkeypatch.setattr(smatrix_mod, "_BLOCK", block)
        calls = _counted_bincounts(monkeypatch)
        got = np.asarray(build().entries)
        assert np.array_equal(got, default)
        n = len(default)
        assert len(calls) == n * (n + 1) // 2 * chunks
        assert max(max(c) for c in calls) <= block < size

    def test_column_blocks(self):
        for ncols in range(1, 12):
            for width in range(0, 6):
                blocks = smatrix_mod._column_blocks(ncols, width)
                assert [lo for lo, _ in blocks] == \
                    [0] + [hi for _, hi in blocks[:-1]]
                assert blocks[-1][1] == ncols
                assert all(0 < hi - lo <= max(1, width) for lo, hi in blocks)

    def test_walks_per_block_of_rows(self, monkeypatch, capsys):
        walks = _counted_walks(monkeypatch)
        assert cli.main(["smatrix", "B2", "--level", "16"]) == 0
        capsys.readouterr()
        assert walks == ["cosets", (153, 1)]
        walks.clear()
        # |W_J| = |W(A5)| = 720: the three rows of E6 k=1 walk together.
        untwisted_S(build_cartan(parse_type("E6", AFFINE_R1)), 1)
        assert walks == ["cosets", (3, 5)]


def _counted_cells(monkeypatch):
    """Patch np.einsum to record the cells of each contraction of the orbit
    kernel's residue counts."""
    cells = []
    einsum = np.einsum

    def counted(subscripts, *operands, **kwargs):
        if subscripts == "cr,r->c":
            cells.append(len(operands[0]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return cells


class TestUpperTriangle:
    @pytest.mark.parametrize("name,kmax", [
        ("A1", 3), ("A2", 3), ("A3", 3), ("A4", 3), ("B2", 3), ("B3", 3),
        ("C2", 3), ("C3", 3), ("G2", 3), ("D4", 3), ("F4", 2), ("E6", 2),
    ])
    def test_mirror_equals_single_column_builds(self, name, kmax):
        # A build of one column computes every row of it, below the
        # diagonal too, so the mirrored half of the square S is checked
        # against cells computed, not assumed.
        d = build_cartan(parse_type(name, AFFINE_R1))
        for k in range(1, kmax + 1):
            s = untwisted_S(d, k)
            cols = np.column_stack([untwisted_S(d, k, (lw,)).entries
                                    for lw in s.rows])
            assert cols.tobytes() == s.entries.tobytes()

    @pytest.mark.parametrize("name,k,one_cell", [
        ("B2", 16, False), ("A3", 8, False), ("A3", 3, True), ("G2", 3, True),
        ("D4", 2, True), ("E6", 2, True),
    ])
    def test_square_S_computes_the_upper_triangle(self, monkeypatch, name,
                                                   k, one_cell):
        # The benchmark's S-matrices under the default budgets, and others
        # at one cell per sub-block: n(n+1)/2 cells are contracted.
        fin, build = _build("S", name, None, k)
        default = np.asarray(build().entries)
        if one_cell:
            monkeypatch.setattr(smatrix_mod, "_BLOCK", weyl_order(fin))
        cells = _counted_cells(monkeypatch)
        got = np.asarray(build().entries)
        n = len(default)
        assert sum(cells) == n * (n + 1) // 2
        assert got.tobytes() == default.tobytes()


class TestUnitarityDefect:
    def test_equals_the_full_gram_on_the_default_grid(self):
        # The selfcheck grid, from level 0: S of each untwisted entry, the
        # twisted a of each folding.
        matrices = [untwisted_S(build_cartan(parse_type(name, AFFINE_R1)), k)
                    if order is None else
                    twisted_a(build_folding(parse_type(name, AFFINE_R1), order), k)
                    for name, order, kmax in cli.SELFCHECK_GRID
                    for k in range(kmax + 1)]
        for m in matrices:
            assert m.unitarity_defect() == full_gram_unitarity_defect(m.entries)

    @pytest.mark.parametrize("cell", [(20, 3), (17, 17), (2, 19), (0, 0),
                                      (20, 20), (5, 4)])
    def test_one_perturbed_cell_shows(self, cell):
        # A2 k=5 has 21 columns: Gram blocks of 16 and 5 columns.  The
        # perturbed copy is not symmetric, and the Gram's triangle still
        # sees it.
        s = untwisted_S(build_cartan(parse_type("A2", AFFINE_R1)), 5)
        assert s.unitarity_defect() < 1e-12
        entries = s.entries.copy()
        entries[cell] += 1e-7
        bumped = dataclasses.replace(s, entries=entries)
        assert bumped.unitarity_defect() > 1e-9
        assert bumped.unitarity_defect() == full_gram_unitarity_defect(entries)


def test_s_path_stays_on_the_calling_thread():
    # CPU time spent by other threads (a BLAS pool's workers, waking for a
    # product and then busy-waiting) while the CLI builds and checks an
    # S-matrix, measured once the spin of the import has settled.  The child
    # asks for two BLAS threads, so that a pool exists for the S path to
    # leave asleep: by default the package loads OpenBLAS with one.
    script = textwrap.dedent("""
        import contextlib, io, time
        from twistfuse import cli

        def other_threads():
            return time.process_time() - time.thread_time()

        time.sleep(0.5)
        for argv in (["smatrix", "B2", "--level", "16"],
                     ["smatrix", "A3", "--level", "8", "--twist", "diagram"]):
            before = other_threads()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            time.sleep(0.3)
            print(rc, other_threads() - before)
    """)
    src = os.path.dirname(os.path.dirname(twistfuse.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src,
                                   OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        rc, spent = line.split()
        assert rc == "0" and float(spent) < 0.02, proc.stdout


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or "openblas" not in _blas_name().lower()
                    or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task, OpenBLAS and two CPUs")
@pytest.mark.parametrize("caller, first, threads", [
    ({}, "", 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, "", 2),
    ({"OMP_NUM_THREADS": "2"}, "", 2),
    ({}, "import numpy", None),
], ids=["default", "openblas-2", "omp-2", "numpy-first"])
def test_import_loads_openblas_with_one_thread(caller, first, threads):
    # The OS threads of a fresh interpreter before and after `import
    # twistfuse`, and whether os.environ came out as the caller had it.  A
    # count the caller chose stands, and numpy loaded first keeps its pool.
    script = textwrap.dedent(f"""
        import os
        environ = dict(os.environ)
        {first}
        before = len(os.listdir("/proc/self/task"))
        import twistfuse
        after = len(os.listdir("/proc/self/task"))
        print(before, after, dict(os.environ) == environ)
    """)
    src = os.path.dirname(os.path.dirname(twistfuse.__file__))
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(env, PYTHONPATH=src, **caller))
    assert proc.returncode == 0, proc.stderr
    before, after, unchanged = proc.stdout.split()
    assert unchanged == "True"
    if threads is None:
        assert int(before) > 1 and after == before
    else:
        assert (int(before), int(after)) == (1, threads)


def test_gates_fire_without_asserts():
    # Each check of conformal data, of the lattice containments behind the
    # S- and a-matrix normalisation and of the orthonormal sigma-stable
    # columns of S is a typed error that python -O keeps, and a failed
    # check in the CLI (exit 2, nothing printed).
    script = textwrap.dedent("""
        from fractions import Fraction

        import twistfuse.fusion as fusion
        import twistfuse.smatrix as smatrix
        from twistfuse import cli
        from twistfuse.cartan import AFFINE_R1, LieType, build_cartan
        from twistfuse.errors import TwistfuseError
        from twistfuse.fold import build_folding

        def run(call):
            try:
                call()
            except TwistfuseError as exc:
                print(f"{type(exc).__name__}: {exc}")
            else:
                print("no error")

        a1 = build_cartan(LieType("A", 1, AFFINE_R1))
        a3 = build_folding(LieType("A", 3, AFFINE_R1))
        vac = a1.leveled(1, (0,))
        fund = a1.leveled(1, (1,))

        # d_1 = 3/4 gives Gram(M) = (3/4) 2 / (3/4)^2 = 8/3, not integral:
        # M_index raises on first use, and caches nothing when it does.
        true_d = a1.d_fin
        a1.d_fin = (Fraction(3, 4),)
        run(lambda: smatrix.untwisted_S(a1, 2))
        print("exit", cli.main(["smatrix", "A1", "--level", "2"]))
        a1.d_fin = true_d

        # A twisted symmetrizer 3/2: M^dag is then not inside phi(M').
        # [M*:M] is read once per datum, here from the true symmetrizers,
        # so the patch reaches pair_index's gate and not M_index's.
        tw = a3.twisted
        tw.M_index
        true_d = tw.d_fin
        tw.d_fin = true_d[:-1] + (Fraction(3, 2),)
        run(lambda: smatrix.twisted_a(a3, 1))
        print("exit", cli.main(["smatrix", "A3", "--level", "1", "--twist", "diagram"]))
        tw.d_fin = true_d

        # sigma taken as the identity: every weight is then "fixed".
        true_perm = type(a3).finite_perm
        type(a3).finite_perm = lambda self: tuple(range(self.base.rank))
        run(lambda: smatrix.twisted_sector_S(a3, 1))
        type(a3).finite_perm = true_perm

        true_dim = type(a1).dim_adjoint
        type(a1).dim_adjoint = lambda self: true_dim(self) + 1
        run(lambda: smatrix.conformal(a1, 1, vac))
        type(a1).dim_adjoint = true_dim

        true_ip = smatrix._ip
        smatrix._ip = lambda fin, a, b: true_ip(fin, a, b) + (a != b)
        run(lambda: smatrix.conformal(a1, 1, fund))
        smatrix._ip = true_ip

        # One sigma-stable column of S scaled off unit norm.
        true_S = fusion.untwisted_S

        def skewed(*args):
            s = true_S(*args)
            s.entries[:, 1] *= 1 + 1e-6
            return s

        fusion.untwisted_S = skewed
        run(lambda: fusion.SectorMatrices(a3, 2))
        fusion.untwisted_S = true_S
        run(lambda: fusion.SectorMatrices(a3, 2))

        run(lambda: smatrix.conformal(a1, 1, a1.finite.weight((-2,))))
        run(lambda: smatrix.conformal(a1, 1, a1.finite.weight((-1,))))
        run(lambda: smatrix.conformal(a1, 1, vac))
    """)
    src = os.path.dirname(os.path.dirname(twistfuse.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    expected = [("NotSublattice", "A1^(1): Gram(M) is not integral"), ("exit 2", ""),
                ("NotSublattice", "phi(M') does not contain M^dag"), ("exit 2", ""),
                ("SectorLabelMismatch", "symmetric weights"),
                ("ConformalMismatch", "strange formula"),
                ("ConformalMismatch", "c/24"),
                ("NotOrthonormal", "off orthonormal by 2.000e-06 (tolerance 1e-09)"),
                ("no error", ""),
                ("ConformalMismatch", "conformal weight 0 "),
                ("ConformalMismatch", "conformal weight -"),
                ("no error", "")]
    assert len(lines) == len(expected), lines
    for line, (name, what) in zip(lines, expected):
        assert line.startswith(name) and what in line, line


@pytest.mark.parametrize("name,order,k", [("A3", None, k) for k in range(1, 9)]
                         + [("D4", o, k) for o in (2, 3) for k in (1, 2, 3)]
                         + [("D5", None, 2), ("E6", None, 1), ("E6", None, 2)])
def test_sector_columns_are_full_S_columns(name, order, k):
    """A table's S block, built on the sigma-stable columns alone, is the
    same columns of the full S bit for bit."""
    folding = build_folding(parse_type(name, AFFINE_R1), order)
    scol = SectorMatrices(folding, k).blocks[0]
    full = untwisted_S(folding.base, k)
    index = {w.finite.coords: i for i, w in enumerate(full.rows)}
    cols = full.entries[:, [index[w.finite.coords] for w in scol.cols]]
    assert scol.rows == full.rows
    assert scol.entries.shape == cols.shape and scol.entries.tobytes() == cols.tobytes()



def test_columns_must_be_level_dominant():
    a1 = build_cartan(LieType("A", 1, AFFINE_R1))
    for lw in (a1.leveled(1, (1,)), a1.leveled(2, (3,))):
        with pytest.raises(ValueError, match="not a level-2 dominant weight"):
            untwisted_S(a1, 2, [a1.leveled(2, (0,)), lw])


class TestCompactJson:
    """compact_json writes arrays as json writes their nested lists."""

    @staticmethod
    def assert_as_json(a):
        assert compact_json(a) == json.dumps(a.tolist(), separators=(",", ":"))

    def test_all_distinct(self):
        self.assert_as_json(np.random.default_rng(15).standard_normal((37, 53)))

    def test_bit_patterns(self):
        # -0.0 == 0.0 and NaN != NaN, but each prints its own way.
        a = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]])
        assert compact_json(a) == "[[0.0,-0.0,NaN,Infinity,-Infinity,5e-324]]"
        self.assert_as_json(a)
        self.assert_as_json(np.array([[np.nan, -np.nan, 0.0, -0.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(1, 1), (), (3,), (2, 0), (0, 3), (2, 3, 4)])
    def test_shapes(self, shape):
        self.assert_as_json(np.arange(math.prod(shape), dtype=float).reshape(shape) % 3)

    def test_non_contiguous(self):
        a = np.arange(60.0).reshape(6, 10) / 7
        for view in (a[::2, 1::3], a.T, (a + 1j * a).real, (a + 1j * a).imag):
            assert not view.flags.c_contiguous
            self.assert_as_json(view)

    def test_values_and_plain_lists(self):
        obj = {"a": [1, 2.5, None, "x\u00e9"], "b": {"c": True, "d": [[0.1]]},
               "e": 1e300, "f": {}}
        assert compact_json(obj) == json.dumps(obj, separators=(",", ":"))

    @pytest.mark.parametrize("argv", [
        ["B2", "--level", "16"],
        ["A3", "--level", "8", "--twist", "diagram"],
        ["E6", "--level", "2", "--twist", "diagram"],
        ["D4", "--level", "3", "--twist", "diagram", "--twist-order", "3"],
    ], ids=["B2-k16", "A3-k8-twisted", "E6-k2-twisted", "D4-k3-order3"])
    def test_smatrix_blocks(self, argv, capsys):
        assert cli.main(["smatrix", *argv]) == 0
        out = capsys.readouterr().out
        type_ = parse_type(argv[0], AFFINE_R1)
        if "--twist" in argv:
            order = int(argv[-1]) if "--twist-order" in argv else None
            source = build_folding(type_, order)
        else:
            source = build_cartan(type_)
        for block in (b.entries for b in SectorMatrices(source, int(argv[2])).blocks):
            for part in complex_json(block).values():
                self.assert_as_json(part)
                assert compact_json(part) in out
        # The whole output is json's writing of the same values as lists.
        blob = json.loads(out)
        assert out == json.dumps(blob, separators=(",", ":")) + "\n"
