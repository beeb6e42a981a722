import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twistfuse
import twistfuse.cli as cli_mod
import twistfuse.errors as errors
import twistfuse.fusion as fusion_mod
import twistfuse.smatrix as smatrix_mod
from twistfuse.cartan import AFFINE_R1, parse_type
from twistfuse.cli import main
from twistfuse.fold import build_folding

from oracles import (fusion_table_text, per_entry_json_chunks,
                     per_entry_text_chunks, repr17_complex_json)


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


class TestSmatrixCommand:
    def test_a1_level1(self, capsys):
        rc, out, _ = run(capsys, "smatrix", "A1", "--level", "1")
        assert rc == 0
        blob = json.loads(out)
        assert len(blob["S"]["re"]) == 2
        assert blob["unitarity_defect"] < 1e-9

    def test_twist_emits_two_matrices(self, capsys):
        rc, out, _ = run(capsys, "smatrix", "A3", "--level", "1",
                         "--twist", "diagram")
        assert rc == 0
        blob = json.loads(out)
        assert "S_symmetric_columns" in blob and "S_twisted_sector" in blob

    def test_rank_cap_exit_code(self, capsys):
        rc, _, err = run(capsys, "smatrix", "A20", "--level", "1")
        assert rc == 1
        assert "rank" in err

    def test_rank_cap_exit_code_without_asserts(self):
        src = os.path.dirname(os.path.dirname(twistfuse.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "twistfuse.cli", "smatrix", "A20",
             "--level", "1"], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 1
        assert "rank" in proc.stderr

    def test_level_zero_exit_code(self, capsys):
        # Level 0 runs the one Kac-Peterson path: S = (1) on the vacuum.
        rc, out, _ = run(capsys, "smatrix", "A1", "--level", "0")
        assert rc == 0
        s = json.loads(out)["S"]
        assert s["rows"] == s["cols"] == [{"level": 0, "weight": [0]}]
        assert abs(complex(s["re"][0][0], s["im"][0][0]) - 1) < 1e-15

    @pytest.mark.parametrize("argv", [
        ["B2", "--level", "16"],
        ["A3", "--level", "8", "--twist", "diagram"],
    ], ids=["untwisted", "twisted"])
    def test_json_matches_repr17_oracle(self, capsys, monkeypatch, argv):
        rc, out, _ = run(capsys, "smatrix", *argv)
        assert rc == 0
        monkeypatch.setattr(smatrix_mod, "complex_json", repr17_complex_json)
        monkeypatch.setattr(cli_mod, "complex_json", repr17_complex_json)
        rc, expected, _ = run(capsys, "smatrix", *argv)
        assert rc == 0
        assert out == expected

    def test_twisted_defect_reads_the_printed_blocks(self, capsys):
        # The orthonormality of the printed S columns and the unitarity of
        # the sector block, as a twisted table gates them.
        rc, out, _ = run(capsys, "smatrix", "A3", "--level", "8", "--twist",
                         "diagram")
        assert rc == 0
        mats = fusion_mod.SectorMatrices(build_folding(parse_type("A3", AFFINE_R1)), 8)
        scol, sector = mats.blocks
        worst = max(scol.unitarity_defect(), sector.unitarity_defect())
        assert json.loads(out)["unitarity_defect"] == mats.defect == worst
        gram = scol.entries.conj().T @ scol.entries
        assert abs(scol.unitarity_defect()
                   - abs(gram - np.eye(len(scol.cols))).max()) < 1e-15

    def test_unitarity_gate(self, capsys, monkeypatch):
        # The gate reads the one constant fusion.UNITARITY_TOLERANCE; an
        # untwisted S that fails it exits 2 with nothing printed, as the
        # twisted blocks do.
        monkeypatch.setattr(fusion_mod, "UNITARITY_TOLERANCE", 1e-20)
        rc, out, err = run(capsys, "smatrix", "A2", "--level", "2")
        assert (rc, out) == (2, "")
        assert "off orthonormal" in err and "(tolerance 1e-20)" in err


class TestFusionCommand:
    def test_single_triple(self, capsys):
        rc, out, _ = run(capsys, "fusion", "A1", "--level", "1", "1", "1", "0")
        assert rc == 0
        assert json.loads(out)["N"] == 1

    @pytest.mark.parametrize("argv,n,message", [
        (["A3", "--twist", "diagram", "0,0,0", "0,0,0", "0,0,0"], 1, None),
        (["A1", "1", "1"], None, "three weights, not 2"),
        (["A2", "1", "0", "0,0", "0,0"], None, "three weights, not 4"),
        (["A2", "1", "0,0", "0,0"], None, "'1' has 1 labels"),
        (["A3", "--twist", "diagram", "--pattern", "1,s,s", "0,0,0", "0,0,0",
          "0,0"], None, "'0,0,0' has 3 labels"),
    ], ids=["untwisted-over-folding", "two-weights", "four-weights",
            "short-label", "long-twisted-label"])
    def test_single_coefficient_input(self, capsys, argv, n, message):
        rc, out, err = run(capsys, "fusion", *argv, "--level", "1")
        if message is None:
            assert rc == 0
            assert json.loads(out)["N"] == n
        else:
            assert rc == 1
            assert message in err

    @pytest.mark.parametrize("argv,n", [
        (["A1", "0", "0", "0"], 1),
        (["A3", "--twist", "diagram", "0,0,0", "0,0,0", "0,0,0"], 1),
        (["A3", "--twist", "diagram", "--pattern", "1,s,s", "0,0,0", "0,0",
          "0,0"], 1),
        (["A3", "--twist", "diagram", "--pattern", "s,1,s", "0,0", "0,0,0",
          "0,0"], 1),
        (["A3", "--twist", "diagram", "--pattern", "s,s,1", "0,0", "0,0",
          "0,0,0"], 1),
        (["A1", "1", "0", "0"], None),
        (["A3", "--twist", "diagram", "--pattern", "1,s,s", "0,0,0", "1,0",
          "0,0"], None),
    ], ids=["1,1,1", "1,1,1-over-folding", "1,s,s", "s,1,s", "s,s,1",
            "not-vacuum", "twisted-not-vacuum"])
    def test_level_zero_single_coefficient(self, capsys, argv, n):
        # Every route runs at level 0, whose one label is the vacuum; a
        # route rejects any other label with its own message.
        rc, out, err = run(capsys, "fusion", *argv, "--level", "0")
        if n is None:
            assert rc == 1
            assert "level-0" in err
        else:
            assert rc == 0
            assert json.loads(out)["N"] == n

    def test_level_zero_above_the_cap_is_refused(self, capsys):
        # Level 0 builds its S like any level, so the rank cap applies.
        rc, out, err = run(capsys, "fusion", "A8", "--level", "0")
        assert (rc, out) == (1, "")
        assert "above the element cap" in err

    def test_full_twisted_table(self, capsys):
        rc, out, _ = run(capsys, "fusion", "A3", "--level", "1",
                         "--twist", "diagram", "--pattern", "1,s,s")
        assert rc == 0
        blob = json.loads(out)
        assert blob["schema"] == 1
        assert len(blob["entries"]) == 16

    def test_sector_rule_exit(self, capsys):
        rc, _, err = run(capsys, "fusion", "A3", "--level", "1",
                         "--pattern", "s,s,s")
        assert rc == 1
        assert "violate" in err

    @pytest.mark.parametrize("pattern", ["1, 1,1", " 1,1,1 ", "1,1,1"])
    def test_table_pattern_is_read_not_matched(self, capsys, pattern):
        # Spaces and case do not steer the choice of source: a B3 table has
        # no folding and needs none.
        _, expected, _ = run(capsys, "fusion", "B3", "--level", "1")
        rc, out, err = run(capsys, "fusion", "B3", "--level", "1",
                           "--pattern", pattern)
        assert (rc, out, err) == (0, expected, "")

    @pytest.mark.parametrize("argv", [
        ["A2", "--pattern", "1, 1,1", "1,0", "0,1", "0,0"],
        ["A3", "--pattern", "1,S,s", "0,0,0", "0,0", "0,0"],
        ["A3", "--twist", "diagram", "--pattern", "S, s,1", "0,0", "0,0", "0,0,0"],
    ], ids=["1,1,1", "1,s,s", "s,s,1"])
    def test_single_coefficient_echoes_the_canonical_pattern(self, capsys, argv):
        rc, out, _ = run(capsys, "fusion", *argv, "--level", "1")
        assert rc == 0
        pattern = argv[argv.index("--pattern") + 1]
        canonical = pattern.replace(" ", "").lower()
        assert json.loads(out) == {"schema": 1, "algebra": argv[0], "level": 1,
                                   "pattern": canonical, "N": 1}

    def test_ss1_single_coefficient_runs_verlinde_alone(self, capsys, monkeypatch):
        # s,s,1 has no Kac-Walton route: its one coefficient is the twisted
        # Verlinde value, with nothing to compare it to.
        def no_route(*args):
            raise AssertionError("twisted Kac-Walton called for s,s,1")
        monkeypatch.setattr(fusion_mod, "twisted_kac_walton", no_route)
        rc, out, _ = run(capsys, "fusion", "A3", "--level", "1", "--twist",
                         "diagram", "--pattern", "s,s,1", "0,0", "0,0", "0,0,0")
        assert rc == 0
        assert json.loads(out)["N"] == 1

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(fusion_mod, "kac_walton",
                            lambda *args, **kw: 7)
        rc, _, err = run(capsys, "fusion", "A1", "--level", "1", "1", "1", "0")
        assert rc == 2
        assert "disagreement" in err

    def test_single_coefficient_call_counts(self, capsys, monkeypatch):
        # The traced benchmark's self-test expects these counts: one
        # Kac-Walton row, one S-matrix and no table for one coefficient.
        calls = {name: 0 for name in ("kac_walton_row", "untwisted_S",
                                      "fusion_table")}
        for name in calls:
            true = getattr(fusion_mod, name)

            def counted(*args, _name=name, _true=true, **kw):
                calls[_name] += 1
                return _true(*args, **kw)
            # Every alias of the function in the package, as the tracer does.
            for mod in [m for n, m in sys.modules.items()
                        if n == "twistfuse" or n.startswith("twistfuse.")]:
                for attr, value in list(vars(mod).items()):
                    if value is true:
                        monkeypatch.setattr(mod, attr, counted)
        rc, out, _ = run(capsys, "fusion", "A1", "--level", "1", "1", "1", "0")
        assert rc == 0 and json.loads(out)["N"] == 1
        assert calls == {"kac_walton_row": 1, "untwisted_S": 1, "fusion_table": 0}

    def test_mass_check_exit_code(self, capsys, monkeypatch):
        import twistfuse.rep as rep
        true_freudenthal = rep.freudenthal

        def top_weight_doubled(datum, lam):
            ws = true_freudenthal(datum, lam)
            top = (ws.weights == ws.highest.coords).all(axis=1)
            return rep.WeightSystem(ws.highest, ws.weights, ws.mults + top)
        monkeypatch.setattr(rep, "freudenthal", top_weight_doubled)
        rc, _, err = run(capsys, "fusion", "A1", "--level", "2", "1", "1", "2")
        assert rc == 2
        assert "mass 7 != expected 4" in err


# Every gate of the library, CheckFailed and each class of errors derived
# from it; each must exit 2 ("failed check").
GATES = sorted(name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.CheckFailed))


@pytest.mark.parametrize("name", GATES)
def test_failed_check_exit_code(capsys, monkeypatch, name):
    cls = getattr(errors, name)
    exc = cls.__new__(cls)
    Exception.__init__(exc, "injected fault")

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_mod, "fusion_table", fail)
    rc, _, err = run(capsys, "fusion", "A1", "--level", "1")
    assert rc == 2
    assert "check failed: injected fault" in err


# A --twist-order on a call that computes nothing twisted.
TWIST_ORDER_ALONE = ("--twist-order needs a twisted call: --twist diagram, "
                     "or a fusion pattern other than 1,1,1")


@pytest.mark.parametrize("argv,message", [
    (["smatrix", "A1", "--level", "-1"], "level must be >= 0"),
    (["weights", "A1", "--level", "-1"], "level must be >= 0"),
    (["fusion", "A1", "--level", "-1"], "level must be >= 0"),
    (["fusion", "A1", "--level", "-1", "1", "1", "0"], "level must be >= 0"),
    (["fusion", "A3", "--level", "-1", "--twist", "diagram", "--pattern",
      "1,s,s"], "level must be >= 0"),
    (["branch", "A3", "1,1"], "weight '1,1' has 2 labels; A3^(1) needs 3"),
    (["fusion", "A3", "--level", "1", "--twist-order", "3"], TWIST_ORDER_ALONE),
    (["smatrix", "A2", "--level", "1", "--twist-order", "2"], TWIST_ORDER_ALONE),
    (["weights", "A3", "--level", "1", "--twist-order", "7"], TWIST_ORDER_ALONE),
], ids=["smatrix", "weights", "fusion-table", "fusion-single", "fusion-twisted",
        "branch-rank", "fusion-twist-order", "smatrix-twist-order",
        "weights-twist-order"])
def test_input_checks_exit_1(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_twisted_pattern_reads_twist_order(capsys):
    # A fusion pattern other than 1,1,1 is twisted without --twist diagram,
    # so it reads --twist-order: D4's order-2 and order-3 tables differ.
    calls = [run(capsys, "fusion", "D4", "--level", "1", "--pattern", "1,s,s",
                 "--twist-order", order) for order in ("2", "3")]
    assert [rc for rc, _, _ in calls] == [0, 0]
    assert calls[0][1] != calls[1][1]


def test_one_unitarity_tolerance_feeds_every_gate(capsys, monkeypatch):
    # fusion.UNITARITY_TOLERANCE is the one value of the block gate of
    # every table, untwisted or twisted, of smatrix and of selfcheck.
    monkeypatch.setattr(fusion_mod, "UNITARITY_TOLERANCE", 1e-20)
    fusion_mod._sector_matrices.cache_clear()
    try:
        rc, _, err = run(capsys, "fusion", "A3", "--level", "2", "--twist",
                         "diagram", "--pattern", "1,s,s")
        assert rc == 2 and "off orthonormal" in err and "(tolerance 1e-20)" in err
        rc, out, err = run(capsys, "fusion", "A2", "--level", "2")
        assert (rc, out) == (2, "") and "off orthonormal" in err
    finally:
        fusion_mod._sector_matrices.cache_clear()
    assert run(capsys, "smatrix", "A2", "--level", "2")[0] == 2
    # The twisted smatrix gates the columns it prints as the table does,
    # and prints nothing when they fail.
    rc, out, err = run(capsys, "smatrix", "A3", "--level", "2", "--twist", "diagram")
    assert (rc, out) == (2, "") and "off orthonormal" in err
    rc, _, err = run(capsys, "selfcheck")
    assert rc == 2
    assert "selfcheck failed at: smatrix-unitarity\n" in err


# The options each command declares: exactly those it reads, 14 slots.
OPTIONS = {
    "smatrix": {"level", "twist", "twist_order"},
    "fusion": {"level", "twist", "twist_order", "output", "pattern", "parallelism"},
    "weights": {"level", "twist", "twist_order"},
    "fold-info": {"twist_order"},
    "branch": {"twist_order"},
    "selfcheck": set(),
}
# Declared and read by nothing: the benchmark's self-test
# (perfbench/child.py, SELFTEST) passes it.
KEPT_FOR_PERFBENCH = {"fusion": {"parallelism"}}

# Calls that together take every path of each command that reads an option.
READING_CALLS = [
    ["smatrix", "A3", "--level", "1", "--twist", "diagram"],
    ["fusion", "A3", "--level", "1", "--twist", "diagram", "--pattern", "1,s,s"],
    ["fusion", "A1", "--level", "1", "1", "1", "0"],
    ["weights", "A3", "--level", "1", "--twist", "diagram"],
    ["fold-info", "A3"],
    ["branch", "A3", "1,0,1"],
    ["selfcheck"],
]


def test_each_command_declares_the_options_it_reads(capsys, monkeypatch):
    parser, _ = cli_mod.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    declared = {name: {a.dest for a in p._actions
                       if a.option_strings and a.dest != "help"}
                for name, p in sub.choices.items()}
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 14

    # Every attribute a command reads off its parsed arguments.
    read = {name: set() for name in OPTIONS}

    class Recorder:
        def __init__(self, args, seen):
            self._args, self._seen = args, seen

        def __getattr__(self, name):
            self._seen.add(name)
            return getattr(self._args, name)

    for name in OPTIONS:
        fn = getattr(cli_mod, "cmd_" + name.replace("-", "_"))
        monkeypatch.setattr(cli_mod, fn.__name__,
                            lambda args, _fn=fn, _seen=read[name]:
                            _fn(Recorder(args, _seen)))
    monkeypatch.setattr(cli_mod, "_selfcheck_properties", lambda grid: [])
    for argv in READING_CALLS:
        assert main(argv) == 0, argv
    capsys.readouterr()
    for name, options in OPTIONS.items():
        kept = KEPT_FOR_PERFBENCH.get(name, set())
        assert read[name] & options == options - kept, name


@pytest.mark.parametrize("argv,option", [
    (["fusion", "A2", "--level", "2", "--method", "both", "1,0", "0,1", "0,0"],
     "--method"),
    (["fusion", "A2", "--level", "2", "--unitarity-tolerance", "1e-30"],
     "--unitarity-tolerance"),
    (["smatrix", "A2", "--level", "2", "--unitarity-tolerance", "1e-20"],
     "--unitarity-tolerance"),
    (["smatrix", "A2", "--level", "2", "--output", "table"], "--output"),
    (["fusion", "A2", "--level", "2", "--out", "table"], "--out"),
    (["smatrix", "A2", "--level", "2", "--parallelism", "1"], "--parallelism"),
    (["weights", "A2", "--level", "2", "--output", "json"], "--output"),
    (["fold-info", "A3", "--twist", "diagram"], "--twist"),
    (["branch", "A3", "--level", "1", "1,0,1"], "--level"),
    (["selfcheck", "--level", "1"], "--level"),
    (["selfcheck", "--grid", "tiny"], "--grid"),
], ids=["fusion-method", "fusion-unitarity-tolerance",
        "smatrix-unitarity-tolerance", "smatrix-output", "fusion-abbreviation",
        "smatrix-parallelism",
        "weights-output", "fold-info-twist", "branch-level", "selfcheck-level",
        "selfcheck-grid"])
def test_undeclared_options_exit_2(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {option}" in capsys.readouterr().err


EMPTY = hashlib.sha256(b"").hexdigest()
# sha256 of the stdout and the stderr of fold-info calls, and their exit
# codes: seven foldings, and refusals that each carry their own message.
FOLD_INFO_SHA256 = {
    "A3":
        ("3397aff9bd0d637474df857a8141733290d5f48e686d6ad24d57ffcf6f07d433", EMPTY, 0),
    "A5":
        ("4b1cd1282b619c1cdfa9ed67cc4770bf7ef6218def3f99007d0066a45d376ea7", EMPTY, 0),
    "A7":
        ("84c5a5aa0e908defbe880320a39ea6b8c0dd68611bbfbe9546677b92b4381804", EMPTY, 0),
    "D4 --twist-order 2":
        ("572392742f8e7a700e85544b495c17f11e325d6f3933388870c5563bdfcf0442", EMPTY, 0),
    "D4 --twist-order 3":
        ("71a16e725ef5a7606834250e9a1130e8e837adbc7417055d7fe3cccdde7fd568", EMPTY, 0),
    "D5":
        ("1056a7f5a8b63f700338fe7aa061417587ddd801ce6f1c424b329b82bf1d2511", EMPTY, 0),
    "E6":
        ("f9f1d07555b68cf8cf6c5e1b670b75d1e6592ae62a2ac1847e9999bf66560a85", EMPTY, 0),
    "A4":
        (EMPTY, "24461a56d6069a5ccdaff5c285c9c83c0c7279acf46ad693db8591bec777898a", 1),
    "G2":
        (EMPTY, "659695a3a73ccd0a96f7f121b66b200ec5c8a79290f5aa0219971e0759cde15a", 1),
    "B3":
        (EMPTY, "4544d190e2cd00dc7da6d8f56a6f63bbf37c5e1e677995b1ed67a879ef7c30ba", 1),
    "E7":
        (EMPTY, "4ba5e4030325959ca1338fc0a3e8ca564c5f67c70a05184dd0b7f532f8d5f058", 1),
    "A3 --twist-order 3":
        (EMPTY, "b0d71682ff826812029221aaa3422fe507866c185c2e40e18db55954b32c2860", 1),
    "E6 --twist-order 3":
        (EMPTY, "ee04f188d2ecbae15e27aa5399bc4fdb1f32d9deb8e5a3882b336e4d1406704d", 1),
    "D5 --twist-order 3":
        (EMPTY, "d7ecf4b61ee7dccb601e36f19ccce476408aca00460877ee12367c7475824e64", 1),
}


@pytest.mark.parametrize("argv", FOLD_INFO_SHA256)
def test_fold_info_bytes(capsys, argv):
    rc = main(["fold-info", *argv.split()])
    out, err = capsys.readouterr()
    digests = tuple(hashlib.sha256(x.encode()).hexdigest() for x in (out, err))
    assert digests + (rc,) == FOLD_INFO_SHA256[argv]


class TestOtherCommands:
    def test_weights(self, capsys):
        rc, out, _ = run(capsys, "weights", "A3", "--level", "1",
                         "--twist", "diagram")
        blob = json.loads(out)
        assert rc == 0
        assert len(blob["weights"]) == 4
        assert len(blob["symmetric"]) == 2
        assert len(blob["twisted"]) == 2

    def test_weights_one_conformal_call_each(self, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return smatrix_mod.conformal(*args)

        monkeypatch.setattr(cli_mod, "conformal", counted)
        rc, out, _ = run(capsys, "weights", "B2", "--level", "2")
        assert rc == 0
        assert len(calls) == len(json.loads(out)["weights"]) == 6

    def test_branch(self, capsys):
        rc, out, _ = run(capsys, "branch", "D4", "--twist-order", "3", "1,0,0,0")
        blob = json.loads(out)
        assert rc == 0
        dims = sorted(c["dim"] for c in blob["components"])
        assert dims == [1, 7]

    def test_fold_info(self, capsys):
        rc, out, _ = run(capsys, "fold-info", "E6")
        blob = json.loads(out)
        assert rc == 0
        assert blob["twisted"] == "E6^(2)"
        assert blob["r"] == 2

    def test_selfcheck_passes(self, capsys):
        rc, _, err = run(capsys, "selfcheck")
        assert rc == 0
        assert "selfcheck passed" in err

    def test_selfcheck_surfaces_fold_bug(self, capsys, monkeypatch):
        import twistfuse.cli as cli_mod
        from twistfuse.errors import UnrecognizedFoldedType

        def broken(grid):
            raise UnrecognizedFoldedType("corrupted table fixture")

        monkeypatch.setattr(cli_mod, "_check_twisted_a", broken)
        rc, _, err = run(capsys, "selfcheck")
        assert rc == 2
        assert "corrupted table fixture" in err

    def test_selfcheck_gates_survive_without_asserts(self):
        script = ("import sys\n"
                  "import twistfuse.cli as cli\n"
                  "cli.twisted_verlinde = lambda *args, **kw: 0\n"
                  "sys.exit(cli.main(['selfcheck']))\n")
        src = os.path.dirname(os.path.dirname(twistfuse.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2, proc.stderr
        assert "selfcheck failed at: vacuum-unit-laws" in proc.stderr

    def test_byte_determinism(self, capsys):
        _, out1, _ = run(capsys, "fusion", "A2", "--level", "2")
        _, out2, _ = run(capsys, "fusion", "A2", "--level", "2")
        assert out1 == out2
        _, s1, _ = run(capsys, "smatrix", "B2", "--level", "2")
        _, s2, _ = run(capsys, "smatrix", "B2", "--level", "2")
        assert s1 == s2

    def test_parallelism_matches_serial(self, capsys):
        # The flag is accepted and ignored: every value gives the same bytes.
        _, out, _ = run(capsys, "fusion", "A2", "--level", "2")
        for n in ("1", "4"):
            rc, out_n, _ = run(capsys, "fusion", "A2", "--level", "2",
                               "--parallelism", n)
            assert rc == 0 and out_n == out

    def test_integer_tolerance_is_gone(self, capsys):
        # The integrality gate has one value, fusion.INTEGER_TOLERANCE.
        with pytest.raises(SystemExit):
            main(["fusion", "A2", "--level", "2", "--integer-tolerance", "1e-3"])
        assert "--integer-tolerance" in capsys.readouterr().err


class TestParserReuse:
    """main builds its argparse tree once per process; parsing must leave it
    as it found it."""

    CALLS = [
        ["fusion", "A2", "1,0", "--level", "2", "0,1", "0,0"],
        ["fusion", "A2", "--level", "2", "--output", "table"],
        ["smatrix", "B2", "--level", "2"],
        ["fusion", "A2", "--level", "2", "--output", "nope", "1,0", "0,1", "0,0"],
        ["smatrix", "B2"],
        ["fusion", "A3", "--twist", "diagram", "--pattern", "1,s,s", "--level", "1"],
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        return (rc, *capsys.readouterr())

    def test_back_to_back_matches_fresh_parsers(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli_mod.build_parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        reused = [self.call(capsys, argv) for argv in self.CALLS + self.CALLS]
        assert reused == fresh + fresh
        assert [rc for rc, _, _ in fresh] == [0, 0, 0, 2, 2, 0]
        assert json.loads(fresh[0][1])["N"] == 1
        assert "invalid choice" in fresh[3][2]
        assert "--level" in fresh[4][2]
        assert cli_mod.build_parser() is cli_mod.build_parser()


class TestFusionUsage:
    """The fusion subparser's usage is formatted once, when the parser is
    built; argparse's intermixed parsing would format it on every call."""

    BAD = ["fusion", "A2", "--level", "2", "--output", "nope", "1,0", "0,1", "0,0"]
    USAGE = """\
usage: twistfuse fusion [-h] --level LEVEL [--twist {none,diagram}]
                        [--twist-order TWIST_ORDER] [--output {json,table}]
                        [--parallelism PARALLELISM] [--pattern PATTERN]
                        type [triple ...]
"""

    @pytest.fixture(autouse=True)
    def fresh_parser(self, monkeypatch):
        # argparse wraps the usage at $COLUMNS.
        monkeypatch.setenv("COLUMNS", "80")
        cli_mod.build_parser.cache_clear()
        yield
        cli_mod.build_parser.cache_clear()

    @staticmethod
    def error_text(capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("argv", [BAD, ["fusion", "A2"],
                                      ["fusion", "--level", "1"]])
    def test_error_text_unchanged(self, capsys, argv):
        preset = self.error_text(capsys, argv)
        # With the usage unset, argparse formats it itself, as it did
        # before the parser set it.
        cli_mod.build_parser()[1].usage = None
        assert self.error_text(capsys, argv) == preset
        assert preset.startswith(self.USAGE + "twistfuse fusion: error: ")

    def test_usage_formatted_once(self, capsys, monkeypatch):
        calls = []
        format_usage = argparse.ArgumentParser.format_usage

        def counted(parser):
            calls.append(parser.prog)
            return format_usage(parser)

        monkeypatch.setattr(argparse.ArgumentParser, "format_usage", counted)
        for _ in range(3):
            assert main(["fusion", "A1", "--level", "1", "1", "1", "0"]) == 0
        assert calls == ["twistfuse fusion"]
        # An error prints the usage, which formats it once more.
        self.error_text(capsys, self.BAD)
        assert calls == ["twistfuse fusion"] * 2


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _recorded_tables():
    """(argv, sha256 of stdout) of every fusion table the benchmark records."""
    with open(REFERENCE / "outputs.json") as fh:
        return sorted(json.load(fh)["fusion"].items())


class TestStreamedTables:
    """The CLI writes a table one first-slot plane at a time, then print's
    newline: the bytes are those the benchmark records, those of the
    whole-table emitters, and, chunk for chunk, those of the per-entry
    writers."""

    @pytest.mark.parametrize("key,digest", _recorded_tables(),
                             ids=[key for key, _ in _recorded_tables()])
    def test_chunks_equal_the_recorded_output(self, capsys, monkeypatch, key,
                                              digest):
        tables = []
        build = cli_mod.fusion_table
        monkeypatch.setattr(cli_mod, "fusion_table",
                            lambda *a: tables.append(build(*a)) or tables[-1])
        rc, out, _ = run(capsys, *key.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        (table,) = tables
        chunks = list(table.json_chunks())
        assert len(chunks) == len(table.slots[0]) + 2
        assert chunks == list(per_entry_json_chunks(table))
        assert "".join(chunks) + "\n" == out
        assert table.to_json() + "\n" == out
        rc, text, _ = run(capsys, *key.split(), "--output", "table")
        assert rc == 0
        assert list(table.text_chunks()) == list(per_entry_text_chunks(table))
        assert text == fusion_table_text(table) + "\n" == table.to_text() + "\n"

    def test_table_peak_memory(self):
        # A3 k=6: 84 labels, 592,704 entries, 84 MB of JSON.  Joined into
        # one string before it was printed, it peaked at 319 MB.  The peak
        # RSS of a process survives exec, so the CLI runs as the child of a
        # small interpreter, not of this one, and that one reports it.
        script = ("import resource, subprocess, sys\n"
                  "rc = subprocess.call([sys.executable, '-m', 'twistfuse.cli',\n"
                  "                      'fusion', 'A3', '--level', '6'],\n"
                  "                     stdout=subprocess.DEVNULL)\n"
                  "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        src = os.path.dirname(os.path.dirname(twistfuse.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=src))
        rc, peak_kb = proc.stdout.split()
        assert rc == "0", proc.stderr
        assert int(peak_kb) / 1024 < 120
