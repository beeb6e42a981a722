import json
import os
import subprocess
import sys

import pytest

import twistfuse
import twistfuse.cli as cli_mod
import twistfuse.errors as errors
import twistfuse.smatrix as smatrix_mod
from twistfuse.cli import main

from oracles import repr17_complex_json


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
        rc, _, err = run(capsys, "smatrix", "A1", "--level", "0")
        assert rc == 1
        assert "level >= 1" in err

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

    def test_unitarity_gate(self, capsys):
        rc, out, _ = run(capsys, "smatrix", "A2", "--level", "2",
                         "--unitarity-tolerance", "1e-20")
        assert rc == 2


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
        rc, out, err = run(capsys, "fusion", *argv, "--level", "0")
        if n is None:
            assert rc == 1
            assert "only weight is the vacuum" in err
        else:
            assert rc == 0
            assert json.loads(out)["N"] == n

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

    def test_method_selection(self, capsys):
        rc, out, _ = run(capsys, "fusion", "A1", "--level", "2",
                         "--method", "kac-walton", "1", "1", "2")
        assert rc == 0
        assert json.loads(out)["N"] == 1

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        import twistfuse.fusion as fusion_mod
        monkeypatch.setattr(fusion_mod, "kac_walton",
                            lambda *args, **kw: 7)
        rc, _, err = run(capsys, "fusion", "A1", "--level", "1", "1", "1", "0")
        assert rc == 2
        assert "disagreement" in err

    def test_no_kac_walton_route_for_ss1(self, capsys):
        rc, _, err = run(capsys, "fusion", "A3", "--level", "1", "--twist",
                         "diagram", "--pattern", "s,s,1", "--method",
                         "kac-walton", "0,0", "0,0", "0,0,0")
        assert rc == 1
        assert "error: no folding route for pattern s,s,1" in err

    def test_single_coefficient_call_counts(self, capsys, monkeypatch):
        # The traced benchmark's self-test expects these counts: one
        # Kac-Walton row, one S-matrix and no table for one coefficient.
        import twistfuse.fusion as fusion_mod
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

        def top_weight_doubled(datum, lam, dim_cap=rep.DIMENSION_CAP):
            ws = true_freudenthal(datum, lam, dim_cap)
            top = (ws.weights == ws.highest.coords).all(axis=1)
            return rep.WeightSystem(ws.highest, ws.weights, ws.mults + top)
        monkeypatch.setattr(rep, "freudenthal", top_weight_doubled)
        rc, _, err = run(capsys, "fusion", "A1", "--level", "2", "1", "1", "2")
        assert rc == 2
        assert "mass 7 != expected 4" in err


# Every gate of the library; each must exit 2 ("failed check").
GATES = ["CheckFailed", "ConformalMismatch", "DegenerateLattice",
         "FoldingIdentityFailure", "IntegralityFailure", "LatticeIndexMismatch", "MassMismatch",
         "MethodMismatch", "NegativeCoefficient", "NegativeMultiplicity",
         "NotInteger", "NotSublattice", "RootCountMismatch",
         "SectorLabelMismatch", "UnknownWeight"]


@pytest.mark.parametrize("name", GATES)
def test_failed_check_exit_code(capsys, monkeypatch, name):
    cls = getattr(errors, name)
    assert issubclass(cls, errors.CheckFailed)
    exc = cls.__new__(cls)
    Exception.__init__(exc, "injected fault")

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_mod, "fusion_table", fail)
    rc, _, err = run(capsys, "fusion", "A1", "--level", "1")
    assert rc == 2
    assert "check failed: injected fault" in err


@pytest.mark.parametrize("argv,message", [
    (["smatrix", "A1", "--level", "-1"], "level must be >= 0"),
    (["weights", "A1", "--level", "-1"], "level must be >= 0"),
    (["fusion", "A1", "--level", "-1"], "level must be >= 0"),
    (["fusion", "A1", "--level", "-1", "1", "1", "0"], "level must be >= 0"),
    (["fusion", "A3", "--level", "-1", "--twist", "diagram", "--pattern",
      "1,s,s"], "level must be >= 0"),
    (["smatrix", "A1", "--level", "1", "--unitarity-tolerance", "0"],
     "the unitarity tolerance must be positive"),
    (["branch", "A3", "1,1"], "weight '1,1' has 2 labels; A3^(1) needs 3"),
], ids=["smatrix", "weights", "fusion-table", "fusion-single", "fusion-twisted",
        "unitarity-tolerance", "branch-rank"])
def test_input_checks_exit_1(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


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

    def test_selfcheck_tiny(self, capsys):
        rc, _, err = run(capsys, "selfcheck", "--grid", "tiny")
        assert rc == 0
        assert "selfcheck passed" in err

    def test_grid_env_override(self, capsys, monkeypatch):
        # The grid is chosen by --grid alone; the environment has no say.
        monkeypatch.setenv("TWISTFUSE_GRID", "no-such-grid")
        rc, _, err = run(capsys, "selfcheck", "--grid", "tiny")
        assert rc == 0

    def test_selfcheck_surfaces_fold_bug(self, capsys, monkeypatch):
        import twistfuse.cli as cli_mod
        from twistfuse.errors import UnrecognizedFoldedType

        def broken(grid):
            raise UnrecognizedFoldedType("corrupted table fixture")

        monkeypatch.setattr(cli_mod, "_check_twisted_a", broken)
        rc, _, err = run(capsys, "selfcheck", "--grid", "tiny")
        assert rc == 2
        assert "corrupted table fixture" in err

    def test_selfcheck_gates_survive_without_asserts(self):
        script = ("import sys\n"
                  "import twistfuse.cli as cli\n"
                  "cli.twisted_verlinde = lambda *args, **kw: 0\n"
                  "sys.exit(cli.main(['selfcheck', '--grid', 'tiny']))\n")
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
        ["fusion", "A2", "--level", "2", "--method", "nope", "1,0", "0,1", "0,0"],
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
