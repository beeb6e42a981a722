"""Command-line front end.

Commands: smatrix, fusion, fold-info, weights, branch, selfcheck.  Each
declares only the options it reads, unabbreviated; any other exits 2.
fusion's `--parallelism` is read by nothing and stays only because the
benchmark's self-test passes it.  Every unitarity exit code reads the one
`fusion.UNITARITY_TOLERANCE`.  JSON goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 bad input, 2 failed check.  A `--twist-order` on
a call that computes nothing twisted is bad input.  `smatrix.compact_json`
writes every JSON document, S-matrix blocks included (as float64 arrays),
and `Weight.to_json` every list of Dynkin labels.  A fusion table is
written one first-slot plane at a time (`FusionTable.json_chunks`).
`smatrix` builds the blocks it prints through `fusion.SectorMatrices`, as
a table does: the full S, or with `--twist diagram` the sigma-stable
columns of S and the twisted-sector block.  It prints their gated column
defect as `unitarity_defect`, and a block that fails the gate exits 2 with
nothing printed.
"""

import argparse
import sys
import time
from functools import lru_cache

from . import fusion
from .cartan import AFFINE_R1, build_cartan, parse_type
from .errors import CheckFailed, TwistfuseError
from .fold import build_folding, pstar_apply, symmetric_weights
from .fusion import (SectorLabel, check_pattern, coefficient, fusion_table,
                     parse_pattern, pattern_text, slot_data, twisted_verlinde)
from .rep import branch, dim, dominant_level_weights
from .smatrix import compact_json, complex_json, conformal, twisted_a, untwisted_S


def _dump(obj):
    print(compact_json(obj))


def _folding_for(args):
    base_type = parse_type(args.type, AFFINE_R1)
    return build_folding(base_type, args.twist_order or None)


def cmd_smatrix(args):
    # What is printed and no more, gated by SectorMatrices (exit 2, nothing
    # printed): the full S, or S on its sigma-stable columns and the sector block.
    twisted = args.twist != "none"
    mats = fusion.SectorMatrices(_folding_for(args) if twisted else
                                 build_cartan(parse_type(args.type, AFFINE_R1)),
                                 args.level)
    s = mats.blocks[0]
    out = {"schema": 1, "algebra": args.type, "level": args.level}
    if twisted:
        out["S_symmetric_columns"] = {
            "rows": [w.finite.to_json() for w in s.rows],
            "cols": [w.finite.to_json() for w in s.cols],
            **complex_json(s.entries),
        }
        out["S_twisted_sector"] = mats.blocks[1].to_json_dict()
    else:
        out["S"] = s.to_json_dict()
    out["unitarity_defect"] = mats.defect
    _dump(out)
    return 0


def cmd_fusion(args):
    sectors = parse_pattern(args.pattern)
    if sectors == (0, 0, 0) and args.twist == "none":
        source = build_cartan(parse_type(args.type, AFFINE_R1))
    else:
        source = _folding_for(args)
    pattern = pattern_text(sectors)
    if not args.triple:
        table = fusion_table(source, args.level, pattern)
        # One first-slot plane of text at a time, then print's newline.
        sys.stdout.writelines(table.json_chunks() if args.output == "json"
                              else table.text_chunks())
        sys.stdout.write("\n")
        return 0
    check_pattern(source, pattern)
    if len(args.triple) != 3:
        raise ValueError(f"a single coefficient takes three weights, "
                         f"not {len(args.triple)}")
    labels = [_dynkin_labels(datum, spec)
              for datum, spec in zip(slot_data(source, sectors), args.triple)]
    value = coefficient(source, args.level, sectors, labels)
    if args.output == "json":
        _dump({"schema": 1, "algebra": args.type, "level": args.level,
               "pattern": pattern, "N": value})
    else:
        print(value)
    return 0


def _dynkin_labels(datum, spec):
    """The Dynkin labels of a comma-separated weight spec of datum."""
    coords = tuple(int(x) for x in spec.split(","))
    if len(coords) != datum.rank:
        raise ValueError(f"weight {spec!r} has {len(coords)} labels; "
                         f"{datum.type} needs {datum.rank}")
    return coords


def cmd_fold_info(args):
    folding = _folding_for(args)
    _dump({"schema": 1, **folding.to_json_dict()})
    return 0


def cmd_weights(args):
    datum = build_cartan(parse_type(args.type, AFFINE_R1))
    out = {"schema": 1, "algebra": args.type, "level": args.level}
    weights = dominant_level_weights(datum, args.level)
    out["weights"] = [w.finite.to_json() for w in weights]
    out["conformal"] = [
        {"weight": w.finite.to_json(), "h": str(c.h), "m": str(c.m)}
        for w, c in ((w, conformal(datum, args.level, w)) for w in weights)]
    if args.twist == "diagram":
        folding = _folding_for(args)
        out["symmetric"] = [w.finite.to_json()
                            for w in symmetric_weights(folding, args.level)]
        out["twisted"] = [w.finite.to_json()
                          for w in dominant_level_weights(folding.twisted, args.level)]
    _dump(out)
    return 0


def cmd_branch(args):
    folding = _folding_for(args)
    lam = folding.base.weight(_dynkin_labels(folding.base, args.weight))
    table = branch(folding.base.finite, folding.twisted.finite,
                   folding.iota_dual, lam)
    _dump({"schema": 1, "algebra": args.type,
           "weight": lam.to_json(),
           "components": [{"weight": w.to_json(), "mult": m,
                           "dim": dim(folding.twisted.finite, w.coords)}
                          for w, m in sorted(table.entries.items(),
                                             key=lambda t: t[0].coords)]})
    return 0


# ---------------------------------------------------------------------------
# Self-check suite

GRID = {
    "untwisted": [("A1", 3), ("A2", 3), ("A3", 3), ("B2", 3), ("C2", 3),
                  ("G2", 3), ("D4", 2)],
    "verlinde": [("A1", 3), ("A2", 3), ("A3", 2), ("B2", 2), ("C2", 2),
                 ("G2", 2), ("D4", 1)],
    "foldings": [("A3", 0, 2), ("D4", 2, 2), ("D4", 3, 2)],
    "fold_identities": [("A3", 0), ("D4", 2), ("D4", 3), ("E6", 0)],
}


def _check_cartan(grid):
    # M_index gates M in M*, Gram(M) integral (NotSublattice).
    for name, _ in grid["untwisted"]:
        build_cartan(parse_type(name, AFFINE_R1)).M_index
    return 0.0


def _check_smatrix(grid):
    worst = 0.0
    for name, kmax in grid["untwisted"]:
        datum = build_cartan(parse_type(name, AFFINE_R1))
        for k in range(kmax + 1):
            worst = max(worst, untwisted_S(datum, k).unitarity_defect())
    return worst


def _check_twisted_a(grid):
    worst = 0.0
    for name, order, kmax in grid["foldings"]:
        folding = build_folding(parse_type(name, AFFINE_R1), order or None)
        for k in range(kmax + 1):
            a = twisted_a(folding, k)
            if a.shape[0] != a.shape[1]:
                raise TwistfuseError(f"{name} level {k}: twisted-a matrix is "
                                     f"{a.shape}")
            worst = max(worst, a.unitarity_defect())
    return worst


def _check_verlinde_vs_kw(grid):
    for name, kmax in grid["verlinde"]:
        datum = build_cartan(parse_type(name, AFFINE_R1))
        for k in range(kmax + 1):
            fusion_table(datum, k, "1,1,1")
    return 0.0


def _check_twisted_fusion(grid):
    for name, order, kmax in grid["foldings"]:
        folding = build_folding(parse_type(name, AFFINE_R1), order or None)
        for k in range(kmax + 1):
            fusion_table(folding, k, "1,s,s")
    return 0.0


def _check_fold_identities(grid):
    for name, order in grid["fold_identities"]:
        folding = build_folding(parse_type(name, AFFINE_R1), order or None)
        for k in range(0, 4):
            sym = symmetric_weights(folding, k)
            adj = folding.adjacent
            tw = folding.twisted
            n_adj = dominant_level_weights(adj, k)
            n_tw = dominant_level_weights(tw, k)
            if not len(sym) == len(n_adj) == len(n_tw):
                raise TwistfuseError(
                    f"{name} level {k}: {len(sym)} symmetric, {len(n_adj)} "
                    f"adjacent and {len(n_tw)} twisted weights")
            for lw in n_adj:
                image = pstar_apply(folding, lw)
                m_adj = conformal(adj, k, lw).m
                m_base = conformal(folding.base, k, image).m
                if m_adj != m_base:
                    raise TwistfuseError(f"{name} level {k}: anomaly of {lw} is "
                                         f"{m_adj}, of its image {m_base}")
    return 0.0


def _check_unit_laws(grid):
    for name, order, kmax in grid["foldings"]:
        folding = build_folding(parse_type(name, AFFINE_R1), order or None)
        k = min(kmax, 1)
        vac = folding.base.leveled(k, (0,) * folding.base.rank)
        for lw in dominant_level_weights(folding.twisted, k):
            for mu in dominant_level_weights(folding.twisted, k):
                n = twisted_verlinde(
                    folding, k, SectorLabel("untwisted", vac),
                    SectorLabel("sigma", lw), SectorLabel("sigma", mu))
                if n != (1 if lw == mu else 0):
                    raise TwistfuseError(
                        f"vacuum unit law failed at {lw}, {mu}: N = {n}")
    return 0.0


def _selfcheck_properties(grid):
    return [
        ("cartan-lattice-invariants", lambda: _check_cartan(grid)),
        ("smatrix-unitarity", lambda: _check_smatrix(grid)),
        ("twisted-a-unitarity", lambda: _check_twisted_a(grid)),
        ("verlinde-equals-kac-walton", lambda: _check_verlinde_vs_kw(grid)),
        ("twisted-verlinde-equals-twisted-kac-walton",
         lambda: _check_twisted_fusion(grid)),
        ("folding-identities-and-anomaly", lambda: _check_fold_identities(grid)),
        ("vacuum-unit-laws", lambda: _check_unit_laws(grid)),
    ]


def cmd_selfcheck(args):
    for name, fn in _selfcheck_properties(GRID):
        t0 = time.time()
        try:
            residual = fn()
            passed = residual <= fusion.UNITARITY_TOLERANCE  # a NaN fails
        except TwistfuseError as exc:
            residual, passed = float("nan"), False
            print(f"  {name}: {exc}", file=sys.stderr)
        print(f"{'PASS' if passed else 'FAIL'} {name} residual={residual:.3e} "
              f"({time.time() - t0:.2f}s)", file=sys.stderr)
        if not passed:
            print(f"selfcheck failed at: {name}", file=sys.stderr)
            return 2
    print("selfcheck passed", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser():
    """The (parser, fusion subparser) pair, built once per process.

    Parsing leaves both unchanged: parse_intermixed_args restores the
    nargs, defaults, required flags and usage it switches, in a finally.
    The fusion usage is formatted here, once: parse_intermixed_args formats
    it on every call where it is unset, and sets it to the same text.
    """
    parser = argparse.ArgumentParser(
        prog="twistfuse",
        description="Fusion rules for affine Lie algebras, twisted and not, "
                    "computed two independent ways.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, level=True):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("type", help="finite type spec, e.g. A3")
        if level:
            p.add_argument("--level", type=int, required=True)
            p.add_argument("--twist", choices=["none", "diagram"], default="none")
        p.add_argument("--twist-order", type=int, default=0,
                       help="2 or 3 for D4; default picks the triality")
        return p

    command("smatrix", "modular S-matrices")

    fusion_parser = p = command("fusion", "fusion coefficients or tables")
    p.add_argument("--output", choices=["json", "table"], default="json")
    p.add_argument("--parallelism", type=int, default=1,
                   help="ignored; the benchmark's self-test passes it")
    p.add_argument("triple", nargs="*",
                   help="three weights as comma-separated labels; empty for "
                        "the full table")
    p.add_argument("--pattern", default="1,1,1",
                   help="sector pattern: 1,1,1  1,s,s  s,1,s  s,s,1")
    p.usage = p.format_usage()[len("usage: "):]

    command("fold-info", "diagram automorphism and folding maps", level=False)

    command("weights", "dominant weights and conformal data")

    p = command("branch", "restrict a weight to the folded subalgebra", level=False)
    p.add_argument("weight", help="comma-separated Dynkin labels")

    sub.add_parser("selfcheck", help="run the invariant suite", allow_abbrev=False)
    return parser, fusion_parser


def main(argv=None):
    parser, fusion_parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # Intermixed parsing lets weight triples follow the option flags.
    if argv and argv[0] == "fusion":
        args = fusion_parser.parse_intermixed_args(argv[1:])
        args.command = "fusion"
    else:
        args = parser.parse_args(argv)
    commands = {"smatrix": cmd_smatrix, "fusion": cmd_fusion,
                "fold-info": cmd_fold_info, "weights": cmd_weights,
                "branch": cmd_branch, "selfcheck": cmd_selfcheck}
    try:
        if getattr(args, "level", 0) < 0:
            raise ValueError("level must be >= 0")
        # fold-info and branch are always twisted, fusion also by a pattern
        # with a twisted slot.
        if getattr(args, "twist_order", 0) and not (
                args.command in ("fold-info", "branch") or args.twist == "diagram"
                or args.command == "fusion" and any(parse_pattern(args.pattern))):
            raise ValueError("--twist-order needs a twisted call: --twist "
                             "diagram, or a fusion pattern other than 1,1,1")
        return commands[args.command](args)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (TwistfuseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
