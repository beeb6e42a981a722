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
nothing printed.  `selfcheck` runs three checks over `SELFCHECK_GRID`, from
level 0, through the library's own gates: the gated, cross-checked 1,1,1
and 1,s,s tables, each with the identity as its vacuum plane, and the
folding identities.
"""

import argparse
import sys
import time
from functools import lru_cache

import numpy as np

from . import fusion
from .cartan import AFFINE_R1, build_cartan, parse_type
from .errors import CheckFailed, TwistfuseError
from .fold import build_folding, symmetric_weights
from .fusion import (check_pattern, coefficient, fusion_table, parse_pattern,
                     pattern_text, slot_data)
from .rep import branch, dim, dominant_level_weights
from .smatrix import compact_json, complex_json, conformal


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
# Self-check suite: the library's own gates over one grid.

# (type, twist order or None, kmax), from level 0: the 1,1,1 tables of each
# untwisted entry and the 1,s,s tables of each folding, to level kmax.
SELFCHECK_GRID = (("A1", None, 3), ("A2", None, 3), ("A3", None, 3),
                  ("B2", None, 3), ("C2", None, 3), ("G2", None, 3),
                  ("D4", None, 2), ("A3", 2, 2), ("D4", 2, 2), ("D4", 3, 2))


def _tables(twisted):
    """The grid's 1,s,s tables (twisted) or 1,1,1 tables: `fusion_table`
    gates the blocks each reads and cross-checks its two routes, and its
    vacuum plane must be the identity.  The worst defect of those blocks."""
    worst = 0.0
    for name, order, kmax in SELFCHECK_GRID:
        if (order is not None) != twisted:
            continue
        base = parse_type(name, AFFINE_R1)
        source = build_folding(base, order) if twisted else build_cartan(base)
        for k in range(kmax + 1):
            table = fusion_table(source, k, "1,s,s" if twisted else "1,1,1")
            if not np.array_equal(table.N[0], np.eye(len(table.N[0]))):
                raise TwistfuseError(f"{name}^({order or 1}) level {k}: vacuum unit "
                                     f"law failed, N(0, a, b) is not delta_ab")
            # A cache hit: the blocks the table just read.
            worst = max(worst, fusion._sector_matrices(source, k).defect)
    return worst


def _fold_identities():
    """Over the grid's foldings and E6, at levels 0..3: as many adjacent as
    twisted labels, and each adjacent label has the anomaly of its Pstar
    image (`symmetric_weights`, in adjacent order)."""
    for name, order in [(n, o) for n, o, _ in SELFCHECK_GRID if o] + [("E6", 2)]:
        folding = build_folding(parse_type(name, AFFINE_R1), order)
        adj = folding.adjacent
        for k in range(4):
            pairs = list(zip(dominant_level_weights(adj, k),
                             symmetric_weights(folding, k)))
            n_tw = len(dominant_level_weights(folding.twisted, k))
            if len(pairs) != n_tw:
                raise TwistfuseError(f"{name} level {k}: {len(pairs)} adjacent "
                                     f"and {n_tw} twisted weights")
            for lw, image in pairs:
                m_adj = conformal(adj, k, lw).m
                m_base = conformal(folding.base, k, image).m
                if m_adj != m_base:
                    raise TwistfuseError(f"{name} level {k}: anomaly of {lw} is "
                                         f"{m_adj}, of its image {m_base}")
    return 0.0


def _selfcheck_properties():
    return [("untwisted-tables", lambda: _tables(twisted=False)),
            ("twisted-tables", lambda: _tables(twisted=True)),
            ("folding-identities-and-anomaly", _fold_identities)]


def cmd_selfcheck(args):
    for name, fn in _selfcheck_properties():
        t0 = time.time()
        try:
            residual, passed = fn(), True
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
