"""Fusion rules for affine Lie algebra conformal blocks, twisted and not.

Two independent routes to every coefficient: Kac-Peterson S-matrices fed
into the (twisted) Verlinde formula, and alcove-folded tensor or branching
multiplicities via the (twisted) Kac-Walton formula.  The library keeps all
Lie-theoretic data exact and cross-validates the two routes.
"""

import os
import sys

# OpenBLAS starts a worker pool when numpy loads, and each worker busy-waits
# for about 0.1 s of CPU after the load and after every product it wakes for;
# the package's products are too small to gain wall time from it.  Unless the
# caller loaded numpy or chose a thread count, load numpy with one thread.
# OpenBLAS reads the count once, at load, so the variable is set for this one
# import only and os.environ is left as the caller had it.
if "numpy" not in sys.modules and not any(
        var in os.environ
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .cartan import (CartanDatum, LeveledWeight, LieType, Weight,
                     build_cartan, inner_product, parse_type)
from .errors import (CheckFailed, ConformalMismatch, DimensionCap,
                     ExponentOverflow, FoldingIdentityFailure,
                     IntegralityFailure, MassMismatch, MethodMismatch, MixedDatum,
                     NegativeCoefficient, NegativeMultiplicity,
                     NoBuiltinAutomorphism, NonTermination, NotInteger,
                     NotOrthonormal, NotSublattice, RankTooLarge,
                     RingRecursionFailure, RootCountMismatch, SectorLabelMismatch,
                     SectorRuleViolation, TwistfuseError, UnknownWeight,
                     UnrecognizedFoldedType, UnsupportedSectorPattern,
                     UnsupportedType)
from .fold import (DiagramAutomorphism, FoldingData, build_folding,
                   builtin_sigma, symmetric_weights)
from .fusion import (FusionTable, SectorLabel, fusion_table, kac_walton,
                     twisted_kac_walton, twisted_verlinde, verlinde)
from .rep import (DecompTable, WeightSystem, branch, dim,
                  dominant_level_weights, freudenthal, tensor_decompose)
from .smatrix import (ConformalData, ModularMatrix, conformal, twisted_a,
                      twisted_sector_S, untwisted_S)
from .weyl import FoldResult, WeylGroup, alcove_fold, generate_weyl, to_dominant

__version__ = "0.1.0"

__all__ = [
    "CartanDatum", "CheckFailed", "ConformalData", "ConformalMismatch", "DecompTable",
    "DiagramAutomorphism", "DimensionCap",
    "ExponentOverflow", "FoldResult", "FoldingData", "FoldingIdentityFailure",
    "FusionTable", "IntegralityFailure", "LeveledWeight",
    "LieType", "MassMismatch", "MethodMismatch",
    "MixedDatum", "ModularMatrix", "NegativeCoefficient",
    "NegativeMultiplicity", "NoBuiltinAutomorphism", "NonTermination",
    "NotInteger", "NotOrthonormal", "NotSublattice",
    "RankTooLarge", "RingRecursionFailure", "RootCountMismatch",
    "SectorLabel", "SectorLabelMismatch", "SectorRuleViolation",
    "TwistfuseError", "UnknownWeight",
    "UnrecognizedFoldedType", "UnsupportedSectorPattern",
    "UnsupportedType", "Weight", "WeightSystem", "WeylGroup", "alcove_fold",
    "branch", "build_cartan", "build_folding", "builtin_sigma", "conformal",
    "dim", "dominant_level_weights", "freudenthal",
    "fusion_table", "generate_weyl", "inner_product", "kac_walton",
    "parse_type", "symmetric_weights", "tensor_decompose",
    "to_dominant", "twisted_a", "twisted_kac_walton", "twisted_sector_S",
    "twisted_verlinde", "untwisted_S", "verlinde",
]
