"""Fusion rules for affine Lie algebra conformal blocks, twisted and not.

Two independent routes to every coefficient: Kac-Peterson S-matrices fed
into the (twisted) Verlinde formula, and alcove-folded tensor or branching
multiplicities via the (twisted) Kac-Walton formula.  The library keeps all
Lie-theoretic data exact and cross-validates the two routes.
"""

from .cartan import (CartanDatum, LatticeBasis, LeveledWeight, LieType,
                     Weight, build_cartan, dual_lattice, inner_product,
                     lattice_M, lattice_index, parse_type)
from .errors import (ConformalMismatch, DegenerateLattice, DimensionCap,
                     ExponentOverflow, IntegralityFailure, LatticeIndexMismatch,
                     MassMismatch, MethodMismatch, MixedDatum,
                     NegativeCoefficient, NegativeMultiplicity,
                     NoBuiltinAutomorphism, NonTermination, NotAffine,
                     NotInteger, NotSublattice, RankTooLarge,
                     RootCountMismatch, SectorLabelMismatch,
                     SectorRuleViolation, TwistfuseError, UnknownWeight,
                     UnrecognizedFoldedType, UnsupportedSectorPattern,
                     UnsupportedType)
from .fold import (DiagramAutomorphism, FoldingData, build_folding,
                   builtin_sigma, orbit_cartan, symmetric_weights)
from .fusion import (FusionTable, SectorLabel, fusion_table, kac_walton,
                     twisted_kac_walton, twisted_verlinde, verlinde)
from .rep import (DecompTable, WeightSystem, branch, dim,
                  dominant_level_weights, freudenthal, tensor_decompose)
from .smatrix import (ConformalData, ModularMatrix, conformal, twisted_a,
                      twisted_sector_S, untwisted_S)
from .weyl import (FoldResult, WeylGroup, alcove_fold, generate_weyl,
                   simple_reflect, to_dominant)

__version__ = "0.1.0"

__all__ = [
    "CartanDatum", "ConformalData", "ConformalMismatch", "DecompTable",
    "DegenerateLattice", "DiagramAutomorphism", "DimensionCap",
    "ExponentOverflow", "FoldResult", "FoldingData", "FusionTable", "IntegralityFailure", "LatticeBasis",
    "LatticeIndexMismatch", "LeveledWeight", "LieType",
    "MassMismatch", "MethodMismatch",
    "MixedDatum", "ModularMatrix", "NegativeCoefficient",
    "NegativeMultiplicity", "NoBuiltinAutomorphism", "NonTermination",
    "NotAffine", "NotInteger", "NotSublattice", "RankTooLarge",
    "RootCountMismatch",
    "SectorLabel", "SectorLabelMismatch", "SectorRuleViolation",
    "TwistfuseError", "UnknownWeight",
    "UnrecognizedFoldedType", "UnsupportedSectorPattern",
    "UnsupportedType", "Weight", "WeightSystem", "WeylGroup", "alcove_fold",
    "branch", "build_cartan", "build_folding", "builtin_sigma", "conformal",
    "dim", "dominant_level_weights", "dual_lattice", "freudenthal",
    "fusion_table", "generate_weyl", "inner_product", "kac_walton",
    "lattice_M", "lattice_index", "orbit_cartan",
    "parse_type", "simple_reflect", "symmetric_weights", "tensor_decompose",
    "to_dominant", "twisted_a", "twisted_kac_walton", "twisted_sector_S",
    "twisted_verlinde", "untwisted_S", "verlinde",
]
