"""Exception hierarchy for twistfuse."""


class TwistfuseError(Exception):
    """Base class for all twistfuse errors."""


class CheckFailed(TwistfuseError):
    """Base class of the gates: an exact or numeric check of the library's
    own results failed.  The CLI exits 2 on any of them."""


class UnsupportedType(TwistfuseError):
    """The (family, rank, kind) triple does not name a supported diagram."""


class MixedDatum(TwistfuseError):
    """Operands belong to different Cartan data."""


class NotSublattice(CheckFailed):
    """A lattice is not contained where the normalisation needs it: M in
    its dual lattice M* (Gram(M) integral), or M^dag in phi(M') (the
    twisted symmetrizers integral)."""


class RankTooLarge(TwistfuseError):
    """Weyl group generation would exceed the configured caps."""


class ExponentOverflow(TwistfuseError):
    """Integer phase exponents could leave the int64 range of the orbit kernel."""


class DimensionCap(TwistfuseError):
    """A representation exceeds the configured dimension bound."""


class NegativeMultiplicity(CheckFailed):
    """A tensor or branching multiplicity came out negative (for branching,
    a bad restriction matrix)."""


class IntegralityFailure(CheckFailed):
    """An exact quotient that must be a non-negative integer, a Weyl
    dimension or a Freudenthal multiplicity, is not one."""


class RootCountMismatch(CheckFailed):
    """The reflection closure of the simple roots does not have the
    datum's number of positive roots."""


class SectorLabelMismatch(CheckFailed):
    """The Pstar images of the adjacent level-k weights are not exactly the
    sigma-fixed weights of the base, the S-matrix columns of the twisted
    sector."""


class FoldingIdentityFailure(CheckFailed):
    """A coordinate identity relating Pstar, phi and iota_dual fails."""


class ConformalMismatch(CheckFailed):
    """Conformal data fail the strange formula, h - m = c/24, or h >= 0 with
    equality exactly at the vacuum."""


class MassMismatch(CheckFailed):
    """A weight system, tensor product or branching does not conserve
    dimension."""

    def __init__(self, what, actual, expected):
        self.actual = actual
        self.expected = expected
        super().__init__(f"{what} mass {actual} != expected {expected}")


class NoBuiltinAutomorphism(TwistfuseError):
    """No built-in diagram automorphism exists for the requested type."""


class UnrecognizedFoldedType(TwistfuseError):
    """The orbit Cartan matrix matches no supported affine type."""


class NonTermination(TwistfuseError):
    """Alcove folding was asked for at a level t = k + h^vee <= 0, where the
    reflection walk need not end."""


class NotInteger(CheckFailed):
    """A Verlinde sum failed the integrality tolerance."""


class NotOrthonormal(CheckFailed):
    """S-matrix columns fail orthonormality, S^H S = I, within tolerance."""


class UnknownWeight(CheckFailed):
    """A Kac-Walton component folded to a weight outside the labels of its
    table."""


class NegativeCoefficient(CheckFailed):
    """A fusion coefficient rounded, or recursed, to a negative integer."""


class RingRecursionFailure(CheckFailed):
    """A premise of the fusion-ring recursion of a Kac-Walton table fails:
    the vacuum is the first label, V(mu) (x) V(omega_i) holds mu + omega_i
    once, and the int64 products are exact."""


class SectorRuleViolation(TwistfuseError):
    """Requested sectors violate the product constraint g3 = g1*g2."""


class UnsupportedSectorPattern(TwistfuseError):
    """The sector pattern is admissible but not computable in scope."""


class MethodMismatch(CheckFailed):
    """Two fusion methods disagreed on a triple."""

    def __init__(self, triple, value_a, value_b):
        self.triple = triple
        self.value_a = value_a
        self.value_b = value_b
        super().__init__(
            f"method disagreement at {triple}: {value_a} != {value_b}")
