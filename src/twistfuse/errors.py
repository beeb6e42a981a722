"""Exception hierarchy for twistfuse."""


class TwistfuseError(Exception):
    """Base class for all twistfuse errors."""


class UnsupportedType(TwistfuseError):
    """The (family, rank, kind) triple does not name a supported diagram."""


class MixedDatum(TwistfuseError):
    """Operands belong to different Cartan data."""


class NotAffine(TwistfuseError):
    """An affine datum was required."""


class NotSublattice(TwistfuseError):
    """Lattice containment check failed."""


class RankTooLarge(TwistfuseError):
    """Weyl group generation would exceed the configured caps."""


class ExponentOverflow(TwistfuseError):
    """Integer phase exponents could leave the int64 range of the orbit kernel."""


class DimensionCap(TwistfuseError):
    """A representation exceeds the configured dimension bound."""


class NegativeMultiplicity(TwistfuseError):
    """A tensor or branching multiplicity came out negative (for branching,
    a bad restriction matrix)."""


class IntegralityFailure(TwistfuseError):
    """An exact quotient that must be a non-negative integer, a Weyl
    dimension or a Freudenthal multiplicity, is not one."""


class RootCountMismatch(TwistfuseError):
    """The reflection closure of the simple roots does not have the
    datum's number of positive roots."""


class MassMismatch(TwistfuseError):
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
    """Alcove folding exceeded its iteration cap."""


class NotInteger(TwistfuseError):
    """A Verlinde sum failed the integrality tolerance."""


class UnknownWeight(TwistfuseError):
    """A Kac-Walton row named a weight outside the labels of its table."""


class NegativeCoefficient(TwistfuseError):
    """A fusion coefficient rounded to a negative integer."""


class SectorRuleViolation(TwistfuseError):
    """Requested sectors violate the product constraint g3 = g1*g2."""


class UnsupportedSectorPattern(TwistfuseError):
    """The sector pattern is admissible but not computable in scope."""


class UnsupportedOrder(TwistfuseError):
    """Operation restricted to automorphism order 2."""


class MethodMismatch(TwistfuseError):
    """Two fusion methods disagreed on a triple."""

    def __init__(self, triple, value_a, value_b):
        self.triple = triple
        self.value_a = value_a
        self.value_b = value_b
        super().__init__(
            f"method disagreement at {triple}: {value_a} != {value_b}")
