"""Exception types shared across the package.

Every validation failure names the violated law in its message; numerical
context (worst residual, offending indices) rides along in the message and,
where it is useful programmatically, as attributes.
"""


class VnpairError(Exception):
    """Base class for all package-specific failures.

    Keyword arguments become attributes of the error; a failed named law
    (``numkernel.require``) sets law, residual and bound, a failed set of
    laws (``numkernel.require_laws``) residuals and bound, otherwise None.
    """

    law = residual = residuals = bound = None

    def __init__(self, message: str = "", **attrs):
        super().__init__(message)
        self.__dict__.update(attrs)


# ---------------------------------------------------------------- numerics

class DimensionMismatch(VnpairError):
    """Operand shapes are incompatible with the requested operation."""


class SingularInput(VnpairError):
    """A matrix required to be invertible is numerically singular."""


class NonIntegralRank(VnpairError):
    """The trace of a projection, its rank, is not an integer within
    bound; carries the trace, the rounded rank and the bound."""

    trace = rank = None


class AmbiguousRank(VnpairError):
    """A spectral gap lies between its cut and window * cut, too wide for
    noise and too narrow for a split; carries the gap, cut and window."""

    gap = cut = window = None


# ---------------------------------------------------------------- algebras

class NonConvergence(VnpairError):
    """Iterative closure failed to stabilize within the ambient bound."""


class DegenerateCenterElement(VnpairError):
    """The block frame of an algebra failed a check of block_decompose."""


class InvalidAlgebra(VnpairError):
    """A stored basis violates the *-algebra invariants; a failed check of
    the basis or its generators carries the law, the residual and the bound."""


# ----------------------------------------------------------- endomorphisms

class NotUnital(VnpairError):
    """The identity is not mapped to the identity."""


class NotMultiplicative(VnpairError):
    """Products of basis elements are not respected."""


class NotStar(VnpairError):
    """Adjoints of basis elements are not respected."""


class ImageOutsideAlgebra(VnpairError):
    """An image matrix leaves the span of the domain algebra."""


class NotUnitary(VnpairError):
    """A matrix required to be unitary is not, within tolerance."""


class AlgebraNotInvariant(VnpairError):
    """Conjugation by the given unitary does not preserve the algebra span."""


class DomainMismatch(VnpairError):
    """Two maps that must share a domain algebra do not."""


class InconsistentGeneratorImages(VnpairError):
    """Prescribed generator images do not extend to a well defined map."""


# ---------------------------------------------------------- correspondences

class AlgebraMismatch(VnpairError):
    """Two correspondences are not composable or comparable as required."""


class InvalidCorrespondence(VnpairError):
    """A stored commuting pair violates a correspondence law, named on it."""


class EmptyTensorProduct(VnpairError):
    """No eigenvalue of an interior-tensor Gram matrix survives the cutoff."""


class NotIsometric(VnpairError):
    """A canonical map failed its inner-product preservation check."""


class NotIntertwining(VnpairError):
    """A canonical map or an intertwiner basis failed its intertwining check."""


# ---------------------------------------------------------- product systems

class NotFullAlgebra(VnpairError):
    """The operation requires the full matrix algebra as domain."""


class NotUnitVector(VnpairError):
    """The supplied vector is not a unit vector."""


class NotFaithful(VnpairError):
    """The endomorphism is not faithful, so the construction is undefined."""


class NoUnitVector(VnpairError):
    """The intertwiner space contains no isometry; carries the obstruction."""

    required = available = None


class ProductSystemLawError(VnpairError):
    """A product-system identity (unitarity, marginals, associativity) failed."""


# --------------------------------------------------------------- multipliers

class NotUnimodular(VnpairError):
    """A grid value deviates from modulus one beyond tolerance."""


class CocycleViolation(VnpairError):
    """The two-variable cocycle identity fails at some grid triple; carries
    the first worst triple, its residual and the bound."""

    triple = None


class BoundaryViolation(VnpairError):
    """Row zero and column zero of the grid are not constant."""


class GridMismatch(VnpairError):
    """Two grids of different horizons cannot be combined."""


class NotScalar(VnpairError):
    """A product of family unitaries is not a scalar multiple of the target."""


class TrivializationResidual(VnpairError):
    """The splitting family failed its exhaustive certification."""


# ------------------------------------------------------------------- pairing

class RelationB(VnpairError):
    """Conjugation by the candidate unitary does not implement the map on B."""


class RelationBPrime(VnpairError):
    """Conjugation by the candidate unitary does not implement the map on B'."""


class NotUnitaryImage(VnpairError):
    """The image of the identity under the bimodule map is not unitary."""


class PairingCheckFailed(VnpairError):
    """A unitary recovered from an isomorphism fails the pairing relations."""


class NotPairedInput(VnpairError):
    """An operation that needs paired inputs received an unpaired pair."""


class CocycleResidual(VnpairError):
    """The operator cocycle identities fail beyond tolerance."""

    step = None


class DomainsNotCommutant(InvalidCorrespondence):
    """The two domains are not each other's commutant; carries law, residual, bound."""


# ----------------------------------------------------------------------- cli

class ParseError(VnpairError):
    """The scene file cannot be decoded into the expected shapes."""
