"""Exception types shared across the package.

Failures of *mathematical properties* (a cone axiom that does not hold, a
universal property with a counterexample) are returned as data, not raised;
exceptions are reserved for malformed inputs and for requests outside the
decidable fragment an operation supports.
"""


class PreordGrpError(Exception):
    """Base class for all package errors."""


class NotAGroup(PreordGrpError):
    """A Cayley table fails one of the group axioms; carries a witness."""

    def __init__(self, reason, witness=None):
        super().__init__(reason)
        self.witness = witness


class BadInvariantFactors(PreordGrpError):
    """Torsion coefficients must be positive integers."""


class NotNormal(PreordGrpError):
    """Quotient requested by a subgroup that is not normal."""

    def __init__(self, reason, witness=None):
        super().__init__(reason)
        self.witness = witness


class BackendMismatch(PreordGrpError):
    """Operation pairing a finite non-abelian group with an infinite one."""


class ConeAxiomViolation(PreordGrpError):
    """A candidate positive cone fails closure; carries the violating pair."""

    def __init__(self, reason, witness=None):
        super().__init__(reason)
        self.witness = witness


class ConeNotPreserved(PreordGrpError):
    """A group map sends some cone generator outside the target cone."""

    def __init__(self, reason, generator=None):
        super().__init__(reason)
        self.generator = generator


class ImageNotNormal(PreordGrpError):
    """Cokernel requested along a map whose image is not normal."""


class ImageNotComputable(PreordGrpError):
    """A cone image or inclusion no exact rule decides: an image without
    generators into a finite group, a piece against an image without
    generators whose map's kernel is not in the inner units, or a box or
    Hilbert basis past ``HILBERT_FRONTIER_CAP``."""


class UnitExtractionUnsupported(PreordGrpError):
    """No compositional rule computes the unit group of this recipe cone."""


class NotComparable(PreordGrpError):
    """Alternative sequence fails its own certificate."""


class RowsNotSchreier(PreordGrpError):
    """Short-five-lemma instance whose rows are not special Schreier."""


class NotACommutingSquare(PreordGrpError):
    """Orthogonality or short-five query on a square that does not commute."""


class EnumerationUnbounded(PreordGrpError):
    """An exhaustive enumeration was requested on an infinite hom-set."""

    def __init__(self, reason, bound=None):
        super().__init__(reason)
        self.bound = bound


class UnknownLaw(PreordGrpError):
    """Counterexample search for a law missing from the registry."""


class UnknownCommand(PreordGrpError):
    """CLI dispatch on a command name that does not exist."""


class ParseError(PreordGrpError):
    """Workspace document malformed; message carries the offending path."""


class ValidationError(PreordGrpError):
    """Workspace entry failed validation; message carries the entry name."""
