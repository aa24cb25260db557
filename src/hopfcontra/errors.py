"""Exception hierarchy shared by all modules."""


class HopfContraError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(HopfContraError):
    """Matrix or tensor dimensions do not line up."""


class FieldMismatch(HopfContraError):
    """Operands live over different fields."""


class Singular(HopfContraError):
    """A matrix that must be invertible is not."""


class CompositionNotZero(HopfContraError):
    """Two differentials fail to compose to zero; carries a witness column
    or the degree at which a complex's boundary fails, when known."""

    def __init__(self, message, column=None, degree=None):
        super().__init__(message)
        self.column = column
        self.degree = degree


class UnknownName(HopfContraError):
    """Unknown named example."""


class CharacteristicClash(HopfContraError):
    """The requested structure degenerates over the given field."""


class CharacteristicUnsupported(HopfContraError):
    """The requested computation needs characteristic 0."""


class InvalidComodule(HopfContraError):
    """A comodule input fails its own axioms."""


class CounitDegenerate(HopfContraError):
    """No counit-adapted basis exists (counit identically zero)."""


class PrerequisiteFailed(HopfContraError):
    """An input has not passed the checks a downstream operation requires."""


class NotEquivariant(HopfContraError):
    """An operator image escapes the equivariant subspace it must land in;
    carries the operator's name and the degree it was built at."""

    def __init__(self, message, degree=None, operator=None):
        super().__init__(message)
        self.degree = degree
        self.operator = operator


class DimensionCapExceeded(HopfContraError):
    """An ambient hom-space would exceed the configured dimension cap."""


class ParseError(HopfContraError):
    """Session file is not well-formed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(HopfContraError):
    """Session file is well-formed but semantically invalid; carries a field path."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


class TaskError(HopfContraError):
    """A task failed while running; wraps the underlying module error and
    carries the id of the coefficient it was working on, when known."""

    def __init__(self, message, coefficient=None):
        super().__init__(message)
        self.coefficient = coefficient
