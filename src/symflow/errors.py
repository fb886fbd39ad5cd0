"""Every error and warning class of symflow, and what each means to the command line.

Each error keeps the builtin base that callers catch it by and adds
:class:`SymflowError`, which declares the exit code of ``symflow`` and the one
line it prints to stderr.  The modules that raise a class re-export it, so
``symflow.reeb.InvariantViolationError`` and
``symflow.errors.InvariantViolationError`` are the same object.
"""


class SymflowError(Exception):
    """Bad input, or a failed check, as opposed to a bug in symflow.

    When the error ends a command, ``symflow`` exits with ``exit_code`` and
    prints :meth:`report` to stderr: ``prefix``, with ``{name}`` replaced by
    the class name, then the message.
    """

    exit_code = 1
    prefix = "error: {name}: "

    def report(self) -> str:
        return self.prefix.format(name=type(self).__name__) + str(self)


class ConfigError(SymflowError, ValueError):
    """Bad configuration file or command line."""

    prefix = "error: "


class ExprSyntaxError(SymflowError, ValueError):
    """Malformed source text; ``offset`` is the byte position of the problem."""

    prefix = "error: "

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    """Identifier that is neither a keyword nor a declared variable."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class NonFiniteError(SymflowError, ArithmeticError):
    """Evaluation produced NaN or infinity (division by zero included)."""


class SizeTooSmallError(SymflowError, ValueError):
    """Mesh resolution below the supported minimum."""


class MeshMismatchError(SymflowError, ValueError):
    """Operation mixing fields that live on different meshes."""


class LocationFailureError(SymflowError, RuntimeError):
    """A query point could not be located in any mesh cell."""


class OutOfRangeError(SymflowError, ValueError):
    """A requested generation, depth, order or option outside the supported range."""


class SymbolicRequiredError(SymflowError, ValueError):
    """Deep iterated brackets need expression-backed fields.

    Numeric differencing loses roughly two digits per bracket level, so
    monomials with four or more bracket applications refuse the numeric
    path unless explicitly overridden.
    """


class DegenerateInputError(SymflowError, ValueError):
    """Input on which the requested quantity is undefined (e.g. a commuting pair)."""


class OddOrderError(SymflowError, ValueError):
    """The triple-jump family only produces even orders."""


class ReferenceToleranceExceededError(SymflowError, RuntimeError):
    """Too few sweep points survive the reference-accuracy filter to fit a slope."""


class NotRecognizedError(SymflowError, ValueError):
    """The Hamiltonian is outside the families with closed-form flows."""


class NoConvergenceError(SymflowError, RuntimeError):
    """Reference integration failed to reach the requested tolerance."""


class InterpolationDominatesWarning(UserWarning):
    """Interpolation error is a significant fraction of the computed field."""


class NotASphereMeshError(SymflowError, TypeError):
    """The level-set tree construction here is limited to sphere meshes."""


class InvariantViolationError(SymflowError, RuntimeError):
    """A built graph or table failed a structural invariant; exit code 2."""

    exit_code = 2
    prefix = "invariant violated: "
