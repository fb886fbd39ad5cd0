"""The error classes: one module, the old import paths, bases and exit codes."""

import importlib

import pytest

from symflow import errors

#: (class name, module that raises it and re-exports it, builtin base)
CLASSES = [
    ("ConfigError", "cli", ValueError),
    ("ExprSyntaxError", "expr", ValueError),
    ("UnknownIdentifierError", "expr", ValueError),
    ("NonFiniteError", "expr", ArithmeticError),
    ("SizeTooSmallError", "manifold", ValueError),
    ("MeshMismatchError", "manifold", ValueError),
    ("LocationFailureError", "manifold", RuntimeError),
    ("OutOfRangeError", "bracket", ValueError),
    ("OutOfRangeError", "scheme", ValueError),
    ("SymbolicRequiredError", "bracket", ValueError),
    ("DegenerateInputError", "bracket", ValueError),
    ("OddOrderError", "scheme", ValueError),
    ("ReferenceToleranceExceededError", "scheme", RuntimeError),
    ("NotRecognizedError", "flow", ValueError),
    ("NoConvergenceError", "flow", RuntimeError),
    ("InterpolationDominatesWarning", "flow", UserWarning),
    ("NotASphereMeshError", "reeb", TypeError),
    ("InvariantViolationError", "reeb", RuntimeError),
]


def test_the_table_covers_every_class_in_errors():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj is not errors.SymflowError}
    assert defined == {name for name, _, _ in CLASSES}
    assert len(defined) == 17


@pytest.mark.parametrize("name,module,base", CLASSES, ids=lambda v: getattr(v, "__name__", v))
def test_class_keeps_its_import_path_base_and_exit_code(name, module, base):
    cls = getattr(errors, name)
    old = importlib.import_module(f"symflow.{module}")
    assert getattr(old, name) is cls
    assert name in old.__all__
    assert issubclass(cls, base)
    if issubclass(cls, Warning):
        assert not issubclass(cls, errors.SymflowError)
        return
    assert issubclass(cls, errors.SymflowError)
    assert cls.exit_code == (2 if name == "InvariantViolationError" else 1)


@pytest.mark.parametrize(
    "exc,line",
    [
        (errors.ConfigError("bad key"), "error: bad key"),
        (errors.UnknownIdentifierError("w", 3), "error: unknown identifier 'w' (offset 3)"),
        (errors.InvariantViolationError("mass lost"), "invariant violated: mass lost"),
        (errors.NotRecognizedError("not linear"), "error: NotRecognizedError: not linear"),
        (errors.OutOfRangeError("{n} too big"), "error: OutOfRangeError: {n} too big"),
    ],
)
def test_report_is_the_one_stderr_line(exc, line):
    assert exc.report() == line
