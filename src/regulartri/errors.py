"""Exception types shared across the library."""


class RegulartriError(Exception):
    """Base class for all library errors."""


class InvalidInputError(RegulartriError):
    """Malformed user input (duplicate points, bad indices, wrong shapes)."""


class DimensionError(RegulartriError):
    """An object has the wrong dimension or cardinality for the operation."""


class NoDependenceError(RegulartriError):
    """A kernel was requested but the matrix has a trivial null space."""


class NotCorankOneError(RegulartriError):
    """The dependence space has dimension other than one."""


class DegenerateConfigError(RegulartriError):
    """A point set does not span the expected affine dimension."""


class StaleFlipError(RegulartriError):
    """A flip was applied to a triangulation that no longer supports it."""


class ResourceLimitError(RegulartriError):
    """An explicit resource budget (memory cap, group-order cap) was exceeded."""


class ParseError(RegulartriError):
    """A syntax error in a bracket-list text, at a 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"parse error at line {line}, column {column}: {message}")
        self.line = line
        self.column = column
