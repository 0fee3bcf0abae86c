"""Exception hierarchy shared by all modules."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InputError(ToolkitError):
    """Bad argument: unknown symbol, violated precondition, unsupported context."""


class ParseError(InputError):
    """Syntax error in a definition file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ClosureError(InputError):
    """A claimed subgroup is not closed; carries the violating pair."""

    def __init__(self, x, y, product):
        super().__init__(
            f"not closed: {x} * {y} = {product} is missing from the set"
        )
        self.pair = (x, y)
        self.product = product


class BudgetError(ToolkitError):
    """A resource budget was exceeded; names the radius that was completed."""

    def __init__(self, message, radius_reached=None):
        super().__init__(message)
        self.radius_reached = radius_reached


class GraphError(ToolkitError):
    """Structural graph problem, e.g. a disconnected pair."""


class InvariantError(ToolkitError):
    """An internal consistency check failed: a defect of the toolkit, not of its input."""
