"""Exception types shared across the package."""

__all__ = ["DCMetricsError", "GraphBuildError", "ParseError", "DisconnectedGraphError",
           "ConvergenceError"]


class DCMetricsError(Exception):
    """Base class for all errors raised by dcmetrics."""


class GraphBuildError(DCMetricsError):
    """Invalid input while constructing a graph (bad weight, empty edge list, ...)."""


class ParseError(DCMetricsError):
    """Malformed edge-list or GEXF document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DisconnectedGraphError(DCMetricsError):
    """A metric requiring connectivity was asked for on a disconnected graph."""


class ConvergenceError(DCMetricsError):
    """Iterative solver failed to converge."""

    def __init__(self, message: str, iterations: int):
        self.iterations = iterations
        super().__init__(f"{message} (after {iterations} iterations)")
