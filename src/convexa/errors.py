"""Exception hierarchy shared by all modules."""


class ConvexaError(Exception):
    """Base class for all library errors."""


class InputError(ConvexaError):
    """Malformed input data (bad edge record, unknown node, key mismatch)."""


class DisconnectedError(ConvexaError):
    """An operation that requires a connected graph got a disconnected one."""


class ConvergenceError(ConvexaError):
    """An iterative numerical method failed to converge."""
