"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "BoxlabError",
    "InvalidArgumentError",
    "InvalidGroupError",
    "ChainValidationError",
    "ChainExhaustedError",
    "NonStabilizedLengthError",
    "SpecFormatError",
    "ControlSampleError",
    "MissingTrivializationError",
    "ActionCheckError",
]


class BoxlabError(Exception):
    """Base class for structural errors raised by this package."""


class InvalidArgumentError(BoxlabError, ValueError):
    """An argument lies outside the values a function accepts."""


class InvalidGroupError(BoxlabError):
    """A quotient description does not define a marked group."""


class ChainValidationError(BoxlabError):
    """A chain of quotients violates one of its structural invariants."""


class ChainExhaustedError(BoxlabError):
    """No level of the chain satisfies the requested locality radius."""

    def __init__(self, message: str, deepest_radius: int | None = None):
        super().__init__(message)
        self.deepest_radius = deepest_radius


class NonStabilizedLengthError(BoxlabError):
    """Word length did not stabilize across the available levels."""

    def __init__(self, message: str, last_values: tuple[int, ...] = ()):
        super().__init__(message)
        self.last_values = last_values


class SpecFormatError(BoxlabError):
    """A textual description (chain file, point name) could not be parsed."""


class ControlSampleError(BoxlabError):
    """A control function sample is missing a realized distance."""


class MissingTrivializationError(BoxlabError):
    """A fibred embedding has no trivialization for an admissible subset."""


class ActionCheckError(BoxlabError):
    """Generator images fail to define an affine isometric action."""
