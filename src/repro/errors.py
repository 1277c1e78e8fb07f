"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subsystems raise the most
specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FrontendError(ReproError):
    """Base class for source-language (minic) errors."""


class LexError(FrontendError):
    """Invalid token in a source program."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(FrontendError):
    """Syntactically invalid source program."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SemanticError(FrontendError):
    """Well-formed syntax with invalid meaning (e.g. undefined variable)."""


class IRError(ReproError):
    """Malformed intermediate representation."""


class ISDLError(ReproError):
    """Base class for machine-description errors."""


class ISDLParseError(ISDLError):
    """Syntactically invalid ISDL description."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class MachineValidationError(ISDLError):
    """A machine model that violates a structural invariant."""


class CoverageError(ReproError):
    """The covering engine could not produce a valid implementation."""


class UnmappableOperationError(CoverageError):
    """An IR operation has no implementation on the target machine."""

    def __init__(self, opcode, machine_name: str):
        super().__init__(
            f"operation {opcode!s} cannot be executed by any functional "
            f"unit of machine '{machine_name}'"
        )
        self.opcode = opcode
        self.machine_name = machine_name


class NoTransferPathError(CoverageError):
    """No (multi-step) transfer path exists between two storage locations."""

    def __init__(self, source: str, destination: str):
        super().__init__(f"no transfer path from {source} to {destination}")
        self.source = source
        self.destination = destination


class RegisterAllocationError(ReproError):
    """Detailed register allocation failed.

    This indicates a bug: the covering step's liveness upper bound is
    supposed to guarantee colorability (paper, Section IV-F).
    """


class VerificationError(ReproError):
    """The independent schedule validator found invariant violations.

    Raised by ``compile_function(validate=True)`` and by the optimal
    backend's certification of improving schedules; carries the structured
    :class:`repro.verify.violations.Violation` list so callers can
    report *which* paper invariant broke.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class AssemblerError(ReproError):
    """Invalid assembly text or an instruction that cannot be encoded."""


class SimulationError(ReproError):
    """The simulator encountered an invalid state or instruction."""
