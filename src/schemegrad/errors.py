"""Exception types shared across the compiler and runtime."""

from __future__ import annotations


class SchemegradError(Exception):
    """Base class for all errors raised by this package."""


class SourceError(SchemegradError):
    """An error tied to a position in the source text."""

    def __init__(self, message: str, pos: tuple[int, int] | None = None):
        self.message = message
        self.pos = pos
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.pos is not None:
            line, col = self.pos
            return f"line {line}, col {col}: {self.message}"
        return self.message


class LexError(SourceError):
    pass


class ParseError(SourceError):
    pass


class ScopeError(SourceError):
    pass


class UnboundVariable(ScopeError):
    pass


class LoweringError(SchemegradError):
    pass


class CycleDetected(SchemegradError):
    pass


class EvalError(SchemegradError):
    pass


class ShapeMismatch(EvalError):
    pass


class MissingInput(EvalError):
    pass


class DomainViolation(EvalError):
    """A partial operation (division, sqrt, log, pow) left its domain.

    Carries the instruction index when raised during program evaluation and
    the flat index of the first offending element.
    """

    def __init__(self, kind: str, where=None, instruction: int | None = None):
        self.kind = kind
        self.where = where
        self.instruction = instruction
        loc = f" at instruction {instruction}" if instruction is not None else ""
        elem = f" (first offending element {where})" if where is not None else ""
        super().__init__(f"domain violation: {kind}{loc}{elem}")


class SingularMatrix(EvalError):
    """det or inv (forward, or the det gradient) met a numerically singular
    matrix.

    ``where`` is the first singular batch lane (0 for an unbatched matrix);
    ``instruction`` is the det/inv instruction when raised during program
    evaluation, as for DomainViolation.
    """

    def __init__(self, op: str, where: int | None = None, instruction: int | None = None):
        self.op = op
        self.where = where
        self.instruction = instruction
        loc = f" at instruction {instruction}" if instruction is not None else ""
        lane = f" (first singular lane {where})" if where is not None else ""
        super().__init__(f"{op}: matrix is numerically singular{loc}{lane}")


class DepthLimitExceeded(EvalError):
    def __init__(self, fn_name: str, limit: int):
        self.fn_name = fn_name
        self.limit = limit
        super().__init__(f"recursion depth limit {limit} exceeded in '{fn_name}'")


class MissingGradient(SchemegradError):
    pass


class NonFiniteLoss(SchemegradError):
    def __init__(self, epoch: int, loss):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"non-finite loss {loss} at epoch {epoch}")


class EmptyObservations(SchemegradError):
    pass


class ConfigError(SchemegradError):
    pass


class UnknownEquation(SchemegradError):
    pass
