"""Exception hierarchy shared across the package.

Every error raised by the library (as opposed to programming mistakes, which
surface as ValueError/TypeError) derives from SqfError so the CLI can map any
failure to a single-line diagnostic and exit status 1.
"""

from __future__ import annotations


class SqfError(Exception):
    """Base class for all expected failures."""


# --- CSV ingestion -------------------------------------------------------

class CsvError(SqfError):
    pass


class MalformedCell(CsvError):
    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class CharOverflow(CsvError):
    def __init__(self, line: int, column: int, width: int, got: int):
        super().__init__(
            f"line {line}, column {column}: CHAR({width}) cell has {got} bytes"
        )
        self.line = line
        self.column = column
        self.width = width
        self.got = got


# --- query frontend ------------------------------------------------------

class QuerySyntaxError(SqfError):
    """Raised on the first token that cannot continue a valid parse."""

    def __init__(self, position: int, expected: tuple[str, ...], found: str):
        expect = ", ".join(expected)
        super().__init__(f"at position {position}: expected {expect}, found {found}")
        self.position = position
        self.expected = expected
        self.found = found


class BindError(SqfError):
    pass


class UnknownTable(BindError):
    def __init__(self, name: str):
        super().__init__(f"unknown table `{name}`")
        self.name = name


class UnknownColumn(BindError):
    def __init__(self, name: str, context: str = ""):
        msg = f"unknown column `{name}`"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.name = name


class AmbiguousColumn(BindError):
    def __init__(self, name: str):
        super().__init__(f"column `{name}` exists on both join sides; qualify it")
        self.name = name


class QueryTypeError(BindError):
    """A type rule violation, carrying the offending expression's location."""

    def __init__(self, location: str, reason: str):
        super().__init__(f"{location}: {reason}")
        self.location = location
        self.reason = reason


# --- module library ------------------------------------------------------

class LibraryError(SqfError):
    pass


class LibraryParseError(LibraryError):
    pass


class MissingKind(LibraryError):
    def __init__(self, kind):
        super().__init__(f"library is missing required module kind {kind}")
        self.kind = kind


class DuplicateKind(LibraryError):
    def __init__(self, kind):
        super().__init__(f"library defines module kind {kind} twice")
        self.kind = kind


class InvalidField(LibraryError):
    def __init__(self, name: str, reason: str):
        super().__init__(f"invalid field `{name}`: {reason}")
        self.name = name
        self.reason = reason


class UnknownModuleKind(LibraryError):
    def __init__(self, kind):
        super().__init__(f"module kind {kind} is not in the library")
        self.kind = kind


class ParamOutOfRange(LibraryError):
    def __init__(self, kind, reason: str):
        super().__init__(f"{kind}: {reason}")
        self.kind = kind
        self.reason = reason


# --- fabric --------------------------------------------------------------

class FabricError(SqfError):
    pass


class InsufficientSlots(FabricError):
    def __init__(self, needed: int, max_contiguous_free: int):
        super().__init__(
            f"pipeline needs {needed} contiguous slots; "
            f"largest free run is {max_contiguous_free}"
        )
        self.needed = needed
        self.max_contiguous_free = max_contiguous_free


class NotAllocated(FabricError):
    def __init__(self, detail: str = "placement is not allocated on this fabric"):
        super().__init__(detail)


# --- planner -------------------------------------------------------------

class PlannerError(SqfError):
    pass


class NoCandidates(PlannerError):
    def __init__(self, reason: str = "no feasible candidate pipelines"):
        super().__init__(reason)


class MissingStats(PlannerError):
    def __init__(self, table: str):
        super().__init__(f"no statistics for table `{table}`")
        self.table = table


# --- engine --------------------------------------------------------------

class EngineError(SqfError):
    pass


class ArithmeticOverflow(EngineError):
    def __init__(self, row: int = -1, expr: str = ""):
        super().__init__(f"64-bit overflow at row {row}" + (f" in {expr}" if expr else ""))
        self.row = row
        self.expr = expr


class DivisionByZero(EngineError):
    def __init__(self, row: int = -1):
        super().__init__(f"division by zero at row {row}")
        self.row = row


class NotReconfigured(EngineError):
    def __init__(self, detail: str = "fabric does not hold this pipeline's modules"):
        super().__init__(detail)


class TupleTooLarge(EngineError):
    def __init__(self, record_bytes: int, block_bytes: int):
        super().__init__(f"record of {record_bytes} B does not fit a {block_bytes} B block")
        self.record_bytes = record_bytes
        self.block_bytes = block_bytes
