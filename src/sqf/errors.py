"""Exception hierarchy shared across the package.

Every error raised by the library (as opposed to programming mistakes, which
surface as ValueError/TypeError) derives from SqfError so the CLI can map any
failure to a single-line diagnostic and exit status 1. Each error derives
directly from SqfError or CsvError, and keeps only the fields callers read.
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


class CharOverflow(CsvError):
    def __init__(self, line: int, column: int, width: int, got: int):
        super().__init__(
            f"line {line}, column {column}: CHAR({width}) cell has {got} bytes"
        )
        self.line = line
        self.column = column


# --- query frontend ------------------------------------------------------

class QuerySyntaxError(SqfError):
    """Raised on the first token that cannot continue a valid parse."""

    def __init__(self, position: int, expected: tuple[str, ...], found: str):
        expect = ", ".join(expected)
        super().__init__(f"at position {position}: expected {expect}, found {found}")
        self.position = position
        self.expected = expected
        self.found = found


class UnknownTable(SqfError):
    def __init__(self, name: str):
        super().__init__(f"unknown table `{name}`")


class UnknownColumn(SqfError):
    def __init__(self, name: str, context: str = ""):
        msg = f"unknown column `{name}`"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.name = name


class AmbiguousColumn(SqfError):
    def __init__(self, name: str):
        super().__init__(f"column `{name}` exists on both join sides; qualify it")


class QueryTypeError(SqfError):
    """A type rule violation at the offending expression's location."""

    def __init__(self, location: str, reason: str):
        super().__init__(f"{location}: {reason}")


# --- module library ------------------------------------------------------

class LibraryParseError(SqfError):
    pass


class MissingKind(SqfError):
    def __init__(self, kind):
        super().__init__(f"library is missing required module kind {kind}")
        self.kind = kind


class DuplicateKind(SqfError):
    def __init__(self, kind):
        super().__init__(f"library defines module kind {kind} twice")


class InvalidField(SqfError):
    def __init__(self, name: str, reason: str):
        super().__init__(f"invalid field `{name}`: {reason}")
        self.name = name


class UnknownModuleKind(SqfError):
    def __init__(self, kind):
        super().__init__(f"module kind {kind} is not in the library")


class ParamOutOfRange(SqfError):
    def __init__(self, kind, reason: str):
        super().__init__(f"{kind}: {reason}")


# --- fabric --------------------------------------------------------------

class InsufficientSlots(SqfError):
    def __init__(self, needed: int, max_contiguous_free: int):
        super().__init__(
            f"pipeline needs {needed} contiguous slots; "
            f"largest free run is {max_contiguous_free}"
        )
        self.needed = needed
        self.max_contiguous_free = max_contiguous_free


class NotAllocated(SqfError):
    def __init__(self, detail: str = "placement is not allocated on this fabric"):
        super().__init__(detail)


# --- planner -------------------------------------------------------------

class NoCandidates(SqfError):
    def __init__(self, reason: str = "no feasible candidate pipelines"):
        super().__init__(reason)


class MissingStats(SqfError):
    def __init__(self, table: str):
        super().__init__(f"no statistics for table `{table}`")


# --- engine --------------------------------------------------------------

class ArithmeticOverflow(SqfError):
    def __init__(self, row: int = -1, expr: str = ""):
        super().__init__(f"64-bit overflow at row {row}" + (f" in {expr}" if expr else ""))
        self.row = row
        self.expr = expr


class DivisionByZero(SqfError):
    def __init__(self, row: int = -1):
        super().__init__(f"division by zero at row {row}")
        self.row = row


class NotReconfigured(SqfError):
    def __init__(self, detail: str = "fabric does not hold this pipeline's modules"):
        super().__init__(detail)


class TupleTooLarge(SqfError):
    def __init__(self, record_bytes: int, block_bytes: int):
        super().__init__(f"record of {record_bytes} B does not fit a {block_bytes} B block")
