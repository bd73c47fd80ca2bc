"""Source locations and diagnostic rendering for the C++ frontend."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A 1-based (line, column) position with its absolute offset.

    ``filename`` is carried for multi-file translation units (the
    streaming ingestion pipeline parses many files into one hierarchy)
    and excluded from ordering so positions within one buffer still
    compare by position alone.
    """

    line: int
    column: int
    offset: int = 0
    filename: "str | None" = field(default=None, compare=False)

    def __str__(self) -> str:
        if self.filename:
            return f"{self.filename}:{self.line}:{self.column}"
        return f"{self.line}:{self.column}"


START_OF_FILE = SourceLocation(line=1, column=1, offset=0)


def caret_snippet(source: str, location: SourceLocation) -> str:
    """The source line at ``location`` with a caret underneath — the
    classic compiler diagnostic rendering.  Lines are counted at ``\n``
    only, as the lexer counts them; one trailing ``\r`` is dropped."""
    lines = source.split("\n")
    if not 1 <= location.line <= len(lines):
        return ""
    line = lines[location.line - 1].removesuffix("\r")
    caret = " " * (location.column - 1) + "^"
    return f"{line}\n{caret}"
