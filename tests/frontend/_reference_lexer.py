"""Frozen copy of the original character-at-a-time lexer.

This is the walker ``repro.frontend.lexer`` used before the lexer became
one master regular expression: it advances a closure one character at a
time and stamps an eager :class:`SourceLocation` on every token.  Its
only edit is the blank set: form feed (``\\f``) and vertical tab
(``\\v``) are skipped as whitespace, as C++ requires and as the live
lexer does.  The token vocabulary (``TokenKind``, ``KEYWORDS``,
``PUNCTUATORS``) is imported from the live module, so the two differ
only in how they scan.

It exists ONLY as the oracle of ``tests/frontend/test_lexer_differential.py``
and must not be imported by library code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.frontend.errors import ParseError
from repro.frontend.lexer import KEYWORDS, PUNCTUATORS, TokenKind
from repro.frontend.source import SourceLocation


@dataclass(frozen=True)
class ReferenceToken:
    kind: TokenKind
    text: str
    location: SourceLocation


def reference_tokenize(
    source: str, filename: Optional[str] = None
) -> list[ReferenceToken]:
    return list(iter_tokens(source, filename))


def iter_tokens(
    source: str, filename: Optional[str] = None
) -> Iterator[ReferenceToken]:
    offset = 0
    line = 1
    column = 1
    length = len(source)

    def location() -> SourceLocation:
        return SourceLocation(
            line=line, column=column, offset=offset, filename=filename
        )

    def advance(count: int) -> None:
        nonlocal offset, line, column
        for _ in range(count):
            if offset < length and source[offset] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            offset += 1

    at_line_start = True
    while offset < length:
        char = source[offset]
        if char in " \t\r\f\v":
            advance(1)
            continue
        if char == "\n":
            advance(1)
            at_line_start = True
            continue
        if char == "#" and at_line_start:
            # Preprocessor line (#pragma once, include guards, ...):
            # skipped whole, honouring backslash continuations.
            end = offset
            while True:
                newline = source.find("\n", end)
                if newline == -1:
                    end = length
                    break
                if source[newline - 1] == "\\":
                    end = newline + 1
                    continue
                end = newline
                break
            advance(end - offset)
            continue
        if source.startswith("//", offset):
            end = source.find("\n", offset)
            advance((end if end != -1 else length) - offset)
            continue
        if source.startswith("/*", offset):
            end = source.find("*/", offset + 2)
            if end == -1:
                raise ParseError("unterminated block comment", location())
            advance(end + 2 - offset)
            continue
        at_line_start = False
        if char in "\"'":
            quote = char
            start = offset
            start_loc = location()
            advance(1)
            while offset < length and source[offset] != quote:
                if source[offset] == "\\" and offset + 1 < length:
                    advance(2)
                else:
                    advance(1)
            if offset >= length:
                raise ParseError(
                    f"unterminated {quote}...{quote} literal", start_loc
                )
            advance(1)  # the closing quote
            yield ReferenceToken(
                TokenKind.STRING, source[start:offset], start_loc
            )
            continue
        if char.isalpha() or char == "_":
            start = offset
            start_loc = location()
            while offset < length and (
                source[offset].isalnum() or source[offset] == "_"
            ):
                advance(1)
            text = source[start:offset]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            yield ReferenceToken(kind, text, start_loc)
            continue
        if char.isdigit():
            start = offset
            start_loc = location()
            while offset < length and (
                source[offset].isalnum() or source[offset] == "."
            ):
                advance(1)
            yield ReferenceToken(
                TokenKind.NUMBER, source[start:offset], start_loc
            )
            continue
        for punct in PUNCTUATORS:
            if source.startswith(punct, offset):
                start_loc = location()
                advance(len(punct))
                yield ReferenceToken(TokenKind.PUNCT, punct, start_loc)
                break
        else:
            raise ParseError(f"unexpected character {char!r}", location())
    yield ReferenceToken(TokenKind.EOF, "", location())
