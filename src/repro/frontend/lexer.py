"""A lexer for the class-hierarchy subset of C++.

Covers everything the paper's example programs use — class/struct
declarations with virtual and access-qualified bases, member
declarations (data, functions, statics, typedefs, enums, nested
classes), and simple function bodies with member-access expressions —
plus the surface real headers need: namespaces, template keywords,
string/character literals (tokenized, never interpreted), preprocessor
lines (skipped whole), and the compound operators that appear inside
skipped method bodies.

:func:`scan` is one loop over one compiled master pattern: each match
consumes the blanks before a lexeme plus the lexeme, and the loop
dispatches on which alternative matched.  It fills three parallel
lists — texts, kinds and offsets — which the parser walks by index;
:func:`tokenize` wraps the same scan in :class:`Token` objects.  A
location is resolved from an offset on demand by bisecting the
buffer's newline offsets, which are found on first use.

A token's text alone identifies a punctuator or a keyword: every
keyword spelling lexes as ``KEYWORD``, no identifier, number or string
can spell a punctuator, and only EOF has the empty text.  The parser
compares texts and relies on this.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from typing import Optional

from repro.frontend.errors import ParseError
from repro.frontend.source import SourceLocation


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    PUNCT = "punctuation"
    EOF = "end of file"


KEYWORDS = frozenset(
    {
        "class", "struct", "virtual", "public", "protected", "private",
        "static", "typedef", "enum", "const", "void", "int", "bool",
        "char", "float", "double", "long", "short", "signed", "unsigned",
        "using", "return", "namespace", "template", "typename", "inline",
    }
)

# Multi-character punctuators must be listed longest-first.
PUNCTUATORS = (
    "<<=", ">>=", "->", "::", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "{", "}", "(", ")", "[", "]", ";", ":", ",", ".", "=", "*", "&",
    "<", ">", "+", "-", "/", "%", "|", "^", "?", "~", "!",
)

_COMMENT = r"//[^\n]*|/\*.*?\*/"

# One alternative per lexeme, after the blanks.  The groups' numbers
# are the dispatch codes below.  ``\d`` is not ``str.isdigit`` and
# ``[^\W\d]`` is not ``str.isalpha`` (``²``, ``½``, ``ⅿ``), so the
# pattern classifies only ASCII-led words; any other word run is
# classified by its first character's ``str`` methods.
_MASTER = re.compile(
    r"[ \t\r\n\f\v]*(?:"
    rf"({_COMMENT})"  # 1 comment
    r"|(/\*)"  # 2 unterminated block comment
    r"|([A-Za-z_]\w*)"  # 3 ASCII-led identifier or keyword
    "|(" + "|".join(map(re.escape, PUNCTUATORS)) + ")"  # 4 punctuator
    r"|([0-9](?:[^\W_]|\.)*)"  # 5 ASCII-led number
    r"""|("(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')"""  # 6 string/char literal
    r"|(\#(?:[^\n]*\\\n)*[^\n]*)"  # 7 preprocessor line + continuations
    r"|(\w+)"  # 8 other word run: classified with the str methods
    r"|(.|\Z)"  # 9 unexpected character, or end of input
    ")",
    re.S,
)
_COMMENTS = re.compile(_COMMENT, re.S)
_NUMBER = re.compile(r"(?:[^\W_]|\.)+")
_NEWLINE = re.compile("\n")


class _Lines:
    """One buffer's newline offsets, found on the first location asked."""

    __slots__ = ("source", "filename", "newlines")

    def __init__(self, source: str, filename: Optional[str]) -> None:
        self.source = source
        self.filename = filename
        self.newlines: Optional[list] = None

    def location(self, offset: int) -> SourceLocation:
        newlines = self.newlines
        if newlines is None:
            newlines = self.newlines = [
                m.start() for m in _NEWLINE.finditer(self.source)
            ]
        line = bisect_left(newlines, offset)
        column = offset - newlines[line - 1] if line else offset + 1
        return SourceLocation(line + 1, column, offset, self.filename)


class Token:
    """A lexeme with its kind; its location is resolved on demand."""

    __slots__ = ("kind", "text", "_offset", "_lines")

    def __init__(
        self, kind: TokenKind, text: str, offset: int, lines: _Lines
    ) -> None:
        self.kind = kind
        self.text = text
        self._offset = offset
        self._lines = lines

    @property
    def location(self) -> SourceLocation:
        return self._lines.location(self._offset)

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.text

    def __repr__(self) -> str:
        return (
            f"Token(kind={self.kind!r}, text={self.text!r}, "
            f"location={self.location!r})"
        )


def scan(
    source: str, filename: Optional[str] = None
) -> tuple[list[str], list[TokenKind], list[int], _Lines]:
    """Scan a whole source buffer into parallel lists of token texts,
    kinds and offsets, ending with EOF (text ``""``), plus the line map
    that resolves an offset to a :class:`SourceLocation` stamped with
    ``filename``.  Raises :class:`ParseError` on an unrecognised
    character, an unterminated block comment, or an unterminated
    string/character literal."""
    lines = _Lines(source, filename)
    texts: list[str] = []
    kinds: list[TokenKind] = []
    offsets: list[int] = []
    add_text, add_kind, add_offset = texts.append, kinds.append, offsets.append
    match = _MASTER.match
    ident, keyword = TokenKind.IDENT, TokenKind.KEYWORD
    punct, number = TokenKind.PUNCT, TokenKind.NUMBER
    pos = 0
    # len(texts) when the last preprocessor line was skipped: no token
    # since then means the next '#' still starts its line.
    skipped_at = 0
    while True:
        m = match(source, pos)
        group = m.lastindex
        start, pos = m.span(group)
        if group == 3:
            text = source[start:pos]
            kind = keyword if text in KEYWORDS else ident
        elif group == 4:
            text, kind = source[start:pos], punct
        elif group == 1:
            continue
        elif group == 5:
            text, kind = source[start:pos], number
        elif group == 6:
            text, kind = source[start:pos], TokenKind.STRING
        elif group == 7:
            if skipped_at != len(texts):
                # Only at the start of a line: a newline outside
                # comments since the last token.
                end = offsets[-1] + len(texts[-1])
                if "\n" not in _COMMENTS.sub("", source[end:start]):
                    raise ParseError(
                        "unexpected character '#'", lines.location(start)
                    )
            skipped_at = len(texts)
            continue
        elif group == 8:
            char = source[start]
            if char.isalpha():
                kind = ident
            elif char.isdigit():
                pos = _NUMBER.match(source, start).end()
                kind = number
            else:
                raise ParseError(
                    f"unexpected character {char!r}", lines.location(start)
                )
            text = source[start:pos]
        elif group == 2:
            raise ParseError(
                "unterminated block comment", lines.location(start)
            )
        elif start == pos:
            add_text("")
            add_kind(TokenKind.EOF)
            add_offset(start)
            return texts, kinds, offsets, lines
        else:
            char = source[start]
            message = (
                f"unterminated {char}...{char} literal"
                if char in "\"'"
                else f"unexpected character {char!r}"
            )
            raise ParseError(message, lines.location(start))
        add_text(text)
        add_kind(kind)
        add_offset(start)


def tokenize(source: str, filename: Optional[str] = None) -> list[Token]:
    """Tokenize a whole source buffer: :func:`scan`, with each token
    wrapped in a :class:`Token`.  Raises as :func:`scan` does;
    ``filename`` (if given) is stamped into every token's location for
    multi-file diagnostics."""
    texts, kinds, offsets, lines = scan(source, filename)
    return [
        Token(kind, text, offset, lines)
        for text, kind, offset in zip(texts, kinds, offsets)
    ]
