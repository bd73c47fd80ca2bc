"""Differential test: the master-pattern lexer against the frozen walker.

On every input, both lexers must produce the same tokens — kind, text,
line, column, offset and filename — or raise the same ``ParseError``
message at the same location.  The oracle is the character-at-a-time
walker in ``tests/frontend/_reference_lexer.py``.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frontend.errors import ParseError
from repro.frontend.lexer import tokenize
from repro.workloads.corpus import make_corpus

from tests.frontend._reference_lexer import reference_tokenize
from tests.frontend.test_fuzz import ALPHABET

CORPUS_DIR = Path(__file__).resolve().parents[2] / "corpus"

#: The fuzz alphabet plus the characters that steer the lexer's rarer
#: paths: preprocessor lines, continuations, character literals and
#: the blanks other than space, tab and newline.
LEXER_ALPHABET = ALPHABET + "#\\'\f\v\r"


def place(location):
    # SourceLocation equality ignores the filename, so spell it out.
    return (location.line, location.column, location.offset, location.filename)


def outcome(lex, source, filename=None):
    try:
        tokens = lex(source, filename)
    except ParseError as error:
        diagnostic = error.diagnostic
        return ("error", diagnostic.message, place(diagnostic.location))
    return [(t.kind, t.text, *place(t.location)) for t in tokens]


def assert_same(source, filename=None):
    assert outcome(tokenize, source, filename) == outcome(
        reference_tokenize, source, filename
    )


@given(st.text(alphabet=LEXER_ALPHABET, max_size=200))
@settings(max_examples=300)
@example("#define X \\\n  more\nclass A {};")
@example("a /* \n */ #x")
@example("a // c\n#x")
@example("/* c */ #x\nb")
@example("#x\n#y\n  # z\nq")
@example("a\n\"x\n\" #y")
@example("'\\")
@example("x\f\vy\r\nz")
def test_property_lexer_alphabet(text):
    assert_same(text, "t.h")


@given(st.text(max_size=100))
@settings(max_examples=300)
@example("²")
@example("x ½ y")
@example("ⅿ")
@example("٣.5_a")
@example("a²b ²_x ²a.b")
@example(" class\x1c A")
def test_property_full_unicode(text):
    assert_same(text)


@pytest.mark.parametrize(
    "path", sorted(CORPUS_DIR.glob("gui_*.h")), ids=lambda p: p.name
)
def test_checked_in_corpus(path):
    assert_same(path.read_text(), str(path))


@pytest.mark.parametrize(
    "family, shape",
    [
        ("gui", {"layers": 8, "width": 12}),
        ("iostream", {"modules": 8}),
        ("template", {"instantiations": 16}),
    ],
)
def test_generated_corpus(family, shape):
    for file in make_corpus(family, files=4, **shape):
        assert_same(file.text, file.name)
