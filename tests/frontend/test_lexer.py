"""Tests for the C++ subset lexer."""

import pytest

from repro.frontend.errors import ParseError
from repro.frontend.lexer import TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


class TestBasics:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("class Foo")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENT
        assert tokens[1].text == "Foo"

    def test_underscore_identifiers(self):
        assert texts("_x x_y __z") == ["_x", "x_y", "__z"]

    def test_numbers(self):
        tokens = tokenize("10 3.25")
        assert [t.text for t in tokens[:2]] == ["10", "3.25"]
        assert tokens[0].kind is TokenKind.NUMBER

    def test_all_keywords_recognised(self):
        for keyword in ("class", "struct", "virtual", "static", "typedef"):
            assert tokenize(keyword)[0].kind is TokenKind.KEYWORD


class TestPunctuation:
    def test_scope_operator_is_one_token(self):
        assert texts("A::m") == ["A", "::", "m"]

    def test_arrow_is_one_token(self):
        assert texts("p->m") == ["p", "->", "m"]

    def test_single_colon_vs_double(self):
        assert texts("a: b:: c") == ["a", ":", "b", "::", "c"]

    def test_class_head_punctuation(self):
        assert texts("class E : C, D {};") == [
            "class", "E", ":", "C", ",", "D", "{", "}", ";",
        ]

    def test_tilde(self):
        assert texts("~A()") == ["~", "A", "(", ")"]


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_line_comment_at_eof(self):
        assert texts("a // no newline") == ["a"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(ParseError):
            tokenize("a /* never closed")


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("ab\n  cd")
        assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
        assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)

    def test_location_after_comment(self):
        tokens = tokenize("// c\nx")
        assert tokens[0].location.line == 2

    def test_form_feed_and_vertical_tab_are_blanks(self):
        assert texts("class A {};\f\nclass B {};\v") == texts(
            "class A {};\nclass B {};"
        )

    def test_locations_after_form_feed_and_vertical_tab(self):
        plain = tokenize("a b\n c\n")
        paged = tokenize("a\fb\n\vc\n")
        assert [
            (t.location.line, t.location.column, t.location.offset)
            for t in paged
        ] == [
            (t.location.line, t.location.column, t.location.offset)
            for t in plain
        ]

    def test_unexpected_character_reports_location(self):
        with pytest.raises(ParseError) as exc_info:
            tokenize("a\n  @")
        assert exc_info.value.diagnostic.location.line == 2
        assert exc_info.value.diagnostic.location.column == 3


class TestTokenHelpers:
    def test_str(self):
        assert str(tokenize("foo")[0]) == "foo"
        assert str(tokenize("")[0]) == "<eof>"
