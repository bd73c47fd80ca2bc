"""Fuzz-style robustness tests for the frontend.

The lexer/parser/sema pipeline must never crash with anything other
than its own diagnostic types, whatever bytes it is fed; and on the
*structured* fuzz corpus (emitted from random hierarchies, then
mutated) it must either succeed or fail cleanly.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FrontendError, ReproError
from repro.frontend.lexer import KEYWORDS, PUNCTUATORS, TokenKind, tokenize
from repro.frontend.parser import parse
from repro.frontend.sema import analyze
from repro.workloads.emit_cpp import emit_cpp

from tests.support import hierarchies


ALPHABET = "abcXYZ_09 \n\t{}();:,<>*&~.=-/" + '"'


class TestLexerNeverCrashes:
    @given(st.text(alphabet=ALPHABET, max_size=200))
    @settings(max_examples=200)
    @example("class A : virtual public B { int x, *p; A() {} };")
    @example("struct classy int_ : : <<= >>= -> ->* ... 0x1f 'a' \"::\"")
    def test_property_arbitrary_text(self, text):
        try:
            tokens = tokenize(text)
        except FrontendError:
            return
        assert tokens[-1].kind.name == "EOF"
        # The parser tests punctuators and keywords by text alone.
        for token in tokens:
            assert (token.text in PUNCTUATORS) == (
                token.kind is TokenKind.PUNCT
            )
            assert (token.text in KEYWORDS) == (
                token.kind is TokenKind.KEYWORD
            )

    @given(st.text(max_size=100))
    @settings(max_examples=100)
    def test_property_full_unicode(self, text):
        try:
            tokenize(text)
        except FrontendError:
            pass


class TestParserNeverCrashes:
    @given(st.text(alphabet=ALPHABET, max_size=200))
    @settings(max_examples=200)
    @example("class A {")
    @example("class A : {};")
    @example("class : A {};")
    @example("main() { . }")
    @example("int ;")
    def test_property_arbitrary_text(self, text):
        try:
            parse(text)
        except FrontendError:
            pass

    @given(hierarchies(max_classes=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_property_mutated_emissions(self, graph, data):
        """Emit a valid program, then corrupt it by deleting a slice —
        the parser must fail cleanly or succeed, never crash."""
        source = emit_cpp(graph)
        if len(source) > 2:
            start = data.draw(st.integers(0, len(source) - 2))
            end = data.draw(st.integers(start + 1, len(source) - 1))
            source = source[:start] + source[end:]
        try:
            parse(source)
        except FrontendError:
            pass


class TestSemaNeverCrashes:
    @given(st.text(alphabet=ALPHABET, max_size=150))
    @settings(max_examples=100)
    def test_property_arbitrary_text(self, text):
        try:
            program = analyze(text)
        except FrontendError:
            return
        # Whatever was salvaged must be a valid hierarchy.
        program.hierarchy.validate()

    @given(hierarchies(max_classes=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_property_mutated_emissions_keep_invariants(self, graph, data):
        source = emit_cpp(graph)
        lines = source.splitlines()
        if len(lines) > 1:
            drop = data.draw(st.integers(0, len(lines) - 1))
            source = "\n".join(
                line for i, line in enumerate(lines) if i != drop
            )
        try:
            program = analyze(source)
        except ReproError:
            return
        program.hierarchy.validate()
        # Diagnostics, if any, must render without error.
        for diagnostic in program.diagnostics:
            assert diagnostic.render(source)


def test_smoke_specific_degenerate_inputs():
    for source in ("", ";", ";;;", "// only a comment", "/* block */"):
        program = analyze(source)
        assert len(program.hierarchy) == 0


def test_deeply_nested_braces_do_not_recurse():
    depth = 2000
    source = "main() {" + "{" * depth + "}" * depth + "}"
    parse(source)


def test_long_base_list():
    names = [f"B{i}" for i in range(300)]
    source = "".join(f"class {n} {{}};\n" for n in names)
    source += "class Join : " + ", ".join(names) + " {};"
    program = analyze(source)
    assert not program.diagnostics.has_errors()
    assert len(program.hierarchy.direct_bases("Join")) == 300
