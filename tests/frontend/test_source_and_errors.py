"""Unit tests for source locations and the diagnostic machinery."""

import pytest

from repro.frontend.errors import (
    Diagnostic,
    DiagnosticBag,
    ParseError,
    SemanticError,
    Severity,
)
from repro.frontend.lexer import tokenize
from repro.frontend.source import (
    START_OF_FILE,
    SourceLocation,
    caret_snippet,
)


class TestSourceLocation:
    def test_ordering(self):
        assert SourceLocation(1, 1) < SourceLocation(1, 5) < SourceLocation(2, 1)

    def test_str(self):
        assert str(SourceLocation(3, 7)) == "3:7"

    def test_start_of_file(self):
        assert START_OF_FILE.line == 1 and START_OF_FILE.column == 1


class TestCaretSnippet:
    SOURCE = "class A {};\nclass B : A {};\n"

    def test_caret_under_column(self):
        snippet = caret_snippet(self.SOURCE, SourceLocation(2, 11))
        line, caret = snippet.splitlines()
        assert line == "class B : A {};"
        assert caret.index("^") == 10

    def test_out_of_range_line_is_empty(self):
        assert caret_snippet(self.SOURCE, SourceLocation(99, 1)) == ""

    def test_first_column(self):
        snippet = caret_snippet(self.SOURCE, SourceLocation(1, 1))
        assert snippet.splitlines()[1] == "^"

    @pytest.mark.parametrize(
        "source",
        [
            "// note\u2028 more\nclass A { int x; } @",
            "// note\x1c more\nclass A { int x; } @",
            "// note\f more\nclass A { int x; } @",
            "// note\r\nclass A { int x; } @\r\n",
        ],
        ids=["line-separator", "file-separator", "form-feed", "crlf"],
    )
    def test_lines_counted_as_the_lexer_counts_them(self, source):
        with pytest.raises(ParseError) as exc_info:
            tokenize(source)
        location = exc_info.value.diagnostic.location
        assert (location.line, location.column) == (2, 20)
        line, caret = caret_snippet(source, location).split("\n")
        assert line == "class A { int x; } @"
        assert caret == " " * 19 + "^"


class TestDiagnostics:
    def test_render_without_source(self):
        d = Diagnostic(Severity.ERROR, "boom", SourceLocation(2, 3))
        assert d.render() == "2:3: error: boom"

    def test_render_with_source_includes_caret(self):
        d = Diagnostic(Severity.WARNING, "hm", SourceLocation(1, 7))
        rendered = d.render("class A {};")
        assert "^" in rendered and "warning: hm" in rendered

    def test_bag_partitions_severities(self):
        bag = DiagnosticBag()
        bag.error("e", START_OF_FILE)
        bag.warning("w", START_OF_FILE)
        bag.note("n", START_OF_FILE)
        assert len(bag) == 3
        assert len(bag.errors) == 1
        assert bag.has_errors()

    def test_empty_bag(self):
        bag = DiagnosticBag()
        assert not bag.has_errors()
        assert list(bag) == []

    def test_parse_error_carries_diagnostic(self):
        error = ParseError("unexpected", SourceLocation(4, 2))
        assert error.diagnostic.location.line == 4
        assert "4:2" in str(error)

    def test_semantic_error_summarises(self):
        diagnostics = [
            Diagnostic(Severity.ERROR, f"e{i}", START_OF_FILE)
            for i in range(5)
        ]
        error = SemanticError(diagnostics)
        assert "+2 more" in str(error)
        assert len(error.diagnostics) == 5


class TestPathEnumerationInvariants:
    def test_iter_paths_is_duplicate_free(self):
        from repro.core.enumeration import iter_paths_to
        from repro.workloads.paper_figures import figure3

        graph = figure3()
        for target in graph.classes:
            paths = list(iter_paths_to(graph, target))
            assert len(paths) == len(set(paths))

    def test_defns_subobjects_equal_distinct_path_keys(self):
        from repro.core.enumeration import defns_paths
        from repro.core.equivalence import subobject_key
        from repro.subobjects.graph import SubobjectGraph
        from repro.subobjects.reference import defns
        from repro.workloads.paper_figures import figure3

        graph = figure3()
        for target in graph.classes:
            sg = SubobjectGraph(graph, target)
            for member in graph.member_names():
                keys = {
                    subobject_key(p)
                    for p in defns_paths(graph, target, member)
                }
                assert keys == {s.key for s in defns(sg, member)}
