"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.hierarchy.serialize import dumps
from repro.workloads.paper_figures import (
    figure1_source,
    figure3,
    figure9_source,
)


@pytest.fixture
def fig9_cpp(tmp_path):
    path = tmp_path / "fig9.cpp"
    path.write_text(figure9_source() + "\nmain() { E e; e.m = 10; }\n")
    return str(path)


@pytest.fixture
def fig3_json(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(dumps(figure3()))
    return str(path)


class TestCheck:
    def test_clean_program(self, fig9_cpp, capsys):
        assert main(["check", fig9_cpp]) == 0
        out = capsys.readouterr().out
        assert "6 classes" in out
        assert "0 error(s)" in out

    def test_program_with_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.cpp"
        path.write_text(figure1_source() + "main() { E e; e.m; }")
        assert main(["check", str(path)]) == 1
        assert "ambiguous" in capsys.readouterr().out

    def test_semantic_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "fig1.h"
        path.write_text("struct A { int m; };\nmain() { A a; d.m = 1; }\n")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out.startswith(
            f"{path}:2:15: error: use of undeclared variable 'd'\n"
        )

    def test_json_dump(self, fig3_json, capsys):
        assert main(["check", fig3_json]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.cpp"]) == 2
        assert "error:" in capsys.readouterr().err


class TestLookup:
    def test_unique(self, fig9_cpp, capsys):
        assert main(["lookup", fig9_cpp, "E::m"]) == 0
        assert "C::m" in capsys.readouterr().out

    def test_ambiguous_exit_code(self, fig3_json, capsys):
        assert main(["lookup", fig3_json, "H::bar"]) == 1
        assert "⊥" in capsys.readouterr().out

    def test_from_json_input(self, fig3_json, capsys):
        assert main(["lookup", fig3_json, "H::foo"]) == 0
        assert "G::foo" in capsys.readouterr().out

    def test_bad_query_syntax(self, fig3_json):
        with pytest.raises(SystemExit):
            main(["lookup", fig3_json, "not-a-query"])

    def test_static_rule_toggle(self, tmp_path, capsys):
        path = tmp_path / "static.cpp"
        path.write_text(
            "struct B { static int s; };\n"
            "struct X : B {};\nstruct Y : B {};\nstruct Z : X, Y {};\n"
        )
        assert main(["lookup", str(path), "Z::s"]) == 0
        assert main(["lookup", str(path), "Z::s", "--no-static-rule"]) == 1


class TestTable:
    def test_full_table(self, fig3_json, capsys):
        assert main(["table", fig3_json]) == 0
        out = capsys.readouterr().out
        assert "lookup(H, foo) = G::foo" in out
        assert "lookup(A, foo) = A::foo" in out

    def test_ambiguous_only(self, fig3_json, capsys):
        assert main(["table", fig3_json, "--ambiguous-only"]) == 0
        out = capsys.readouterr().out
        assert "⊥" in out
        assert "G::foo" not in out

    def test_delta_stats(self, fig3_json, capsys):
        assert main(["table", fig3_json, "--delta-stats"]) == 0
        out = capsys.readouterr().out
        assert "delta stats: replayed leaf class" in out
        assert "cone:" in out
        assert "answers against LazyMemberLookup" in out

    @pytest.mark.parametrize("mode", ["batched"])
    def test_delta_stats_in_other_build_modes(
        self, fig3_json, capsys, mode
    ):
        args = ["table", fig3_json, "--delta-stats", "--mode", mode]
        assert main(args) == 0
        assert "delta stats:" in capsys.readouterr().out

    def test_stats_line(self, fig3_json, capsys):
        assert main(["table", fig3_json, "--mode", "batched", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "[build mode=batched]" in out
        assert "entries_computed=" in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--mode", "auto"],
            ["--max-workers", "2"],
            ["--fastpath"],
            ["--no-fastpath"],
        ],
    )
    def test_removed_build_options_are_usage_errors(
        self, fig3_json, capsys, extra
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", fig3_json, *extra])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestBuild:
    def test_build_defaults_to_batched(self, fig3_json, capsys):
        assert main(["build", fig3_json]) == 0
        out = capsys.readouterr().out
        assert "mode: batched" in out
        assert "answers against LazyMemberLookup" in out

    def test_build_per_member(self, fig3_json, capsys):
        assert main(["build", fig3_json, "--mode", "per-member"]) == 0
        assert "mode: per-member" in capsys.readouterr().out

    def test_build_delta_stats(self, fig3_json, capsys):
        assert main(["build", fig3_json, "--delta-stats"]) == 0
        out = capsys.readouterr().out
        assert "delta stats: replayed leaf class" in out
        assert "table rows: recomputed=" in out


class TestOtherCommands:
    def test_explain(self, fig3_json, capsys):
        assert main(["explain", fig3_json, "H::bar"]) == 0
        assert "maximal set" in capsys.readouterr().out

    def test_metrics(self, fig3_json, capsys):
        assert main(["metrics", fig3_json]) == 0
        assert "classes: 8" in capsys.readouterr().out

    def test_dot_chg(self, fig3_json, capsys):
        assert main(["dot", fig3_json]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_dot_subobjects(self, fig3_json, capsys):
        assert main(["dot", fig3_json, "--subobjects", "H"]) == 0
        assert "[GH]" in capsys.readouterr().out

    def test_slice(self, fig3_json, capsys):
        assert main(["slice", fig3_json, "H::foo"]) == 0
        out = capsys.readouterr().out
        assert "removed: E" in out

    def test_slice_json_round_trips(self, fig3_json, capsys):
        assert main(["slice", fig3_json, "H::foo", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "repro-chg"
        names = [c["name"] for c in data["classes"]]
        assert "E" not in names


class TestTraceAndDiff:
    def test_trace_abstract(self, fig3_json, capsys):
        assert main(["trace", fig3_json, "foo"]) == 0
        out = capsys.readouterr().out
        assert "blue {Ω}" in out
        assert "red (G, Ω)" in out

    def test_trace_concrete(self, fig3_json, capsys):
        assert main(["trace", fig3_json, "bar", "--concrete"]) == 0
        out = capsys.readouterr().out
        assert "[killed]" in out

    def test_diff_reports_change_and_exit_code(self, tmp_path, capsys):
        from repro.workloads.paper_figures import figure1_source, figure2_source

        before = tmp_path / "before.cpp"
        before.write_text(figure1_source())
        after = tmp_path / "after.cpp"
        after.write_text(figure2_source())
        assert main(["diff", str(before), str(after)]) == 1
        assert "became-unique: E::m" in capsys.readouterr().out

    def test_diff_identical_is_clean(self, tmp_path, capsys):
        from repro.workloads.paper_figures import figure1_source

        path = tmp_path / "same.cpp"
        path.write_text(figure1_source())
        assert main(["diff", str(path), str(path)]) == 0
        assert "no lookup-visible changes" in capsys.readouterr().out


def test_module_entry_point(fig9_cpp):
    import subprocess
    import sys

    completed = subprocess.run(
        [sys.executable, "-m", "repro", "lookup", fig9_cpp, "E::m"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert "C::m" in completed.stdout


class TestTargets:
    def test_targets_polymorphic(self, fig9_cpp, capsys):
        assert main(["targets", fig9_cpp, "S::m"]) == 0
        out = capsys.readouterr().out
        assert "C::m" in out and "S::m" in out

    def test_targets_monomorphic(self, fig9_cpp, capsys):
        assert main(["targets", fig9_cpp, "C::m"]) == 0
        assert "monomorphic" in capsys.readouterr().out


class TestErrorPaths:
    def test_vtables_unknown_class(self, fig3_json, capsys):
        assert main(["vtables", fig3_json, "Ghost"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_targets_unknown_class(self, fig3_json, capsys):
        assert main(["targets", fig3_json, "Ghost::m"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explain_unknown_class(self, fig3_json, capsys):
        assert main(["explain", fig3_json, "Ghost::m"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dot_unknown_subobject_class(self, fig3_json, capsys):
        assert main(["dot", fig3_json, "--subobjects", "Ghost"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_json_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert main(["lookup", str(path), "A::m"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_vtables_command(self, fig9_cpp, capsys):
        assert main(["vtables", fig9_cpp, "E"]) == 0
        out = capsys.readouterr().out
        # Figure 9's m is data, so no function slots; render is empty
        # but the command succeeds.
        assert out == "\n" or "vtable" in out


class TestSyntaxErrors:
    """A syntax error prints once, compiler-style, with its file name."""

    @pytest.fixture
    def bad_h(self, tmp_path):
        path = tmp_path / "bad.h"
        path.write_text("class A { int x; };\nclass {};\n")
        return str(path)

    def test_ingest_stops_at_the_error(self, bad_h, capsys):
        assert main(["ingest", bad_h]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"{bad_h}:2:7: error: expected class name, found '{{'\n"
        )

    def test_ingest_keep_going_reports_the_error(self, bad_h, capsys):
        assert main(["ingest", "--keep-going", bad_h]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"{bad_h}:2:7: error: expected class name, found '{{'\n"
        )
        assert "ingested 1 classes" in captured.out

    def test_check_renders_a_caret_snippet(self, bad_h, capsys):
        assert main(["check", bad_h]) == 2
        assert capsys.readouterr().err == (
            f"{bad_h}:2:7: error: expected class name, found '{{'\n"
            "class {};\n"
            "      ^\n"
        )

    def test_lookup_names_the_file(self, bad_h, capsys):
        assert main(["lookup", bad_h, "A::x"]) == 2
        assert capsys.readouterr().err == (
            f"{bad_h}:2:7: error: expected class name, found '{{'\n"
        )
