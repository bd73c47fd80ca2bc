"""Tests for the command-line interface."""

import argparse
import json
import os
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.hierarchy.serialize import dumps
from repro.workloads.paper_figures import (
    figure1_source,
    figure3,
    figure9,
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

    def test_load_pack_stats_line_names_the_pack(
        self, fig3_json, tmp_path, capsys
    ):
        pack = str(tmp_path / "fig3.pack")
        assert main(["pack", fig3_json, pack]) == 0
        generation = re.search(
            r"generation (\d+)", capsys.readouterr().out
        ).group(1)
        assert main(["table", "--load-pack", pack, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "lookup(H, foo) = G::foo" in out
        # The pack's facts, and no serving counters: a printed table
        # answers through library reads, which move none of them.
        assert out.splitlines()[-1] == (
            f"[pack generation={generation} semantics=cpp-dominance]"
        )

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


# ----------------------------------------------------------------------
# Every subcommand in a fresh interpreter
# ----------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

#: One run of each subcommand over the Figure 9 program (``{cpp}``),
#: its JSON dump (``{json}``) and its pack (``{pack}``); ``{out}`` is a
#: scratch path.  Each handler imports its own modules, and in-process
#: tests share ``sys.modules``, so only a new interpreter shows a
#: handler that uses a module it never imports.  ``serve`` runs in
#: :func:`test_serve_starts_and_shuts_down_in_a_fresh_process`.
FRESH_RUNS = {
    "check": ["check", "{cpp}"],
    "lookup": ["lookup", "{cpp}", "E::m"],
    "table": ["table", "{cpp}", "--mode", "batched", "--columnar",
              "--stats", "--delta-stats", "--save-pack", "{out}"],
    "table-load-pack": ["table", "--load-pack", "{pack}", "--stats"],
    "pack": ["pack", "{json}", "{out}"],
    "ingest": ["ingest", "{cpp}", "--batch", "2", "--save-pack", "{out}"],
    "build": ["build", "{cpp}", "--columnar", "--delta-stats"],
    "explain": ["explain", "{cpp}", "E::m"],
    "metrics": ["metrics", "{json}"],
    "dot": ["dot", "{cpp}", "--subobjects", "E"],
    "slice": ["slice", "{cpp}", "E::m", "--json"],
    "trace": ["trace", "{cpp}", "m", "--concrete"],
    "diff": ["diff", "{cpp}", "{json}"],
    "lint": ["lint", "{cpp}", "--errors-only"],
    "targets": ["targets", "{cpp}", "S::m"],
    "vtables": ["vtables", "{cpp}", "E"],
    "fuzz": ["fuzz", "--budget", "2", "--max-classes", "4", "--no-shrink",
             "--semantics", "cpp-dominance,c3"],
}


def _fresh_repro(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


@pytest.fixture(scope="module")
def fig9_files(tmp_path_factory):
    """The Figure 9 program as C++, as a JSON dump and as a pack."""
    root = tmp_path_factory.mktemp("fresh")
    cpp = root / "fig9.cpp"
    cpp.write_text(figure9_source() + "\nmain() { E e; e.m = 10; }\n")
    dump = root / "fig9.json"
    dump.write_text(dumps(figure9()))
    pack = root / "fig9.pack"
    assert main(["pack", str(dump), str(pack)]) == 0
    return {"cpp": str(cpp), "json": str(dump), "pack": str(pack)}


def test_fresh_runs_cover_every_subcommand():
    (commands,) = [
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    covered = {args[0] for args in FRESH_RUNS.values()} | {"serve"}
    assert covered == set(commands)


@pytest.mark.parametrize("run", sorted(FRESH_RUNS))
def test_subcommand_runs_in_a_fresh_process(run, fig9_files, tmp_path):
    places = dict(fig9_files, out=str(tmp_path / "out"))
    args = [arg.format(**places) for arg in FRESH_RUNS[run]]
    child = _fresh_repro(*args)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    assert out


def test_serve_starts_and_shuts_down_in_a_fresh_process(fig9_files):
    child = _fresh_repro(
        "serve", "--port", "0", "--preload", f"fig9={fig9_files['pack']}"
    )
    # A server that never announces itself is killed, so the reads
    # below end instead of blocking the run.
    watchdog = threading.Timer(120, child.kill)
    watchdog.start()
    try:
        assert child.stdout.readline().startswith("preloaded tenant 'fig9'")
        address = child.stdout.readline()
        match = re.match(r"serving on (\S+):(\d+)$", address.strip())
        assert match, address
        with socket.create_connection(
            (match.group(1), int(match.group(2))), timeout=60
        ) as conn:
            conn.sendall(
                b'{"id": 1, "op": "lookup", "tenant": "fig9", '
                b'"class": "E", "member": "m"}\n'
                b'{"id": 2, "op": "shutdown"}\n'
            )
            replies = conn.makefile("rb").read().splitlines()
        assert json.loads(replies[0])["result"]["declaring_class"] == "C"
        assert child.wait(timeout=60) == 0
    finally:
        watchdog.cancel()
        child.kill()
        child.communicate()
