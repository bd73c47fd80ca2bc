"""Integration tests: every example script runs cleanly and prints its
headline results."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_examples_directory_contents():
    names = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert "quickstart.py" in names
    assert len(names) >= 3


def test_quickstart():
    out = run_example("quickstart.py")
    assert "ambiguous" in out  # Figure 1
    assert "D::m" in out  # Figure 2


def test_cpp_frontend_demo():
    out = run_example("cpp_frontend_demo.py")
    assert "C::m" in out  # our algorithm on Figure 9
    assert "g++ bug" in out or "g++" in out
    assert "ambiguous" in out  # the buggy baseline + broken program


def test_iostream_hierarchy():
    out = run_example("iostream_hierarchy.py")
    assert "layout of fstream" in out
    assert "dispatch table of iostream" in out
    assert "rdstate" in out


def test_exponential_subobjects():
    out = run_example("exponential_subobjects.py")
    assert "subobjects" in out
    # The 2^k counts appear in the table.
    assert " 4093 " in out or "4093" in out  # k=10: 2^12 - 3


def test_hierarchy_slicing():
    out = run_example("hierarchy_slicing.py")
    assert "classes removed" in out
    assert "before" in out and "after" in out


def test_hierarchy_evolution():
    out = run_example("hierarchy_evolution.py")
    assert "became-ambiguous" in out
    assert "entries reused" in out


def test_devirtualization():
    out = run_example("devirtualization.py")
    assert "monomorphic" in out
    assert "vtable for" in out


def test_semantics_comparison():
    out = run_example("semantics_comparison.py")
    assert "C++  : C::m" in out
    assert "hierarchy rejected" in out
    assert "rename clause" in out


def test_compiler_pipeline():
    out = run_example("compiler_pipeline.py")
    assert "duplicated-base" in out
    assert "resolutions preserved = True" in out
    assert "vtable for [Report]" in out
