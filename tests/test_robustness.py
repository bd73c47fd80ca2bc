"""Robustness tests: hierarchies far beyond the Python recursion limit,
wide fan-ins, and hostile class names.

The spec-level machinery (path enumeration, the reference subobject
semantics) is inherently exponential and recursion-bounded; the
*production* pipeline — validation, topological order, virtual-base
closure, the eager and lazy lookup engines, a lazy engine over a graph
grown in place — must handle arbitrarily deep and wide hierarchies iteratively.
The serving entry points must also import without optional third-party
packages: the library's runtime is the standard library alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.lazy import LazyMemberLookup
from repro.core.lookup import build_lookup_table
from repro.core.static_lookup import StaticAwareLookupTable
from repro.hierarchy.builder import HierarchyBuilder
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.hierarchy.topo import topological_order
from repro.hierarchy.virtual_bases import virtual_bases
from repro.workloads.generators import chain, wide_unambiguous

DEEP = 3 * sys.getrecursionlimit()
SRC = Path(__file__).resolve().parent.parent / "src"


class TestDeepChains:
    def test_validate_is_iterative(self):
        chain(DEEP).validate()

    def test_topological_order(self):
        order = topological_order(chain(DEEP))
        assert len(order) == DEEP

    def test_virtual_bases_closure(self):
        graph = chain(DEEP)
        assert virtual_bases(graph)[f"C{DEEP - 1}"] == frozenset()

    def test_eager_table(self):
        graph = chain(DEEP, member_every=DEEP)
        table = build_lookup_table(graph)
        assert table.lookup(f"C{DEEP - 1}", "m").declaring_class == "C0"

    def test_lazy_engine_is_iterative(self):
        graph = chain(DEEP, member_every=DEEP)
        lazy = LazyMemberLookup(graph)
        assert lazy.lookup(f"C{DEEP - 1}", "m").declaring_class == "C0"

    def test_static_table(self):
        graph = chain(DEEP, member_every=DEEP)
        table = StaticAwareLookupTable(graph)
        assert table.lookup(f"C{DEEP - 1}", "m").is_unique

    def test_incremental_engine(self):
        graph = ClassHierarchyGraph()
        lazy = LazyMemberLookup(graph)
        graph.add_class("C0", ["m"])
        for i in range(1, DEEP):
            graph.add_class(f"C{i}")
            graph.add_edge(f"C{i - 1}", f"C{i}")
            if i == DEEP // 2:  # a warm memo the later growth must drop
                assert lazy.lookup(f"C{i}", "m").declaring_class == "C0"
        assert lazy.lookup(f"C{DEEP - 1}", "m").declaring_class == "C0"

    def test_deep_witness_path_is_complete(self):
        graph = chain(DEEP, member_every=DEEP)
        result = build_lookup_table(graph).lookup(f"C{DEEP - 1}", "m")
        assert len(result.witness) == DEEP - 1


class TestWideFans:
    def test_wide_virtual_fan(self):
        graph = wide_unambiguous(2000)
        table = build_lookup_table(graph)
        assert table.lookup("Join", "m").declaring_class == "R"

    def test_many_members_single_class(self):
        builder = HierarchyBuilder()
        builder.cls("Big", members=[f"m{i}" for i in range(2000)])
        builder.cls("Derived", bases=["Big"])
        table = build_lookup_table(builder.build())
        assert table.lookup("Derived", "m1999").declaring_class == "Big"


class TestHostileNames:
    def test_non_identifier_class_names_work_in_core(self):
        # The core engines treat names as opaque strings; only the C++
        # frontend/emitter require identifiers.
        builder = HierarchyBuilder()
        builder.cls("ns::Widget<int>", members=["operator[]"])
        builder.cls("anonymous $1", bases=["ns::Widget<int>"])
        table = build_lookup_table(builder.build())
        result = table.lookup("anonymous $1", "operator[]")
        assert result.declaring_class == "ns::Widget<int>"

    def test_unicode_names(self):
        builder = HierarchyBuilder()
        builder.cls("Basis", members=["größe"])
        builder.cls("Abgeleitet", bases=["Basis"])
        table = build_lookup_table(builder.build())
        assert table.lookup("Abgeleitet", "größe").is_unique


def test_entry_points_do_not_import_numpy():
    """The CLI, the serving front and the ingest pipeline load no
    numpy: the columnar gather is plain ``list``/``map`` code, so the
    import would only add start-up time and resident memory."""
    probe = (
        "import sys\n"
        "import repro.cli, repro.serve.server, repro.ingest.pipeline\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


#: Modules no CLI, serving or ingest process loads until it needs them:
#: the pack reader and writer with ``mmap``, and the modules no program
#: path reads any more (the flat overlay, the lookup cache and the
#: emptied sharding module).
UNLOADED = (
    "repro.core.flatpack",
    "mmap",
    "repro.core.fastpath",
    "repro.core.cache",
    "repro.core.parallel",
)


def test_cli_and_serving_front_do_not_import_flatpack():
    """The pack reader and writer (and ``mmap``) load only when a
    command packs or maps a table: ``TableSerializationError`` lives in
    ``repro.errors``, so re-exporting it from ``repro.core`` imports
    nothing of flatpack.  Neither the CLI, the serving front nor the
    ingest pipeline loads any module in :data:`UNLOADED`."""
    probe = (
        "import sys\n"
        "import repro.cli, repro.serve.server, repro.ingest.pipeline\n"
        f"print(*[name in sys.modules for name in {UNLOADED!r}])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["False"] * len(UNLOADED)


#: What neither a ``repro ingest`` run up to its first published batch
#: nor a ``repro serve`` start loads: the analyses, baselines, oracle,
#: drawing, layout and slicing packages, the fuzz campaign, the engines
#: and rules these commands do not run, the columnar layout (built on a
#: snapshot's first read), the fluent builder, and the other commands'
#: handlers.  A name covers its submodules.
NOT_ON_THE_INGEST_OR_SERVE_PATH = (
    "repro.analysis",
    "repro.baselines",
    "repro.subobjects",
    "repro.diagnostics",
    "repro.layout",
    "repro.slicing",
    "repro.fuzz.campaign",
    "repro.core.static_lookup",
    "repro.core.lazy",
    "repro.core.certify",
    "repro.core.columnar",
    "repro.core.rules",
    "repro.hierarchy.builder",
    "repro.commands",
)

#: Runs ``repro ingest FILE`` and prints the modules loaded when its
#: first ``[batch ...]`` line is written.
_INGEST_PROBE = """
import io, json, sys
from repro.cli import main

class FirstBatch(io.TextIOBase):
    modules = None

    def write(self, text):
        if FirstBatch.modules is None and text.startswith("[batch"):
            FirstBatch.modules = sorted(sys.modules)
        return len(text)

stdout, sys.stdout = sys.stdout, FirstBatch()
assert main(["ingest", sys.argv[1]]) == 0
sys.stdout = stdout
print(json.dumps(FirstBatch.modules))
"""

#: Runs ``repro serve`` with a client thread that adds a tenant, notes
#: the loaded modules once the reply is in, and shuts the server down.
_SERVE_PROBE = """
import io, json, socket, sys, threading
from repro.cli import main

class Announce(io.TextIOBase):
    address = None
    ready = threading.Event()

    def write(self, text):
        if text.startswith("serving on "):
            host, _, port = text.split()[-1].rpartition(":")
            Announce.address = (host, int(port))
            Announce.ready.set()
        return len(text)

TENANT = {"id": 1, "op": "add_tenant", "tenant": "t", "hierarchy": {
    "format": "repro-chg", "version": 1, "classes": [
        {"name": "A", "members": [{"name": "m"}]},
        {"name": "B", "bases": [{"name": "A", "virtual": True}]},
        {"name": "C", "bases": [{"name": "A"}, {"name": "B"}]}]}}
seen = {}

def client():
    assert Announce.ready.wait(60)
    with socket.create_connection(Announce.address, timeout=60) as conn:
        replies = conn.makefile("rb")
        conn.sendall(json.dumps(TENANT).encode() + b"\\n")
        seen["reply"] = json.loads(replies.readline())
        seen["modules"] = sorted(sys.modules)
        conn.sendall(b'{"id": 2, "op": "shutdown"}\\n')
        replies.readline()

thread = threading.Thread(target=client, daemon=True)
thread.start()
stdout, sys.stdout = sys.stdout, Announce()
assert main(["serve", "--port", "0"]) == 0
sys.stdout = stdout
thread.join(60)
assert seen["reply"]["ok"], seen["reply"]
print(json.dumps(seen["modules"]))
"""


def _modules_loaded(probe: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def _within(modules: list[str], packages: tuple[str, ...]) -> list[str]:
    return [
        name
        for name in modules
        if any(name == p or name.startswith(p + ".") for p in packages)
    ]


def test_ingest_loads_only_what_it_runs(tmp_path):
    """Up to its first published batch, ``repro ingest`` loads only the
    frontend, the table build and the snapshot chain: every package's
    exports load lazily and each command imports its own modules."""
    source = tmp_path / "unit.h"
    source.write_text(
        "struct A { int m; };\n"
        "struct B : virtual A { int m; };\n"
        "struct C : virtual A {};\n"
        "struct D : B, C {};\n"
    )
    modules = _modules_loaded(_INGEST_PROBE, str(source))
    assert "repro.ingest.pipeline" in modules
    assert _within(modules, NOT_ON_THE_INGEST_OR_SERVE_PATH) == []


def test_serve_start_loads_only_what_it_runs():
    """A ``repro serve`` process that has started and built a tenant has
    loaded no parser, ingest pipeline or analysis code."""
    modules = _modules_loaded(_SERVE_PROBE)
    assert "repro.serve.server" in modules
    unloaded = NOT_ON_THE_INGEST_OR_SERVE_PATH + ("repro.frontend", "repro.ingest")
    assert _within(modules, unloaded) == []


def test_lazy_export_named_like_its_module_stays_the_export():
    """``repro.core.lookup``, ``repro.core.certify`` and
    ``repro.hierarchy.virtual_bases`` are functions exported under the
    names of the submodules defining them.  Importing such a submodule
    first, before the package's export is read, must not leave the
    module where the function was."""
    probe = (
        "import sys\n"
        "import repro.core.certify, repro.core.lookup\n"
        "import repro.hierarchy.virtual_bases\n"
        "from repro.core import certify, lookup\n"
        "from repro.hierarchy import virtual_bases\n"
        "assert certify is sys.modules['repro.core.certify'].certify\n"
        "assert lookup is sys.modules['repro.core.lookup'].lookup\n"
        "assert virtual_bases is "
        "sys.modules['repro.hierarchy.virtual_bases'].virtual_bases\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_table_serialization_error_is_one_class():
    from repro.core import TableSerializationError as from_core
    from repro.core.flatpack import TableSerializationError as from_flatpack
    from repro.errors import ReproError, TableSerializationError

    assert from_core is TableSerializationError
    assert from_flatpack is TableSerializationError
    assert issubclass(TableSerializationError, ReproError)
