"""Streaming ingestion: parse-as-you-go must agree with
parse-everything-then-rebuild, batch by batch, file by file."""

import random

import pytest

import repro.hierarchy.compiled as compiled
from repro.frontend.errors import ParseError
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.ingest import (
    StreamingIngest,
    ingest_paths,
    rebuild_baseline,
)
from repro.serve.service import LookupService
from repro.workloads.corpus import (
    gui_corpus,
    iostream_corpus,
    template_corpus,
    write_corpus,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def small_corpus(tmp_path):
    files = gui_corpus(layers=5, width=6, files=4, seed=3)
    return write_corpus(files, tmp_path)


def spot_queries(table, count, seed=0):
    rng = random.Random(seed)
    names = table.graph.classes
    members = tuple(
        {m for n in names for m in table.graph.declared_members(n)}
    )
    return [
        (rng.choice(names), rng.choice(members)) for _ in range(count)
    ]


class TestStreamingMatchesRebuild:
    def test_streaming_equals_from_scratch(self, small_corpus):
        table, report = ingest_paths(small_corpus, batch_size=7)
        baseline, baseline_classes = rebuild_baseline(small_corpus)
        assert report.classes == baseline_classes > 0
        for class_name, member in spot_queries(table, 100):
            streamed = table.snapshot.lookup(class_name, member)
            rebuilt = baseline.snapshot.lookup(class_name, member)
            assert streamed.status == rebuilt.status
            assert streamed.declaring_class == rebuilt.declaring_class
            assert streamed.candidates == rebuilt.candidates

    @pytest.mark.parametrize("batch_size", [1, 3, 1000])
    def test_batch_size_does_not_change_answers(
        self, small_corpus, batch_size
    ):
        table, report = ingest_paths(small_corpus, batch_size=batch_size)
        baseline, _ = rebuild_baseline(small_corpus)
        for class_name, member in spot_queries(table, 40, seed=batch_size):
            assert table.snapshot.lookup(
                class_name, member
            ) == baseline.snapshot.lookup(class_name, member)

    def test_iostream_and_template_families(self, tmp_path):
        for name, files in (
            ("io", iostream_corpus(modules=3, files=2)),
            ("tpl", template_corpus(instantiations=9, files=2)),
        ):
            paths = write_corpus(files, tmp_path / name)
            pipeline = StreamingIngest(batch_size=5)
            report = pipeline.ingest(paths)
            assert report.classes > 0
            assert not pipeline.diagnostics.has_errors()


class TestBatching:
    def test_generation_advances_per_batch(self, small_corpus):
        pipeline = StreamingIngest(batch_size=10)
        report = pipeline.ingest(small_corpus)
        assert len(report.batches) >= 2
        generations = [b.generation for b in report.batches]
        assert generations == sorted(generations)
        assert len(set(generations)) == len(generations)
        # every full batch carries exactly batch_size classes
        for record in report.batches[:-1]:
            assert record.classes == 10
        assert sum(b.classes for b in report.batches) == report.classes

    def test_on_batch_callback_sees_each_publish(self, small_corpus):
        seen = []
        pipeline = StreamingIngest(
            batch_size=9, on_batch=lambda r: seen.append(r.index)
        )
        report = pipeline.ingest(small_corpus)
        assert seen == [b.index for b in report.batches]

    def test_flush_on_empty_pipeline_is_noop(self):
        pipeline = StreamingIngest()
        assert pipeline.flush() is None

    def test_table_queryable_between_batches(self, small_corpus):
        pipeline = StreamingIngest(batch_size=5)
        pipeline.ingest_file(small_corpus[0])
        pipeline.flush()
        mid_generation = pipeline.table.snapshot.generation
        assert mid_generation > 0
        first = pipeline.table.graph.classes[0]
        assert pipeline.table.snapshot.lookup(first, "paint") is not None
        pipeline.ingest_file(small_corpus[1])
        pipeline.flush()
        assert pipeline.table.snapshot.generation > mid_generation

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            StreamingIngest(batch_size=0)

    def test_streamed_growth_recompiles_as_deltas(
        self, tmp_path, monkeypatch
    ):
        """Streaming only appends classes, so after the first batch
        every publish extends the previous snapshot instead of
        recompiling (and revalidating) the whole graph — also when one
        batch declares more members on its fresh classes than the
        touch-interval cap of :class:`ClassHierarchyGraph`."""
        paths = write_corpus(
            gui_corpus(layers=16, width=12, files=4, seed=5), tmp_path
        )
        calls = []
        full, delta = compiled._compile_full, compiled._compile_delta

        def counted(kind, compile_fn):
            def wrapper(*args):
                calls.append(kind)
                return compile_fn(*args)

            return wrapper

        monkeypatch.setattr(
            compiled, "_compile_full", counted("full", full)
        )
        monkeypatch.setattr(
            compiled, "_compile_delta", counted("delta", delta)
        )
        pipeline = StreamingIngest(batch_size=48)
        report = pipeline.ingest(paths)
        graph = pipeline.table.graph
        first = graph.classes[:48]
        members = sum(graph.member_count(name) for name in first)
        assert members > ClassHierarchyGraph._COMPAT_INTERVAL_CAP
        assert len(report.batches) >= 4
        first_batch = calls.index("delta")
        assert set(calls[first_batch:]) == {"delta"}
        assert calls[first_batch:].count("delta") >= len(report.batches) - 1
        assert all(b.full_rebuilds == 0 for b in report.batches[1:])


class TestCrossFileResolution:
    def test_base_defined_in_earlier_file(self, tmp_path):
        (tmp_path / "a.h").write_text(
            "namespace core { class Object { public: int id_; }; }"
        )
        (tmp_path / "b.h").write_text(
            "namespace core { class Widget : public Object {}; }\n"
            "class App : public core::Object {};"
        )
        table, report = ingest_paths(
            [tmp_path / "a.h", tmp_path / "b.h"]
        )
        assert report.classes == 3
        result = table.snapshot.lookup("core::Widget", "id_")
        assert result.declaring_class == "core::Object"
        assert table.snapshot.lookup("App", "id_").is_unique


class TestErrorHandling:
    def test_syntax_error_aborts_by_default(self, tmp_path):
        good = tmp_path / "good.h"
        good.write_text("class A { public: int m; };")
        bad = tmp_path / "bad.h"
        bad.write_text("class B { enum X { A = 1")
        with pytest.raises(ParseError):
            ingest_paths([good, bad])

    def test_keep_going_records_and_continues(self, tmp_path):
        good = tmp_path / "good.h"
        good.write_text("class A { public: int m; };")
        bad = tmp_path / "bad.h"
        bad.write_text("class B { enum X { A = 1")
        later = tmp_path / "later.h"
        later.write_text("class C : public A {};")
        table, report = ingest_paths(
            [good, bad, later], keep_going=True
        )
        assert len(report.parse_errors) == 1
        assert "bad.h" in report.parse_errors[0]
        assert report.classes == 2
        assert table.snapshot.lookup("C", "m").is_unique

    def test_semantic_errors_do_not_stall_stream(self, tmp_path):
        source = tmp_path / "u.h"
        source.write_text(
            "class A : public Missing { public: int m; };\n"
            "class B : public A {};"
        )
        pipeline = StreamingIngest()
        report = pipeline.ingest([source])
        assert report.classes == 2
        assert pipeline.diagnostics.has_errors()


class TestServiceIngest:
    def test_ingest_creates_and_feeds_tenant(self, small_corpus):
        service = LookupService()
        out = service.ingest("toolkit", small_corpus, batch_size=8)
        assert out["classes"] > 0
        assert out["generation"] > 0
        assert not out["parse_errors"]
        tenant = service.tenant("toolkit")
        assert tenant.stats.deltas_applied == len(out["batches"])
        class_name = tenant.graph.classes[0]
        member = next(iter(tenant.graph.declared_members(class_name)), None)
        if member is not None:
            assert (
                service.lookup("toolkit", class_name, member) is not None
            )

    def test_repeated_ingest_grows_same_tenant(self, tmp_path):
        service = LookupService()
        (tmp_path / "a.h").write_text("class A { public: int m; };")
        (tmp_path / "b.h").write_text("class B : public A {};")
        first = service.ingest("t", [tmp_path / "a.h"])
        second = service.ingest("t", [tmp_path / "b.h"])
        assert second["generation"] > first["generation"]
        assert service.lookup("t", "B", "m").is_unique
