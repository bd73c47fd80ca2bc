"""End-to-end campaign tests: a clean campaign on the healthy kernel, a
deliberately broken dominance rule that must be caught, shrunk and
persisted, and determinism in the seed."""

import json

import pytest

from repro.cli import main
from repro.fuzz import ENGINES, build_engine, differential_check, run_campaign
from repro.hierarchy.serialize import hierarchy_from_dict
from repro.workloads import figure1, figure9

def test_engine_matrix_builds_and_agrees():
    for figure in (figure1(), figure9()):
        for engine_name in ENGINES:
            assert build_engine(engine_name, figure) is not None
        divergences, queries, certificates = differential_check(
            figure, engines=ENGINES, certify_engine="batched"
        )
        assert divergences == []
        assert queries > 0
        assert certificates > 0


def test_build_engine_rejects_unknown_name():
    with pytest.raises(ValueError):
        build_engine("nonsense", figure1())


def test_clean_campaign_on_healthy_kernel():
    report = run_campaign(seed=0, budget=60)
    assert report.exit_code == 0
    assert report.findings == []
    assert report.iterations == 60
    assert report.stopped_by == "budget"
    assert report.queries_checked > 0
    assert report.certificates_checked > 0
    assert report.invariant_checks > 0
    # Every generator family and every engine took part.
    assert len(report.families) == 10
    assert report.engines == ENGINES


def test_campaign_is_deterministic_in_seed():
    left = run_campaign(seed=7, budget=25).to_dict()
    right = run_campaign(seed=7, budget=25).to_dict()
    left.pop("elapsed_seconds")
    right.pop("elapsed_seconds")
    assert left == right


def test_broken_dominance_is_caught_shrunk_and_persisted(
    monkeypatch, tmp_path
):
    """The acceptance gate: wire a wrong Lemma 4 dominance rule into the
    kernel and the campaign must exit nonzero with a shrunk,
    corpus-serialisable counterexample."""
    monkeypatch.setattr(
        "repro.core.kernel.dominates", lambda *args, **kwargs: False
    )
    corpus = tmp_path / "corpus"
    report = run_campaign(
        seed=0, budget=12, engines=ENGINES, corpus_dir=corpus
    )
    assert report.exit_code != 0
    mismatches = [f for f in report.findings if f.kind == "mismatch"]
    assert mismatches
    shrunk = [f for f in mismatches if f.shrunk_hierarchy is not None]
    assert shrunk
    for finding in shrunk:
        assert finding.shrunk_classes <= finding.original_classes
        # corpus-serialisable: the shrunk hierarchy round-trips through
        # the repro-chg document format
        graph = hierarchy_from_dict(finding.shrunk_hierarchy)
        assert len(graph.classes) == finding.shrunk_classes
    persisted = sorted(corpus.glob("*.json"))
    assert persisted
    assert any(f.corpus_path for f in shrunk)


def test_broken_dominance_reaches_the_cli(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        "repro.core.kernel.dominates", lambda *args, **kwargs: False
    )
    code = main(
        [
            "fuzz",
            "--seed",
            "0",
            "--budget",
            "6",
            "--engines",
            ",".join(ENGINES),
            "--no-shrink",
        ]
    )
    assert code != 0
    assert "DISAGREEMENTS" in capsys.readouterr().out


def test_cli_clean_campaign_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "fuzz",
            "--seed",
            "0",
            "--budget",
            "15",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all engines agree" in out
    data = json.loads(report_path.read_text())
    assert data["format"] == "repro-fuzz-report"
    assert data["iterations"] == 15
    assert data["disagreements"] == 0
    assert data["engines"] == list(ENGINES)


def test_cli_rejects_unknown_engine(capsys):
    code = main(["fuzz", "--budget", "1", "--engines", "warp-drive"])
    assert code == 2
    assert "unknown engine" in capsys.readouterr().err


@pytest.mark.parametrize(
    "engines", [",", " , ,", "cached", "incremental", "sharded"]
)
def test_cli_rejects_empty_and_removed_engine_lists(capsys, engines):
    """An engine list that parses to nothing used to crash the campaign
    with ZeroDivisionError; the removed cached-LRU, incremental and
    sharded engines are unknown names now."""
    code = main(["fuzz", "--seed", "0", "--budget", "1", "--engines", engines])
    assert code == 2
    assert "choose from" in capsys.readouterr().err


def test_run_campaign_rejects_empty_engine_list():
    with pytest.raises(ValueError, match="at least one engine"):
        run_campaign(seed=0, budget=1, engines=())


@pytest.mark.parametrize("max_classes", [2, 0, -1])
def test_cli_rejects_too_small_max_classes(capsys, max_classes):
    """Below the smallest random family the draw used to leak
    ``empty range for randrange()``; it is a plain usage error now."""
    code = main(
        ["fuzz", "--seed", "0", "--budget", "1",
         "--max-classes", str(max_classes)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "max_classes must be >= 3" in err
    assert "randrange" not in err
    with pytest.raises(ValueError, match="max_classes must be >= 3"):
        run_campaign(seed=0, budget=1, max_classes=max_classes)


def test_time_budget_cuts_campaign_short():
    report = run_campaign(seed=3, budget=10_000, time_budget=0.0)
    assert report.stopped_by == "time"
    assert report.iterations < 10_000
    assert report.exit_code == 0


def test_roundtrip_leg_runs_and_agrees():
    report = run_campaign(seed=11, budget=30)
    assert report.roundtrips > 0
    assert [f for f in report.findings if f.kind == "roundtrip"] == []
    assert report.to_dict()["roundtrips"] == report.roundtrips


def test_roundtrip_check_verifies_healthy_graph():
    from repro.fuzz.campaign import _roundtrip_check

    ran, divergences = _roundtrip_check(figure9())
    assert ran
    assert divergences == []


def test_roundtrip_check_skips_unemittable_names():
    from repro.fuzz.campaign import _roundtrip_check
    from repro.hierarchy.graph import ClassHierarchyGraph

    graph = ClassHierarchyGraph()
    graph.add_class("ns::Qualified", ["m"])
    ran, divergences = _roundtrip_check(graph)
    assert not ran
    assert divergences == []


def test_roundtrip_check_reports_infidelity(monkeypatch):
    import sys

    from repro.fuzz.campaign import _roundtrip_check

    # Simulate a lossy emitter: drop the last class definition.
    # (The package __init__ rebinds the ``emit_cpp`` attribute to the
    # function, so fetch the module through sys.modules.)
    emit_module = sys.modules["repro.workloads.emit_cpp"]
    real = emit_module.emit_cpp

    def lossy(graph):
        lines = real(graph).splitlines()
        for index in range(len(lines) - 1, -1, -1):
            if lines[index].startswith(("class", "struct")):
                del lines[index : index + 100]
                break
        return "\n".join(lines) + "\n"

    monkeypatch.setattr(emit_module, "emit_cpp", lossy)
    ran, divergences = _roundtrip_check(figure1())
    assert ran
    assert divergences
    assert all(d.kind == "roundtrip" for d in divergences)
