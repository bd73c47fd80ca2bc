"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import re

import pytest

from perfbench import inputs
from perfbench.layers import attribute, layer_metrics, metric_names
from perfbench.stats import latency_summary, percentile, self_times, tail_percentile
from perfbench.verify import Tally, answer_of_result, reference


@pytest.fixture(scope="module")
def tenant():
    return inputs.tenant_hierarchy()


def test_zipf_trace_is_a_function_of_the_seed(tenant):
    keys = inputs.key_space(tenant)
    first = inputs.zipf_trace(keys, 7, 5000)
    assert first == inputs.zipf_trace(keys, 7, 5000)
    assert first != inputs.zipf_trace(keys, 8, 5000)
    # Zipf(1) over 32768 keys: the hottest key takes ~1/H(32768) ~ 9%.
    hottest = max(first.count(k) for k in set(first[:200]))
    assert 250 < hottest < 700


def test_cyclic_lookup_lines_match_the_encoder(tenant):
    keys = inputs.key_space(tenant)[:5]
    line = inputs.cyclic_lookup_lines(keys)
    for rid in (0, 4, 5, 12, 123456):
        assert line(rid) == inputs.lookup_line(rid, keys[rid % 5])


def test_uniform_batches_are_a_function_of_the_seed(tenant):
    keys = inputs.key_space(tenant)
    first = inputs.uniform_batches(keys, 7)
    again = inputs.uniform_batches(keys, 7)
    other = inputs.uniform_batches(keys, 8)
    batches = [next(first) for _ in range(3)]
    assert batches == [next(again) for _ in range(3)]
    assert batches != [next(other) for _ in range(3)]
    assert all(len(b) == inputs.BATCH for b in batches)


def test_delta_mix_is_a_function_of_the_seed(tenant):
    first = inputs.delta_mix(tenant, 7, 200)
    assert first == inputs.delta_mix(tenant, 7, 200)
    assert first != inputs.delta_mix(tenant, 8, 200)
    members = [d for d in first if d.member_class is not None]
    assert 20 <= len(members) <= 60  # ~20% add_member
    for delta in members:
        if delta.member_class in tenant:
            assert delta.member not in tenant.declared_members(delta.member_class)


def test_delta_mix_replays_onto_the_tenant(tenant):
    graph = inputs.tenant_hierarchy()
    deltas = inputs.delta_mix(graph, 7, 100)
    inputs.replay(graph, deltas)
    leaves = sum(1 for d in deltas if d.member_class is None)
    assert len(graph) == len(tenant) + leaves


def test_corpus_renaming_is_a_seeded_bijection(tmp_path):
    first = [p.read_text() for p in inputs.write_gui_corpus(3, tmp_path / "a")]
    again = [p.read_text() for p in inputs.write_gui_corpus(3, tmp_path / "b")]
    other = [p.read_text() for p in inputs.write_gui_corpus(4, tmp_path / "c")]
    assert first == again
    assert first != other
    names = {n for text in first for n in re.findall(r"\bW\d{4}\b", text)}
    assert len(names) == 42 * 48
    assert not any(re.search(r"\bL\d+_\d+\b", text) for text in first)


def test_self_time_of_nested_spans():
    # sid, name, start, end, parent, rid, thread
    spans = [
        [0, "outer", 0, 100, -1, None, 1],
        [1, "child", 10, 40, 0, None, 1],
        [2, "grandchild", 15, 25, 1, None, 1],
        [3, "child", 50, 70, 0, None, 1],
        [4, "other-thread", 5, 95, -1, None, 2],
    ]
    own = self_times(spans)
    assert own == {0: 50, 1: 20, 2: 10, 3: 20, 4: 90}


def test_attribution_sums_to_the_end_to_end_time():
    doc = {"spans": [
        [0, "process.startup", 0, 200_000_000, -1, None, 1],
        [1, "protocol.decode", 300_000_000, 310_000_000, -1, 5, 1],
        [2, "service.lookup", 310_000_000, 350_000_000, -1, 5, 1],
        [3, "cache.get", 315_000_000, 320_000_000, 2, 5, 1],
        [4, "protocol.encode", 350_000_000, 360_000_000, -1, 5, 1],
        [5, "protocol.decode", 400_000_000, 401_000_000, -1, 6, 1],
    ], "publishes": []}
    requests = [(5, "lookup", 0.29, 0.37)]  # seconds; id 6 was not timed
    e2e = 0.25 + 0.08
    samples = attribute(doc, e2e, requests)
    assert samples["server.transport"] == [pytest.approx(0.08 - 0.06)]
    assert samples["service.lookup"] == [pytest.approx(0.035)]
    assert samples["cache.get"] == [pytest.approx(0.005)]
    assert len(samples["protocol.decode"]) == 1
    assert sum(sum(v) for v in samples.values()) == pytest.approx(e2e)
    metrics = layer_metrics(doc, e2e, requests=requests, overhead=0.1)
    assert set(metrics) == {name for name, _ in metric_names()}
    assert metrics["unattributed.busy_ms"][0] == pytest.approx(50.0)


def test_writer_wait_is_the_uncovered_part_of_a_delta():
    doc = {"spans": [
        [0, "protocol.decode", 0, 1_000_000, -1, "d0", 1],
        [1, "service.apply_delta", 5_000_000, 9_000_000, -1, "d0", 2],
        [2, "protocol.encode", 10_000_000, 11_000_000, -1, "d0", 1],
    ], "publishes": [[90, 10, 4]]}
    samples = attribute(doc, 0.012, [("d0", "delta", 0.0, 0.012)])
    assert samples["server.writer_wait"] == [pytest.approx(0.011 - 0.006)]
    metrics = layer_metrics(doc, 0.012, requests=[("d0", "delta", 0.0, 0.012)],
                            overhead=0.0)
    assert metrics["kernel.reuse_ratio"][0] == pytest.approx(0.9)


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (10**6, 99.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        values = list(range(1, n + 1))
        cut = percentile(values, expected)
        assert sum(v > cut for v in values) >= 10


def test_latency_summary_reports_counts():
    summary = latency_summary([float(v) for v in range(100, 0, -1)])
    assert summary == {"n": 100, "p50": 50.0, "tail": 90.0, "tail_p": 90.0}


def _reply(rid, result):
    return json.dumps({"id": rid, "ok": True, "result": result}).encode() + b"\n"


def test_verifier_flags_a_corrupted_reply(tenant):
    answers = reference(tenant, inputs.key_space(tenant)[:256])
    key, expected = next((k, a) for k, a in sorted(answers.items())
                         if a[0] == "unique")
    good = {"class": key[0], "member": key[1], "status": "unique",
            "declaring_class": expected[1]}
    tally = Tally()
    assert tally.check_reply(_reply(1, good), 1, expected) == good
    assert (tally.attempted, tally.failed) == (1, 0)
    corrupted = dict(good, declaring_class="NotTheAnswer")
    assert tally.check_reply(_reply(2, corrupted), 2, expected) is None
    assert tally.check_reply(_reply(4, good), 3, expected) is None  # wrong id
    assert tally.check_reply(b'{"id": 5, "ok": false}\n', 5) is None
    assert tally.check_reply(b"garbage\n", 6) is None
    assert (tally.attempted, tally.failed) == (5, 4)
    assert "NotTheAnswer" in tally.first_failure


def test_verifier_counts_each_batch_query(tenant):
    keys = inputs.key_space(tenant)[:4]
    expected = reference(tenant, keys)
    from repro.core.lookup import MemberLookupTable
    from repro.serve.protocol import result_to_dict

    table = MemberLookupTable(tenant)
    results = [result_to_dict(table.lookup(*k)) for k in keys]
    assert [answer_of_result(table.lookup(*k)) for k in keys] == \
        [expected[k] for k in keys]
    tally = Tally()
    tally.check_batch(_reply(9, results), 9, keys, expected)
    assert (tally.attempted, tally.failed) == (4, 0)
    results[2] = dict(results[2], status="ambiguous", candidates=["X", "Y"])
    tally.check_batch(_reply(10, results), 10, keys, expected)
    assert (tally.attempted, tally.failed) == (8, 1)
    tally.check_batch(b"not json\n", 11, keys, expected)
    assert (tally.attempted, tally.failed) == (12, 5)


LOWER = {"better": "lower", "bound": 0.25}


@pytest.mark.parametrize("first, second, expected", [
    ([100, 101, 99, 100, 102], [101, 100, 99, 102, 100], "ok"),
    ([100, 101, 99, 100, 102], [140, 141, 139, 140, 142], "regressed"),
    ([100, 101, 99, 100, 102], [60, 61, 59, 60, 62], "improved"),
    # Spread wider than the bound and overlapping runs: unresolved, even
    # though the second median is worse by more than the bound.
    ([60, 100, 140, 100, 100], [90, 130, 170, 130, 130], "unresolved"),
    # As wide, but every second run is worse than every first run.
    ([50, 80, 105, 80, 80], [110, 140, 170, 140, 140], "regressed"),
])
def test_verdict_reports_unresolved_before_regressed(first, second, expected):
    from perfbench.steady import verdict

    assert verdict(first, second, LOWER)[0] == expected
