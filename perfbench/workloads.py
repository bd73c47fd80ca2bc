"""The three workloads: two over ``repro serve``, one over ``repro ingest``.

Each workload function takes ``(seed, seconds, trace)`` and returns an
:class:`Outcome`.  Untraced, it fills the gated end-to-end metrics,
which are counted in the program's CPU time (see ``README.md`` for why),
and prints the wall-clock figures a client sees as notes.  Traced, it
runs the workload once untraced and once under the traced launcher,
each doing the same fixed amount of work (sized to take about half of
``--seconds``), and fills the per-layer table from the spans.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench import inputs
from perfbench.inputs import TENANT
from perfbench.layers import layer_metrics
from perfbench.procs import ROOT, Child, ChildFailed, Conn, start_server
from perfbench.stats import latency_summary
from perfbench.verify import Tally, answer_of_result, reference

#: Scratch space inside the checkout; ``run.py`` removes it after a run.
WORK = ROOT / ".perfbench_work"

#: Set-ups per run, at least: ``setup_s`` is their median.  A serve
#: set-up is a full server start; ``ingest-gui`` counts its ingests and
#: tops them up with ingests stopped at their first published batch.
SETUPS = 5
#: ``serve-point`` replays one seeded Zipf sequence of this many
#: lookups in a loop; the first pass is the untimed warm-up.  Every
#: key the timed window asks for has then been asked once, so the
#: server's memory no longer grows with the number of requests served.
PERIOD = 16384
#: Queries per ``lookup_many`` in the ``serve-batch-writes`` warm-up
#: (every key once) and in its final all-keys check.
CHECK_BATCH = 2048
#: Lookups in flight on the ``serve-point`` connection.  With one, the
#: server idles between requests, and on a shared host the CPU cost of
#: each wake-up swings by half from minute to minute; with four it
#: stays busy and the figures hold steady.
PIPELINE = 4
#: Open-loop ``apply_delta`` rate of ``serve-batch-writes``, per second:
#: the parent commit keeps up with it without a growing backlog.
DELTA_RATE = 5.0
#: Ingest runs per ``ingest-gui`` run, at least.
MIN_INGESTS = 3
#: A traced run does a fixed amount of work, so that its call counts
#: and busy times compare across commits: this many lookups (after the
#: warm-up) or ``lookup_many`` batches per second of its half of
#: ``--seconds``.  They are about the traced rates of the machine the
#: benchmark was built on.
TRACED_LOOKUP_RATE = 6000
TRACED_BATCH_RATE = 80


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    tally: Tally = field(default_factory=Tally)
    notes: dict = field(default_factory=dict)  # printed, not gated
    layers: Optional[dict] = None  # per-layer metrics of a traced run


def _workdir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK))


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 4)


def _latency_notes(prefix: str, summary: dict) -> dict:
    """Wall-clock p50 / tail of one request kind, with sample counts."""
    notes = {f"{prefix} samples": summary["n"]}
    if summary["n"]:
        notes[f"{prefix}_p50_ms"] = _ms(summary["p50"])
        notes[f"{prefix}_p{summary['tail_p'] or 100:g}_ms"] = _ms(summary["tail"])
    return notes


# ----------------------------------------------------------------------
# Serve sessions
# ----------------------------------------------------------------------


class Session:
    """One ``repro serve`` child with the benchmark tenant added.

    ``setup_cpu`` / ``setup_wall`` cover spawn -> ``serving on`` ->
    ``add_tenant`` reply.  ``requests`` collects ``(id, kind, sent,
    received)`` for every timed request when the session is traced."""

    def __init__(self, tenant_line: bytes, tally: Tally,
                 spans: Optional[Path] = None) -> None:
        self.child, self.host, self.port = start_server(spans)
        self.traced = spans is not None
        self.spans = spans
        self.requests: list = []
        self.conns: list = []
        try:
            conn = self.connect()
            sent = time.perf_counter()
            raw = conn.call(tenant_line)
            received = time.perf_counter()
            self.setup_cpu = self.child.cpu_s()
        except BaseException:
            self.child.kill()
            raise
        self.setup_wall = received - self.child.spawned
        self.serving_at = self.child.wait_line(r"serving on")[1]
        self.note("setup", "setup", sent, received)
        tally.check_reply(raw, "setup")

    def connect(self) -> Conn:
        conn = Conn(self.host, self.port)
        self.conns.append(conn)
        return conn

    def note(self, rid, kind, sent, received) -> None:
        if self.traced:
            self.requests.append((rid, kind, sent, received))

    def close(self, tally: Tally) -> dict:
        """Read ``stats``, shut the server down, reap it.  Returns the
        stats result (empty when the request failed)."""
        try:
            conn = self.conns[0]
            stats = tally.check_reply(
                conn.call(inputs.encode({"id": "stats", "op": "stats"})), "stats"
            ) or {}
            tally.check_reply(
                conn.call(inputs.encode({"id": "bye", "op": "shutdown"})), "bye"
            )
            for conn in self.conns:
                conn.close()
            if self.child.wait() != 0:
                tally.fail(f"serve exited {self.child.proc.returncode}")
        finally:
            self.child.kill()
        return stats

    def layers(self, **kwargs) -> dict:
        """Per-layer metrics of a traced session; call after
        :meth:`close`, when the launcher has written its spans."""
        e2e = self.serving_at - self.child.spawned + sum(
            received - sent for _, _, sent, received in self.requests)
        doc = json.loads(self.spans.read_text())
        return layer_metrics(doc, e2e, requests=self.requests, **kwargs)


def _tenant_line(graph) -> bytes:
    from repro.hierarchy.serialize import hierarchy_to_dict

    return inputs.encode({"id": "setup", "op": "add_tenant", "tenant": TENANT,
                          "hierarchy": hierarchy_to_dict(graph)})


def _setup_series(tenant_line: bytes, tally: Tally) -> tuple[list, Session]:
    """``SETUPS`` full set-ups in a row; all but the last are shut
    down.  Returns the sessions' ``(cpu, wall)`` set-up times and the
    live last session."""
    times = []
    for index in range(SETUPS):
        session = Session(tenant_line, tally)
        times.append((session.setup_cpu, session.setup_wall))
        if index < SETUPS - 1:
            session.close(tally)
    return times, session


def _traced_session(tenant_line: bytes, tally: Tally) -> Session:
    return Session(tenant_line, tally, spans=_workdir() / "spans.json")


def _setup_metrics(out: Outcome, times: list) -> None:
    out.metrics["setup_s"] = (statistics.median(t[0] for t in times), "s")
    out.notes["setup samples"] = len(times)
    out.notes["setup wall s (median)"] = round(
        statistics.median(t[1] for t in times), 4)


def _hit_ratio(stats: dict) -> float:
    cache = stats.get("cache", {})
    probes = cache.get("hits", 0) + cache.get("misses", 0)
    return cache.get("hits", 0) / probes if probes else 0.0


# ----------------------------------------------------------------------
# serve-point
# ----------------------------------------------------------------------


def _point_phase(session: Session, line, seconds: float = math.inf,
                 depth: int = PIPELINE, count: Optional[int] = None) -> dict:
    """Closed loop of single lookups on one connection, ``depth``
    requests in flight: request ``i`` is ``line(i)``, and one is sent
    each time a reply arrives.  Warm-up first, then ``seconds`` timed,
    or ``count`` lookups when given.  Returns every reply (warm-up and
    the drained tail included), the timed round trips, and the server's
    CPU seconds per lookup over the timed window."""
    conn = session.connect()
    send, readline = conn.sock.sendall, conn.rfile.readline
    clock = time.perf_counter
    sent_at = []
    replies, rtts = [], []
    for index in range(depth):
        sent_at.append(clock())
        send(line(index))
    timed_from = PERIOD - 1
    end = math.inf
    index = 0
    while True:
        reply = readline()
        received = clock()
        replies.append(reply)
        session.note(index, "lookup", sent_at[index], received)
        if index == timed_from:
            cpu = session.child.cpu_s()
            start = received
            end = start + seconds
        elif index > timed_from:
            rtts.append(received - sent_at[index])
        if received >= end or len(rtts) == count:
            break
        sent_at.append(clock())
        send(line(len(sent_at) - 1))
        index += 1
    cpu = session.child.cpu_s() - cpu
    elapsed = clock() - start
    for index in range(len(replies), len(sent_at)):
        replies.append(readline())
        session.note(index, "lookup", sent_at[index], clock())
    return {"replies": replies, "rtts": rtts, "elapsed": elapsed,
            "ops": len(rtts), "cpu_per_op": cpu / len(rtts)}


def _verify_point(tally: Tally, graph, period: list, replies: list) -> None:
    expected = reference(graph, period)
    for index, raw in enumerate(replies):
        tally.check_reply(raw, index, expected[period[index % PERIOD]])


def serve_point(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    graph = inputs.tenant_hierarchy()
    keys = inputs.key_space(graph)
    period = inputs.zipf_trace(keys, seed, PERIOD)
    line = inputs.cyclic_lookup_lines(period)
    tenant_line = _tenant_line(graph)
    if trace:
        count = int(seconds / 2 * TRACED_LOOKUP_RATE)
        plain = Session(tenant_line, out.tally)
        # One request in flight, so that client round trips add up to
        # the wall time the layers are attributed against.
        base = _point_phase(plain, line, depth=1, count=count)
        plain.close(out.tally)
        session = _traced_session(tenant_line, out.tally)
        phase = _point_phase(session, line, depth=1, count=count)
        stats = session.close(out.tally)
        out.layers = session.layers(
            overhead=phase["cpu_per_op"] / base["cpu_per_op"] - 1.0,
            hit_ratio=_hit_ratio(stats),
        )
        _verify_point(out.tally, graph, period, phase["replies"])
        return out
    times, session = _setup_series(tenant_line, out.tally)
    phase = _point_phase(session, line, seconds)
    stats = session.close(out.tally)
    _verify_point(out.tally, graph, period, phase["replies"])
    _setup_metrics(out, times)
    out.metrics["cpu_us_per_op"] = (phase["cpu_per_op"] * 1e6, "us")
    out.metrics["peak_rss_mb"] = (session.child.peak_rss_mb, "MB")
    out.notes["timed window s"] = round(phase["elapsed"], 3)
    out.notes["throughput (lookups/s)"] = round(phase["ops"] / phase["elapsed"], 2)
    out.notes.update(_latency_notes("lookup", latency_summary(phase["rtts"])))
    out.notes["cache hit ratio"] = round(_hit_ratio(stats), 4)
    return out


# ----------------------------------------------------------------------
# serve-batch-writes
# ----------------------------------------------------------------------


class _Writer:
    """The open-loop delta generator on its own connection: a sender
    that writes each delta when it is due, and a receiver that stamps
    each reply."""

    def __init__(self, session: Session, lines: list, start: float) -> None:
        self.conn = session.connect()
        self.lines = lines
        self.due = [start + k / DELTA_RATE for k in range(len(lines))]
        self.sent: list = []
        self.replies: list = []
        self.received: list = []
        self.error: Optional[BaseException] = None
        self._threads = [threading.Thread(target=self._send, daemon=True),
                         threading.Thread(target=self._receive, daemon=True)]
        for thread in self._threads:
            thread.start()

    def _send(self) -> None:
        clock = time.perf_counter
        try:
            for due, line in zip(self.due, self.lines):
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                self.sent.append(clock())
                self.conn.sock.sendall(line)
        except OSError as exc:
            self.error = exc

    def _receive(self) -> None:
        try:
            for _ in self.lines:
                raw = self.conn.rfile.readline()
                if not raw:
                    raise ConnectionError("writer connection closed")
                self.received.append(time.perf_counter())
                self.replies.append(raw)
        except OSError as exc:
            self.error = exc

    def join(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in self._threads):
            raise ChildFailed("delta replies did not arrive in time")
        if self.error is not None:
            raise self.error


def _storm_phase(session: Session, warm: list, batches, delta_lines: list,
                 seconds: float) -> dict:
    """The ``warm`` batches untimed, then closed-loop batches drawn from
    the iterator ``batches`` for ``seconds`` or until it ends, on one
    connection while the writer sends deltas on another.  The server's
    CPU is counted from the first due delta until the last delta's
    reply, so every publish of the window is in it; the part spent off
    the event-loop thread is the executor running ``apply_delta``."""
    reader = session.connect()
    send, readline = reader.sock.sendall, reader.rfile.readline
    clock = time.perf_counter
    sent_batches, replies, rtts = [], [], []
    for index, keys in enumerate(warm):
        sent = clock()
        sent_batches.append(keys)
        replies.append(reader.call(inputs.batch_line(index, keys)))
        session.note(index, "batch", sent, clock())
    before = session.child.thread_cpu_s()
    start = clock()
    writer = _Writer(session, delta_lines, start)
    end = start + seconds
    for index, keys in enumerate(batches, start=len(warm)):
        line = inputs.batch_line(index, keys)
        sent_batches.append(keys)
        sent = clock()
        send(line)
        reply = readline()
        received = clock()
        replies.append(reply)
        rtts.append(received - sent)
        session.note(index, "batch", sent, received)
        if received >= end:
            break
    elapsed = clock() - start
    writer.join(timeout=120.0)
    after = session.child.thread_cpu_s()
    cpu = sum(after.values()) - sum(before.values())
    loop_tid = session.child.proc.pid
    publish_cpu = cpu - (after[loop_tid] - before[loop_tid])
    for k, (sent, received) in enumerate(zip(writer.sent, writer.received)):
        session.note(f"d{k}", "delta", sent, received)
    queries = len(rtts) * inputs.BATCH
    return {
        "batches": sent_batches, "replies": replies, "rtts": rtts,
        "elapsed": elapsed, "reader": reader,
        "ops": queries, "cpu_per_op": cpu / queries,
        "publish_cpu": publish_cpu, "publish_share": publish_cpu / cpu,
        "delta_latency": [r - d for r, d in zip(writer.received, writer.due)],
        "lag": [s - d for s, d in zip(writer.sent, writer.due)],
        "delta_replies": writer.replies,
    }


def _verify_storm(tally: Tally, deltas: list, phase: dict) -> dict:
    """Check the storm's batch answers on keys no ``add_member`` cone
    touched, every delta reply, and then every key of the final
    hierarchy over the wire against a fresh build of the replayed
    graph.  Returns the publish summaries."""
    graph = inputs.tenant_hierarchy()
    inputs.replay(graph, deltas)
    final_keys = inputs.key_space(graph)
    expected = reference(graph, final_keys)
    stable = dict(expected)
    for delta in deltas:
        if delta.member_class is not None:
            for cls in graph.descendants(delta.member_class) | {delta.member_class}:
                stable.pop((cls, delta.member), None)
    for index, raw in enumerate(phase["replies"]):
        tally.check_batch(raw, index, phase["batches"][index], stable)
    summaries = []
    for k, raw in enumerate(phase["delta_replies"]):
        result = tally.check_reply(raw, f"d{k}")
        if result is not None:
            summaries.append(result)
    reader = phase["reader"]
    for offset in range(0, len(final_keys), CHECK_BATCH):
        chunk = final_keys[offset: offset + CHECK_BATCH]
        rid = f"check{offset}"
        tally.check_batch(reader.call(inputs.batch_line(rid, chunk)), rid,
                          chunk, expected)
    return {"summaries": summaries, "unstable": len(expected) - len(stable)}


def serve_batch_writes(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    graph = inputs.tenant_hierarchy()
    keys = inputs.key_space(graph)
    tenant_line = _tenant_line(graph)
    window = seconds / 2 if trace else seconds
    deltas = inputs.delta_mix(graph, seed, int(window * DELTA_RATE))
    delta_lines = [inputs.delta_line(f"d{k}", d) for k, d in enumerate(deltas)]
    warm = [keys[i: i + CHECK_BATCH] for i in range(0, len(keys), CHECK_BATCH)]

    def storm(session: Session) -> dict:
        batches = inputs.uniform_batches(keys, seed)
        if not trace:
            return _storm_phase(session, warm, batches, delta_lines, window)
        count = int(window * TRACED_BATCH_RATE)
        return _storm_phase(session, warm, itertools.islice(batches, count),
                            delta_lines, math.inf)

    if trace:
        plain = Session(tenant_line, out.tally)
        base = storm(plain)
        _verify_storm(out.tally, deltas, base)
        plain.close(out.tally)
        session = _traced_session(tenant_line, out.tally)
        phase = storm(session)
        _verify_storm(out.tally, deltas, phase)
        stats = session.close(out.tally)
        out.layers = session.layers(
            overhead=phase["cpu_per_op"] / base["cpu_per_op"] - 1.0,
            hit_ratio=_hit_ratio(stats),
            lag=phase["lag"],
            publish_share=base["publish_share"],
        )
        return out
    times, session = _setup_series(tenant_line, out.tally)
    phase = storm(session)
    checked = _verify_storm(out.tally, deltas, phase)
    session.close(out.tally)
    _setup_metrics(out, times)
    out.metrics["cpu_us_per_op"] = (phase["cpu_per_op"] * 1e6, "us")
    out.metrics["peak_rss_mb"] = (session.child.peak_rss_mb, "MB")
    out.notes["timed window s"] = round(phase["elapsed"], 3)
    out.notes["publish CPU share of the window"] = round(phase["publish_share"], 4)
    out.notes["publish CPU per delta ms"] = _ms(phase["publish_cpu"] / len(deltas))
    lag = phase["lag"]
    out.notes["throughput (queries/s)"] = round(phase["ops"] / phase["elapsed"], 2)
    out.notes.update(_latency_notes("batch", latency_summary(phase["rtts"])))
    out.notes.update(_latency_notes("delta", latency_summary(phase["delta_latency"])))
    out.notes["writer lag p50/max ms"] = (_ms(statistics.median(lag)), _ms(max(lag)))
    summaries = checked["summaries"]
    reused = sum(s["entries_reused"] for s in summaries)
    recomputed = sum(s["entries_recomputed"] for s in summaries)
    out.notes["kernel reuse ratio"] = round(reused / max(1, reused + recomputed), 4)
    out.notes["keys not checked during the storm"] = checked["unstable"]
    return out


# ----------------------------------------------------------------------
# ingest-gui
# ----------------------------------------------------------------------


_BATCH_LINE = r"^\[batch \d+\]"
_SUMMARY_LINE = r"^ingested (\d+) classes"
_PACK_LINE = r"^pack written to"


def _ingest_setup(files: list, pack: Path) -> tuple[float, float]:
    """Set-up CPU and wall seconds of one ``repro ingest`` child, which
    is then stopped at its first published batch."""
    child = Child.spawn(["ingest", "--save-pack", str(pack), *map(str, files)])
    try:
        first = child.wait_line(_BATCH_LINE)[1]
        return child.cpu_s(), first - child.spawned
    finally:
        child.kill()


def _ingest_once(files: list, pack: Path, spans: Optional[Path] = None) -> dict:
    """One ``repro ingest --save-pack`` child, timed from its output.
    CPU is read from the child when each marker line arrives."""
    child = Child.spawn(["ingest", "--save-pack", str(pack), *map(str, files)], spans)
    try:
        index, first, _ = child.wait_line(_BATCH_LINE)
        setup_cpu = child.cpu_s()
        stamps = [first]
        while True:
            index, stamp, match = child.wait_line(
                _BATCH_LINE + "|" + _SUMMARY_LINE, index + 1)
            if match.group(0).startswith("ingested"):
                ingest_cpu = child.cpu_s()
                break
            stamps.append(stamp)
        packed = child.wait_line(_PACK_LINE, index + 1)[1]
        code = child.wait()
    finally:
        child.kill()
    return {
        "setup_cpu": setup_cpu,
        "ingest_cpu": ingest_cpu,
        "setup_wall": first - child.spawned,
        "ingest_wall": stamp - child.spawned,
        "e2e_wall": packed - child.spawned,
        "intervals": [b - a for a, b in zip(stamps, stamps[1:])],
        "classes": int(match.group(1)),
        "code": code,
        "rss_mb": child.peak_rss_mb,
    }


def _verify_pack(tally: Tally, files: list, pack: Path) -> None:
    """Every (class, member) answer of the packed table against a
    from-scratch build of the corpus parsed whole, file by file."""
    from repro.core.flatpack import mmap_table
    from repro.frontend.parser import Parser
    from repro.frontend.sema import IncrementalSema
    from repro.hierarchy.graph import ClassHierarchyGraph

    graph = ClassHierarchyGraph()
    sema = IncrementalSema(graph)
    known: set = set()
    for path in files:
        unit = Parser(Path(path).read_text(), filename=str(path),
                      known_classes=known).parse()
        for decl in unit.classes():
            sema.declare(decl)
    members = sorted({m for c in graph.classes for m in graph.declared_members(c)})
    keys = [(c, m) for c in graph.classes for m in members]
    expected = reference(graph, keys)
    with mmap_table(pack) as packed:
        if packed.n_classes != len(graph):
            tally.fail(f"pack has {packed.n_classes} classes, corpus {len(graph)}")
        for key, result in zip(keys, packed.lookup_many(keys)):
            tally.attempted += 1
            if answer_of_result(result) != expected[key]:
                tally.fail(f"pack answer for {key}: {answer_of_result(result)} "
                           f"!= {expected[key]}")


def _check_ingests(tally: Tally, runs: list, packs: list) -> None:
    """Each ingest exited cleanly and wrote the same pack bytes."""
    first = packs[0].read_bytes()
    for index, (one, pack) in enumerate(zip(runs, packs)):
        tally.attempted += 1
        if one["code"] != 0:
            tally.fail(f"ingest {index} exited {one['code']}")
        elif pack.read_bytes() != first:
            tally.fail(f"ingest {index} wrote a different pack")


def ingest_gui(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    work = _workdir()
    files = inputs.write_gui_corpus(seed, work / "corpus")
    if trace:
        packs = [work / "plain.pack", work / "traced.pack"]
        base = _ingest_once(files, packs[0])
        spans = work / "spans.json"
        run = _ingest_once(files, packs[1], spans)
        _check_ingests(out.tally, [base, run], packs)
        out.layers = layer_metrics(
            json.loads(spans.read_text()), run["e2e_wall"],
            overhead=run["ingest_cpu"] / base["ingest_cpu"] - 1.0)
        out.notes["unattributed / ingest wall"] = round(
            out.layers["unattributed.busy_ms"][0] / 1e3 / run["ingest_wall"], 4)
        _verify_pack(out.tally, files, packs[1])
        return out
    runs, packs = [], []
    started = time.perf_counter()
    while len(runs) < MIN_INGESTS or time.perf_counter() - started < seconds:
        packs.append(work / f"run{len(runs)}.pack")
        runs.append(_ingest_once(files, packs[-1]))
    setups = [(r["setup_cpu"], r["setup_wall"]) for r in runs]
    while len(setups) < SETUPS:
        setups.append(_ingest_setup(files, work / "setup.pack"))
    _check_ingests(out.tally, runs, packs)
    _verify_pack(out.tally, files, packs[0])
    classes = runs[0]["classes"]
    _setup_metrics(out, setups)
    out.metrics.update({
        "cpu_us_per_op": (
            statistics.median(r["ingest_cpu"] for r in runs) / classes * 1e6, "us"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
    })
    ingest_wall = statistics.median(r["ingest_wall"] for r in runs)
    out.notes.update({
        "ingest runs": len(runs),
        "classes": classes,
        "ingest_s wall (median)": round(ingest_wall, 4),
        "throughput (classes/s)": round(classes / ingest_wall, 2),
    })
    out.notes.update(_latency_notes(
        "batch interval", latency_summary([i for r in runs for i in r["intervals"]])))
    return out
