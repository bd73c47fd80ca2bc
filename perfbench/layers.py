"""Per-layer attribution of a traced run.

The traced end-to-end time is split into layer self times plus a
residual, so the layers and ``unattributed`` sum to it exactly:

* serve workloads: spawn -> ``serving on``, plus the client round trip
  of every request the benchmark timed.  Each round trip is the
  request's server-side span (first span start to last span end, all
  spans sharing its id) plus ``server.transport``; for ``apply_delta``
  the part of the server-side span no top-level span covers is
  ``server.writer_wait`` (queue, executor hop, dispatch).
* ingest: spawn -> ``pack written`` line, with every span.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.stats import self_times

#: Layers reported with ``.calls``, ``.busy_ms`` (self time) and
#: ``.p50_ms`` (median self time per call), named after the modules.
LAYERS = (
    "process.startup",
    "protocol.decode",
    "protocol.result_to_dict",
    "protocol.encode",
    "server.transport",
    "server.writer_wait",
    "service.lookup",
    "service.lookup_many",
    "service.apply_delta",
    "service.add_tenant",
    "hierarchy.from_dict",
    "cache.get",
    "snapshot.lookup",
    "snapshot.apply_delta",
    "columnar.lookup_many",
    "columnar.from_rows",
    "columnar.apply_delta",
    "fastpath.build",
    "fastpath.apply_delta",
    "kernel.sweep",
    "kernel.cone_sweep",
    "hierarchy.compile",
    "hierarchy.describe_delta",
    "frontend.lex",
    "frontend.parse",
    "frontend.sema",
    "ingest.read",
    "ingest.stream",
    "ingest.flush",
    "flatpack.pack",
)

#: Ratios and counts reported next to the layer table.
EXTRAS = (
    ("unattributed.busy_ms", "ms"),
    ("unattributed.share", "ratio"),
    ("trace.e2e_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("kernel.reuse_ratio", "ratio"),
    ("kernel.cone_classes", "classes"),
    ("writer.lag_ms", "ms"),
    ("writer.cpu_share", "ratio"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.busy_ms", "ms"),
                  (f"{layer}.p50_ms", "ms")]
    return names + list(EXTRAS)


def attribute(doc: dict, e2e_s: float, requests=None) -> dict:
    """``{layer: [self seconds per call]}`` plus ``"unattributed"``.

    ``requests`` are the client's ``(id, kind, sent, received)``
    records; when given, only spans of those requests (and the process
    start-up) count and the transport and writer-wait layers are
    derived.  Without it every span counts."""
    spans = doc["spans"]
    own = self_times(spans)
    samples: dict = defaultdict(list)
    if requests is None:
        chosen = spans
    else:
        by_rid = defaultdict(list)
        for span in spans:
            by_rid[span[5]].append(span)
        chosen = [s for s in spans if s[1] == "process.startup"]
        for rid, kind, sent, received in requests:
            mine = by_rid.get(rid, ())
            rtt = received - sent
            if not mine:
                samples["server.transport"].append(rtt)
                continue
            chosen += mine
            server = (max(s[3] for s in mine) - min(s[2] for s in mine)) / 1e9
            samples["server.transport"].append(rtt - server)
            if kind == "delta":
                top = sum(s[3] - s[2] for s in mine if s[4] == -1) / 1e9
                samples["server.writer_wait"].append(server - top)
    for span in chosen:
        samples[span[1]].append(own[span[0]] / 1e9)
    samples["unattributed"] = [e2e_s - sum(sum(v) for v in samples.values())]
    return samples


def layer_metrics(doc: dict, e2e_s: float, *, requests=None, overhead: float,
                  hit_ratio: float = 0.0, lag=None,
                  publish_share: float = 0.0) -> dict:
    """The per-layer metric dict ``{name: (value, unit)}``."""
    samples = attribute(doc, e2e_s, requests)
    out = {}
    for layer in LAYERS:
        values = samples.get(layer, [])
        out[f"{layer}.calls"] = (len(values), "count")
        out[f"{layer}.busy_ms"] = (sum(values) * 1e3, "ms")
        out[f"{layer}.p50_ms"] = (
            statistics.median(values) * 1e3 if values else 0.0, "ms")
    residual = samples["unattributed"][0]
    publishes = doc.get("publishes", [])
    reused = sum(p[0] for p in publishes)
    recomputed = sum(p[1] for p in publishes)
    out.update({
        "unattributed.busy_ms": (residual * 1e3, "ms"),
        "unattributed.share": (residual / e2e_s, "ratio"),
        "trace.e2e_ms": (e2e_s * 1e3, "ms"),
        "trace.overhead": (overhead, "ratio"),
        "cache.hit_ratio": (hit_ratio, "ratio"),
        "kernel.reuse_ratio": (
            reused / (reused + recomputed) if reused + recomputed else 0.0, "ratio"),
        "kernel.cone_classes": (
            statistics.mean(p[2] for p in publishes) if publishes else 0.0,
            "classes"),
        "writer.lag_ms": (statistics.median(lag) * 1e3 if lag else 0.0, "ms"),
        "writer.cpu_share": (publish_share, "ratio"),
    })
    return out
