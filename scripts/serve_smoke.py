#!/usr/bin/env python3
"""Smoke-start the multi-tenant serving front and exercise one tenant.

CI runs this after the test suite: it spawns ``python -m repro serve``
as a real subprocess on an ephemeral port, parses the announced
address, then — over the wire — creates a tenant, runs 100 lookups
against the published snapshot, applies one delta, asserts the
generation advanced (and that the new member resolves), and shuts the
front down cleanly.  Exit code 0 means the serving tier actually
serves, not just imports.

The lookups go over a raw socket, pipelined (several requests in
flight), followed by one ``lookup_many`` over every key; each reply
line must byte-equal ``encode_line(ok_response(id,
result_to_dict(...)))`` computed by an in-process ``LookupService``
built from the same hierarchy.  Then one ``sendall`` burst mixes
lookups, an ``apply_delta`` and a ``lookup_many``: the replies must
come back in request order, the lookups behind the delta must see it,
and every line must byte-equal the in-process encoding (the local
service applies the same delta).  Last, one lookup is sent a byte per
``sendall`` and must get the same bytes.

Usage:  PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LOOKUPS = 100

#: Requests in flight at once on the raw-socket connection.
PIPELINE = 8

#: The lookup keys, cycled; "stop" resolves in every class and
#: "missing" in none.
KEYS = [
    (class_name, member)
    for member in ("run", "stop", "missing")
    for class_name in ("Base", "Middle", "Leaf")
]

HIERARCHY = {
    "format": "repro-chg",
    "version": 1,
    "classes": [
        {
            "name": "Base",
            "members": [{"name": "run"}, {"name": "stop"}],
        },
        {
            "name": "Middle",
            "bases": [{"name": "Base"}],
            "members": [{"name": "run"}],
        },
        {
            "name": "Leaf",
            "bases": [{"name": "Middle", "virtual": True}],
        },
    ],
}


def spawn_front() -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.setdefault("PYTHONUNBUFFERED", "1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 30
    while True:
        if time.monotonic() > deadline:
            proc.kill()
            raise SystemExit("serve front never announced its address")
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise SystemExit(
                f"serve front exited (rc={proc.returncode}) before "
                "announcing its address"
            )
        match = re.match(r"serving on (\S+):(\d+)", line.strip())
        if match:
            return proc, match.group(1), int(match.group(2))


def check_reply_bytes(host: str, port: int) -> None:
    """Pipeline the lookups and one ``lookup_many`` over a raw socket
    and compare every reply line byte for byte with the dict-path
    encoding of an in-process service's answer."""
    from repro.serve.protocol import encode_line, ok_response, result_to_dict
    from repro.serve.service import LookupService

    local = LookupService()
    local.add_tenant("smoke", HIERARCHY)
    assert local.lookup("smoke", "Leaf", "run").declaring_class == "Middle"
    requests = []
    expected = []
    for index in range(LOOKUPS):
        class_name, member = KEYS[index % len(KEYS)]
        request_id = index if index % 2 else f"lookup-{index}"
        requests.append(
            {
                "id": request_id,
                "op": "lookup",
                "tenant": "smoke",
                "class": class_name,
                "member": member,
            }
        )
        result = local.lookup("smoke", class_name, member)
        expected.append(
            encode_line(ok_response(request_id, result_to_dict(result)))
        )
    requests.append(
        {
            "id": "batch",
            "op": "lookup_many",
            "tenant": "smoke",
            "queries": [{"class": c, "member": m} for c, m in KEYS],
        }
    )
    results = local.lookup_many("smoke", KEYS)
    expected.append(
        encode_line(
            ok_response("batch", [result_to_dict(r) for r in results])
        )
    )
    with socket.create_connection((host, port), timeout=30) as sock:
        wire = sock.makefile("rwb")
        for start in range(0, len(requests), PIPELINE):
            window = slice(start, start + PIPELINE)
            for request in requests[window]:
                wire.write(encode_line(request))
            wire.flush()
            for want in expected[window]:
                got = wire.readline()
                assert got == want, f"reply bytes differ:\n{got!r}\n{want!r}"
        wire.close()


def check_burst_and_dribble(host: str, port: int) -> None:
    """One ``sendall`` of lookups around an ``apply_delta`` plus a
    ``lookup_many``, then one lookup dribbled a byte at a time; every
    reply is compared byte for byte, in order, with an in-process
    service that applies the same delta."""
    from repro.serve.protocol import encode_line, ok_response, result_to_dict
    from repro.serve.service import LookupService

    local = LookupService()
    local.add_tenant("smoke", HIERARCHY)
    delta = [{"op": "add_member", "class": "Leaf", "member": "missing"}]

    def lookup(request_id, class_name, member):
        request = {"id": request_id, "op": "lookup", "tenant": "smoke",
                   "class": class_name, "member": member}
        result = local.lookup("smoke", class_name, member)
        return request, encode_line(
            ok_response(request_id, result_to_dict(result))
        )

    pairs = [lookup(f"pre-{i}", *key) for i, key in enumerate(KEYS)]
    pairs.append(
        (
            {"id": "delta", "op": "apply_delta", "tenant": "smoke",
             "mutations": delta},
            encode_line(ok_response("delta", local.apply_delta("smoke", delta))),
        )
    )
    pairs += [lookup(f"post-{i}", *key) for i, key in enumerate(KEYS)]
    assert local.lookup("smoke", "Leaf", "missing").declaring_class == "Leaf"
    pairs.append(
        (
            {"id": "batch", "op": "lookup_many", "tenant": "smoke",
             "queries": [{"class": c, "member": m} for c, m in KEYS]},
            encode_line(
                ok_response(
                    "batch",
                    [result_to_dict(r) for r in local.lookup_many("smoke", KEYS)],
                )
            ),
        )
    )
    dribbled, dribbled_reply = lookup("dribble", "Leaf", "missing")
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rfile = sock.makefile("rb")
        sock.sendall(b"".join(encode_line(request) for request, _ in pairs))
        for _, want in pairs:
            got = rfile.readline()
            assert got == want, f"burst reply differs:\n{got!r}\n{want!r}"
        for byte in encode_line(dribbled):
            sock.sendall(bytes((byte,)))
        got = rfile.readline()
        assert got == dribbled_reply, (
            f"dribbled reply differs:\n{got!r}\n{dribbled_reply!r}"
        )
        rfile.close()


def main() -> int:
    from repro.serve import ServeClient

    proc, host, port = spawn_front()
    try:
        with ServeClient(host, port) as client:
            assert client.ping() == "pong", "ping failed"

            created = client.add_tenant("smoke", hierarchy=HIERARCHY)
            generation = created["generation"]

            check_reply_bytes(host, port)
            check_burst_and_dribble(host, port)

            applied = client.apply_delta(
                "smoke",
                [
                    {"op": "add_class", "name": "Extra", "members": ["go"]},
                    {"op": "add_edge", "base": "Leaf", "derived": "Extra"},
                ],
            )
            assert applied["generation"] > generation, (
                f"generation did not advance: {generation} -> "
                f"{applied['generation']}"
            )
            result = client.lookup("smoke", "Extra", "run")
            assert result["declaring_class"] == "Middle", result

            stats = client.stats("smoke")
            assert stats["tenants"]["smoke"]["lookups"] >= LOOKUPS, stats

            client.shutdown()
        proc.wait(timeout=30)
        assert proc.returncode == 0, f"front exited rc={proc.returncode}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print(
        f"serve smoke OK: {LOOKUPS} pipelined lookups and one batch "
        "byte-identical to the in-process encoding, one burst around a "
        "delta in order and byte-identical, one dribbled request, one "
        f"more delta (generation {generation} -> {applied['generation']}), "
        "clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
