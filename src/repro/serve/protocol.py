"""The newline-JSON wire protocol of the serving front.

One request per line, one response per line, UTF-8 JSON either way.
Requests carry ``{"id": ..., "op": ..., ...}``; responses echo the
``id`` and carry either ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": {"type": ..., "message": ...}}``.  The ``id``
is opaque to the server — clients use it to match pipelined responses.

Lookup results cross the wire as plain dicts (see
:func:`result_to_dict`), with Ω encoded by the ``"Ω!"`` tag, so a
client can round-trip answers without importing the core types.

The wire form of a lookup answer is tabulated per result cell, the way
paper §5 tabulates the answer itself.  :func:`result_to_dict`,
:func:`result_json` (one answer's fragment) and :data:`OMEGA_TAG` live
in :mod:`repro.core.results`, because the columnar serving layout
(:mod:`repro.core.columnar`) memoises each cell as its fragment bytes;
this module re-exports them.  :func:`ok_line` wraps such a fragment in
the success envelope by byte joins, so a ``lookup`` reply is
``ok_line(id, fragment)`` and a ``lookup_many`` reply joins the batch's
fragments.  Copy-on-write children share the cells outside a delta's
cone by reference, so a warm fragment travels with its cell across
every publish that leaves it alone; a re-swept cell encodes on first
use.  The bytes equal ``encode_line(ok_response(id, result_to_dict(r)))``
exactly.
"""

from __future__ import annotations

import json

from repro.core.results import (
    OMEGA_TAG,
    json_bytes,
    result_json,
    result_to_dict,
)

__all__ = [
    "OMEGA_TAG",
    "decode_line",
    "encode_line",
    "error_response",
    "ok_line",
    "ok_response",
    "result_json",
    "result_to_dict",
]


def ok_line(request_id, fragment: bytes) -> bytes:
    """The success line for an already-encoded ``result`` fragment:
    byte-identical to ``encode_line(ok_response(request_id, value))``
    when ``fragment`` is the JSON encoding of ``value``."""
    if type(request_id) is int:  # the usual id; bool is not int here
        encoded_id = b"%d" % request_id
    else:
        encoded_id = json_bytes(request_id)
    return b'{"id": %s, "ok": true, "result": %s}\n' % (encoded_id, fragment)


def ok_response(request_id, result) -> dict:
    """A success envelope echoing the request ``id``."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, error: BaseException) -> dict:
    """A failure envelope carrying the exception's type and message."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


def encode_line(payload: dict) -> bytes:
    """One protocol message as a UTF-8 JSON line (trailing newline)."""
    return json_bytes(payload) + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one wire line back into a message dict.

    Raises ``ValueError`` when the line is not a JSON object."""
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("protocol messages must be JSON objects")
    return payload
