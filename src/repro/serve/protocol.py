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
paper §5 tabulates the answer itself: :func:`result_json` encodes a
cell once and memoises the bytes on the result object, and
:func:`ok_line` wraps such a fragment in the success envelope by byte
joins.  Published snapshots memoise their cells and copy-on-write
children share the cells outside a delta's cone by reference, so a warm
fragment travels with its cell across every publish that leaves it
alone; a re-swept cell is a fresh object that encodes on first use.
The bytes equal ``encode_line(ok_response(id, result_to_dict(r)))``
exactly.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.paths import OMEGA, Abstraction
from repro.core.results import LookupResult

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

#: Wire tag for the Ω abstraction (distinct from any plausible class name).
OMEGA_TAG = "Ω!"

#: ``json.dumps(..., ensure_ascii=False)`` without building an encoder
#: per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _encode_abstraction(value: Optional[Abstraction]) -> Optional[str]:
    if value is None:
        return None
    return OMEGA_TAG if value is OMEGA else value


def result_to_dict(result: LookupResult) -> dict:
    """A :class:`~repro.core.results.LookupResult` as a JSON-safe dict.

    ``status`` is the enum's string value (``"unique"``,
    ``"ambiguous"``, ``"not-found"``); the witness path becomes
    ``{"nodes": [...], "virtuals": [...]}``; Ω becomes :data:`OMEGA_TAG`;
    blue abstractions are emitted sorted so output is deterministic."""
    out: dict = {
        "class": result.class_name,
        "member": result.member,
        "status": result.status.value,
    }
    if result.declaring_class is not None:
        out["declaring_class"] = result.declaring_class
    if result.least_virtual is not None:
        out["least_virtual"] = _encode_abstraction(result.least_virtual)
    if result.witness is not None:
        out["witness"] = {
            "nodes": list(result.witness.nodes),
            "virtuals": [bool(v) for v in result.witness.virtuals],
        }
    if result.blue_abstractions:
        out["blue_abstractions"] = sorted(
            _encode_abstraction(a) for a in result.blue_abstractions
        )
    if result.candidates:
        out["candidates"] = list(result.candidates)
    return out


def result_json(result: LookupResult) -> bytes:
    """The UTF-8 JSON encoding of :func:`result_to_dict` ``(result)``,
    computed once per result object and memoised on it.

    The memo is an attribute outside the dataclass fields, so equality,
    hashing, ``repr`` and pickling ignore it.  Racing readers can only
    store equal bytes.  A result no layout memoises (a fresh
    ``not_found_result``, say) simply encodes again on its next call."""
    try:
        return result._wire_json
    except AttributeError:
        pass
    fragment = _ENCODER.encode(result_to_dict(result)).encode("utf-8")
    # LookupResult is frozen: store around its __setattr__ guard.
    object.__setattr__(result, "_wire_json", fragment)
    return fragment


def ok_line(request_id, fragment: bytes) -> bytes:
    """The success line for an already-encoded ``result`` fragment:
    byte-identical to ``encode_line(ok_response(request_id, value))``
    when ``fragment`` is the JSON encoding of ``value``."""
    if type(request_id) is int:  # the usual id; bool is not int here
        encoded_id = b"%d" % request_id
    else:
        encoded_id = _ENCODER.encode(request_id).encode("utf-8")
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
    return _ENCODER.encode(payload).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one wire line back into a message dict.

    Raises ``ValueError`` when the line is not a JSON object."""
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("protocol messages must be JSON objects")
    return payload
