"""The newline-JSON wire protocol of the serving front.

One request per line, one response per line, UTF-8 JSON either way.
Requests carry ``{"id": ..., "op": ..., ...}``; responses echo the
``id`` and carry either ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": {"type": ..., "message": ...}}``.  The ``id``
is opaque to the server — clients use it to match pipelined responses.

Lookup results cross the wire as plain dicts (see
:func:`result_to_dict`), with Ω encoded by the ``"Ω!"`` tag, so a
client can round-trip answers without importing the core types.
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
    "ok_response",
    "result_to_dict",
]

#: Wire tag for the Ω abstraction (distinct from any plausible class name).
OMEGA_TAG = "Ω!"


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
    return json.dumps(payload, ensure_ascii=False).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one wire line back into a message dict.

    Raises ``ValueError`` when the line is not a JSON object."""
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("protocol messages must be JSON objects")
    return payload
