"""Answer verification against from-scratch reference builds.

An answer is compared in a canonical form: the lookup status, the
declaring class and the sorted candidate classes.  The reference is a
fresh :class:`~repro.core.lookup.MemberLookupTable` in its default
per-member mode, a different build path from the batched snapshots the
server and the ingest pipeline publish.  It tracks no witness paths,
which the canonical answer does not compare.
"""

from __future__ import annotations

import json


def answer(status: str, declaring, candidates) -> tuple:
    return (status, declaring, tuple(sorted(candidates or ())))


def answer_of_result(result) -> tuple:
    """Canonical answer of an in-process ``LookupResult``."""
    return answer(result.status.value, result.declaring_class, result.candidates)


def answer_of_wire(result: dict) -> tuple:
    """Canonical answer of a wire result dict."""
    return answer(result.get("status"), result.get("declaring_class"),
                  result.get("candidates"))


def reference(graph, keys) -> dict:
    """``{(class, member): answer}`` from a from-scratch build."""
    from repro.core.lookup import MemberLookupTable

    table = MemberLookupTable(graph, track_witnesses=False)
    return {key: answer_of_result(table.lookup(*key)) for key in set(keys)}


class Tally:
    """Counts attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if self.first_failure is None:
            self.first_failure = why

    def check_reply(self, raw: bytes, rid, expected=None) -> object:
        """Decode one reply, count it as attempted, and count it failed
        on a bad line, a wrong ``id``, an error reply, or a result that
        differs from ``expected`` (a canonical answer, when given).
        Returns the result, or ``None`` when it failed."""
        self.attempted += 1
        try:
            reply = json.loads(raw)
        except ValueError:
            self.fail(f"undecodable reply to {rid!r}: {raw[:80]!r}")
            return None
        if not isinstance(reply, dict) or reply.get("id") != rid:
            self.fail(f"reply out of order: wanted {rid!r}, got {str(reply)[:80]}")
            return None
        if not reply.get("ok"):
            self.fail(f"error reply to {rid!r}: {reply.get('error')}")
            return None
        result = reply.get("result")
        if expected is not None and answer_of_wire(result) != expected:
            self.fail(f"wrong answer to {rid!r}: {answer_of_wire(result)} "
                      f"!= {expected}")
            return None
        return result

    def check_batch(self, raw: bytes, rid, keys, expected: dict) -> None:
        """Verify a ``lookup_many`` reply query by query: each query is
        one attempted operation; keys absent from ``expected`` are
        counted but not compared."""
        results = self.check_reply(raw, rid)
        if results is None:
            self.attempted += len(keys) - 1
            self.failed += len(keys) - 1
            return
        self.attempted += len(keys) - 1
        if not isinstance(results, list) or len(results) != len(keys):
            self.fail(f"batch {rid!r} has {len(results)} results", len(keys))
            return
        for key, result in zip(keys, results):
            want = expected.get(key)
            if want is not None and answer_of_wire(result) != want:
                self.fail(f"wrong answer for {key} in batch {rid!r}: "
                          f"{answer_of_wire(result)} != {want}")
