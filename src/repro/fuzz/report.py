"""Campaign reports: what was fuzzed, what was compared, what diverged.

A :class:`CampaignReport` is the single artifact a differential campaign
produces: iteration/coverage counters, the engine matrix that was
compared, every :class:`Finding` (with its shrunk counterexample when
the shrinker ran), and a stable JSON form — CI uploads it, the nightly
job archives it, and the tests assert on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Finding:
    """One divergence discovered by a campaign (or a corpus replay).

    ``kind`` classifies the failure:

    * ``"mismatch"`` — an engine answered differently from the
      subobject-poset oracle (:class:`~repro.subobjects.reference.ReferenceLookup`);
    * ``"exception"`` — an engine raised while answering a query;
    * ``"build-error"`` — an engine could not even be constructed;
    * ``"certificate"`` — :func:`repro.core.certify.certify` rejected an
      engine's result;
    * ``"invariant"`` — a metamorphic mutator's paper-derived invariant
      was violated by the lookup table;
    * ``"stale-cache"`` — the one-shot lookup's per-graph memo served a
      row that does not match the post-mutation hierarchy;
    * ``"delta-storm"`` — a table maintained through
      :meth:`~repro.core.lookup.MemberLookupTable.apply_delta` across a
      burst of mutations disagrees with a from-scratch rebuild or the
      oracle;
    * ``"cross-semantics"`` — two dispatch semantics disagreed in a way
      the divergence catalog (:mod:`repro.fuzz.cross_semantics`) does
      not document (``engine`` carries the pair as ``"left|right"``);
    * ``"replay"`` — a persisted corpus entry no longer replays clean;
    * ``"roundtrip"`` — a hierarchy emitted as C++ source
      (:func:`repro.workloads.emit_cpp`) did not analyse back to the
      identical graph (or the frontend diagnosed errors on it).
    """

    iteration: int
    engine: str
    kind: str
    family: str
    detail: str
    class_name: Optional[str] = None
    member: Optional[str] = None
    mutations: tuple[str, ...] = ()
    original_classes: Optional[int] = None
    shrunk_classes: Optional[int] = None
    shrink_attempts: Optional[int] = None
    shrunk_hierarchy: Optional[dict] = None
    corpus_path: Optional[str] = None

    @property
    def shrink_ratio(self) -> Optional[float]:
        """Final/initial class count of the shrink (1.0 = no reduction;
        ``None`` when the shrinker did not run on this finding)."""
        if not self.original_classes or self.shrunk_classes is None:
            return None
        return self.shrunk_classes / self.original_classes

    def to_dict(self) -> dict[str, Any]:
        return {
            "iteration": self.iteration,
            "engine": self.engine,
            "kind": self.kind,
            "family": self.family,
            "class": self.class_name,
            "member": self.member,
            "detail": self.detail,
            "mutations": list(self.mutations),
            "original_classes": self.original_classes,
            "shrunk_classes": self.shrunk_classes,
            "shrink_ratio": self.shrink_ratio,
            "shrink_attempts": self.shrink_attempts,
            "shrunk_hierarchy": self.shrunk_hierarchy,
            "corpus_path": self.corpus_path,
        }


@dataclass
class CampaignReport:
    """The full outcome of one differential fuzzing campaign."""

    seed: int
    budget: int
    engines: tuple[str, ...]
    semantics: tuple[str, ...] = ()
    iterations: int = 0
    elapsed: float = 0.0
    stopped_by: str = "budget"  # "budget" | "time"
    queries_checked: int = 0
    certificates_checked: int = 0
    invariant_checks: int = 0
    delta_storms: int = 0
    snapshot_chains: int = 0
    cross_semantics_checks: int = 0
    catalogued_divergences: int = 0
    roundtrips: int = 0
    corpus_replayed: int = 0
    families: dict[str, int] = field(default_factory=dict)
    mutations: dict[str, int] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)

    @property
    def disagreements(self) -> int:
        return len(self.findings)

    @property
    def exit_code(self) -> int:
        """Process exit code the CLI propagates: nonzero iff any engine
        diverged (or a corpus entry failed to replay)."""
        return 1 if self.findings else 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "repro-fuzz-report",
            "version": 1,
            "seed": self.seed,
            "budget": self.budget,
            "engines": list(self.engines),
            "semantics": list(self.semantics),
            "iterations": self.iterations,
            "elapsed_seconds": round(self.elapsed, 3),
            "stopped_by": self.stopped_by,
            "queries_checked": self.queries_checked,
            "certificates_checked": self.certificates_checked,
            "invariant_checks": self.invariant_checks,
            "delta_storms": self.delta_storms,
            "snapshot_chains": self.snapshot_chains,
            "cross_semantics_checks": self.cross_semantics_checks,
            "catalogued_divergences": self.catalogued_divergences,
            "roundtrips": self.roundtrips,
            "corpus_replayed": self.corpus_replayed,
            "families": dict(sorted(self.families.items())),
            "mutations": dict(sorted(self.mutations.items())),
            "disagreements": self.disagreements,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable campaign summary (what the CLI prints)."""
        lines = [
            f"fuzz campaign: seed={self.seed} budget={self.budget} "
            f"iterations={self.iterations} ({self.stopped_by} exhausted) "
            f"in {self.elapsed:.1f}s",
            f"  engines: {', '.join(self.engines)}",
            f"  queries cross-checked against the subobject-poset oracle: "
            f"{self.queries_checked}",
            f"  results certified (translation validation): "
            f"{self.certificates_checked}",
            f"  metamorphic invariant checks: {self.invariant_checks}",
        ]
        if self.delta_storms:
            lines.append(
                f"  delta storms absorbed via apply_delta: "
                f"{self.delta_storms}"
            )
        if self.snapshot_chains:
            lines.append(
                f"  snapshot chains stormed (publish/retire): "
                f"{self.snapshot_chains}"
            )
        if self.cross_semantics_checks:
            lines.append(
                f"  cross-semantics pairs diffed: "
                f"{self.cross_semantics_checks} "
                f"({', '.join(self.semantics)}); "
                f"catalogued divergences: {self.catalogued_divergences}"
            )
        if self.roundtrips:
            lines.append(
                f"  emit_cpp round-trips verified: {self.roundtrips}"
            )
        if self.corpus_replayed:
            lines.append(f"  corpus entries replayed: {self.corpus_replayed}")
        if self.families:
            drawn = ", ".join(
                f"{name}×{count}"
                for name, count in sorted(self.families.items())
            )
            lines.append(f"  families drawn: {drawn}")
        if self.mutations:
            applied = ", ".join(
                f"{name}×{count}"
                for name, count in sorted(self.mutations.items())
            )
            lines.append(f"  mutations applied: {applied}")
        if not self.findings:
            lines.append("  disagreements: none — all engines agree")
            return "\n".join(lines)
        lines.append(f"  DISAGREEMENTS: {self.disagreements}")
        for finding in self.findings:
            query = (
                f" on {finding.class_name}::{finding.member}"
                if finding.class_name is not None
                else ""
            )
            shrink = ""
            if finding.shrunk_classes is not None:
                shrink = (
                    f" [shrunk {finding.original_classes} -> "
                    f"{finding.shrunk_classes} classes]"
                )
            corpus = (
                f" -> {finding.corpus_path}" if finding.corpus_path else ""
            )
            lines.append(
                f"    #{finding.iteration} {finding.engine} "
                f"({finding.kind}, {finding.family}){query}: "
                f"{finding.detail}{shrink}{corpus}"
            )
        return "\n".join(lines)
