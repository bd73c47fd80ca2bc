"""The persisted regression corpus: shrunk counterexamples as JSON.

Every hierarchy on which any engine ever diverged from the
subobject-poset oracle is worth keeping forever: it re-runs in
milliseconds and pins the exact shape that once broke a lookup engine
(the paper's Figure 9 — a five-class hierarchy that g++ 2.7.2.1 got
wrong — is the founding entry).  Corpus entries live as one JSON file
per find under ``tests/corpus/``, wrapping the hierarchy in the existing
``repro-chg`` serialisation format plus provenance metadata:

.. code-block:: json

    {
      "format": "repro-fuzz-corpus",
      "version": 1,
      "meta": {"name": "...", "description": "...", "origin": "..."},
      "hierarchy": { "format": "repro-chg", ... }
    }

The campaign appends new shrunk finds here automatically
(``repro fuzz --corpus tests/corpus``); every campaign and the
``tests/fuzz/test_corpus_replay.py`` gate replay the whole directory
through the full engine matrix first, so a find can never regress
silently.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.hierarchy.graph import ClassHierarchyGraph
from repro.hierarchy.serialize import (
    SerializationError,
    hierarchy_from_dict,
    hierarchy_to_dict,
)

__all__ = [
    "CORPUS_FORMAT",
    "CORPUS_VERSION",
    "CorpusEntry",
    "entry_from_dict",
    "entry_to_dict",
    "iter_corpus",
    "load_entry",
    "replay_corpus",
    "save_entry",
]

#: The ``format`` tag every corpus file carries.
CORPUS_FORMAT = "repro-fuzz-corpus"
#: Current corpus schema version.
CORPUS_VERSION = 1


@dataclass
class CorpusEntry:
    """One persisted counterexample: a hierarchy plus its provenance."""

    name: str
    description: str
    hierarchy: ClassHierarchyGraph
    origin: str = "manual"
    meta: dict[str, Any] = field(default_factory=dict)
    path: Optional[Path] = None

    def slug(self) -> str:
        """Filesystem-safe stem derived from :attr:`name`."""
        slug = re.sub(r"[^a-z0-9]+", "-", self.name.lower()).strip("-")
        return slug or "entry"


def entry_to_dict(entry: CorpusEntry) -> dict[str, Any]:
    """The JSON document for ``entry`` (stable, versioned)."""
    meta: dict[str, Any] = {
        "name": entry.name,
        "description": entry.description,
        "origin": entry.origin,
    }
    meta.update(entry.meta)
    return {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "meta": meta,
        "hierarchy": hierarchy_to_dict(entry.hierarchy),
    }


def entry_from_dict(data: dict[str, Any]) -> CorpusEntry:
    """Parse a corpus document back into a :class:`CorpusEntry`."""
    if not isinstance(data, dict) or data.get("format") != CORPUS_FORMAT:
        raise SerializationError("not a repro-fuzz-corpus document")
    if data.get("version") != CORPUS_VERSION:
        raise SerializationError(
            f"unsupported corpus version: {data.get('version')!r}"
        )
    meta = dict(data.get("meta") or {})
    name = meta.pop("name", "unnamed")
    description = meta.pop("description", "")
    origin = meta.pop("origin", "manual")
    return CorpusEntry(
        name=name,
        description=description,
        hierarchy=hierarchy_from_dict(data["hierarchy"]),
        origin=origin,
        meta=meta,
    )


def save_entry(directory: Path | str, entry: CorpusEntry) -> Path:
    """Write ``entry`` under ``directory`` (created if missing) as
    ``<slug>.json``, suffixing ``-2``, ``-3``, ... on collision; returns
    the path written (also recorded on ``entry.path``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    slug = entry.slug()
    path = directory / f"{slug}.json"
    counter = 2
    while path.exists():
        path = directory / f"{slug}-{counter}.json"
        counter += 1
    path.write_text(json.dumps(entry_to_dict(entry), indent=2) + "\n")
    entry.path = path
    return path


def load_entry(path: Path | str) -> CorpusEntry:
    """Load one corpus file."""
    path = Path(path)
    entry = entry_from_dict(json.loads(path.read_text()))
    entry.path = path
    return entry


def iter_corpus(directory: Path | str) -> Iterator[CorpusEntry]:
    """All entries under ``directory``, in sorted filename order (an
    absent directory yields nothing)."""
    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.json")):
        yield load_entry(path)


def replay_corpus(
    directory: Path | str,
    *,
    engines: Optional[tuple[str, ...]] = None,
) -> tuple[int, list]:
    """Replay every corpus entry through the engine matrix against the
    oracle; returns ``(entries_replayed, findings)`` where each finding
    is a :class:`~repro.fuzz.report.Finding` of kind ``"replay"``."""
    from repro.fuzz import ENGINES
    from repro.fuzz.campaign import differential_check
    from repro.fuzz.report import Finding

    engines = engines if engines is not None else ENGINES
    replayed = 0
    findings: list[Finding] = []
    for entry in iter_corpus(directory):
        replayed += 1
        divergences, _queries, _certs = differential_check(
            entry.hierarchy, engines=engines
        )
        for divergence in divergences:
            findings.append(
                Finding(
                    iteration=-1,
                    engine=divergence.engine,
                    kind="replay",
                    family=f"corpus:{entry.name}",
                    detail=divergence.detail,
                    class_name=divergence.class_name,
                    member=divergence.member,
                    corpus_path=str(entry.path) if entry.path else None,
                )
            )
    return replayed, findings
