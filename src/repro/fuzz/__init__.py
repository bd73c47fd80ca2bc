"""Differential fuzzing of the lookup engines, end to end.

Seeded campaigns (:mod:`repro.fuzz.campaign`) draw hierarchies from the
generator families and the paper's adversarial shapes, perturb them with
metamorphic mutators carrying paper-derived invariants
(:mod:`repro.fuzz.mutators`), run the full query surface through every
engine/build mode, and cross-check each answer against the
subobject-poset oracle plus :func:`~repro.core.certify.certify`.
Failures are delta-debugged to minimal counterexamples
(:mod:`repro.fuzz.shrink`), persisted to the regression corpus
(:mod:`repro.fuzz.corpus`), and summarised in a JSON report
(:mod:`repro.fuzz.report`).  CLI: ``repro fuzz``.
"""

from importlib import import_module

#: The full engine matrix a campaign compares by default: the eager
#: table in its two build modes, the lazy engine replaying the hierarchy with queries interleaved between
#: declarations, plus a bare published
#: :class:`~repro.core.snapshot.TableSnapshot` (``snapshot``) and the
#: same snapshot answering every query through the columnar batch
#: gather (``columnar`` — each oracle probe goes through
#: ``lookup_many`` so the dense-array path is differentially tested).
ENGINES: tuple[str, ...] = (
    "per-member",
    "batched",
    "lazy",
    "snapshot",
    "columnar",
)

#: Every other public name and the submodule defining it.  They load on
#: first access, so ``repro fuzz --help`` can list :data:`ENGINES`
#: without importing the campaign machinery into every CLI start.
_SOURCES = {
    "Divergence": "campaign",
    "build_engine": "campaign",
    "differential_check": "campaign",
    "run_campaign": "campaign",
    "CATALOG": "cross_semantics",
    "CatalogEntry": "cross_semantics",
    "PairDivergence": "cross_semantics",
    "catalog_entry_for": "cross_semantics",
    "cross_semantics_check": "cross_semantics",
    "cross_semantics_divergences": "cross_semantics",
    "semantics_outcomes": "cross_semantics",
    "CORPUS_FORMAT": "corpus",
    "CORPUS_VERSION": "corpus",
    "CorpusEntry": "corpus",
    "entry_from_dict": "corpus",
    "entry_to_dict": "corpus",
    "iter_corpus": "corpus",
    "load_entry": "corpus",
    "replay_corpus": "corpus",
    "save_entry": "corpus",
    "MUTATORS": "mutators",
    "AppliedMutation": "mutators",
    "Mutator": "mutators",
    "copy_hierarchy": "mutators",
    "mutate": "mutators",
    "CampaignReport": "report",
    "Finding": "report",
    "ShrinkResult": "shrink",
    "shrink_hierarchy": "shrink",
}

__all__ = ["ENGINES", *_SOURCES]


def __getattr__(name: str):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{source}"), name)
