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

from repro._lazy import export_lazily

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

#: Every other public name, by the submodule defining it.  They load
#: on first access, so ``repro fuzz --help`` can list :data:`ENGINES`
#: without importing the campaign machinery into every CLI start.
_EXPORTS = {
    "repro.fuzz.campaign": (
        "Divergence",
        "build_engine",
        "differential_check",
        "run_campaign",
    ),
    "repro.fuzz.cross_semantics": (
        "CATALOG",
        "CatalogEntry",
        "PairDivergence",
        "catalog_entry_for",
        "cross_semantics_check",
        "cross_semantics_divergences",
        "semantics_outcomes",
    ),
    "repro.fuzz.corpus": (
        "CORPUS_FORMAT",
        "CORPUS_VERSION",
        "CorpusEntry",
        "entry_from_dict",
        "entry_to_dict",
        "iter_corpus",
        "load_entry",
        "replay_corpus",
        "save_entry",
    ),
    "repro.fuzz.mutators": (
        "MUTATORS",
        "AppliedMutation",
        "Mutator",
        "copy_hierarchy",
        "mutate",
    ),
    "repro.fuzz.report": ("CampaignReport", "Finding"),
    "repro.fuzz.shrink": ("ShrinkResult", "shrink_hierarchy"),
}
export_lazily(__name__, _EXPORTS)

__all__ = ["ENGINES", *(name for names in _EXPORTS.values() for name in names)]
