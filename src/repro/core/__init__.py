"""The paper's primary contribution: formalism and efficient lookup."""

from repro.core.certify import Certificate, certify, certify_table
from repro.core.columnar import (
    HAVE_NUMPY,
    ColumnarColumn,
    ColumnarStats,
    ColumnarTable,
    EntryPool,
)
from repro.core.dominance import (
    abstract_dominates,
    dominates_paths,
    hides,
    is_partial_order,
    maximal_set,
    most_dominant,
)
from repro.core.enumeration import (
    count_paths_to,
    defns_paths,
    iter_paths_between,
    iter_paths_to,
)
from repro.core.equivalence import SubobjectKey, equivalent, subobject_key
from repro.core.fastpath import (
    AmbiguousColumnError,
    FastPathStats,
    FlatColumn,
    FlatTable,
    build_flat_table,
    flatten_column,
)
from repro.core.kernel import AmbiguityCertificate
from repro.core.lazy import LazyMemberLookup
from repro.core.lookup import (
    BlueEntry,
    DeltaStats,
    LookupStats,
    MemberLookupTable,
    RedEntry,
    build_lookup_table,
    lookup,
)
from repro.core.snapshot import TableSnapshot
from repro.core.paths import OMEGA, Abstraction, Path, extend_abstraction, path_in
from repro.core.results import (
    LookupResult,
    LookupStatus,
    ambiguous_result,
    not_found_result,
    unique_result,
)
from repro.core.flatpack import TableSerializationError
from repro.core.using_decls import (
    UnderlyingEntity,
    follow_using,
    lookup_through_using,
    validate_using_declarations,
)
from repro.core.static_lookup import (
    StaticAwareLookupTable,
    StaticBlueEntry,
    StaticRedEntry,
)

__all__ = [
    "AmbiguityCertificate",
    "AmbiguousColumnError",
    "Certificate",
    "ColumnarColumn",
    "ColumnarStats",
    "ColumnarTable",
    "EntryPool",
    "FastPathStats",
    "FlatColumn",
    "FlatTable",
    "HAVE_NUMPY",
    "OMEGA",
    "Abstraction",
    "BlueEntry",
    "DeltaStats",
    "LazyMemberLookup",
    "LookupResult",
    "LookupStats",
    "LookupStatus",
    "MemberLookupTable",
    "Path",
    "RedEntry",
    "StaticAwareLookupTable",
    "StaticBlueEntry",
    "StaticRedEntry",
    "SubobjectKey",
    "TableSerializationError",
    "TableSnapshot",
    "UnderlyingEntity",
    "abstract_dominates",
    "ambiguous_result",
    "build_flat_table",
    "build_lookup_table",
    "certify",
    "certify_table",
    "count_paths_to",
    "defns_paths",
    "dominates_paths",
    "equivalent",
    "extend_abstraction",
    "flatten_column",
    "follow_using",
    "hides",
    "is_partial_order",
    "iter_paths_between",
    "iter_paths_to",
    "lookup",
    "lookup_through_using",
    "maximal_set",
    "most_dominant",
    "not_found_result",
    "path_in",
    "subobject_key",
    "unique_result",
    "validate_using_declarations",
]
