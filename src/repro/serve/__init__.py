"""Multi-tenant snapshot serving: lock-free reads over published tables.

This package is the service tier above :mod:`repro.core.snapshot`: a
:class:`~repro.serve.service.LookupService` hosts many named tenant
hierarchies, each owning an immutable generation-stamped snapshot
chain that every read answers from directly.
:class:`~repro.serve.server.ServeFront` exposes the service over an
asyncio newline-JSON endpoint (``repro serve``) with one writer task
per tenant serializing its deltas, and
:class:`~repro.serve.client.ServeClient` is the matching blocking
client.
"""

from repro._lazy import export_lazily

export_lazily(
    __name__,
    {
        "repro.serve.client": ("ServeClient", "ServeClientError"),
        "repro.serve.protocol": ("result_to_dict",),
        "repro.serve.server": ("ServeFront",),
        "repro.serve.service": (
            "DuplicateTenantError",
            "LookupService",
            "Tenant",
            "TenantStats",
            "UnknownTenantError",
        ),
    },
)

__all__ = [
    "DuplicateTenantError",
    "LookupService",
    "ServeClient",
    "ServeClientError",
    "ServeFront",
    "Tenant",
    "TenantStats",
    "UnknownTenantError",
    "result_to_dict",
]
