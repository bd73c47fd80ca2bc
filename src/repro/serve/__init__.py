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

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import result_to_dict
from repro.serve.server import ServeFront
from repro.serve.service import (
    DuplicateTenantError,
    LookupService,
    Tenant,
    TenantStats,
    UnknownTenantError,
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
