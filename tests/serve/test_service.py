"""The transport-free service core: reads answer from the tenant's
current chain head, never from a previous tenant of the same name."""

from repro.hierarchy.graph import ClassHierarchyGraph
from repro.serve.service import LookupService


def one_class(member):
    graph = ClassHierarchyGraph()
    graph.add_class("A", [member])
    return graph


def readd_tenant(service):
    """Host ``t`` with ``A{x}``, remove it, and host ``t`` again with
    ``A{y}`` — both generations of the name publish the same counter."""
    service.add_tenant("t", one_class("x"))
    first = service.tenant("t").snapshot.generation
    assert service.lookup("t", "A", "x").is_unique
    assert service.lookup_many("t", [("A", "x")])[0].is_unique
    service.remove_tenant("t")
    service.add_tenant("t", one_class("y"))
    assert service.tenant("t").snapshot.generation == first


def test_readded_tenant_never_serves_removed_answers():
    service = LookupService()
    readd_tenant(service)
    assert service.lookup("t", "A", "x").is_not_found
    assert service.lookup("t", "A", "y").is_unique
    assert service.lookup("t", "A", "x") == service.tenant(
        "t"
    ).snapshot.lookup("A", "x")


def test_readded_tenant_batch_never_serves_removed_answers():
    service = LookupService()
    readd_tenant(service)
    x, y = service.lookup_many("t", [("A", "x"), ("A", "y")])
    assert x.is_not_found
    assert y.is_unique and y.declaring_class == "A"
