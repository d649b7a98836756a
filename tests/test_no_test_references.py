"""The full-array references over the 2^C(n,2) masks, the automorphism
listing and the copies through an edge serve only the tests, so they live in
tests/oracles.py: the package keeps no count_automorphisms, copy_count_array
or count_copies_through_edge, and no class of it has a mask_array. Code that
no command ran is gone, not moved: the degree partition, spanned truncation,
edge thinning, the empty-graph builder, the leading-order tail, and the
adjacency views of SimpleGraph."""

import importlib
import inspect
import pkgutil

import regtail
from regtail.graphs import SimpleGraph


def _modules():
    for info in pkgutil.iter_modules(regtail.__path__):
        yield importlib.import_module(f"regtail.{info.name}")


def test_package_keeps_no_test_only_reference():
    names = {f"{m.__name__}.{name}" for m in _modules() for name in vars(m)}
    assert "regtail.counting.DisjointCopies" in names
    assert "regtail.counting.count_copies" in names
    gone = ("count_automorphisms", "copy_count_array", "count_copies_through_edge")
    assert {name for name in names if name.rsplit(".", 1)[1] in gone} == set()


def test_no_event_class_has_a_mask_array():
    classes = [obj for m in _modules() for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__ == m.__name__]
    events = [cls.__name__ for cls in classes if hasattr(cls, "unions")]
    assert events == ["DisjointCopies", "HasSpannedWithCopies"]
    assert [cls.__name__ for cls in classes if hasattr(cls, "mask_array")] == []


def test_package_keeps_no_code_that_no_command_ran():
    names = {name for m in _modules() for name in vars(m)}
    gone = {"degree_partition", "DegreeProfile", "default_degree_threshold",
            "truncate_spanned", "NotEnoughCopiesError", "thin_edges", "empty_graph",
            "leading_order_tail"}
    assert "minimal_spanning_count" in names
    assert names & gone == set()


def test_simple_graph_keeps_no_adjacency_view():
    assert hasattr(SimpleGraph, "degree") and hasattr(SimpleGraph, "has_edge")
    gone = ("adj", "neighbors", "support", "is_connected", "with_edges")
    assert [name for name in gone if hasattr(SimpleGraph, name)] == []
