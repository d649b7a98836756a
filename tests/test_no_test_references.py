"""The full-array references over the 2^C(n,2) masks, the automorphism
listing and the copies through an edge serve only the tests, so they live in
tests/oracles.py: the package keeps no count_automorphisms, copy_count_array
or count_copies_through_edge, and no class of it has a mask_array."""

import importlib
import inspect
import pkgutil

import regtail


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
