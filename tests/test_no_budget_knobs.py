"""Work limits are the counting layer's decision: each engine call opens its
budget at counting.DEFAULT_MAP_BUDGET or DEFAULT_PLANTED_BUDGET, so no
public callable takes a per-call `budget`."""

import importlib
import inspect
import pkgutil

import regtail


def _public_callables():
    for info in pkgutil.iter_modules(regtail.__path__):
        module = importlib.import_module(f"regtail.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):  # its methods, and the __init__ a dataclass writes
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (attr == "__init__" or attr[0] != "_"):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def test_no_public_callable_takes_a_budget():
    callables = dict(_public_callables())
    assert "regtail.counting.planted_expectation" in callables
    assert "regtail.spanned.minimal_spanning_count" in callables
    assert "regtail.cores.SeedParams.__init__" in callables
    found = [name for name, f in callables.items()
             if "budget" in inspect.signature(f).parameters]
    assert found == []
