"""The package's public list is the union of its modules' ``__all__`` lists."""

import importlib
import pkgutil
from collections import Counter
from types import ModuleType

import nnentropy

MODULES = [
    importlib.import_module(f"nnentropy.{info.name}")
    for info in pkgutil.iter_modules(nnentropy.__path__)
]


def test_each_public_name_is_declared_once():
    assert [name for name, count in Counter(nnentropy.__all__).items() if count > 1] == []
    for name in nnentropy.__all__:
        if name == "__version__":
            continue
        owners = [m for m in MODULES if name in getattr(m, "__all__", ())]
        assert len(owners) == 1, (name, [m.__name__ for m in owners])
        assert getattr(nnentropy, name) is getattr(owners[0], name)


def test_init_defines_no_public_name_of_its_own():
    defined = {
        name
        for name, value in vars(nnentropy).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert defined == set(nnentropy.__all__) - {"__version__"}
