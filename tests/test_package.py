"""The package's public API is the union of its modules' ``__all__`` lists."""

import importlib
import types

import seifert

MODULES = ["errors", "invariant", "orbifold", "hvf", "lens", "homotopy", "notation"]


def test_package_exports_each_module_all():
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"seifert.{name}")
        assert hasattr(module, "__all__"), name
        for public in module.__all__:
            assert public not in owner, (public, owner.get(public), name)
            owner[public] = name
            assert getattr(seifert, public) is getattr(module, public), public
    others = {
        attr
        for attr, value in vars(seifert).items()
        if not attr.startswith("_")
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"seifert.{attr}")
    }
    assert others == set(owner)
