import importlib
import inspect
import pkgutil

import adialab

MODULES = sorted(info.name for info in pkgutil.iter_modules(adialab.__path__))


def test_every_module_export_resolves():
    for name in MODULES:
        module = importlib.import_module(f"adialab.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"adialab.{name}.__all__ names missing {attr!r}"


def test_package_reexports_resolve_to_public_names():
    # every name the package re-exports is the defining module's own object,
    # and listed in that module's __all__ when it has one
    reexports = {
        attr: value
        for attr, value in vars(adialab).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    }
    assert reexports
    for attr, value in reexports.items():
        module = importlib.import_module(value.__module__)
        assert getattr(module, attr, None) is value, attr
        public = getattr(module, "__all__", None)
        if public is not None:
            assert attr in public, f"{attr} missing from {module.__name__}.__all__"
