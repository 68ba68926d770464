"""Every `functools` cache in twodiag is module-level or lives on a
per-call object (a closure such as `ChristoffelData.kernel`).  A cache
on a class outlives every call and holds its instances, and a benchmark
that empties the module-level caches between operations cannot reach it."""

import importlib
import pkgutil

import twodiag


def _package_modules():
    return [importlib.import_module(f"twodiag.{info.name}")
            for info in pkgutil.iter_modules(twodiag.__path__)]


def test_no_class_carries_a_cache():
    cached = []
    for module in _package_modules():
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for name, attr in vars(cls).items():
                # plain, static and class methods, and property getters
                for fn in (attr, getattr(attr, "__func__", None), getattr(attr, "fget", None)):
                    if callable(getattr(fn, "cache_clear", None)):
                        cached.append(f"{module.__name__}.{cls.__qualname__}.{name}")
    assert cached == []


def test_module_level_caches_are_found():
    # the scan above reads the same modules in which the module-level
    # caches sit, so an empty result is not an empty scan
    modules = _package_modules()
    names = {m.__name__ for m in modules}
    assert {"twodiag.exact", "twodiag.families", "twodiag.transforms"} <= names
    assert any(callable(getattr(v, "cache_clear", None))
               for m in modules for v in vars(m).values())
