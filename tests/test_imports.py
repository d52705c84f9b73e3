"""Every module under ``whoosh_novo_ray`` imports.

A dangling import of a deleted or renamed module fails here instead of at
its first use. A missing third-party optional dependency skips the module
(the suite stays honest about what this environment cannot run)."""

import importlib
import pkgutil

import pytest

import whoosh_novo_ray


def _module_names() -> list[str]:
    # a package whose __init__ fails to import is reported through onerror;
    # keep it in the list so its test fails rather than vanishing
    broken: list[str] = []
    names = [
        info.name
        for info in pkgutil.walk_packages(
            whoosh_novo_ray.__path__, "whoosh_novo_ray.", onerror=broken.append
        )
    ]
    return sorted({*names, *broken})


@pytest.mark.parametrize("name", _module_names())
def test_module_imports(name):
    try:
        importlib.import_module(name)
    except ModuleNotFoundError as e:
        if (e.name or "").split(".")[0] == "whoosh_novo_ray":
            raise
        pytest.skip(f"optional dependency {e.name!r} is not installed")
