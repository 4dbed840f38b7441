"""Shared fixtures."""

import importlib
import pkgutil

import pytest

import emchan


@pytest.fixture(scope="session")
def package_modules() -> list:
    """Every module of the emchan package, imported, in name order."""
    return [importlib.import_module(f"emchan.{info.name}")
            for info in sorted(pkgutil.iter_modules(emchan.__path__), key=lambda i: i.name)]
