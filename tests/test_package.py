"""The package root: lazy exports that load a submodule on first use."""

import importlib
import inspect
import types

import pytest

import aspmagic


def test_every_export_is_the_defining_modules_object():
    assert len(aspmagic.__all__) == len(set(aspmagic.__all__)) == 64
    for name in aspmagic.__all__:
        value = getattr(aspmagic, name)
        home = importlib.import_module(f"aspmagic.{aspmagic._HOME[name]}")
        assert getattr(home, name) is value
        if inspect.isfunction(value) or (
            isinstance(value, type) and not isinstance(value, types.GenericAlias)
        ):
            assert value.__module__ == home.__name__  # defined there


def test_star_import_and_dir_cover_every_export():
    namespace: dict = {}
    exec("from aspmagic import *", namespace)
    assert set(aspmagic.__all__) <= set(namespace)
    assert namespace["Program"] is aspmagic.Program
    assert set(aspmagic.__all__) <= set(dir(aspmagic))
    assert {"semantics", "harness", "__version__"} <= set(dir(aspmagic))


def test_submodule_attribute_imports_the_submodule(monkeypatch):
    lifting = importlib.import_module("aspmagic.lifting")
    monkeypatch.delattr(aspmagic, "lifting")  # as if never imported
    assert aspmagic.lifting is lifting


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        aspmagic.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from aspmagic import no_such_name", {})
    assert not hasattr(aspmagic, "_no_such_private")


@pytest.mark.parametrize(
    "name",
    ["GroundProgram", "reduct", "is_model", "brave", "cautious", "Sips",
     "AdornedRule", "default_sips", "adorn", "generate", "modify"],
)
def test_removed_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(aspmagic, name)
