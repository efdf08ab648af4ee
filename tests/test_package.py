"""The package root: lazy exports that load a submodule on first use."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import aspmagic


def test_every_export_is_the_defining_modules_object():
    assert len(aspmagic.__all__) == len(set(aspmagic.__all__)) == 63
    for name in aspmagic.__all__:
        value = getattr(aspmagic, name)
        home = importlib.import_module(f"aspmagic.{aspmagic._HOME[name]}")
        assert getattr(home, name) is value
        if inspect.isfunction(value) or (
            isinstance(value, type) and not isinstance(value, types.GenericAlias)
        ):
            assert value.__module__ == home.__name__  # defined there


def test_exports_match_each_modules_all():
    for module, names in aspmagic._EXPORTS.items():
        home = importlib.import_module(f"aspmagic.{module}")
        assert set(names) == set(home.__all__), module


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
     "AdornedRule", "default_sips", "adorn", "generate", "modify",
     "print_query", "sc_candidate_atoms", "build_query_seed", "benchmark_json"],
)
def test_removed_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(aspmagic, name)


def test_magic_variant_takes_no_ground_cap():
    assert "ground_cap" not in inspect.signature(aspmagic.magic_variant).parameters


def _private_semantics_names(tree: ast.Module) -> set[str]:
    """The private names of ``aspmagic.semantics`` a module imports or
    reads as an attribute of the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == "semantics")
            or node.module == "aspmagic.semantics"
        ):
            names.update(a.name for a in node.names if a.name.startswith("_"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "semantics"
            and node.attr.startswith("_")
        ):
            names.add(node.attr)
    return names


def test_semantics_keeps_its_fact_keys_and_search_private():
    # Neighbours pass atoms and ask one question each: how a fact is keyed
    # and how the search is driven stay inside semantics.
    allowed = {"harness": {"_trial_answers"}, "analysis": {"_consistent"}}
    modules = sorted(Path(aspmagic.__file__).parent.glob("*.py"))
    assert {"analysis", "cli", "harness", "semantics"} <= {m.stem for m in modules}
    for module in modules:
        if module.stem != "semantics":
            tree = ast.parse(module.read_text(), filename=str(module))
            assert _private_semantics_names(tree) == allowed.get(module.stem, set()), (
                module.stem
            )
