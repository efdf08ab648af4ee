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
    # and how the search is driven stay inside semantics.  The harness
    # also has a check's draws numbered once for both sides.  The oracle
    # only decodes its models as the search does.
    allowed = {
        "harness": {"_number", "_trial_answers"},
        "analysis": {"_consistent"},
        "oracle": {"_interpretation"},
    }
    modules = sorted(Path(aspmagic.__file__).parent.glob("*.py"))
    assert {"analysis", "cli", "harness", "semantics"} <= {m.stem for m in modules}
    for module in modules:
        if module.stem != "semantics":
            tree = ast.parse(module.read_text(), filename=str(module))
            assert _private_semantics_names(tree) == allowed.get(module.stem, set()), (
                module.stem
            )


def _names_read(tree: ast.Module) -> set[str]:
    """The names a module reads, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_only_the_rewriter_decodes_magic_names():
    # Neighbours reach a magic atom through ``magic_atom`` and the
    # rewriting's adorned predicates: how magic predicates are named stays
    # inside the rewriter.
    decoding = {"split_magic_name", "MAGIC_PREFIX"}
    modules = sorted(Path(aspmagic.__file__).parent.glob("*.py"))
    assert {"lifting", "rewriter"} <= {m.stem for m in modules}
    readers = {
        module.stem
        for module in modules
        if decoding & _names_read(ast.parse(module.read_text(), filename=str(module)))
    }
    assert readers == {"rewriter"}


def _modules_imported(tree: ast.Module) -> set[str]:
    """The modules a module imports, each as the last part of its dotted
    name, with the names taken by ``from ... import``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(a.name for a in node.names)
    return names


def test_the_oracle_shares_no_code_with_the_search():
    # The oracle cross-checks the search, so it reads none of the search's
    # routines, and the search never reaches back into the oracle.
    search = {
        "_closure", "_stable_models", "_minimal_models_masks", "_grounder",
        "_ground_coded", "_compile", "_mask_form",
        "_trial_groundings", "_search_answers", "_trial_answers",
        "answer_sets", "answer_query", "ground",
    }
    home = Path(aspmagic.__file__).parent
    semantics = ast.parse((home / "semantics.py").read_text())
    assert search <= {
        node.name for node in semantics.body if isinstance(node, ast.FunctionDef)
    }
    oracle = ast.parse((home / "oracle.py").read_text())
    assert not search & _names_read(oracle)
    assert "semantics" in _modules_imported(oracle)
    assert "oracle" not in _modules_imported(semantics) | _names_read(semantics)
