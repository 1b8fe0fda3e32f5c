"""Every public name is used outside the tests, and one module owns the net.

A name in ``netsketch.__all__`` or in a module's ``__all__`` that no library
module and no benchmark script reads is code that only tests call.  This
walks the package modules (not ``__init__.py``, which only re-exports) and
``perfbench/*.py`` and lists the public names that none of them loads.

``nets`` alone builds the decoders, from a net's ``NetPlan``: no other
module constructs one, and ``function_classes``, which supplies only the
hooks the net is walked through, loads neither.

An operator's ``frame`` is the sketch map ``R = sqrt(d / n) Q`` itself, so
only ``jl``, which scales it, and ``reconstructor``, whose noise level is
stated in unscaled units, read ``scale``; ``nets`` reads an operator only
through ``frame``, ``n`` and ``d``, and only a decoder's ``_operator_terms``
reads the frame, once per operator; and ``jl`` loads nothing from
``hilbert``.

A decoder holds nothing per operator: ``prepare`` returns the net under an
operator to its caller, so ``nets`` needs no lock and no weak reference.

``hilbert`` owns the basis constants ``TWO_PI`` and ``_SQRT_2PI``: every
other module imports them.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _used_names(path: Path, imports_count: bool) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif imports_count and isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


MODULES = sorted(
    path.stem for path in (ROOT / "src" / "netsketch").glob("*.py") if not path.stem.startswith("__")
)
DECODERS = {"FactoredStepDecoder", "ConfigurationDecoder"}


def _tree(module: str) -> ast.AST:
    return ast.parse((ROOT / "src" / "netsketch" / f"{module}.py").read_text(encoding="utf-8"))


def test_every_public_name_is_used_outside_the_tests():
    used: set[str] = set()
    for path in sorted((ROOT / "src" / "netsketch").glob("*.py")):
        if path.name != "__init__.py":
            used |= _used_names(path, imports_count=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _used_names(path, imports_count=True)
    unused = {
        name: sorted(set(getattr(importlib.import_module(name), "__all__", ())) - used)
        for name in ["netsketch", *(f"netsketch.{module}" for module in MODULES)]
    }
    assert {name: names for name, names in unused.items() if names} == {}


def test_function_classes_loads_no_decoder():
    loaded = _used_names(ROOT / "src" / "netsketch" / "function_classes.py", imports_count=True)
    assert sorted(loaded & DECODERS) == []


@pytest.mark.parametrize("module", [module for module in MODULES if module != "nets"])
def test_only_nets_constructs_a_decoder(module):
    built = [
        node.lineno
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in DECODERS or getattr(node.func, "attr", None) in DECODERS)
    ]
    assert built == []


@pytest.mark.parametrize("module", [module for module in MODULES if module not in {"jl", "reconstructor"}])
def test_only_jl_and_reconstructor_read_the_scale(module):
    read = [
        node.lineno for node in ast.walk(_tree(module)) if isinstance(node, ast.Attribute) and node.attr == "scale"
    ]
    assert read == []


def test_nets_reads_an_operator_only_through_its_frame_and_shape():
    read = {
        node.attr
        for node in ast.walk(_tree("nets"))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "operator"
    }
    assert read and read <= {"frame", "n", "d"}


def test_only_operator_terms_in_nets_read_the_frame():
    readers = {
        (function.name, node.lineno)
        for function in ast.walk(_tree("nets"))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "frame"
    }
    assert readers and {name for name, _ in readers} == {"_operator_terms"}


def _imported(module: str) -> set[str]:
    imported = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def test_jl_imports_nothing_from_hilbert():
    assert sorted(name for name in _imported("jl") if "hilbert" in name) == []


def test_nets_imports_no_lock_or_weak_reference():
    assert sorted(_imported("nets") & {"threading", "weakref"}) == []


def test_hilbert_alone_defines_the_basis_constants():
    constants = {"TWO_PI", "_SQRT_2PI"}
    defined = {
        module: sorted(
            target.id
            for node in ast.walk(_tree(module))
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in constants
        )
        for module in MODULES
    }
    assert {module: names for module, names in defined.items() if names} == {"hilbert": sorted(constants)}
