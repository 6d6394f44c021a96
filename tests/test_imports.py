"""The package's modules reach each other only through public names."""

import ast
from pathlib import Path

import proxyvote

SRC = Path(proxyvote.__file__).parent


def private_imports(path) -> list[str]:
    """Each underscore-prefixed name that the module at path imports from
    another module of the package, as "module.name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "proxyvote"):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    found = {p.name: private_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_sees_a_relative_and_an_absolute_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nfrom os import _exit\n"
                    "from .synth import _load_pgm, csv_text\n"
                    "from proxyvote.trainer import _beta\n")
    assert private_imports(path) == ["synth._load_pgm", "proxyvote.trainer._beta"]
