"""No module of the package reads another module's private names."""

import ast
from pathlib import Path

import coregrowth

PACKAGE = Path(coregrowth.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_accesses(source: str) -> list[str]:
    """``module._name`` reads and ``from coregrowth.module import _name`` imports."""
    tree = ast.parse(source)
    aliases = set()  # local names bound to a coregrowth module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "coregrowth":
                aliases.update(a.asname or a.name for a in node.names if a.name in MODULES)
            elif node.module.startswith("coregrowth."):
                found += [f"{node.module}.{a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("coregrowth.") and a.asname:
                    aliases.add(a.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_detector_sees_both_forms():
    source = (
        "from coregrowth import chain as chain_mod, dimensions\n"
        "from coregrowth.simulate import _write, run_simulation\n"
        "chain_mod._PRIMES\n"
        "dimensions.dimension_table\n"
        "dimensions.__name__\n"
    )
    assert private_accesses(source) == ["coregrowth.simulate._write", "chain_mod._PRIMES"]


def test_no_module_reads_another_modules_private_names():
    found = {
        path.name: private_accesses(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}
