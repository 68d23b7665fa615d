"""Each rule has one home: only the module that owns it names the functions behind it.

``dimensions`` alone knows the tableaux table's key (a core), so it alone
names ``dimension_table``.  ``chain.growth_steps`` is the one rule for a
growth step, so only ``chain`` names ``weak_covers_bounded`` and
``grown_column``, besides ``posets``, which defines them, and the
re-exports of ``__init__``.  ``partitions.stack_row`` is the push-right
rule from a bounded partition to its core: ``partitions`` folds it into
``bounded_to_core`` and ``posets`` stacks each level of cores with it, and
no other module has a copy.  ``chain.step_target`` is the one rule for the
reduced target of a growth step, which ``chain`` applies to every cover and
``cli`` to every TASEP jump that ``tasep`` prints.
"""

import ast
from pathlib import Path

import coregrowth

PACKAGE = Path(coregrowth.__file__).resolve().parent

OWNERS = {
    "dimension_table": {"dimensions"},
    "weak_covers_bounded": {"chain", "posets", "__init__"},
    "grown_column": {"chain", "posets", "__init__"},
    "stack_row": {"partitions", "posets", "__init__"},
    "step_target": {"chain", "cli"},
}


def names_in(source: str) -> set[str]:
    """Every name a module reads, imports or defines; strings and comments do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.FunctionDef):
            found.add(node.name)
    return found


def test_detector_sees_every_kind_of_name():
    source = (
        '"""Mentions dimension_table only in prose."""\n'
        "from coregrowth.posets import grown_column as column\n"
        "from coregrowth import dimensions\n"
        "dimensions.dimension_table(3, 4)\n"
        "weak_covers_bounded\n"
        "partitions.stack_row\n"
        "from coregrowth.chain import step_target\n"
        "def growth_steps():\n    pass\n"
    )
    assert names_in(source) & OWNERS.keys() == set(OWNERS)
    assert names_in('"dimension_table"  # grown_column\n') & OWNERS.keys() == set()
    assert "growth_steps" in names_in(source)


def test_only_the_owner_names_a_rule():
    trespasses = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in names_in(path.read_text(encoding="utf-8")) & OWNERS.keys()
        if path.stem not in OWNERS[name]
    }
    assert trespasses == set()
