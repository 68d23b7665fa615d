"""Every top-level function of the package has a caller in the package.

A function that only its own tests call belongs in the tests.  A private
function must be named by its own module: no other module may read it.
"""

import ast
from pathlib import Path

import coregrowth

PACKAGE = Path(coregrowth.__file__).resolve().parent

# Functions that may wait for a caller, with the reason.
ALLOWED = {
    "dimensions.strong_dim_raising": "the independent second dimension engine (aim 2)",
    "chain._solve_fraction_gauss": "the tests' oracle and a perfbench probe (ROADMAP item 5)",
}


def uncalled_functions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function without a caller.

    ``sources`` maps module names to source text.  Its own module names a
    function by a plain name; another module by ``from coregrowth.<module>
    import name`` or by an attribute ``.name``, which counts only for a
    public function.  The ``def`` itself and the re-exports of ``__init__``
    do not count.
    """
    trees = {module: ast.parse(text) for module, text in sources.items() if module != "__init__"}
    names = {module: set() for module in trees}  # plain names read in the module
    external = set()  # (module, name) pairs named from another module
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                external.update((other, node.attr) for other in trees if other != module)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coregrowth."):
                external.update((node.module.split(".")[1], a.name) for a in node.names)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in names[module]
        and (node.name.startswith("_") or (module, node.name) not in external)
    ]


def test_detector_sees_every_kind_of_caller():
    sources = {
        "__init__": "from coregrowth.a import exported\n",
        "a": (
            "def called_here():\n    pass\n"
            "def imported():\n    pass\n"
            "def by_attribute():\n    pass\n"
            "def exported():\n    pass\n"
            "def shadowed():\n    pass\n"
            "def _private():\n    pass\n"
            "def _uncalled():\n    pass\n"
            "def _called_elsewhere():\n    pass\n"
            "called_here()\n"
            "_private()\n"
        ),
        "b": (
            "from coregrowth import a\n"
            "from coregrowth.a import imported\n"
            "a.by_attribute()\n"
            "a._called_elsewhere()\n"
            "shadowed = 1\n"
        ),
    }
    assert uncalled_functions(sources) == [
        "a.exported",
        "a.shadowed",
        "a._uncalled",
        "a._called_elsewhere",
    ]


def test_every_public_function_has_a_caller_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    uncalled = set(uncalled_functions(sources))
    assert uncalled - set(ALLOWED) == set()
    assert set(ALLOWED) <= uncalled, "an allowed function gained a caller: drop its entry"
