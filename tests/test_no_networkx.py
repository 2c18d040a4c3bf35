"""The package, its tests, benchmarks and examples run on numpy alone.

networkx is not a dependency: every random regular graph comes from
:func:`repro.bipartite.configuration_model_regular`.  Each ``.py`` file
is parsed, not imported, so an import inside a function body counts too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")


def networkx_import_lines(source: str):
    """Line numbers of the ``import networkx...`` / ``from networkx...``
    statements anywhere in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "networkx" for m in modules):
            yield node.lineno


def test_detects_nested_imports():
    source = (
        "import os\n"
        "def f():\n"
        "    from networkx.algorithms import x\n"
        "    import networkx as nx\n"
    )
    assert list(networkx_import_lines(source)) == [3, 4]


def test_no_networkx_import():
    files = [p for tree in TREES for p in sorted((ROOT / tree).rglob("*.py"))]
    assert len(files) > 100, f"expected the whole tree, scanned {len(files)} files"
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in files
        for line in networkx_import_lines(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"networkx imports: {found}"
