"""Every ``repro`` name the README's python blocks import must resolve.

The README is the first API reference a reader meets; a snippet that
imports a deleted or moved function advertises an API that is gone.
The blocks are parsed, not run (they build large graphs), so only their
``from repro... import ...`` and ``import repro...`` statements are
checked.
"""

import ast
import importlib
import re
import textwrap
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^([ \t]*)```python\n(.*?)^\1```", re.MULTILINE | re.DOTALL)


def readme_imports():
    """``(module, name)`` for every repro import in the python blocks;
    ``name`` is None for a plain ``import repro...``."""
    blocks = [textwrap.dedent(m.group(2)) for m in BLOCK.finditer(README.read_text())]
    assert blocks, "no python blocks found in README.md"
    found = []
    for code in blocks:
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "repro"]
    return found


def resolves(module, name):
    """Whether ``from module import name`` (or ``import module``) works."""
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_readme_repro_imports_resolve():
    imports = readme_imports()
    assert imports, "the README's python blocks import nothing from repro"
    missing = [f"{m}.{n}" if n else m for m, n in imports if not resolves(m, n)]
    assert missing == [], f"README imports names that do not exist: {missing}"
