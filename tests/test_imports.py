"""Every module of the package, every demo and every test file uses each name it imports.

A deletion that leaves an import behind fails here. The check reads each
file's syntax tree: a name bound by an import must occur as a name anywhere
else in the file (a call, an attribute base, an annotation or a decorator).
`__init__.py` is left out, since its imports are the package's re-exports.

The tests' slow references in `tests/reference.py` must not compute with the
code they check, so that module may import nothing from mfhxa but its error
types.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "mfhxa").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "demos").glob("*.py"))
FILES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that the rest of it never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport os.path as osp\nfrom a import b, c as d\nprint(os, d)\n"
    assert unused_imports(source) == ["line 2: osp", "line 3: b"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def mfhxa_imports(source: str) -> list[str]:
    """What `source` imports from mfhxa, in order: one entry per module, and
    one per name taken from the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += ([f"mfhxa.{alias.name}" for alias in node.names]
                      if node.module == "mfhxa" else [node.module])
    return [name for name in found if name == "mfhxa" or name.startswith("mfhxa.")]


def test_mfhxa_imports_are_found():
    source = ("import numpy, mfhxa.cli\nfrom mfhxa import errors, csvio\n"
              "from mfhxa.errors import CsvFormatError\nfrom . import x\n")
    assert mfhxa_imports(source) == ["mfhxa.cli", "mfhxa.errors", "mfhxa.csvio",
                                     "mfhxa.errors"]


def test_test_references_import_only_the_error_types():
    source = (ROOT / "tests" / "reference.py").read_text()
    assert mfhxa_imports(source) == ["mfhxa.errors"]
