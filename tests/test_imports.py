"""Every name a module of ``src/ctrlstab/`` or ``tests/`` imports is read
in that module.

Each module is parsed with ``ast``, not imported.  A name counts as read
when it is loaded anywhere, annotations included, when it is listed in
``__all__``, or when it is a parameter name, which is how a test asks
pytest for a fixture.  Imports from ``__future__`` bind no name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [*sorted((ROOT / "src" / "ctrlstab").glob("*.py")),
           *sorted((ROOT / "tests").glob("*.py"))]


def unread_imports(source: str) -> list:
    """The names the module ``source`` imports and never reads, in the
    order it imports them."""
    imported, read = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
