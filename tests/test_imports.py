"""Every module of the package except ``__init__`` uses each name it
imports: a refactor that deletes the last use of a name deletes its import
too.  Read with ``ast``, so the check needs no linter.

Start-up stays cheap: no module imports ``dataclasses``, whose classes
compile their methods from source when they are made (``lattice.record``
makes the package's records), and importing the CLI loads neither it nor
``inspect``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "branchkit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_check_sees_an_unused_import():
    assert "quaternionic.py" in MODULES
    source = "import os\nfrom math import comb, gcd\nfrom .x import y as z\nprint(gcd)\n"
    assert unused_imports(source) == ["comb", "os", "z"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules the source imports."""
    tree = ast.parse(source)
    return ({a.name.partition(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names}
            | {node.module.partition(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module and not node.level})


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_does_not_import_dataclasses(module):
    assert "dataclasses" not in imported_modules((PACKAGE / module).read_text())


def test_the_import_check_sees_dataclasses():
    source = "import dataclasses.x\nfrom dataclasses import dataclass\nfrom .dataclasses import y\n"
    assert imported_modules(source) == {"dataclasses"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; before = set(sys.modules); import branchkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.split() == ["[]"]
