"""Lint: no module of the package imports a name it never uses, no
module-level private name goes unread, and no module-level public name or
public method or property of a class goes unnamed outside its own
definition.

No linter ships with the test dependencies, so this walks each module's
syntax tree.  ``__init__`` is exempt from the import check: its imports
are the public API.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rsfield"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_lint_sees_an_unused_import():
    source = "from .errors import NonHermitianError, NotPhysicalError\nraise NotPhysicalError\n"
    assert unused_imports(source) == ["NonHermitianError"]


def _defined(node) -> set:
    """The names a module-level statement defines: a function, a class or
    the plain names it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _read(tree) -> set:
    """The names a syntax tree reads: by name, as an attribute or through an
    import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict) -> list:
    """Module-level ``_name`` functions, classes and constants, over the
    modules ``sources`` maps to their text, that no module reads: by name,
    as an attribute or through an import."""
    defined, read = set(), set()
    for source in sources.values():
        tree = ast.parse(source)
        for node in tree.body:
            defined |= _defined(node)
        read |= _read(tree)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_no_unread_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_lint_sees_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 1\ndef _used():\n    return _LIMIT\ndef _left():\n    pass\n",
        "b": "from .a import _used\nfrom . import a\n_used()\n_kept = a._helper\n",
        "c": "def _helper():\n    pass\n",
    }
    assert unread_private_names(sources) == ["_kept", "_left"]


def orphaned_public_names(package: dict, others: dict, docs: str) -> list:
    """Module-level public functions, classes and constants of the modules
    ``package`` maps to their text that no module-level statement of
    ``package`` or ``others`` other than their own definition reads (by name,
    as an attribute or through an import) and that ``docs`` does not name as
    a word.  Dunder and private names are exempt."""
    trees = [ast.parse(source) for source in [*package.values(), *others.values()]]
    public = {name for tree in trees[:len(package)] for node in tree.body
              for name in _defined(node) if not name.startswith("_")}
    named = {name for tree in trees for node in tree.body for name in _read(node) - _defined(node)}
    named |= {name for name in public if re.search(rf"\b{name}\b", docs)}
    return sorted(public - named)


def _repo_sources() -> tuple:
    """(the package's modules, the tests and demos, README) as texts."""
    package = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "src").rglob("*.py")}
    others = {str(p): p.read_text(encoding="utf-8")
              for folder in ("tests", "demos") for p in (ROOT / folder).rglob("*.py")}
    return package, others, (ROOT / "README.md").read_text(encoding="utf-8")


def test_no_orphaned_public_names():
    assert orphaned_public_names(*_repo_sources()) == []


def test_lint_sees_an_orphaned_public_name():
    package = {
        "a": "LIMIT = 2\nSPARE = 3\ndef used():\n    return LIMIT\n"
             "def left():\n    return left()\nclass Told:\n    pass\n"
             "__version__ = '1'\n_hidden = 0\n",
        "b": "from .a import used\n",
    }
    others = {"test_a": "import a\nassert a.SPARE\n"}
    assert orphaned_public_names(package, others, "`Told` is documented; leftover") == ["left"]


def orphaned_public_members(package: dict, others: dict, docs: str) -> list:
    """Public methods and properties, as ``Class.name``, of the module-level
    classes of ``package`` that no module of ``package`` or ``others`` reads
    as an attribute outside the member's own body and that ``docs`` does not
    name as a word.  Dunder and private members are exempt."""
    trees = [ast.parse(source) for source in [*package.values(), *others.values()]]
    reads = Counter(node.attr for tree in trees for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    orphaned = []
    for tree in trees[:len(package)]:
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                own = sum(isinstance(node, ast.Attribute) and node.attr == member.name
                          for node in ast.walk(member))
                if reads[member.name] <= own and not re.search(rf"\b{member.name}\b", docs):
                    orphaned.append(f"{cls.name}.{member.name}")
    return sorted(orphaned)


def test_no_orphaned_public_members():
    assert orphaned_public_members(*_repo_sources()) == []


def test_lint_sees_an_orphaned_public_member():
    package = {
        "a": "class Map:\n    x = 1\n    @property\n    def size(self):\n        return 2\n"
             "    def used(self):\n        return self.size\n"
             "    def left(self):\n        return self.left()\n"
             "    def told(self):\n        pass\n    def _hidden(self):\n        pass\n"
             "    def __len__(self):\n        return 0\n"
             "class Spare:\n    @property\n    def spare(self):\n        return 0\n",
    }
    others = {"test_a": "import a\nassert a.Map().used()\n"}
    assert orphaned_public_members(package, others, "`told` is documented") == [
        "Map.left", "Spare.spare",
    ]
