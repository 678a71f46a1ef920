"""README's python blocks run as written, and every public name has a use:
a module of the package reads it, or a README example shows it."""

import ast
import re
from pathlib import Path

import rigidreg

_ROOT = Path(__file__).resolve().parents[1]
_README = _ROOT / "README.md"
_PACKAGE = Path(rigidreg.__file__).resolve().parent


def _python_blocks():
    text = _README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def _read_names(node, skip=None):
    """Names a tree reads, as a name or as an attribute, leaving out ``skip``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    names.discard(skip)
    return names


def _module_uses(path):
    """Names a module reads outside the definition each one names: a
    function or class that only calls itself is not a use of it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = set()
    for node in tree.body:
        defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        own = node.name if defines else None
        used |= _read_names(node, own)
    return used


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    # one namespace, in document order, so a block may use what an
    # earlier one made; files the examples write land in a temp directory
    blocks = _python_blocks()
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_every_public_name_is_used_in_the_package_or_the_readme():
    # a name only its own tests call belongs in the tests, not in __all__
    used = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        used |= _module_uses(path)
    for block in _python_blocks():
        used |= _read_names(ast.parse(block))
    unused = sorted(set(rigidreg.__all__) - used)
    assert not unused, f"public names with no use: {unused}"
