"""The library's public surface: no top-level name serves only the tests."""

import ast
import importlib
from pathlib import Path

import transversal

PACKAGE = Path(transversal.__file__).parent

#: Public names no other library code needs to reference.  family_to_dict is
#: the family-file writer: no command writes families, but tests round-trip it.
ALLOWED = {"family_to_dict"}


def _parse_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_is_used_by_the_library():
    modules = _parse_modules()
    used = set().union(*(_referenced_names(tree) for name, tree in modules.items()
                         if name != "__init__"))
    public = {f"{module}.{node.name}"
              for module, tree in modules.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unused = sorted(name for name in public
                    if name.split(".")[1] not in used | ALLOWED)
    assert unused == []


def test_every_exported_name_exists():
    """Each name in the package's and every module's ``__all__`` is defined."""
    modules = [transversal] + [importlib.import_module(f"transversal.{stem}")
                               for stem in _parse_modules() if not stem.startswith("__")]
    missing = sorted(f"{module.__name__}.{name}" for module in modules
                     for name in getattr(module, "__all__", ())
                     if not hasattr(module, name))
    assert missing == []
