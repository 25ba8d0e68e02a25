"""The library's public surface: no top-level name serves only the tests."""

import ast
import importlib
import inspect
import math
import warnings
from pathlib import Path

import pytest

import transversal
from transversal import separator

PACKAGE = Path(transversal.__file__).parent

#: Public names no other library code needs to reference.
ALLOWED: set[str] = set()

#: Defaulted parameters no library call needs to set.  Tests and the
#: benchmark call main(argv) in-process; the console script calls main().
ALLOWED_DEFAULTS = {"cli.main.argv"}


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


def _public_definitions(tree: ast.Module):
    """(qualified name, name) of each public function and class, and of each
    public method and property of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{node.name}.{fn.name}", fn.name


def test_every_public_definition_is_used_by_the_library():
    modules = _parse_modules()
    used = set().union(*(_referenced_names(tree) for name, tree in modules.items()
                         if name != "__init__"))
    unused = sorted(f"{module}.{qualified}"
                    for module, tree in modules.items()
                    for qualified, name in _public_definitions(tree)
                    if name not in used | ALLOWED)
    assert unused == []


def _signatures(tree: ast.Module):
    """(qualified name, callee, parameters, defaulted) of each public
    function, public method and dataclass.  ``parameters`` are the names a
    caller can pass positionally, in order; ``defaulted`` are the names
    that have a default, keyword-only ones included."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, *_arguments(node.args)
        else:
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                yield node.name, node.name, [f.target.id for f in fields], \
                    {f.target.id for f in fields if f.value is not None}
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    static = "staticmethod" in map(ast.unparse, fn.decorator_list)
                    names, defaulted = _arguments(fn.args)
                    yield f"{node.name}.{fn.name}", fn.name, \
                        names if static else names[1:], defaulted


def _arguments(args: ast.arguments):
    names = [a.arg for a in args.posonlyargs + args.args]
    defaulted = set(names[len(names) - len(args.defaults):])
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None}
    return names, defaulted


def _calls(tree: ast.Module):
    """(callee name, positional count, keyword names) of each call; a
    starred argument counts as every position and ** as every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        yield name, math.inf if starred else len(node.args), \
            {k.arg for k in node.keywords}


def test_every_default_is_set_by_some_library_call():
    """A defaulted parameter that no library call sets, by position or by
    keyword, is a knob only tests can turn."""
    modules = _parse_modules()
    calls = [call for tree in modules.values() for call in _calls(tree)]
    unset = sorted(
        f"{module}.{qualified}.{param}"
        for module, tree in modules.items()
        for qualified, callee, names, defaulted in _signatures(tree)
        for param in defaulted
        if f"{module}.{qualified}.{param}" not in ALLOWED_DEFAULTS
        and not any(name == callee and (param in keywords or None in keywords
                                        or names.index(param) < count)
                    for name, count, keywords in calls))
    assert unset == []


def test_no_default_is_set_by_every_library_call():
    """A defaulted parameter that every library call sets repeats a value
    that lives with the callers: the default is dead, the parameter is
    required."""
    modules = _parse_modules()
    calls = [call for tree in modules.values() for call in _calls(tree)]
    always_set = sorted(
        f"{module}.{qualified}.{param}"
        for module, tree in modules.items()
        for qualified, callee, names, defaulted in _signatures(tree)
        for param in defaulted
        if (own := [(count, keywords) for name, count, keywords in calls
                    if name == callee])
        and all(param in keywords or None in keywords
                or names.index(param) < count for count, keywords in own))
    assert always_set == []


#: numpy's generator and seeding constructors.
RNG_CONSTRUCTORS = {"default_rng", "SeedSequence", "RandomState", "Generator"}


def test_keyed_rng_is_the_one_generator_constructor():
    """Every random stream comes from geometry._keyed_rng: no other
    top-level definition of the library calls a numpy generator or seeding
    constructor."""
    callers = {f"{module}.{getattr(node, 'name', f'line {node.lineno}')}"
               for module, tree in _parse_modules().items()
               for node in tree.body
               for name, _, _ in _calls(node)
               if name in RNG_CONSTRUCTORS}
    assert callers == {"geometry._keyed_rng"}


def test_gram_schmidt_frames_is_the_one_orthonormalization_kernel():
    """Frames are orthonormalized by geometry._gram_schmidt_frames alone:
    no other top-level definition of the library is named so, only
    separator.adapt_basis refers to a QR (its raw Householder factors feed
    its lift), and nothing refers to matrix_rank."""
    modules = _parse_modules()
    kernels = {f"{module}.{node.name}" for module, tree in modules.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "_gram_schmidt_frames"}
    assert kernels == {"geometry._gram_schmidt_frames"}
    users = {name: {f"{module}.{getattr(node, 'name', f'line {node.lineno}')}"
                    for module, tree in modules.items()
                    for node in tree.body
                    if name in _referenced_names(node)}
             for name in ("qr", "matrix_rank")}
    assert users == {"qr": {"separator.adapt_basis"}, "matrix_rank": set()}


#: (module, function) of the calls that decode JSON.
JSON_DECODERS = {("json", "loads"), ("json", "load"), ("orjson", "loads")}


def test_familyio_is_the_one_json_reader():
    """The input format lives in one module: no other library module calls
    json.loads, json.load or orjson.loads, or imports them by name."""
    readers = set()
    for module, tree in _parse_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and (node.func.value.id, node.func.attr) in JSON_DECODERS:
                readers.add(module)
            elif isinstance(node, ast.ImportFrom) and any(
                    (node.module, alias.name) in JSON_DECODERS for alias in node.names):
                readers.add(module)
    assert readers == {"familyio"}


def test_adapt_basis_keeps_its_first_parameter_name():
    """The benchmark's span counter reads adapt_basis's rows by the name of
    its first parameter, v_list, when it is passed by keyword."""
    assert next(iter(inspect.signature(separator.adapt_basis).parameters)) == "v_list"


def test_every_exported_name_exists():
    """Each name in the package's and every module's ``__all__`` is defined."""
    modules = [transversal] + [importlib.import_module(f"transversal.{stem}")
                               for stem in _parse_modules() if not stem.startswith("__")]
    missing = sorted(f"{module.__name__}.{name}" for module in modules
                     for name in getattr(module, "__all__", ())
                     if not hasattr(module, name))
    assert missing == []


def test_deprecation_warnings_from_the_library_fail_the_suite():
    """The suite turns a DeprecationWarning into an error.  The one message
    it ignores comes from a third-party import that hypothesis makes when it
    reports a failing example."""
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("old call", DeprecationWarning, "separator.py", 1,
                               module="transversal.separator")
    warnings.warn("mypy_extensions.TypedDict is deprecated, and will be removed",
                  DeprecationWarning)
