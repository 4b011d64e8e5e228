"""Quality gates swept over every library module: each public item
carries a docstring, and each name an annotation uses is defined."""

import ast
import builtins
import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.split(".")[-1].startswith("_")
]


def public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.getmodule(member) is not module:
            continue  # re-export; documented at its home
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, member in public_members(module):
        if not inspect.getdoc(member):
            missing.append(name)
        if inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue
                if not (inspect.isfunction(method) or isinstance(method, property)):
                    continue
                target = method.fget if isinstance(method, property) else method
                if target is not None and not inspect.getdoc(target):
                    missing.append(f"{name}.{method_name}")
    assert not missing, f"{module_name}: missing docstrings on {missing}"


def module_scope_names(tree):
    """Names bound at module level, also under ``if TYPE_CHECKING:`` /
    ``try:`` (not inside functions or classes)."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            continue
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                names.add(child.id)
        for field in ("body", "orelse", "finalbody", "handlers"):
            stack.extend(getattr(node, field, []))
    return names


def annotations(tree):
    """Every annotation expression in *tree*, string annotations parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (
                *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                arguments.vararg, arguments.kwarg,
            ):
                if argument is not None and argument.annotation is not None:
                    yield argument.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def annotation_names(annotation):
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue  # a Literal["..."] value, not a forward reference
            for _, name in annotation_names(parsed):
                yield node.lineno, name


@pytest.mark.parametrize("module_name", MODULES)
def test_annotations_use_defined_names(module_name):
    """An annotation naming an unimported ``Set`` reads fine until
    ``typing.get_type_hints`` evaluates it; this finds it statically."""
    module = importlib.import_module(module_name)
    tree = ast.parse(inspect.getsource(module))
    defined = module_scope_names(tree) | set(dir(builtins))
    undefined = sorted(
        f"line {line}: {name}"
        for annotation in annotations(tree)
        for line, name in annotation_names(annotation)
        if name not in defined
    )
    assert not undefined, f"{module_name}: undefined names in annotations: {undefined}"
