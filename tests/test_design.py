"""Design measures of the package that a change must not let grow unseen."""
import ast
from pathlib import Path

import hypercalc

# Settable values and source lines after the last change that moved them.  A
# new option or added code raises its number in the same diff that gives the
# reason.
SETTABLE_VALUES = 74
SOURCE_LINES = 4573


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaults(fn):
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def settable_values(package_dir):
    """Defaulted parameters of module-level functions and of methods, plus
    defaulted dataclass fields; nested functions are not counted."""
    count = 0
    for path in sorted(Path(package_dir).glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += _defaults(node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        count += _defaults(item)
                    elif (isinstance(item, ast.AnnAssign) and item.value is not None
                          and _is_dataclass(node)):
                        count += 1
    return count


def test_settable_values_do_not_grow():
    assert settable_values(Path(hypercalc.__file__).parent) <= SETTABLE_VALUES


def test_source_lines_do_not_grow():
    package = Path(hypercalc.__file__).parent
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    assert lines <= SOURCE_LINES


def package_imports(package_dir):
    """Module -> the package modules it names in a ``from .`` import, at any
    depth: an import inside a function counts."""
    graph = {}
    for path in sorted(Path(package_dir).glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else [a.name for a in node.names])
        graph[path.stem] = deps
    return graph


def test_package_imports_form_no_cycle():
    # peel off modules that import nothing left; what remains is on a cycle
    # or imports one
    remaining = package_imports(Path(hypercalc.__file__).parent)
    while leaves := [m for m, deps in remaining.items() if not deps & remaining.keys()]:
        for m in leaves:
            del remaining[m]
    assert not remaining, f"import cycle in or below {sorted(remaining)}"
