"""Module layering of the package: its own imports form no cycle and load eagerly."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import grqn

PACKAGE = Path(grqn.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def own_imports(node):
    """Modules of the package that one import statement loads."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("grqn.")}
    if node.level == 0 and node.module and node.module.split(".")[0] == "grqn":
        parts = node.module.split(".")[1:]
    elif node.level == 1:
        parts = node.module.split(".") if node.module else []
    else:
        return set()
    if parts:
        return {parts[0]}
    return {alias.name for alias in node.names if alias.name in MODULES} or {"__init__"}


def parsed(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child.parent = parent
    return tree


def import_graph():
    graph = {}
    for name, path in MODULES.items():
        graph[name] = set()
        for node in ast.walk(parsed(path)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                graph[name] |= own_imports(node)
    return graph


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    assert graph["cli"]  # the walk finds imports at all
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_no_call_time_or_type_checking_imports():
    for name, path in MODULES.items():
        for node in ast.walk(parsed(path)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            up = node.parent
            while not isinstance(up, ast.Module):
                assert not isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)), (
                    f"{name}.py:{node.lineno} imports inside a function"
                )
                assert not isinstance(up, ast.If), f"{name}.py:{node.lineno} imports conditionally"
                up = up.parent


def test_homology_imports_nothing_from_the_package():
    assert import_graph()["homology"] == set()


def lowest_set_bit_lines(path):
    """Lines using ``x & -x``, the lowest-set-bit step of a column walk."""
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if (
                    isinstance(b, ast.UnaryOp)
                    and isinstance(b.op, ast.USub)
                    and ast.dump(b.operand) == ast.dump(a)
                ):
                    yield node.lineno


def test_only_homology_walks_the_bits_of_a_column():
    assert list(lowest_set_bit_lines(MODULES["homology"]))  # the walk finds the idiom at all
    found = [
        f"{name}.py:{line}"
        for name, path in MODULES.items()
        if name != "homology"
        for line in lowest_set_bit_lines(path)
    ]
    assert not found, f"GF(2) column arithmetic outside homology: {found}"
