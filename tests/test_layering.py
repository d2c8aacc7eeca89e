"""Module layering of the package: its own imports form no cycle and load eagerly."""

import ast
import importlib
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import grqn
from grqn import young

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


def absolute_imports(path):
    """(line, module) for each module a file imports by absolute name."""
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_no_process_pool_in_the_package():
    # A sweep forks its own workers, so no launch loads either pool package.
    assert "os" in {module for _, module in absolute_imports(MODULES["cli"])}  # the scan works
    found = [
        f"{name}.py:{line} imports {module}"
        for name, path in MODULES.items()
        for line, module in absolute_imports(path)
        if module.split(".")[0] in ("concurrent", "multiprocessing")
    ]
    assert not found, found


def test_only_the_fork_map_forks():
    # One fork site, whose exit kills and reaps every worker it forked: the
    # sweep's workers and the cofiber's twist worker both come from it.
    found = {
        f"{name}.{enclosing(node)}"
        for name, path in MODULES.items()
        for node in references(parsed(path), "fork")
    }
    assert found == {"cli._fork_map"}


def hand_codec(tree):
    """The JSON names, hex formats and hex parses in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "json":
            yield ast.unparse(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = [*node.args, *(kw.value for kw in node.keywords)]
            given = [arg.value for arg in args if isinstance(arg, ast.Constant)]
            hex_format = node.func.id == "format" and any("x" in str(c) for c in given)
            if hex_format or node.func.id == "int" and 16 in given:
                yield ast.unparse(node)


def test_only_the_fork_map_knows_the_pipe_codec():
    # A worker's results cross the pipe as themselves, in one codec that only
    # the fork map names, so neither the map nor its callers encode by hand.
    found = {
        f"{name}.{enclosing(node).split('.')[0]}"  # the map's own nested functions count as it
        for name, path in MODULES.items()
        for node in references(parsed(path), "marshal")
    }
    assert found == {"cli._fork_map"}
    importers = [
        name for name, path in MODULES.items() for _, module in absolute_imports(path) if module == "marshal"
    ]
    assert importers == ["cli"]
    sample = ast.parse('json.dumps([format(c, "x") for c in cols]) and int(col, 16)')
    assert len(list(hand_codec(sample))) == 3  # the scan works
    functions = {
        node.name: node
        for node in ast.walk(parsed(MODULES["cli"]))
        if isinstance(node, ast.FunctionDef) and node.name in ("_fork_map", "_sweep_cell", "_twist")
    }
    assert len(functions) == 3
    found = {name: list(hand_codec(node)) for name, node in functions.items()}
    assert found == dict.fromkeys(functions, []), found


def test_homology_imports_nothing_from_the_package():
    graph = import_graph()
    assert graph["homology"] == set()
    assert graph["steenrod"] == set()


def test_one_monomial_representation():
    # A monomial is a packed int everywhere in the package: the tuple ring and
    # its tuple-to-int packer live in the tests' oracles.
    found = []
    for name, path in MODULES.items():
        for node in ast.walk(parsed(path)):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in TUPLE_RING:
                found.append(f"{name}.py:{node.lineno} defines {node.name}")
            elif isinstance(node, ast.Name) and node.id in TUPLE_RING:
                found.append(f"{name}.py:{node.lineno} names {node.id}")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "pack":
                found.append(f"{name}.py:{node.lineno} calls pack")
    assert not found, found
    # The generator images are recomputed per grid, not kept in module tables.
    tree = parsed(MODULES["steenrod"])
    assigned = [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))]
    assert not assigned, [node.lineno for node in assigned]


TUPLE_RING = {"Polynomial", "Monomial", "pack", "sq", "milnor_q"}


def general_inverse_uses(path):
    """Where a file defines, imports or names the general GF(2) inverse or its kernel walk."""
    tree = parsed(path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in GENERAL_INVERSE:
            yield f"{path.name}:{node.lineno} defines {node.name}"
        elif isinstance(node, ast.alias) and node.name in GENERAL_INVERSE:
            yield f"{path.name}:{node.lineno} imports {node.name}"
    for target in GENERAL_INVERSE:
        for node in references(tree, target):
            yield f"{path.name}:{node.lineno} names {target}"


def test_no_general_inverse_in_the_package():
    # Each degree's basis change is unitriangular and solved by substitution,
    # so a general inverse is a test oracle only.
    assert list(general_inverse_uses(Path(__file__).parent / "oracles.py"))  # the scan finds it
    found = [use for path in MODULES.values() for use in general_inverse_uses(path)]
    assert not found, found


GENERAL_INVERSE = {"invert", "_kernel_basis"}


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


def references(tree, name):
    """Nodes that read ``name`` as a variable or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            yield node
        elif isinstance(node, ast.Attribute) and node.attr == name:
            yield node


def enclosing(node):
    """Dotted name of the classes and functions around a node."""
    names = []
    up = node.parent
    while not isinstance(up, ast.Module):
        if isinstance(up, (ast.FunctionDef, ast.ClassDef)):
            names.append(up.name)
        up = up.parent
    return ".".join(reversed(names))


WU_ROUTE = {
    "schubert": {
        "_GridContext",
        "free_operator_matrix",
        "derivation_parts",
        "derivation_qn_matrix",
    },
    "cofiber": {"twisted_complex"},
}


def test_only_the_lenart_route_walks_ribbons():
    # The two routes are the cross-check of each other, so the Wu route must
    # never reach the ribbon walk.
    found = {
        f"{name}.{enclosing(node)}"
        for name, path in MODULES.items()
        for node in references(parsed(path), "lenart_strips")
    }
    assert found == {"schubert.lenart_qn_matrix"}
    for name, defs in WU_ROUTE.items():
        seen = set()
        for node in ast.walk(parsed(MODULES[name])):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in defs:
                seen.add(node.name)
                for target in ("lenart_strips", "lenart_qn_matrix"):
                    assert not list(references(node, target)), f"{name}.{node.name} uses {target}"
        assert seen == defs


def self_calls(tree):
    """Dotted names of the functions that call themselves by name."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                if callee == node.name:
                    yield enclosing(call)
                    break


def test_only_the_bead_walk_calls_itself():
    # Recursion is bounded by the interpreter's stack: the one allowed walk
    # nests one call per row below the first.
    found = {
        f"{name}.{qual}" for name, path in MODULES.items() for qual in self_calls(parsed(path))
    }
    assert found == {"young.partitions_in_grid.rec"}
    consts = young.partitions_in_grid.__code__.co_consts
    walk = next(c for c in consts if getattr(c, "co_name", None) == "rec")
    depth = peak = 0

    def profile(frame, event, arg):
        nonlocal depth, peak
        if frame.f_code is walk:
            depth += 1 if event == "call" else -1 if event == "return" else 0
            peak = max(peak, depth)

    previous = sys.getprofile()
    for d, c in ((0, 3), (1, 1), (5, 4), (12, 2)):
        peak = 0
        sys.setprofile(profile)
        try:
            young.partitions_in_grid(d, c)
        finally:
            sys.setprofile(previous)
        assert 1 <= peak <= d + 1, (d, c, peak)


def test_only_the_sweep_and_the_compute_command_run_a_cell():
    # table and verify run their cells through one driver, whose per-cell
    # step is _sweep_cell; only the compute command calls compute_cell itself.
    uses = list(references(parsed(MODULES["cli"]), "compute_cell"))
    assert sorted(enclosing(node) for node in uses) == ["_run", "_sweep_cell"]
    up = next(node for node in uses if enclosing(node) == "_run")
    while not isinstance(up, ast.If):
        up = up.parent
    assert ast.unparse(up.test) == "args.command == 'compute'"


def unused_definitions(trees, exported):
    """Functions, methods and classes that no code names outside their own definition.

    Names in ``exported``, dunders and ``main`` count as used.
    """
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in exported or name == "main" or name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(child) for child in ast.walk(node)}
            if all(id(ref) in inside for t in trees.values() for ref in references(t, name)):
                yield f"{module}.py:{node.lineno} {name}"


def test_every_definition_in_the_package_has_a_caller_in_it():
    # Code that only tests call lives in the tests' oracles.
    sample = {"m": ast.parse("def f():\n    f()\n\ndef g():\n    f()\n\ndef main():\n    pass")}
    assert list(unused_definitions(sample, set())) == ["m.py:4 g"]  # the scan works
    trees = {name: parsed(path) for name, path in MODULES.items()}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found = list(unused_definitions(trees, exported))
    assert not found, found


def main_clauses():
    """Each except clause of ``cli.main``: the names it catches and the codes it returns."""
    tree = parsed(MODULES["cli"])
    main = next(node for node in tree.body if getattr(node, "name", None) == "main")
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            codes = {
                ret.value.value
                for ret in ast.walk(node)
                if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Constant)
            }
            yield {ast.unparse(c) for c in caught}, codes


def exception_classes():
    """Each exception class the package defines, by name."""
    for name, path in MODULES.items():
        module = importlib.import_module("grqn" if name == "__init__" else f"grqn.{name}")
        for node in parsed(path).body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    yield node.name, cls


def test_two_error_families():
    # Bad input is a ValueError that main reports with exit 2; every other
    # error the package raises is a failed bug check, a RuntimeError.
    clauses = list(main_clauses())
    bad_input = [names for names, codes in clauses if codes == {2}]
    assert len(bad_input) == 1, clauses
    classes = dict(exception_classes())
    assert {"UsageError", "WorkerDied"} <= set(classes)  # the scan finds them
    for name, cls in classes.items():
        assert issubclass(cls, ValueError) == (name in bad_input[0]), name
        assert issubclass(cls, ValueError) or issubclass(cls, RuntimeError), name
    assert clauses[-1][0] == {"RuntimeError"}  # the bug-check clause
