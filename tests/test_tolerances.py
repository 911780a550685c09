"""Guard for the one table of numerical bounds, ``qmeas.tolerances``."""

import ast
from pathlib import Path

import qmeas

PACKAGE = Path(qmeas.__file__).parent


def parse(name):
    return ast.parse((PACKAGE / name).read_text())


def is_float_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def module_floats(tree):
    """(name, line) of each module-level name bound to a float literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and is_float_literal(node.value):
            yield from ((ast.unparse(target), node.lineno) for target in node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if is_float_literal(node.value):
                yield ast.unparse(node.target), node.lineno


def float_defaults(tree):
    """(parameter, line) of each function parameter with a float-literal default."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
            pairs += zip(args.kwonlyargs, args.kw_defaults)
            yield from ((arg.arg, arg.lineno) for arg, default in pairs if is_float_literal(default))


def other_modules():
    return sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "tolerances.py")


def test_no_module_but_tolerances_defines_a_float_bound():
    sites = []
    for name in other_modules():
        tree = parse(name)
        sites += [f"{name}:{line} {what}" for what, line in module_floats(tree)]
        sites += [f"{name}:{line} parameter {what}" for what, line in float_defaults(tree)]
    assert sites == []


def test_every_bound_is_documented_and_read_elsewhere():
    tree = parse("tolerances.py")
    lines = (PACKAGE / "tolerances.py").read_text().splitlines()
    bounds = dict(module_floats(tree))
    assigned = [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))]
    assert len(bounds) == len(assigned), "every name in tolerances is a float literal"
    for name, line in bounds.items():
        assert lines[line - 2].startswith("#:"), f"{name} has no #: line saying what it bounds"
    read = {
        node.id
        for name in other_modules()
        for node in ast.walk(parse(name))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(set(bounds) - read) == []
