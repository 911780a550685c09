"""Guard for the one table of numerical bounds, ``qmeas.tolerances``, and
for the one rule that compares a residual with its bound."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import qmeas
from qmeas import observables
from qmeas.errors import NumericalConsistencyError
from qmeas.intersubjectivity import IntersubjectivityReport, JointDistribution
from qmeas.linalg import SpectralDecomposition, State, hermitian_eig
from qmeas.observables import Observable, OutcomeDistribution, Povm, clamp_probability
from qmeas.processes import MeasurementProcess

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


#: Predicates that compare a residual with a bound inside their own body.
PREDICATES = {"is_projective", "is_resolution_of_identity", "check_probability_reproducibility"}


def test_every_predicate_the_guard_names_is_defined():
    defined = {
        node.name
        for name in other_modules()
        for node in ast.walk(parse(name))
        if isinstance(node, ast.FunctionDef)
    }
    assert sorted(PREDICATES - defined) == []


#: Functions that may branch on a comparison with a bound: the predicates,
#: which return what the comparison decides, and ``hermitian_eig``, whose
#: merge rule splits the spectrum where adjacent eigenvalues differ by more
#: than MERGE_TOL.
BRANCHES_ON_A_BOUND = PREDICATES | {"hermitian_eig"}


def enclosing_functions(tree):
    """Map each node to the name of the innermost function around it, or None."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def hand_checks(tree, bounds):
    """Line of each ``if`` that compares with a bound outside
    BRANCHES_ON_A_BOUND, or that raises and calls one of PREDICATES: a
    residual check written out by hand, whether it raises or returns."""
    owner = enclosing_functions(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        raises = any(isinstance(sub, ast.Raise) for stmt in node.body for sub in ast.walk(stmt))
        test = list(ast.walk(node.test))
        compares = any(isinstance(sub, ast.Compare) and bounds & names(sub) for sub in test)
        calls = any(
            isinstance(sub, ast.Call) and ast.unparse(sub.func).split(".")[-1] in PREDICATES
            for sub in test
        )
        if (compares and owner[node] not in BRANCHES_ON_A_BOUND) or (raises and calls):
            yield node.lineno


def names(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def test_every_raised_residual_check_goes_through_require():
    bounds = set(dict(module_floats(parse("tolerances.py"))))
    sites = [
        f"{name}:{line}" for name in other_modules() for line in hand_checks(parse(name), bounds)
    ]
    assert sites == []


#: The only (module, function) pairs that may build an object without its
#: ``__init__``: each runs its class's one named check itself.
BYPASSES_INIT = {
    ("processes.py", "_from_isometry"),
    ("intersubjectivity.py", "compose_joint_scenario"),
}


def constructor_bypasses(name):
    """Line and kind of each ``__setstate__`` defined in a module, and of each
    ``object.__new__`` outside BYPASSES_INIT: a way in that skips a constructor."""
    tree = parse(name)
    owner = enclosing_functions(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__setstate__":
            yield node.lineno, "__setstate__"
        elif isinstance(node, ast.Name) and node.id == "__setstate__":
            yield node.lineno, "__setstate__"
        elif ast.unparse(node) == "object.__new__" and (name, owner[node]) not in BYPASSES_INIT:
            yield node.lineno, "object.__new__"


def test_every_object_comes_in_through_its_constructor():
    sites = [
        f"{name}:{line} {kind}"
        for name in other_modules()
        for line, kind in constructor_bypasses(name)
    ]
    assert sites == []


#: A non-Hermitian qubit matrix, and a bump that takes I/2 outside [0, 1].
SKEW = np.array([[0.5, 0.5], [-0.5, 0.5]])
BUMP = 0.6 * np.array([[0.0, 1.0], [1.0, 0.0]])


def qubit_process(coupling):
    meter = Observable.from_matrix(np.diag([0.0, 1.0]))
    return MeasurementProcess(2, State.basis(2, 0), coupling, meter)


def eye_with_pauli_z_family():
    """``from_matrix(eye(2))`` handed Pauli-Z's family: ||I - Z||_F = 2."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables, "hermitian_eig", lambda m: hermitian_eig(np.diag([1.0, -1.0])))
        Observable.from_matrix(np.eye(2))


@pytest.mark.parametrize(
    "build, error, check, residual, bound",
    [
        (lambda: qubit_process(2 * np.eye(4)), ValueError, "coupling is unitary", 3.0, 1e-10),
        (lambda: hermitian_eig([[0, 1], [0, 0]]), ValueError, "matrix is Hermitian", 1.0, 1e-12),
        (
            lambda: SpectralDecomposition(((0.0, [[2.0], [0.0]]), (1.0, [[0.0], [1.0]]))),
            ValueError,
            "eigenvectors are orthonormal",
            3.0,
            5e-11,
        ),
        (lambda: State(np.array([2.0, 0.0])), ValueError, "state has unit norm", 1.0, 1e-12),
        (
            eye_with_pauli_z_family,
            ValueError,
            "matrix matches its spectral family",
            2.0,
            1e-10,
        ),
        (
            lambda: OutcomeDistribution(((0.0, 0.5), (1.0, 0.4))),
            NumericalConsistencyError,
            "probabilities sum to 1",
            abs(0.5 + 0.4 - 1.0),
            1e-10,
        ),
        (
            lambda: Povm(((0.0, np.eye(2) / 2), (1.0, np.eye(2) / 3))),
            ValueError,
            "invalid POVM: effects sum to the identity",
            abs(1 / 2 + 1 / 3 - 1),
            1e-10,
        ),
        (
            lambda: Povm(((0.0, SKEW), (1.0, np.eye(2) - SKEW))),
            ValueError,
            "invalid POVM: effects are Hermitian",
            1.0,
            1e-10,
        ),
        (
            lambda: Povm(((0.0, np.eye(2) / 2 + BUMP), (1.0, np.eye(2) / 2 - BUMP))),
            ValueError,
            "invalid POVM: effect spectrum in [0, 1]",
            float(np.linalg.eigvalsh(np.eye(2) / 2 + BUMP + 0j)[-1] - 1.0),
            1e-10,
        ),
    ],
    ids=[
        "coupling",
        "hermitian",
        "basis",
        "state",
        "observable",
        "sum",
        "povm-sum",
        "povm-hermitian",
        "povm-spectrum",
    ],
)
def test_a_failed_check_names_its_residual_and_bound(build, error, check, residual, bound):
    message = f"{check}: residual {residual!r} exceeds the bound {bound!r}"
    with pytest.raises(error, match=re.escape(message)) as caught:
        build()
    assert caught.type is error


@pytest.mark.parametrize(
    "build",
    [
        lambda: clamp_probability(float("nan")),
        lambda: JointDistribution((((0.0, 0.0), float("nan")), ((1.0, 1.0), 1.0))),
        lambda: IntersubjectivityReport(float("nan"), {0.0: 1.0}, 1e-9),
    ],
    ids=["clamp", "joint-distribution", "report"],
)
def test_a_nan_residual_never_passes(build):
    with pytest.raises(NumericalConsistencyError, match="residual nan"):
        build()
