"""Per-layer tracing of qmeas from outside the package.

``traced(tracer)`` rebinds, for the duration of a ``with`` block, every
public function of the layer modules in every ``qmeas`` module namespace
that refers to it, and the ``__init__`` of every public class, to a wrapper
that records a span. Nothing under ``src/qmeas`` is edited; on exit every
original binding is put back, and ``wrapped_bindings()`` lists any wrapper
still reachable (it must be empty outside the block).

A span knows its parent, so a layer's self time is its duration minus the
time its child spans cover. For the dense kernels below the wrapper also
adds operation and byte counts computed from argument shapes under the
current algorithm (labelled ``_computed``): they repeat exactly from run to
run, so a change that removes dense work shows as a count.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

#: The package modules whose public names are layers.
LAYERS = ("cli", "linalg", "observables", "processes", "vonneumann", "intersubjectivity")

#: Attribute marking a wrapper, pointing at the wrapped original.
MARK = "__perfbench_original__"

#: Bytes in one complex128 entry.
_C = 16


def _product(dim: int) -> tuple[int, int]:
    """Flops and bytes of one dense complex dim x dim matrix product
    (8 real flops per complex multiply-add; two operands read, one written)."""
    return 8 * dim**3, 3 * _C * dim**2


def _count_compose(args, kwargs):
    # Coupling product plus two conjugation products per evolved branch.
    p1, p2 = args[0], args[1]
    dim = p1.system_dim * p1.ancilla_dim * p2.ancilla_dim
    products = 1 + 2 * (len(p1.meter.spectral.branches) + len(p2.meter.spectral.branches))
    flops, nbytes = _product(dim)
    return products * flops, products * nbytes


def _count_spectral(args, kwargs):
    # Idempotence of each projector and orthogonality of each pair.
    branches = args[1] if len(args) > 1 else kwargs["branches"]
    n = len(branches)
    products = n + n * (n - 1) // 2
    flops, nbytes = _product(len(branches[0][1]))
    return products * flops, products * nbytes


def _count_joint_scenario(args, kwargs):
    # Unitarity of the composite coupling and the commutator of the meters.
    coupling = kwargs["composite_coupling"] if "composite_coupling" in kwargs else args[4]
    flops, nbytes = _product(len(coupling))
    return 3 * flops, 3 * nbytes


def _count_heisenberg(args, kwargs):
    # Two products per meter branch on system x ancilla.
    mp = args[0] if args else kwargs["mp"]
    products = 2 * len(mp.meter.spectral.branches)
    flops, nbytes = _product(mp.system_dim * mp.ancilla_dim)
    return products * flops, products * nbytes


def _count_joint(args, kwargs):
    # One matrix-vector product per branch of each evolved meter, then one
    # inner product per pair of branches.
    scenario = args[0] if args else kwargs["scenario"]
    dim = scenario.total_dim
    n1 = len(scenario.evolved_meter1.spectral.branches)
    n2 = len(scenario.evolved_meter2.spectral.branches)
    flops = (n1 + n2) * 8 * dim**2 + n1 * n2 * 8 * dim
    nbytes = (n1 + n2) * _C * (dim**2 + 2 * dim) + n1 * n2 * 2 * _C * dim
    return flops, nbytes


#: Span name -> count model. Counts are inclusive: a span also carries the
#: counts of the spans nested in it.
COUNTED = {
    "intersubjectivity.compose_joint_scenario": _count_compose,
    "intersubjectivity.JointScenario": _count_joint_scenario,
    "linalg.SpectralDecomposition": _count_spectral,
    "processes.heisenberg_meter": _count_heisenberg,
    "intersubjectivity.joint_distribution": _count_joint,
}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    flops: int = 0
    nbytes: int = 0


@dataclass
class _Span:
    name: str
    parent: "_Span | None"
    flops: int = 0
    nbytes: int = 0
    child_s: float = 0.0


@dataclass
class Tracer:
    """Aggregates closed spans by name; spans nest through their parent link."""

    stats: dict[str, LayerStats] = field(default_factory=dict)
    _open: "_Span | None" = None

    def wrap(self, name: str, fn):
        count = COUNTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(name, self._open)
            if count is not None:
                span.flops, span.nbytes = count(args, kwargs)
            self._open = span
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(span, perf_counter() - start, ok)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _close(self, span: _Span, duration: float, ok: bool) -> None:
        self._open = span.parent
        stats = self.stats.setdefault(span.name, LayerStats())
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - span.child_s
        stats.errors += 0 if ok else 1
        stats.flops += span.flops
        stats.nbytes += span.nbytes
        if span.parent is not None:
            span.parent.child_s += duration
            span.parent.flops += span.flops
            span.parent.nbytes += span.nbytes


def _qmeas_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "qmeas" or name.startswith("qmeas.")]


def _layer_targets():
    """(span name, object) for every public function and class of the layer
    modules; a class is traced through its ``__init__``."""
    targets = []
    for layer in LAYERS:
        module = sys.modules[f"qmeas.{layer}"]
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((f"{layer}.{attr}", obj))
            elif inspect.isclass(obj) and "__init__" in vars(obj):
                targets.append((f"{layer}.{attr}", obj))
    return targets


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Trace every layer boundary inside the block, then restore every binding."""
    functions = {}
    classes = []
    for name, obj in _layer_targets():
        if inspect.isclass(obj):
            classes.append((name, obj))
        else:
            functions[obj] = tracer.wrap(name, obj)
    restore = []
    try:
        for module in _qmeas_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in functions:
                    restore.append((module, attr, obj))
                    setattr(module, attr, functions[obj])
        for name, cls in classes:
            original = vars(cls)["__init__"]
            restore.append((cls, "__init__", original))
            cls.__init__ = tracer.wrap(name, original)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def wrapped_bindings() -> list[str]:
    """Every binding in a qmeas module or class that still holds a wrapper."""
    found = []
    for module in _qmeas_modules():
        for attr, obj in vars(module).items():
            if hasattr(obj, MARK):
                found.append(f"{module.__name__}.{attr}")
            if inspect.isclass(obj) and hasattr(vars(obj).get("__init__"), MARK):
                found.append(f"{module.__name__}.{attr}.__init__")
    return found
