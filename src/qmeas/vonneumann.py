"""Observable-keyed entangling coupling and pairwise outcome correlation.

The coupling built here shifts a pointer ancilla by the spectral branch
index, writing the measured observable's value into a perfectly readable
register. The resulting system-pointer state is the canonical example of a
pair of observables whose joint statistics concentrate on matched branches,
and the checks in this module decide that property for arbitrary states and
observable pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .linalg import (
    SpectralDecomposition,
    State,
    complete_isometry_to_unitary,
    schmidt_decompose,
    tensor,
)
from .observables import Observable, _born_table, clamp_probability
from .processes import MeasurementProcess

#: Branch count up to which the pairing search enumerates all injections.
EXHAUSTIVE_PAIRING_LIMIT = 6

#: Default tolerance for the correlation conditions.
DEFAULT_CORRELATION_TOL = 1e-9

#: Names of the five correlation conditions, in evaluation order.
CONDITION_NAMES = (
    "off_pairing_vanishes",
    "paired_mass_unity",
    "first_marginal_matches_pairs",
    "second_marginal_matches_pairs",
    "paired_conditionals_unity",
)


@dataclass(frozen=True, eq=False)
class EntanglementReport:
    """Joint statistics of two observables in a state, under the best pairing
    of their spectral branches."""

    labels1: tuple[float, ...]
    labels2: tuple[float, ...]
    joint: np.ndarray
    pairing: tuple[tuple[int, int], ...]
    condition_results: dict[str, bool]
    is_entangled: bool
    max_violation: float

    def __post_init__(self) -> None:
        joint = np.array(self.joint, dtype=float)
        joint.setflags(write=False)
        object.__setattr__(self, "joint", joint)

    def paired_labels(self) -> tuple[tuple[float, float], ...]:
        return tuple((self.labels1[k], self.labels2[m]) for k, m in self.pairing)


def _basis_projector(dim: int, index: int) -> np.ndarray:
    proj = np.zeros((dim, dim), dtype=complex)
    proj[index, index] = 1.0
    return proj


def build_vn_process(a: Observable) -> MeasurementProcess:
    """Measurement process whose coupling shifts a pointer ancilla by the
    measured branch index.

    The ancilla has one dimension per spectral branch and starts in the first
    basis vector; the coupling is the branch-controlled cyclic shift, and the
    meter is diagonal in the pointer basis with the observable's eigenvalues
    as labels. The process reproduces the observable's statistics exactly.
    """
    branches = a.spectral.branches
    n = len(branches)
    d = a.dim
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    coupling = np.zeros((d * n, d * n), dtype=complex)
    power = np.eye(n, dtype=complex)
    for _, proj in branches:
        coupling += tensor(proj, power)
        power = shift @ power
    meter = Observable.from_spectral(
        SpectralDecomposition(
            tuple((value, _basis_projector(n, k)) for k, (value, _) in enumerate(branches))
        )
    )
    return MeasurementProcess(d, State.basis(n, 0), coupling, meter)


def entangled_state(psi: State, a: Observable) -> State:
    """Apply the pointer coupling to the system state and a fresh ancilla.

    The result is the sum over branches of (projected system state) tensor
    (pointer basis vector): system value and pointer position are perfectly
    correlated, with branch weights given by the Born probabilities.
    """
    if psi.dim != a.dim:
        raise ValueError(f"state dimension {psi.dim} does not match observable dimension {a.dim}")
    mp = build_vn_process(a)
    composite = psi.tensor(mp.ancilla_state)
    return State(mp.coupling @ composite.amplitudes)


def _joint_matrix(a1: Observable, a2: Observable, phi: State) -> np.ndarray:
    if phi.dim != a1.dim * a2.dim:
        raise ValueError(
            f"state dimension {phi.dim} does not factor as {a1.dim} x {a2.dim}"
        )
    table = _born_table(
        phi.amplitudes.reshape(1, a1.dim, a2.dim),
        np.array(a1.spectral.projectors),
        np.array(a2.spectral.projectors),
    )
    return clamp_probability(table)


def _best_pairing(joint: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Injective branch pairing maximizing the paired probability mass.

    Exhaustive over all injections while the larger side has at most
    EXHAUSTIVE_PAIRING_LIMIT branches, greedy (repeatedly taking the largest
    remaining cell) above that.
    """
    n1, n2 = joint.shape
    if max(n1, n2) <= EXHAUSTIVE_PAIRING_LIMIT:
        best, best_mass = None, -1.0
        if n1 <= n2:
            for targets in permutations(range(n2), n1):
                mass = sum(joint[k, m] for k, m in enumerate(targets))
                if mass > best_mass:
                    best, best_mass = tuple(enumerate(targets)), mass
        else:
            for sources in permutations(range(n1), n2):
                mass = sum(joint[k, m] for m, k in enumerate(sources))
                if mass > best_mass:
                    best, best_mass = tuple((k, m) for m, k in enumerate(sources)), mass
        return tuple(sorted(best))
    remaining = joint.copy()
    pairs = []
    for _ in range(min(n1, n2)):
        k, m = np.unravel_index(int(np.argmax(remaining)), remaining.shape)
        pairs.append((int(k), int(m)))
        remaining[k, :] = -np.inf
        remaining[:, m] = -np.inf
    return tuple(sorted(pairs))


def check_observable_entanglement(
    a1: Observable,
    a2: Observable,
    phi: State,
    tol: float = DEFAULT_CORRELATION_TOL,
) -> EntanglementReport:
    """Decide whether two observables are perfectly correlated in a state.

    Five conditions are evaluated under the mass-maximizing branch pairing:
    every joint probability off the pairing vanishes, the paired
    probabilities sum to one, each observable's marginal equals the paired
    joint probability, and both conditional probabilities on paired branches
    equal one (skipped for pairs whose joint probability is below tol). The
    state is called entangled for the pair when all five hold within tol.
    """
    joint = _joint_matrix(a1, a2, phi)
    pairing = _best_pairing(joint)
    paired_cells = set(pairing)
    row_marginal = joint.sum(axis=1)
    col_marginal = joint.sum(axis=0)

    off_violation = 0.0
    for k in range(joint.shape[0]):
        for m in range(joint.shape[1]):
            if (k, m) not in paired_cells:
                off_violation = max(off_violation, joint[k, m])
    paired_mass = sum(joint[k, m] for k, m in pairing)
    mass_violation = max(0.0, 1.0 - paired_mass)
    marginal1_violation = max(abs(row_marginal[k] - joint[k, m]) for k, m in pairing)
    marginal2_violation = max(abs(col_marginal[m] - joint[k, m]) for k, m in pairing)
    conditional_violation = 0.0
    for k, m in pairing:
        if joint[k, m] <= tol:
            continue
        conditional_violation = max(
            conditional_violation,
            abs(joint[k, m] / row_marginal[k] - 1.0),
            abs(joint[k, m] / col_marginal[m] - 1.0),
        )

    violations = tuple(
        float(v)
        for v in (
            off_violation,
            mass_violation,
            marginal1_violation,
            marginal2_violation,
            conditional_violation,
        )
    )
    results = {name: bool(value <= tol) for name, value in zip(CONDITION_NAMES, violations)}
    return EntanglementReport(
        labels1=a1.labels,
        labels2=a2.labels,
        joint=joint,
        pairing=pairing,
        condition_results=results,
        is_entangled=all(results.values()),
        max_violation=float(max(violations)),
    )


def find_entangled_observables(
    phi: State, dim1: int, dim2: int
) -> tuple[Observable, Observable]:
    """Observables perfectly correlated in an arbitrary bipartite state.

    Diagonalizes each factor in the state's Schmidt basis (completed to a
    full orthonormal basis where the Schmidt rank is deficient) with
    eigenvalues 1 through the factor dimension. Matched Schmidt vectors
    carry all the probability, so the pair passes the correlation check in
    the given state.
    """
    _, left_states, right_states = schmidt_decompose(phi, dim1, dim2)

    def completed_basis(states: tuple[State, ...]) -> np.ndarray:
        stacked = np.column_stack([s.amplitudes for s in states])
        return complete_isometry_to_unitary(stacked)

    def ladder_observable(basis: np.ndarray) -> Observable:
        branches = tuple(
            (float(k + 1), np.outer(basis[:, k], basis[:, k].conj()))
            for k in range(basis.shape[1])
        )
        return Observable.from_spectral(SpectralDecomposition(branches))

    return (
        ladder_observable(completed_basis(left_states)),
        ladder_observable(completed_basis(right_states)),
    )


def verify_perfect_correlation(
    a1: Observable,
    a2: Observable,
    phi: State,
    tol: float = DEFAULT_CORRELATION_TOL,
) -> bool:
    """Whether mismatched outcomes carry no probability under the best pairing.

    Sums the joint probability of every branch combination off the pairing
    (equivalently, one minus the paired mass) and compares against tol.
    """
    report = check_observable_entanglement(a1, a2, phi, tol)
    off_mass = float(report.joint.sum() - sum(report.joint[k, m] for k, m in report.pairing))
    return off_mass <= tol
