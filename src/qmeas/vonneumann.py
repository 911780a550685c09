"""Observable-keyed entangling coupling and pairwise outcome correlation.

The coupling built here shifts a pointer ancilla by the spectral branch
index, writing the measured observable's value into a perfectly readable
register. The resulting system-pointer state is the canonical example of a
pair of observables whose joint statistics concentrate on matched branches,
and the checks in this module decide that property for arbitrary states and
observable pairs. Branches are matched by the pairing of largest joint mass,
found exactly at every branch count by one assignment solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SpectralDecomposition, State, _reduce
from .linalg import complete_isometry_to_unitary, schmidt_decompose
from .observables import Observable, _branch_sums, clamp_probability
from .processes import MeasurementProcess
from .tolerances import DEFAULT_TOL

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
    max_violation: float

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        joint = np.array(self.joint, dtype=float)
        joint.setflags(write=False)
        object.__setattr__(self, "joint", joint)

    @property
    def is_entangled(self) -> bool:
        """All five correlation conditions hold."""
        return all(self.condition_results.values())

    def paired_labels(self) -> tuple[tuple[float, float], ...]:
        return tuple((self.labels1[k], self.labels2[m]) for k, m in self.pairing)


def build_vn_process(a: Observable) -> MeasurementProcess:
    """Measurement process whose coupling shifts a pointer ancilla by the
    measured branch index.

    The ancilla has one dimension per spectral branch and starts in the first
    basis vector; the coupling is the branch-controlled cyclic shift, and the
    meter is diagonal in the pointer basis with the observable's eigenvalues
    as labels; its isometry is the projector stack. The process reproduces
    the observable's statistics exactly.
    """
    d, n = a.dim, len(a.labels)

    def isometry() -> np.ndarray:
        # V[(i, b), j] = P_b[i, j]: the projector stack, ancilla index inside.
        return np.array(a.spectral.projectors).transpose(1, 0, 2).reshape(d * n, d)

    return MeasurementProcess._from_isometry(d, a.labels, isometry, _cyclic_shift)


def _cyclic_shift(v: np.ndarray) -> np.ndarray:
    """sum_k P_k x S^k, S the cyclic shift of n pointer slots, from its isometry
    V[(i, k), j] = P_k[i, j]: U[(i, b), (j, c)] = V[(i, (b-c) mod n), j]."""
    d = v.shape[1]
    n = len(v) // d
    shift = np.subtract.outer(np.arange(n), np.arange(n)) % n
    return v.reshape(d, n, d)[:, shift].transpose(0, 1, 3, 2).reshape(d * n, -1)


def entangled_state(psi: State, a: Observable) -> State:
    """Apply the pointer coupling to the system state and a fresh ancilla.

    The result, the process isometry V = U (I x xi) applied to the system
    state, is the sum over branches of (projected system state) tensor
    (pointer basis vector): system value and pointer position are perfectly
    correlated, with branch weights given by the Born probabilities.
    """
    if psi.dim != a.dim:
        raise ValueError(f"state dimension {psi.dim} does not match observable dimension {a.dim}")
    return State(build_vn_process(a).isometry @ psi.amplitudes)


def _joint_matrix(a1: Observable, a2: Observable, phi: State) -> np.ndarray:
    if phi.dim != a1.dim * a2.dim:
        raise ValueError(f"state dimension {phi.dim} does not factor as {a1.dim} x {a2.dim}")
    # Rotated as (phi B2^*)^T B1^*, so the table comes out (n2, n1); the other
    # order moves reported values in their last bits.
    amps = (phi.amplitudes.reshape(a1.dim, a2.dim) @ a2.spectral.basis.conj()).T
    table = _branch_sums((amps @ a1.spectral.basis.conj())[None], a2.spectral, a1.spectral)
    return clamp_probability(table.T)


def _best_pairing(joint: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Injective branch pairing maximizing the paired probability mass.

    Exact at every size: the rectangular assignment problem, solved by
    shortest augmenting paths with row and column potentials (Kuhn 1955;
    Jonker and Volgenant 1987) in O(n1 n2 min(n1, n2)). A table with more
    rows than columns is transposed, so every row is matched. Among several
    maximizing pairings one is returned deterministically; pairs come back
    sorted.
    """
    flip = joint.shape[0] > joint.shape[1]
    gain = joint.T if flip else joint
    n, m = gain.shape
    # Minimize -gain. Column m is the virtual start of every augmenting path;
    # row_of[c] is the row matched to column c, -1 while c is free.
    cost = np.hstack([-gain, np.zeros((n, 1))])
    u, v = np.zeros(n), np.zeros(m + 1)
    row_of = np.full(m + 1, -1)
    for i in range(n):
        row_of[m], col = i, m
        slack, prev = np.full(m + 1, np.inf), np.full(m + 1, m)
        done = np.zeros(m + 1, dtype=bool)
        while row_of[col] >= 0:
            done[col] = True
            row = row_of[col]
            reduced = cost[row] - u[row] - v
            better = ~done & (reduced < slack)
            slack[better], prev[better] = reduced[better], col
            col = int(np.argmin(np.where(done, np.inf, slack)))
            delta = slack[col]
            u[row_of[done]] += delta
            v[done] -= delta
            slack[~done] -= delta
        while col != m:
            row_of[col], col = row_of[prev[col]], prev[col]
    pairs = [(int(r), c) for c, r in enumerate(row_of[:m]) if r >= 0]
    return tuple(sorted((c, r) if flip else (r, c) for r, c in pairs))


def check_observable_entanglement(
    a1: Observable,
    a2: Observable,
    phi: State,
    tol: float = DEFAULT_TOL,
) -> EntanglementReport:
    """Decide whether two observables are perfectly correlated in a state.

    Five conditions are evaluated under the mass-maximizing branch pairing
    (``_best_pairing``, exact at every size): every joint probability off the
    pairing vanishes, the paired probabilities sum to one, each observable's
    marginal equals the paired joint probability, and both conditional
    probabilities on paired branches equal one (skipped for pairs whose
    joint probability is below tol). The state is called entangled for the
    pair when all five hold within tol.
    """
    joint = _joint_matrix(a1, a2, phi)
    pairing = _best_pairing(joint)
    rows, cols = np.array(pairing).T
    paired = joint[rows, cols]
    off_pairing = joint.copy()
    off_pairing[rows, cols] = 0.0
    row_marginal, col_marginal = joint.sum(axis=1)[rows], joint.sum(axis=0)[cols]
    kept = paired > tol
    marginals = np.concatenate([row_marginal[kept], col_marginal[kept]])
    conditionals = np.tile(paired[kept], 2) / marginals
    violations = tuple(
        float(v)
        for v in (
            max(0.0, off_pairing.max()),
            max(0.0, 1.0 - sum(paired.tolist())),
            np.abs(row_marginal - paired).max(),
            np.abs(col_marginal - paired).max(),
            np.abs(conditionals - 1.0).max(initial=0.0),
        )
    )
    results = {name: bool(value <= tol) for name, value in zip(CONDITION_NAMES, violations)}
    return EntanglementReport(
        labels1=a1.labels,
        labels2=a2.labels,
        joint=joint,
        pairing=pairing,
        condition_results=results,
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

    def ladder_observable(states: tuple[State, ...]) -> Observable:
        basis = complete_isometry_to_unitary(np.column_stack([s.amplitudes for s in states]))
        blocks = tuple((float(k + 1), basis[:, k : k + 1]) for k in range(len(basis)))
        return Observable(SpectralDecomposition(blocks))

    return ladder_observable(left_states), ladder_observable(right_states)
