"""Two observers measuring one system: joint scenarios and outcome agreement.

Two measurement processes that share the system but own separate ancillas
are composed into one scenario through their isometries V = U (I x xi):
applied one after the other they give the scenario's (D, d) isometry into
the threefold space, at O(D d^2) cost. The joint outcome law is read from
the state tensor, that isometry applied to the system state, by
contracting each meter's projectors on its own ancilla axis. The dense
D x D composite coupling and the evolved meters, each process meter
conjugated by it, are built only when read, the meters at O(n D^3) cost;
they commute by construction: each acts on its own ancilla factor before
the conjugation. The checks here quantify how much probability the two
observers assign to unequal outcomes.

``verify_oit`` evaluates its seeded trials in chunks, each chunk as one
batch of states through the same Born kernel that reads a single joint law;
the chunk length keeps every per-chunk array near 2^16 complex entries, so
its memory does not grow with the trial count.

For processes that reproduce the same sharp observable that off-diagonal
mass vanishes: both observers always read the same value. A pair of
processes realizing the uninformative qubit POVM shows the sharp hypothesis
is essential: each observer sees a fair coin, independently of the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import LocalityError, NumericalConsistencyError
from .linalg import (
    PRODUCT_DIM_GUARD,
    State,
    UNITARY_TOL,
    _gaussian_amplitudes,
    _is_isometry,
    _require_unit_norm,
    as_complex_matrix,
    is_unitary,
    tensor,
)
from .observables import (
    DEFAULT_LABEL_TOL,
    PROBABILITY_SUM_TOL,
    Observable,
    Povm,
    _born_table,
    _labels_agree,
    _require_unit_sum,
    clamp_probability,
)
from .processes import (
    MeasurementProcess,
    _evolved,
    _isometry,
    _pointer_meter,
    check_probability_reproducibility,
    naimark_dilation,
)
from .vonneumann import build_vn_process

#: Frobenius bound on the commutator of the two evolved meters.
COMMUTATOR_TOL = 1e-9

#: Default tolerance on off-diagonal probability mass.
DEFAULT_AGREEMENT_TOL = 1e-9

#: A computed joint distribution must sum to 1 within this bound.
JOINT_SUM_TOL = 1e-10

# verify_oit evaluates its trials in chunks whose largest per-chunk array
# holds about this many complex entries (1 MiB), whatever the trial count.
_CHUNK_ENTRIES = 2**16


def _check_commute(m1: Observable, m2: Observable) -> None:
    commutator_norm = float(np.linalg.norm(m1.matrix @ m2.matrix - m2.matrix @ m1.matrix))
    if commutator_norm > COMMUTATOR_TOL:
        raise LocalityError(f"evolved meters do not commute: Frobenius norm {commutator_norm:.3e}")


@dataclass(frozen=True, eq=False)
class JointScenario:
    """Two processes on separate ancillas composed over one system.

    The composite space is system x first ancilla x second ancilla; process
    ``first`` couples first. The data is the (D, d) isometry V, the
    composite coupling applied to system state x both ancilla states, and
    V^H V = I must hold within UNITARY_TOL (checked at O(D d^2), else
    ``ValueError``). The joint law is read from V alone (see
    ``joint_distribution``).

    The read-only dense ``composite_coupling`` (O(D^3) with its unitarity
    check) and the evolved meters (each process meter on its own ancilla
    factor conjugated by it, O(n D^3) for n branches) are built on first
    read and kept. The coupling must be unitary and reproduce V at the
    ancilla states within UNITARY_TOL (else ``ValueError``), so a scenario
    cannot hold a joint law its processes contradict. The meters commute by
    construction, being lifted to distinct factors and conjugated by one
    unitary, and are checked to within COMMUTATOR_TOL (else
    ``LocalityError``).
    """

    system_dim: int
    process1: MeasurementProcess
    process2: MeasurementProcess
    isometry: np.ndarray
    first: int = 1

    def __post_init__(self) -> None:
        if self.first not in (1, 2):
            raise ValueError("first must be 1 or 2")
        v = as_complex_matrix(self.isometry, "isometry").copy()
        if v.shape != (self.total_dim, self.system_dim):
            raise ValueError("isometry does not match the threefold and system dimensions")
        if not _is_isometry(v):
            raise ValueError(f"scenario isometry is not an isometry within {UNITARY_TOL}")
        v.setflags(write=False)
        object.__setattr__(self, "isometry", v)

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.process1.ancilla_dim * self.process2.ancilla_dim

    @functools.cached_property
    def composite_coupling(self) -> np.ndarray:
        p1, p2 = self.process1, self.process2
        d, k1, k2, total = self.system_dim, p1.ancilla_dim, p2.ancilla_dim, self.total_dim
        u1 = p1.coupling.reshape(d, k1, d, k1)
        u2 = p2.coupling.reshape(d, k2, d, k2)
        # Axes are (system, ancilla 1, ancilla 2) twice; m is the system
        # index between the two couplings.
        if self.first == 1:
            six = np.einsum("icme,majb->iacjbe", u2, u1, optimize=True)
        else:
            six = np.einsum("iamb,mcje->iacjbe", u1, u2, optimize=True)
        coupling = six.reshape(total, total)
        if not is_unitary(coupling):
            raise ValueError(f"composite coupling is not unitary within {UNITARY_TOL}")
        xi = np.outer(p1.ancilla_state.amplitudes, p2.ancilla_state.amplitudes).reshape(-1)
        if np.max(np.abs(coupling.reshape(total, d, -1) @ xi - self.isometry)) > UNITARY_TOL:
            raise ValueError(f"isometry differs from its processes' by more than {UNITARY_TOL}")
        coupling.setflags(write=False)
        return coupling

    @functools.cached_property
    def _evolved_meters(self) -> tuple[Observable, Observable]:
        d, k1, k2 = self.system_dim, self.process1.ancilla_dim, self.process2.ancilla_dim
        meter1 = _evolved(self.composite_coupling, self.process1.meter, d, k2)
        meter2 = _evolved(self.composite_coupling, self.process2.meter, d * k1, 1)
        _check_commute(meter1, meter2)
        return meter1, meter2

    @property
    def evolved_meter1(self) -> Observable:
        return self._evolved_meters[0]

    @property
    def evolved_meter2(self) -> Observable:
        return self._evolved_meters[1]


@dataclass(frozen=True)
class JointDistribution:
    """Joint probabilities over pairs of outcome labels."""

    entries: tuple[tuple[tuple[float, float], float], ...]

    def __post_init__(self) -> None:
        entries = tuple(((float(x), float(y)), float(p)) for (x, y), p in self.entries)
        _require_unit_sum(sum(p for _, p in entries), JOINT_SUM_TOL, "joint probabilities")
        object.__setattr__(self, "entries", entries)

    def as_dict(self) -> dict[tuple[float, float], float]:
        return dict(self.entries)

    def probability(self, x: float, y: float, label_tol: float = DEFAULT_LABEL_TOL) -> float:
        hits = (p for pair, p in self.entries if _labels_agree(pair, (x, y), label_tol).all())
        return sum(hits, 0.0)


@dataclass(frozen=True)
class IntersubjectivityReport:
    """How much probability two observers assign to unequal outcomes."""

    off_diagonal_mass: float
    diagonal: dict[float, float]
    passes: bool
    tolerance_used: float

    def __post_init__(self) -> None:
        total = self.off_diagonal_mass + sum(self.diagonal.values())
        _require_unit_sum(total, JOINT_SUM_TOL, "report masses")
        if self.passes != (self.off_diagonal_mass <= self.tolerance_used):
            raise ValueError("pass flag contradicts the off-diagonal mass")


@dataclass(frozen=True)
class OitSummary:
    """Aggregate of agreement checks across random trial states."""

    trials: int
    seed: int
    tolerance: float
    max_off_diagonal_mass: float
    max_born_gap: float
    passes: bool


def compose_joint_scenario(
    p1: MeasurementProcess, p2: MeasurementProcess, first: int = 1
) -> JointScenario:
    """Compose two processes with a shared system into one scenario.

    Each coupling acts on the system and its own ancilla, with identity on
    the other observer's ancilla, and the two are applied sequentially; by
    default the first process couples first (``first`` is 1 or 2). The
    scenario's isometry is formed by contracting the two process isometries
    over the system index they share, at O(D d^2) cost; the composite
    coupling and the evolved meters are left to be built on first read.
    """
    if p1.system_dim != p2.system_dim:
        raise ValueError("processes disagree on the system dimension")
    d, k1, k2 = p1.system_dim, p1.ancilla_dim, p2.ancilla_dim
    total = d * k1 * k2
    if total > PRODUCT_DIM_GUARD:
        raise ValueError(f"composite dimension {total} exceeds the guard {PRODUCT_DIM_GUARD}")
    v1 = _isometry(p1).reshape(d, k1, d)
    v2 = _isometry(p2).reshape(d, k2, d)
    # Rows are (system, ancilla 1, ancilla 2), the column is the input
    # system index; m is the system index between the two isometries.
    if first == 1:
        v = np.einsum("icm,maj->iacj", v2, v1, optimize=True)
    else:
        v = np.einsum("iam,mcj->iacj", v1, v2, optimize=True)
    return JointScenario(d, p1, p2, v.reshape(total, d), first)


def _joint_tables(scenario: JointScenario, psi: np.ndarray) -> np.ndarray:
    """Clamped joint law (see ``joint_distribution``) of each row of the
    (T, d) array psi, shape (T, n1, n2).

    The composite states V psi are psi V^T, with V the scenario's stored
    (D, d) isometry, read as a (T, d, k1, k2) tensor: O(T D d) work. Every
    table must sum to 1 within JOINT_SUM_TOL.
    """
    meter1, meter2 = scenario.process1.meter, scenario.process2.meter
    d, k1, k2 = scenario.system_dim, meter1.dim, meter2.dim
    w = (psi @ scenario.isometry.T).reshape(-1, d, k1, k2)
    probs = clamp_probability(
        _born_table(w, np.array(meter1.spectral.projectors), np.array(meter2.spectral.projectors))
    )
    _require_unit_sum(probs.sum(axis=(1, 2)), JOINT_SUM_TOL, "joint probabilities")
    return probs


def joint_distribution(scenario: JointScenario, psi: State) -> JointDistribution:
    """Joint outcome probabilities for both observers in a system state.

    Applies the scenario's isometry to psi, which equals the composite
    coupling applied to psi x xi1 x xi2, and reads the result w as a tensor
    over (system, ancilla 1, ancilla 2). The probability of the pair (x, y)
    is <w| I x P_x x Q_y |w>, with P_x and Q_y the spectral projectors of the
    two process meters acting on their own ancilla axes. This equals the
    product of the evolved meters' projectors in the composite state without
    building them. Entries are real and nonnegative up to rounding.
    """
    if psi.dim != scenario.system_dim:
        raise ValueError(
            f"state dimension {psi.dim} does not match system dimension {scenario.system_dim}"
        )
    probs = _joint_tables(scenario, psi.amplitudes.reshape(1, -1))[0].tolist()
    labels1, labels2 = scenario.process1.meter.labels, scenario.process2.meter.labels
    entries = [((x, y), p) for x, row in zip(labels1, probs) for y, p in zip(labels2, row)]
    return JointDistribution(tuple(entries))


def _agreement(scenario: JointScenario, label_tol: float) -> np.ndarray:
    """agree[i, j]: the observers' labels x_i and y_j count as one value."""
    labels1 = np.array(scenario.process1.meter.labels)
    labels2 = np.array(scenario.process2.meter.labels)
    return _labels_agree(labels1[:, None], labels2[None, :], label_tol)


def check_intersubjectivity(
    scenario: JointScenario,
    psi: State,
    tol: float = DEFAULT_AGREEMENT_TOL,
    label_tol: float = DEFAULT_LABEL_TOL,
) -> IntersubjectivityReport:
    """Measure the probability that the two observers read different values.

    Joint entries whose labels agree within label_tol count as diagonal and
    are summed per first-observer label, for each label with at least one
    agreeing partner; everything else accumulates into the off-diagonal
    mass, which must stay below tol for the check to pass. The agreement
    mask is the one ``verify_oit`` reduces its batched tables with.
    """
    agree = _agreement(scenario, label_tol)
    joint = np.array([p for _, p in joint_distribution(scenario, psi).entries])
    joint = joint.reshape(agree.shape)
    off_mass = float(np.where(agree, 0.0, joint).sum())
    masses = np.where(agree, joint, 0.0).sum(axis=1).tolist()
    labels = scenario.process1.meter.labels
    diagonal = {x: mass for x, mass, hit in zip(labels, masses, agree.any(axis=1)) if hit}
    return IntersubjectivityReport(
        off_diagonal_mass=off_mass,
        diagonal=diagonal,
        passes=off_mass <= tol,
        tolerance_used=tol,
    )


def _check_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")


def verify_oit(
    a: Observable,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_AGREEMENT_TOL,
    label_tol: float = DEFAULT_LABEL_TOL,
) -> OitSummary:
    """Check that two reproducible measurements of one sharp observable agree.

    Builds two processes reproducing ``a`` (the pointer-shift construction
    and a dilation of a's projective POVM), verifies reproducibility for
    both as a hard precondition, composes them, and runs the agreement check
    on seeded random states. Also tracks how far the diagonal probabilities
    drift from the Born distribution of ``a``. Per-trial seeds derive from
    the given seed through numpy's SeedSequence, and each trial state is
    drawn as ``random_state`` draws it, so summaries replay exactly.

    The trials are evaluated in chunks, each as one batch: the chunk's
    states are normalized as one (T, d) array, and every joint law and Born
    law of the chunk is read through the one Born kernel with a leading
    batch axis. Each trial keeps the checks of the per-state functions
    (``check_intersubjectivity``, ``born_probabilities``): state norm,
    probability clamping and both sums, with the same bounds and errors.
    The chunk length follows from the sizes: the largest per-chunk array
    (composite states, D entries per trial; two-ancilla reduced states,
    (k1 k2)^2; system reduced states, d^2) holds about 2^16 complex entries,
    so memory stays bounded whatever the trial count.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_seed(seed)
    first = build_vn_process(a)
    second = naimark_dilation(Povm.from_observable(a))
    for mp in (first, second):
        if not check_probability_reproducibility(mp, a, tol=tol, label_tol=label_tol):
            raise NumericalConsistencyError(
                "constructed process fails to reproduce the observable it was built for"
            )
    scenario = compose_joint_scenario(first, second)
    d, k1, k2 = a.dim, first.ancilla_dim, second.ancilla_dim
    chunk = max(1, _CHUNK_ENTRIES // max(d * k1 * k2, (k1 * k2) ** 2, d * d))
    # The pointer process's meter carries a's labels in a's order, so column i
    # of the diagonal mass below pairs with a's Born probability of label i.
    agree = _agreement(scenario, label_tol)
    projectors = np.array(a.spectral.projectors)
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials).tolist()
    max_off = 0.0
    max_gap = 0.0
    all_pass = True
    for start in range(0, trials, chunk):
        psi = _gaussian_amplitudes(d, trial_seeds[start : start + chunk])
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        _require_unit_norm(np.linalg.norm(psi, axis=1))
        joint = _joint_tables(scenario, psi)
        off = np.where(agree, 0.0, joint).sum(axis=(1, 2))
        diagonal = np.where(agree, joint, 0.0).sum(axis=2)
        born = _born_table(psi.reshape(-1, 1, d, 1), projectors, np.ones((1, 1, 1)))
        born = clamp_probability(born[..., 0])
        _require_unit_sum(born.sum(axis=1), PROBABILITY_SUM_TOL, "probabilities")
        max_off = max(max_off, float(off.max()))
        max_gap = max(max_gap, float(np.abs(diagonal - born).max()))
        all_pass = all_pass and bool(np.all(off <= tol))
    return OitSummary(
        trials=trials,
        seed=seed,
        tolerance=tol,
        max_off_diagonal_mass=max_off,
        max_born_gap=max_gap,
        passes=all_pass,
    )


def counterexample_uninformative_povm() -> tuple[Povm, JointScenario]:
    """Two independent realizations of the uninformative qubit POVM.

    Both effects equal half the identity, so the system state fixes nothing:
    each process flips its own ancilla into an even superposition and reads a
    fair coin off it. The induced POVM of each process is the target POVM,
    yet the joint distribution is uniform and the observers disagree with
    probability one half for every system state.
    """
    half = np.eye(2, dtype=complex) / 2
    povm = Povm(((0.0, half), (1.0, half)))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    coupling = tensor(np.eye(2), hadamard)
    process = MeasurementProcess(2, State.basis(2, 0), coupling, _pointer_meter((0.0, 1.0)))
    return povm, compose_joint_scenario(process, process)


def sample_outcomes(
    scenario: JointScenario, psi: State, n: int, seed: int
) -> dict[tuple[float, float], int]:
    """Draw outcome pairs from the joint distribution by inverse CDF.

    Uses numpy's PCG64 stream seeded as given (a nonnegative integer, else
    ``ValueError``); identical arguments produce identical counts. Only
    observed pairs appear in the result, so zero draws yield an empty
    mapping.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    _check_seed(seed)
    joint = joint_distribution(scenario, psi)
    if n == 0:
        return {}
    labels = [pair for pair, _ in joint.entries]
    boundaries = np.cumsum([p for _, p in joint.entries])
    boundaries[-1] = 1.0
    rng = np.random.default_rng(seed)
    picks = np.searchsorted(boundaries, rng.random(n), side="right")
    counts: dict[tuple[float, float], int] = {}
    for index, count in zip(*np.unique(picks, return_counts=True)):
        counts[labels[int(index)]] = int(count)
    return counts
