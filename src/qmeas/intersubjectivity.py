"""Two observers measuring one system: joint scenarios and outcome agreement.

Two measurement processes that share the system but own separate ancillas
are composed into one scenario by applying the couplings sequentially on
the threefold space. The joint outcome law is read from the state tensor,
coupling applied to system state x ancilla states, by contracting each
meter's projectors on its own ancilla axis. The evolved meters, each
process meter conjugated by the composite coupling, commute by
construction: each acts on its own ancilla factor before the conjugation.
They are built densely, at O(n D^3) cost, only when read. The checks here
quantify how much probability the two observers assign to unequal
outcomes.

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
    as_complex_matrix,
    is_unitary,
    random_state,
    tensor,
)
from .observables import (
    DEFAULT_LABEL_TOL,
    Observable,
    Povm,
    _born_table,
    born_probabilities,
    clamp_probability,
)
from .processes import (
    MeasurementProcess,
    _evolved,
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


def _check_commute(m1: Observable, m2: Observable) -> None:
    commutator_norm = float(np.linalg.norm(m1.matrix @ m2.matrix - m2.matrix @ m1.matrix))
    if commutator_norm > COMMUTATOR_TOL:
        raise LocalityError(f"evolved meters do not commute: Frobenius norm {commutator_norm:.3e}")


@dataclass(frozen=True, eq=False)
class JointScenario:
    """Two processes on separate ancillas composed over one system.

    The composite space is system x first ancilla x second ancilla, and the
    composite coupling must be unitary. The joint law is read from the
    state tensor (see ``joint_distribution``), so it needs neither evolved
    meter.

    ``evolved_meter1``/``evolved_meter2`` are each process meter, lifted to
    its own ancilla factor and conjugated by the composite coupling. They
    commute by construction: the lifted meters act on distinct ancilla
    factors, so they commute, and conjugating both by the same unitary
    keeps that. They are derived from the processes and the coupling alone:
    built densely on first read, at O(n D^3) cost for n branches in
    composite dimension D, checked to commute within COMMUTATOR_TOL (else
    ``LocalityError``) and kept.
    """

    system_dim: int
    process1: MeasurementProcess
    process2: MeasurementProcess
    composite_coupling: np.ndarray

    def __post_init__(self) -> None:
        coupling = as_complex_matrix(self.composite_coupling, "composite coupling").copy()
        if coupling.shape != (self.total_dim, self.total_dim):
            raise ValueError("composite coupling does not match the threefold dimension")
        if not is_unitary(coupling):
            raise ValueError(f"composite coupling is not unitary within {UNITARY_TOL}")
        coupling.setflags(write=False)
        object.__setattr__(self, "composite_coupling", coupling)

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.process1.ancilla_dim * self.process2.ancilla_dim

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
        total = sum(p for _, p in entries)
        if abs(total - 1.0) > JOINT_SUM_TOL:
            raise NumericalConsistencyError(
                f"joint probabilities sum to {total!r}, off from 1 by more than {JOINT_SUM_TOL}"
            )
        object.__setattr__(self, "entries", entries)

    def as_dict(self) -> dict[tuple[float, float], float]:
        return dict(self.entries)

    def probability(self, x: float, y: float, label_tol: float = DEFAULT_LABEL_TOL) -> float:
        return sum(
            p for (a, b), p in self.entries if abs(a - x) <= label_tol and abs(b - y) <= label_tol
        )


@dataclass(frozen=True)
class IntersubjectivityReport:
    """How much probability two observers assign to unequal outcomes."""

    off_diagonal_mass: float
    diagonal: dict[float, float]
    passes: bool
    tolerance_used: float

    def __post_init__(self) -> None:
        total = self.off_diagonal_mass + sum(self.diagonal.values())
        if abs(total - 1.0) > JOINT_SUM_TOL:
            raise NumericalConsistencyError(
                f"report masses sum to {total!r}, off from 1 by more than {JOINT_SUM_TOL}"
            )
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
    default the first process couples first. The composite coupling is
    formed by contracting the two couplings over the system index they
    share, at O(d D^2) cost. The evolved meters are left to be built on
    first read.
    """
    if p1.system_dim != p2.system_dim:
        raise ValueError("processes disagree on the system dimension")
    if first not in (1, 2):
        raise ValueError("first must be 1 or 2")
    d, k1, k2 = p1.system_dim, p1.ancilla_dim, p2.ancilla_dim
    total = d * k1 * k2
    if total > PRODUCT_DIM_GUARD:
        raise ValueError(f"composite dimension {total} exceeds the guard {PRODUCT_DIM_GUARD}")
    u1 = p1.coupling.reshape(d, k1, d, k1)
    u2 = p2.coupling.reshape(d, k2, d, k2)
    # Output axes are (system, ancilla 1, ancilla 2) twice; m is the system
    # index between the two couplings.
    if first == 1:
        six = np.einsum("icme,majb->iacjbe", u2, u1, optimize=True)
    else:
        six = np.einsum("iamb,mcje->iacjbe", u1, u2, optimize=True)
    return JointScenario(
        system_dim=d,
        process1=p1,
        process2=p2,
        composite_coupling=six.reshape(total, total),
    )


def joint_distribution(scenario: JointScenario, psi: State) -> JointDistribution:
    """Joint outcome probabilities for both observers in a system state.

    Applies the composite coupling to psi x xi1 x xi2 and reads the result
    w as a tensor over (system, ancilla 1, ancilla 2). The probability of
    the pair (x, y) is <w| I x P_x x Q_y |w>, with P_x and Q_y the spectral
    projectors of the two process meters acting on their own ancilla axes.
    This equals the product of the evolved meters' projectors in the
    composite state without building them. Entries are real and
    nonnegative up to rounding.
    """
    if psi.dim != scenario.system_dim:
        raise ValueError(
            f"state dimension {psi.dim} does not match system dimension {scenario.system_dim}"
        )
    meter1, meter2 = scenario.process1.meter, scenario.process2.meter
    k1, k2 = meter1.dim, meter2.dim
    xi1 = scenario.process1.ancilla_state.amplitudes
    xi2 = scenario.process2.ancilla_state.amplitudes
    phi = np.einsum("i,a,c->iac", psi.amplitudes, xi1, xi2).reshape(-1)
    w = (scenario.composite_coupling @ phi).reshape(psi.dim, k1, k2)
    probs = _born_table(
        w, np.array(meter1.spectral.projectors), np.array(meter2.spectral.projectors)
    )
    entries = [
        ((x, y), clamp_probability(float(probs[i, j])))
        for i, x in enumerate(meter1.labels)
        for j, y in enumerate(meter2.labels)
    ]
    return JointDistribution(tuple(entries))


def check_intersubjectivity(
    scenario: JointScenario,
    psi: State,
    tol: float = DEFAULT_AGREEMENT_TOL,
    label_tol: float = DEFAULT_LABEL_TOL,
) -> IntersubjectivityReport:
    """Measure the probability that the two observers read different values.

    Joint entries whose labels agree within label_tol count as diagonal and
    are reported per label; everything else accumulates into the
    off-diagonal mass, which must stay below tol for the check to pass.
    """
    joint = joint_distribution(scenario, psi)
    off_mass = 0.0
    diagonal: dict[float, float] = {}
    for (x, y), p in joint.entries:
        if abs(x - y) <= label_tol:
            diagonal[x] = diagonal.get(x, 0.0) + p
        else:
            off_mass += p
    return IntersubjectivityReport(
        off_diagonal_mass=off_mass,
        diagonal=diagonal,
        passes=off_mass <= tol,
        tolerance_used=tol,
    )


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
    the given seed through numpy's SeedSequence, so summaries replay exactly.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    first = build_vn_process(a)
    second = naimark_dilation(Povm.from_observable(a))
    for mp in (first, second):
        if not check_probability_reproducibility(mp, a, tol=tol, label_tol=label_tol):
            raise NumericalConsistencyError(
                "constructed process fails to reproduce the observable it was built for"
            )
    scenario = compose_joint_scenario(first, second)
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials)
    max_off = 0.0
    max_gap = 0.0
    all_pass = True
    for trial_seed in trial_seeds:
        psi = random_state(a.dim, int(trial_seed))
        report = check_intersubjectivity(scenario, psi, tol=tol, label_tol=label_tol)
        max_off = max(max_off, report.off_diagonal_mass)
        all_pass = all_pass and report.passes
        born = born_probabilities(a, psi)
        for x, p in born.entries:
            gap = abs(report.diagonal.get(x, 0.0) - p)
            max_gap = max(max_gap, gap)
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
    meter = Observable.from_matrix(np.diag([0.0, 1.0]))
    process = MeasurementProcess(2, State.basis(2, 0), coupling, meter)
    return povm, compose_joint_scenario(process, process)


def sample_outcomes(
    scenario: JointScenario, psi: State, n: int, seed: int
) -> dict[tuple[float, float], int]:
    """Draw outcome pairs from the joint distribution by inverse CDF.

    Uses numpy's PCG64 stream seeded as given; identical arguments produce
    identical counts. Only observed pairs appear in the result, so zero draws
    yield an empty mapping.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
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
