"""Two observers measuring one system: joint scenarios and outcome agreement.

Two measurement processes that share the system but own separate ancillas
are composed into one scenario, only by ``compose_joint_scenario``, through
their isometries V = U (I x xi), each with its ancilla axis rotated into its
meter's eigenbasis: applied one after the other they give the scenario's
(D, d) rows W at O(D d^2), its only data, so a scenario's joint law is the
one its processes define. Every statistic reads W psi, the state tensor
already in both meter eigenbases, through one table of squared amplitudes
summed over each pair of branches. The dense D x D composite coupling and
the evolved meters (each process meter conjugated by it, commuting by
construction) are references, built at O(D^3) only when read. The checks
here measure how much probability the two observers assign to unequal
outcomes; a report's pass flag is read from the mass it summarizes.

``verify_oit`` draws its trial states in order from the one stream its seed
names and evaluates them in chunks of about 2^14 complex entries of composite
states, each chunk's joint laws one complex product with W, one branch sum and
one 0/1 agreement map, so no memory grows with the trial count.

That off-diagonal mass vanishes when each observer's meter, evolved through
the whole scenario, reproduces one sharp observable a. Each process
reproducing a gives this when the one coupled first leaves a's projectors
invariant, sum_x K_x^H P_y K_x = P_y for its instrument K, as the Lueders
instruments of ``verify_oit`` do; K_x = U_x P_x for unitaries U_x does not.
Two dilations of the uninformative qubit POVM show the sharp hypothesis is
essential: each observer sees a fair coin, independently of the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import LocalityError, NumericalConsistencyError
from .linalg import PRODUCT_DIM_GUARD, State, _check_seed, _gaussian_amplitudes, _gram_error
from .observables import (
    Observable,
    Povm,
    _branch_sums,
    _check_distribution,
    _labels_agree,
    clamp_probability,
)
from .processes import (
    MeasurementProcess,
    _evolved,
    effect_gaps,
    naimark_dilation,
)
from .tolerances import COMMUTATOR_TOL, DEFAULT_LABEL_TOL, DEFAULT_TOL, PROBABILITY_SUM_TOL
from .tolerances import STATE_NORM_TOL, UNITARY_TOL, _require
from .vonneumann import build_vn_process

# verify_oit evaluates its trials in chunks whose composite states hold about
# this many complex entries (256 KiB); a run takes at most _MAX_CHUNKS, ~1 ms each.
_CHUNK_ENTRIES = 2**14
_MAX_CHUNKS = 2**20


@dataclass(frozen=True, eq=False, init=False)
class JointScenario:
    """Two processes on separate ancillas composed over one system.

    Built only by ``compose_joint_scenario``; the class has no constructor of
    its own. The composite space is system x first ancilla x second ancilla;
    process ``first`` couples first. The only data is the read-only (D, d)
    rows ``_rows``, W = (I x B1^H x B2^H) C (I x xi1 x xi2): the composite
    coupling C at both ancilla states, each ancilla axis in its meter's
    eigenbasis, with W^H W = I checked within UNITARY_TOL at O(D d^2). Every
    statistic is read from W alone (see ``joint_distribution``).

    The dense ``composite_coupling`` C (O(D^3) with its unitarity check) and
    the evolved meters (each process meter on its own ancilla factor
    conjugated by it, O(D^3) each) are references, built on first read and
    kept. The meters commute by construction, being lifted to
    distinct factors and conjugated by one unitary, and are checked to
    within COMMUTATOR_TOL (else ``LocalityError``).
    """

    process1: MeasurementProcess
    process2: MeasurementProcess
    _rows: np.ndarray
    first: int

    def __reduce__(self):
        return compose_joint_scenario, (self.process1, self.process2, self.first)

    @property
    def system_dim(self) -> int:
        return self.process1.system_dim

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
        _require("composite coupling is unitary", _gram_error(coupling), UNITARY_TOL)
        coupling.setflags(write=False)
        return coupling

    @functools.cached_property
    def _evolved_meters(self) -> tuple[Observable, Observable]:
        d, k1, k2 = self.system_dim, self.process1.ancilla_dim, self.process2.ancilla_dim
        meter1 = _evolved(self.composite_coupling, self.process1.meter, d, k2)
        meter2 = _evolved(self.composite_coupling, self.process2.meter, d * k1, 1)
        commutator = np.linalg.norm(meter1.matrix @ meter2.matrix - meter2.matrix @ meter1.matrix)
        _require("evolved meters commute", commutator, COMMUTATOR_TOL, LocalityError)
        return meter1, meter2

    @property
    def evolved_meter1(self) -> Observable:
        return self._evolved_meters[0]

    @property
    def evolved_meter2(self) -> Observable:
        return self._evolved_meters[1]


@dataclass(frozen=True)
class JointDistribution:
    """Joint probabilities over pairs of outcome labels, checked as an OutcomeDistribution is."""

    entries: tuple[tuple[tuple[float, float], float], ...]

    def __post_init__(self) -> None:
        entries = tuple(((float(x), float(y)), float(p)) for (x, y), p in self.entries)
        _check_distribution(entries)
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
    tolerance_used: float

    def __post_init__(self) -> None:
        gap = abs(self.off_diagonal_mass + sum(self.diagonal.values()) - 1.0)
        _require("report masses sum to 1", gap, PROBABILITY_SUM_TOL, NumericalConsistencyError)

    @property
    def passes(self) -> bool:
        return bool(self.off_diagonal_mass <= self.tolerance_used)


@dataclass(frozen=True)
class OitSummary:
    """Aggregate of agreement checks across random trial states."""

    trials: int
    seed: int
    tolerance: float
    max_off_diagonal_mass: float
    max_born_gap: float

    @property
    def passes(self) -> bool:
        return bool(self.max_off_diagonal_mass <= self.tolerance)


def compose_joint_scenario(
    p1: MeasurementProcess, p2: MeasurementProcess, first: int = 1
) -> JointScenario:
    """Compose two processes with a shared system into one scenario, the
    only way a ``JointScenario`` is built.

    Each coupling acts on the system and its own ancilla, with identity on
    the other observer's ancilla, and the two are applied sequentially;
    process ``first`` (1 or 2) couples first. The process isometries, each
    ancilla axis in its meter's eigenbasis (one batched k x k product), are
    contracted over their shared system index at O(D d^2) into the read-only
    rows W the processes define; the dense objects come on first read.
    """
    if first not in (1, 2):
        raise ValueError("first must be 1 or 2")
    if p1.system_dim != p2.system_dim:
        raise ValueError("processes disagree on the system dimension")
    d, total = p1.system_dim, p1.total_dim * p2.ancilla_dim
    if total > PRODUCT_DIM_GUARD:
        raise ValueError(f"composite dimension {total} exceeds the guard {PRODUCT_DIM_GUARD}")
    w1, w2 = (p.meter.spectral.basis.conj().T @ p.isometry.reshape(d, -1, d) for p in (p1, p2))
    # Rows (system, column 1, column 2); m is the system index between the two.
    if first == 1:
        rows = np.einsum("icm,maj->iacj", w2, w1, optimize=True).reshape(total, d)
    else:
        rows = np.einsum("iam,mcj->iacj", w1, w2, optimize=True).reshape(total, d)
    rows.setflags(write=False)
    _require("scenario isometry has orthonormal columns", _gram_error(rows), UNITARY_TOL)
    scenario = object.__new__(JointScenario)
    vars(scenario).update(process1=p1, process2=p2, _rows=rows, first=first)
    return scenario


def _joint_tables(scenario: JointScenario, psi: np.ndarray) -> np.ndarray:
    """Clamped joint law (see ``joint_distribution``) of each row of the
    (T, d) array psi, shape (T, n1, n2).

    The amplitudes W psi, in both meter eigenbases, are one complex product
    psi W^T at O(T D d), summed as (T, d, k1, k2) squared moduli per pair of
    branches. Every table must sum to 1 within PROBABILITY_SUM_TOL.
    """
    d, meter1, meter2 = scenario.system_dim, scenario.process1.meter, scenario.process2.meter
    if psi.shape[1] != d:
        raise ValueError(f"state dimension {psi.shape[1]} does not match system dimension {d}")
    amps = (psi @ scenario._rows.T).reshape(-1, d, meter1.dim, meter2.dim)
    probs = clamp_probability(_branch_sums(amps, meter1.spectral, meter2.spectral))
    gap = np.abs(np.einsum("txy->t", probs) - 1.0)
    _require("joint probabilities sum to 1", gap, PROBABILITY_SUM_TOL, NumericalConsistencyError)
    return probs


def joint_distribution(scenario: JointScenario, psi: State) -> JointDistribution:
    """Joint outcome probabilities for both observers in a system state.

    The composite coupling applied to psi x xi1 x xi2 gives a tensor w over
    (system, ancilla 1, ancilla 2). The probability of the pair (x, y) is
    <w| I x P_x x Q_y |w>, with P_x and Q_y the spectral projectors of the
    two process meters on their own ancilla axes, read without forming them:
    W psi is w in both meter eigenbases, and its squared amplitudes are
    summed over branch x's and branch y's columns. This equals the product
    of the evolved meters' projectors in the composite state. Entries are
    nonnegative.
    """
    probs = _joint_tables(scenario, psi.amplitudes[None])[0].tolist()
    labels1, labels2 = scenario.process1.meter.labels, scenario.process2.meter.labels
    entries = [((x, y), p) for x, row in zip(labels1, probs) for y, p in zip(labels2, row)]
    return JointDistribution(tuple(entries))


def _agreement(scenario: JointScenario, label_tol: float) -> np.ndarray:
    """The (n1 n2, n1 + 1) 0/1 map G of a flattened joint table: entry
    (x_i, y_j) goes to column i when the labels agree within label_tol, else
    to column n1, the mass where the observers disagree."""
    labels1 = np.array(scenario.process1.meter.labels)
    n1 = len(labels1)
    same = _labels_agree(labels1[:, None], scenario.process2.meter.labels, label_tol)
    return np.eye(n1 + 1)[np.where(same, np.arange(n1)[:, None], n1).ravel()]


def check_intersubjectivity(
    scenario: JointScenario,
    psi: State,
    tol: float = DEFAULT_TOL,
    label_tol: float = DEFAULT_LABEL_TOL,
) -> IntersubjectivityReport:
    """Measure the probability that the two observers read different values.

    The joint table times the agreement map G (``_agreement``), as in
    ``verify_oit``: entries whose labels agree within label_tol are summed
    per first-observer label, kept for each label with an agreeing partner;
    the rest is the off-diagonal mass, which must stay below tol to pass.
    """
    agreement = _agreement(scenario, label_tol)
    masses = (_joint_tables(scenario, psi.amplitudes[None]).reshape(-1) @ agreement).tolist()
    hits = agreement[:, :-1].any(axis=0)
    diagonal = {x: m for x, m, hit in zip(scenario.process1.meter.labels, masses, hits) if hit}
    return IntersubjectivityReport(masses[-1], diagonal, tol)


def verify_oit(
    a: Observable,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    label_tol: float = DEFAULT_LABEL_TOL,
) -> OitSummary:
    """Check that two reproducible measurements of one sharp observable agree.

    Builds two Lueders processes reproducing ``a`` (the pointer-shift
    construction and a dilation of a's projective POVM), verifies
    reproducibility for both as a hard precondition at the default bounds
    (not ``tol`` and ``label_tol``, which set only the agreement check),
    composes them, and runs the agreement check on seeded random states.
    Also tracks how far the diagonal probabilities drift from the Born
    distribution of ``a``. The trial states come in trial order from the one
    stream ``default_rng(seed)``, each drawn as ``random_state`` draws it, so
    trial 0 is ``random_state(a.dim, seed)`` and any chunk length replays.

    The trials are evaluated in chunks, each as one batch: the chunk's
    states are normalized as one (T, d) array, its joint laws are one
    complex product with the scenario's rows (``_joint_tables``) and its Born
    laws of ``a`` one product with a's eigenbasis, each then summed per
    branch by the one ``_branch_sums``; the joint tables times the agreement
    map G of ``check_intersubjectivity`` give every trial's agreement masses.
    Each trial keeps the checks of the per-state functions
    (``check_intersubjectivity``, ``born_probabilities``): state norm,
    probability clamping and both sums, with the same bounds and errors. A
    chunk holds about 2^14 complex entries of composite amplitudes, D = d k1
    k2 per trial: its largest arrays, and no array grows with the trial
    count. More trials than 2^20 chunks hold raise ``ValueError``.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_seed(seed)
    first = build_vn_process(a)
    second = naimark_dilation(Povm.from_observable(a))
    for mp in (first, second):
        gaps = effect_gaps(mp, a)
        if gaps is None:
            raise NumericalConsistencyError("constructed process misses the observable's labels")
        check = "constructed process reproduces the observable"
        _require(check, [gap for _, gap in gaps], DEFAULT_TOL, NumericalConsistencyError)
    scenario = compose_joint_scenario(first, second)
    d, k1, k2 = a.dim, first.ancilla_dim, second.ancilla_dim
    chunk = max(1, _CHUNK_ENTRIES // (d * k1 * k2))
    if trials > chunk * _MAX_CHUNKS:
        raise ValueError(f"trials {trials} exceed the limit {chunk * _MAX_CHUNKS} at d = {d}")
    # The pointer process's meter carries a's labels in a's order, so column i
    # of the agreement masses below pairs with a's Born probability of label i.
    agreement = _agreement(scenario, label_tol)
    rng = np.random.default_rng(seed)
    max_off = 0.0
    max_gap = 0.0
    for start in range(0, trials, chunk):
        psi = _gaussian_amplitudes(rng, min(chunk, trials - start), d)
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        _require("state has unit norm", np.abs(np.linalg.norm(psi, axis=1) - 1.0), STATE_NORM_TOL)
        masses = _joint_tables(scenario, psi).reshape(len(psi), -1) @ agreement
        amps = (psi @ a.spectral.basis.conj()).reshape(-1, 1, d, 1)
        born = clamp_probability(_branch_sums(amps, a.spectral)[..., 0])
        gap = np.abs(np.einsum("tx->t", born) - 1.0)
        _require("probabilities sum to 1", gap, PROBABILITY_SUM_TOL, NumericalConsistencyError)
        max_off = max(max_off, float(masses[:, -1].max()))
        max_gap = max(max_gap, float(np.abs(masses[:, :-1] - born).max()))
    return OitSummary(
        trials=trials,
        seed=seed,
        tolerance=tol,
        max_off_diagonal_mass=max_off,
        max_born_gap=max_gap,
    )


def counterexample_uninformative_povm() -> tuple[Povm, JointScenario]:
    """Two independent realizations of the uninformative qubit POVM.

    Both effects equal half the identity, so the system state fixes nothing:
    the POVM's Naimark dilation leaves the system as it is, puts its ancilla
    in an even superposition and reads a fair coin off it. Two copies induce
    the target POVM, yet the joint distribution is uniform and the observers
    disagree with probability one half for every system state.
    """
    half = np.eye(2, dtype=complex) / 2
    povm = Povm(((0.0, half), (1.0, half)))
    return povm, compose_joint_scenario(naimark_dilation(povm), naimark_dilation(povm))


def sample_outcomes(
    scenario: JointScenario, psi: State, n: int, seed: int
) -> dict[tuple[float, float], int]:
    """Draw outcome pairs from the joint distribution by inverse CDF.

    The cells are the entries of psi's checked joint table, pairs in
    row-major label order, drawn from numpy's PCG64 stream seeded as given
    (a nonnegative integer, else ``ValueError``); identical arguments
    produce identical counts. Only observed pairs appear in the result, so
    zero draws yield an empty mapping.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    _check_seed(seed)
    table = _joint_tables(scenario, psi.amplitudes[None])[0]
    if n == 0:
        return {}
    boundaries = np.cumsum(table.ravel())
    boundaries[-1] = 1.0
    counts = _cell_counts(boundaries, np.random.default_rng(seed).random(n)).tolist()
    labels1, labels2 = scenario.process1.meter.labels, scenario.process2.meter.labels
    pairs = [(x, y) for x in labels1 for y in labels2]
    return {pair: count for pair, count in zip(pairs, counts) if count}


def _cell_counts(boundaries: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """How many draws fall in each cell [b_(i-1), b_i) of the nondecreasing
    boundaries, b_(-1) = 0, counted by sorting: a draw on a boundary goes above it."""
    return np.diff(np.searchsorted(np.sort(draws), boundaries, side="left"), prepend=0)
