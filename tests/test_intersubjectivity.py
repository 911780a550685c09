"""Tests for two-observer composition, joint statistics, and agreement checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import PAULI_X, PAULI_Z, random_hermitian, random_meter_process, random_unitary
from qmeas import intersubjectivity
from qmeas.errors import LocalityError, NumericalConsistencyError
from qmeas.intersubjectivity import (
    IntersubjectivityReport,
    JointScenario,
    check_intersubjectivity,
    compose_joint_scenario,
    counterexample_uninformative_povm,
    joint_distribution,
    sample_outcomes,
    verify_oit,
)
from qmeas.linalg import State, random_state
from qmeas.observables import Observable, Povm, born_probabilities, povm_probabilities
from qmeas.processes import (
    MeasurementProcess,
    induced_povm,
    naimark_dilation,
    outcome_distribution,
)
from qmeas.vonneumann import build_vn_process


def two_pointer_scenario(matrix, first: int = 1):
    a = Observable.from_matrix(matrix)
    return compose_joint_scenario(build_vn_process(a), build_vn_process(a), first=first)


def trivial_ancilla_process():
    return MeasurementProcess(
        2, State.basis(1, 0), np.eye(2), Observable.from_matrix(np.array([[0.0]]))
    )


# ---------------------------------------------------------------------------
# compose_joint_scenario / JointScenario


def test_composed_pointer_meters_commute():
    scenario = two_pointer_scenario(PAULI_Z)
    m1 = scenario.evolved_meter1.matrix
    m2 = scenario.evolved_meter2.matrix
    assert np.linalg.norm(m1 @ m2 - m2 @ m1) < 1e-12
    assert scenario.total_dim == 8


def test_compose_rejects_system_dimension_mismatch():
    p2 = build_vn_process(Observable.from_matrix(np.diag([1.0, 2.0, 3.0])))
    p1 = build_vn_process(Observable.from_matrix(PAULI_Z))
    with pytest.raises(ValueError):
        compose_joint_scenario(p1, p2)


def test_compose_rejects_oversized_composite():
    a = Observable.from_matrix(np.diag(np.arange(17, dtype=float)))
    mp = build_vn_process(a)
    with pytest.raises(ValueError):
        compose_joint_scenario(mp, mp)


def test_compose_rejects_bad_order_flag():
    mp = build_vn_process(Observable.from_matrix(PAULI_Z))
    with pytest.raises(ValueError):
        compose_joint_scenario(mp, mp, first=3)


def test_mixed_construction_pair_commutes():
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    scenario = compose_joint_scenario(
        build_vn_process(a), naimark_dilation(Povm.from_observable(a))
    )
    m1 = scenario.evolved_meter1.matrix
    m2 = scenario.evolved_meter2.matrix
    assert np.linalg.norm(m1 @ m2 - m2 @ m1) < 1e-9


def test_scenario_meters_are_derived_from_its_processes():
    # A trivial k=1 process with meter [[0]]: the evolved meters, like the
    # joint law, can only carry the label 0.
    p = trivial_ancilla_process()
    scenario = JointScenario(2, p, p, np.eye(2))
    assert scenario.evolved_meter1.labels == p.meter.labels
    assert scenario.evolved_meter2.labels == p.meter.labels
    assert joint_distribution(scenario, State.basis(2, 1)).as_dict() == {(0.0, 0.0): 1.0}


def test_composed_meters_are_kept_after_first_read():
    scenario = two_pointer_scenario(PAULI_Z)
    first = scenario.evolved_meter2
    assert scenario.evolved_meter2 is first
    assert scenario.evolved_meter1 is scenario.evolved_meter1


def test_compose_and_joint_law_peak_memory_at_dimension_eight():
    # D = 512: one dense composite coupling is D^2 * 16 B = 4 MiB; the bound
    # admits a handful of such arrays but not one per evolved projector.
    a = Observable.from_matrix(np.diag(np.arange(8, dtype=float)))
    p1, p2 = build_vn_process(a), naimark_dilation(Povm.from_observable(a))
    psi = random_state(8, seed=0)
    bound = 8 * 512**2 * 16
    tracemalloc.start()
    try:
        joint_distribution(compose_joint_scenario(p1, p2), psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1, 2]),
)
@example(seed=3, d=5, k1=4, k2=2, first=2)
def test_stored_isometry_is_the_composite_coupling_at_the_ancilla_states(seed, d, k1, k2, first):
    assume(k1 != k2)
    rng = np.random.default_rng(seed)
    p1 = random_meter_process(d, k1, rng, degenerate=False)
    p2 = random_meter_process(d, k2, rng, degenerate=True)
    scenario = compose_joint_scenario(p1, p2, first=first)
    xi = np.kron(p1.ancilla_state.amplitudes, p2.ancilla_state.amplitudes)[:, None]
    columns = scenario.composite_coupling @ np.kron(np.eye(d), xi)
    assert np.max(np.abs(scenario.isometry - columns)) <= 1e-12
    assert not scenario.isometry.flags.writeable
    assert not scenario.composite_coupling.flags.writeable


def test_statistics_never_read_the_composite_coupling(monkeypatch):
    def refuse(self):
        raise AssertionError("statistics must be read from the scenario's isometry")

    monkeypatch.setattr(JointScenario, "composite_coupling", property(refuse))
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert verify_oit(a, trials=20, seed=2).passes
    scenario = compose_joint_scenario(
        build_vn_process(a), naimark_dilation(Povm.from_observable(a)), first=2
    )
    psi = random_state(3, seed=9)
    assert joint_distribution(scenario, psi).probability(2.0, 2.0) > 0.0
    assert check_intersubjectivity(scenario, psi).passes
    assert sum(sample_outcomes(scenario, psi, 100, seed=1).values()) == 100


def test_scenario_rejects_a_non_isometry():
    p = trivial_ancilla_process()
    for bad in (2 * np.eye(2), np.ones((2, 2)), np.eye(4)[:, :2], np.eye(2)[:, :1]):
        with pytest.raises(ValueError):
            JointScenario(2, p, p, bad)
    with pytest.raises(ValueError):
        JointScenario(2, p, p, np.eye(2), first=3)


def test_isometry_contradicting_its_processes_is_rejected_on_dense_read():
    # PAULI_X is an isometry, but the identity couplings of p give V = I.
    p = trivial_ancilla_process()
    with pytest.raises(ValueError):
        JointScenario(2, p, p, PAULI_X).composite_coupling
    with pytest.raises(ValueError):
        JointScenario(2, p, p, PAULI_X).evolved_meter1


def test_oit_at_the_guard_peak_memory():
    # Nondegenerate d=16: D = 16 * 16 * 16 = 4096, where one dense composite
    # coupling alone would take 256 MiB.
    a = Observable.from_matrix(random_hermitian(16, np.random.default_rng(16)))
    assert len(a.labels) == 16
    tracemalloc.start()
    try:
        summary = verify_oit(a, trials=10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.passes
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_locality_error_is_a_value_error():
    assert issubclass(LocalityError, ValueError)


# ---------------------------------------------------------------------------
# joint_distribution


def test_two_pointer_observers_agree_exactly():
    scenario = two_pointer_scenario(PAULI_Z)
    joint = joint_distribution(scenario, State(np.array([0.6, 0.8]))).as_dict()
    assert joint[(1.0, 1.0)] == pytest.approx(0.36, abs=1e-12)
    assert joint[(-1.0, -1.0)] == pytest.approx(0.64, abs=1e-12)
    assert joint[(1.0, -1.0)] == pytest.approx(0.0, abs=1e-15)
    assert joint[(-1.0, 1.0)] == pytest.approx(0.0, abs=1e-15)


def test_eigenstate_gives_deterministic_agreement():
    scenario = two_pointer_scenario(PAULI_Z)
    joint = joint_distribution(scenario, State.basis(2, 0))
    assert joint.probability(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_joint_marginals_match_single_process_statistics():
    a = Observable.from_matrix(PAULI_Z)
    p1 = build_vn_process(a)
    # second observer reads a fair coin off its own ancilla, uncoupled
    meter = Observable.from_matrix(np.diag([0.0, 1.0]))
    p2 = MeasurementProcess(2, State.normalized([1.0, 1.0]), np.eye(4), meter)
    scenario = compose_joint_scenario(p1, p2)
    for seed in range(5):
        psi = random_state(2, seed=seed)
        joint = joint_distribution(scenario, psi)
        dist1 = outcome_distribution(p1, psi).as_dict()
        dist2 = outcome_distribution(p2, psi).as_dict()
        for x, p in dist1.items():
            got = sum(q for (a_, _), q in joint.entries if a_ == x)
            assert got == pytest.approx(p, abs=1e-10)
        for y, p in dist2.items():
            got = sum(q for (_, b_), q in joint.entries if b_ == y)
            assert got == pytest.approx(p, abs=1e-10)


def test_joint_dimension_mismatch_raises():
    scenario = two_pointer_scenario(PAULI_Z)
    with pytest.raises(ValueError):
        joint_distribution(scenario, State.basis(3, 0))


def test_coupling_order_is_irrelevant_for_shared_observable():
    psi = random_state(2, seed=4)
    forward = joint_distribution(two_pointer_scenario(PAULI_Z, first=1), psi).as_dict()
    backward = joint_distribution(two_pointer_scenario(PAULI_Z, first=2), psi).as_dict()
    for pair, p in forward.items():
        assert backward[pair] == pytest.approx(p, abs=1e-10)


def _dense_coupling(p1, p2, first):
    """Both couplings lifted to the threefold space and multiplied densely."""
    d, k1, k2 = p1.system_dim, p1.ancilla_dim, p2.ancilla_dim
    total = d * k1 * k2
    lifted1 = np.kron(p1.coupling, np.eye(k2))
    four = p2.coupling.reshape(d, k2, d, k2)
    lifted2 = np.einsum("icjd,ab->iacjbd", four, np.eye(k1)).reshape(total, total)
    return lifted2 @ lifted1 if first == 1 else lifted1 @ lifted2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1, 2]),
    st.booleans(),
)
@example(seed=1, d=5, k1=2, k2=4, first=2, degenerate=True)
@example(seed=2, d=3, k1=4, k2=3, first=1, degenerate=True)
def test_contracted_joint_law_matches_dense_evolved_meters(seed, d, k1, k2, first, degenerate):
    rng = np.random.default_rng(seed)
    p1 = random_meter_process(d, k1, rng, degenerate)
    p2 = random_meter_process(d, k2, rng, degenerate)
    scenario = compose_joint_scenario(p1, p2, first=first)
    assert np.max(np.abs(scenario.composite_coupling - _dense_coupling(p1, p2, first))) <= 1e-12
    states = [random_state(d, seed=seed + t) for t in range(3)]
    batch = intersubjectivity._joint_tables(scenario, np.array([s.amplitudes for s in states]))
    for psi, table in zip(states, batch):
        phi = psi.tensor(p1.ancilla_state).tensor(p2.ancilla_state).amplitudes
        joint = joint_distribution(scenario, psi)
        expected = [
            ((x, y), float(np.real(np.vdot(e1 @ phi, e2 @ phi))))
            for x, e1 in scenario.evolved_meter1.spectral.branches
            for y, e2 in scenario.evolved_meter2.spectral.branches
        ]
        assert [pair for pair, _ in joint.entries] == [pair for pair, _ in expected]
        for (_, got), batched, (_, want) in zip(joint.entries, table.ravel(), expected):
            assert abs(got - want) <= 1e-12
            assert abs(batched - want) <= 1e-12


# ---------------------------------------------------------------------------
# check_intersubjectivity


def test_agreement_report_for_pointer_pair():
    scenario = two_pointer_scenario(PAULI_Z)
    report = check_intersubjectivity(scenario, State(np.array([0.6, 0.8])))
    assert report.passes
    assert report.off_diagonal_mass <= 1e-12
    assert report.diagonal[1.0] == pytest.approx(0.36, abs=1e-12)
    assert report.diagonal[-1.0] == pytest.approx(0.64, abs=1e-12)


def test_agreement_report_flags_disagreement():
    _, scenario = counterexample_uninformative_povm()
    report = check_intersubjectivity(scenario, random_state(2, seed=1))
    assert not report.passes
    assert report.off_diagonal_mass == pytest.approx(0.5, abs=1e-12)


def test_report_rejects_leaking_mass():
    with pytest.raises(NumericalConsistencyError):
        IntersubjectivityReport(
            off_diagonal_mass=0.3, diagonal={1.0: 0.2}, passes=False, tolerance_used=1e-9
        )


def test_report_rejects_contradictory_pass_flag():
    with pytest.raises(ValueError):
        IntersubjectivityReport(
            off_diagonal_mass=0.5, diagonal={1.0: 0.5}, passes=True, tolerance_used=1e-9
        )


# Labels 0.0 and 1.0 sit exactly label_tol = 1.0 apart, and the boundary
# counts as agreement.
def test_agreement_boundary_is_inclusive():
    _, scenario = counterexample_uninformative_povm()
    psi = State.basis(2, 0)
    on = check_intersubjectivity(scenario, psi, label_tol=1.0)
    assert on.off_diagonal_mass == 0.0
    assert on.passes
    assert on.diagonal == pytest.approx({0.0: 0.5, 1.0: 0.5}, abs=1e-12)
    inside = check_intersubjectivity(scenario, psi, label_tol=0.5)
    assert inside.off_diagonal_mass == pytest.approx(0.5, abs=1e-12)
    assert inside.diagonal == pytest.approx({0.0: 0.25, 1.0: 0.25}, abs=1e-12)


def test_diagonal_keeps_only_labels_with_an_agreeing_partner():
    p1 = build_vn_process(Observable.from_matrix(np.diag([0.0, 1.0])))
    p2 = build_vn_process(Observable.from_matrix(np.diag([0.0, 3.0])))
    psi = State.normalized([1.0, 1.0])
    report = check_intersubjectivity(compose_joint_scenario(p1, p2), psi, label_tol=0.5)
    assert list(report.diagonal) == [0.0]
    assert report.diagonal[0.0] == pytest.approx(0.5, abs=1e-12)
    assert report.off_diagonal_mass == pytest.approx(0.5, abs=1e-12)


def test_probability_with_no_agreeing_label_is_a_float_zero():
    povm, scenario = counterexample_uninformative_povm()
    psi = State.basis(2, 0)
    joint = joint_distribution(scenario, psi).probability(0.5, 0.5, label_tol=0.25)
    single = povm_probabilities(povm, psi).probability(0.5, label_tol=0.25)
    assert type(joint) is float and joint == 0.0
    assert type(single) is float and single == 0.0


def test_joint_probability_window_includes_its_boundary():
    _, scenario = counterexample_uninformative_povm()
    joint = joint_distribution(scenario, State.basis(2, 0))
    assert joint.probability(0.0, 0.0, label_tol=1.0) == pytest.approx(1.0, abs=1e-12)
    assert joint.probability(0.5, 0.5, label_tol=0.5) == pytest.approx(1.0, abs=1e-12)
    assert joint.probability(0.0, 0.0, label_tol=0.5) == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# verify_oit


def test_oit_holds_for_qubit_observable():
    summary = verify_oit(Observable.from_matrix(PAULI_Z), trials=25, seed=7)
    assert summary.passes
    assert summary.max_off_diagonal_mass < 1e-9
    assert summary.max_born_gap < 1e-9
    assert summary.trials == 25


def test_oit_holds_for_qutrit_observable():
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert verify_oit(a, trials=10, seed=3).passes


def test_oit_holds_for_nondegenerate_dimension_eight():
    a = Observable.from_matrix(random_hermitian(8, np.random.default_rng(8)))
    assert len(a.labels) == 8
    summary = verify_oit(a, trials=20, seed=5)
    assert summary.passes
    assert summary.max_off_diagonal_mass < 1e-9
    assert summary.max_born_gap < 1e-9


def test_oit_summary_replays_exactly():
    a = Observable.from_matrix(PAULI_Z)
    assert verify_oit(a, trials=5, seed=11) == verify_oit(a, trials=5, seed=11)


def test_oit_trivial_observable():
    assert verify_oit(Observable.from_matrix(np.eye(2)), trials=3, seed=0).passes


def test_oit_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        verify_oit(Observable.from_matrix(PAULI_Z), trials=0)


def reference_oit(a, trials, seed, label_tol):
    """The per-trial loop over the public per-state functions that the
    chunked verify_oit evaluates in batches: (max off mass, max gap, passes)."""
    scenario = compose_joint_scenario(
        build_vn_process(a), naimark_dilation(Povm.from_observable(a))
    )
    max_off, max_gap, passes = 0.0, 0.0, True
    for trial_seed in np.random.SeedSequence(seed).generate_state(trials):
        psi = random_state(a.dim, int(trial_seed))
        report = check_intersubjectivity(scenario, psi, label_tol=label_tol)
        max_off = max(max_off, report.off_diagonal_mass)
        passes = passes and report.passes
        for x, p in born_probabilities(a, psi).entries:
            max_gap = max(max_gap, abs(report.diagonal.get(x, 0.0) - p))
    return max_off, max_gap, passes


def rotated_observable(values, seed):
    basis = random_unitary(len(values), np.random.default_rng(seed))
    return Observable.from_matrix((basis * np.array(values, dtype=float)) @ basis.conj().T)


# (observable, label_tol, trial counts that span several chunks). At d=5 a
# nondegenerate observable has 5 branches and chunks of 104 trials, four
# distinct eigenvalues give chunks of 256.
OIT_CASES = {
    "trivial-d2": (lambda: Observable.from_matrix(np.eye(2)), 1e-8, ()),
    "pauli-z": (lambda: Observable.from_matrix(PAULI_Z), 1e-8, ()),
    "degenerate-d4": (lambda: Observable.from_matrix(np.diag([0.0, 0.0, 1.0, 1.0])), 1e-8, ()),
    "wide-label-tol-d3": (lambda: Observable.from_matrix(np.diag([1.0, 2.0, 3.0])), 1.0, ()),
    "nondegenerate-d5": (
        lambda: Observable.from_matrix(random_hermitian(5, np.random.default_rng(5))),
        1e-8,
        (250,),
    ),
    "degenerate-d5": (lambda: rotated_observable([0.0, 1.0, 1.0, 2.0, 3.0], 6), 1e-8, (600,)),
    "wide-label-tol-d5": (lambda: rotated_observable(range(5), 7), 1.5, (250,)),
}


@pytest.mark.parametrize("case", sorted(OIT_CASES))
def test_chunked_oit_matches_the_per_trial_loop(case, monkeypatch):
    make, label_tol, long_runs = OIT_CASES[case]
    a = make()
    chunks = []
    draw = intersubjectivity._gaussian_amplitudes

    def recording_draw(dim, seeds):
        chunks.append(list(seeds))
        return draw(dim, seeds)

    monkeypatch.setattr(intersubjectivity, "_gaussian_amplitudes", recording_draw)
    for trials in (1, 7, *long_runs):
        chunks.clear()
        summary = verify_oit(a, trials=trials, seed=trials, label_tol=label_tol)
        max_off, max_gap, passes = reference_oit(a, trials, trials, label_tol)
        assert summary.passes is passes
        assert abs(summary.max_off_diagonal_mass - max_off) <= 1e-12
        assert abs(summary.max_born_gap - max_gap) <= 1e-12
        # Every trial state is random_state's for its SeedSequence seed.
        seeds = np.random.SeedSequence(trials).generate_state(trials).tolist()
        assert [s for chunk in chunks for s in chunk] == seeds
        if trials in long_runs:
            lengths = [len(chunk) for chunk in chunks]
            assert len(lengths) >= 3 and lengths[-1] < lengths[0], lengths


def test_oit_reads_no_per_state_law(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_oit must not evaluate trials one state at a time")

    for name in ("joint_distribution", "check_intersubjectivity", "born_probabilities"):
        monkeypatch.setattr(intersubjectivity, name, refuse, raising=False)
    monkeypatch.setattr("qmeas.observables.born_probabilities", refuse)
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert verify_oit(a, trials=50, seed=1).passes


def test_oit_memory_is_bounded_whatever_the_trial_count():
    # One unchunked batch of 20,000 trials at d=4 (k1 = k2 = 4) would hold
    # 20,000 reduced states of 256 complex entries twice over: about 175 MiB.
    a = Observable.from_matrix(np.diag([0.0, 1.0, 2.0, 3.0]))
    tracemalloc.start()
    try:
        summary = verify_oit(a, trials=20_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.passes
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_processes_realize_the_povm():
    povm, scenario = counterexample_uninformative_povm()
    for mp in (scenario.process1, scenario.process2):
        got = induced_povm(mp)
        assert got.labels == povm.labels
        for a, b in zip(got.effects, povm.effects):
            assert np.linalg.norm(a - b) <= 1e-10


def test_counterexample_joint_is_uniform():
    _, scenario = counterexample_uninformative_povm()
    joint = joint_distribution(scenario, State.basis(2, 0)).as_dict()
    for pair in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]:
        assert joint[pair] == pytest.approx(0.25, abs=1e-12)


def test_counterexample_disagreement_is_state_independent():
    povm, scenario = counterexample_uninformative_povm()
    for seed in range(5):
        psi = random_state(2, seed=seed)
        report = check_intersubjectivity(scenario, psi)
        assert abs(report.off_diagonal_mass - 0.5) <= 1e-12
        joint = joint_distribution(scenario, psi)
        marginal = povm_probabilities(povm, psi)
        for x in (0.0, 1.0):
            got = sum(p for (a_, _), p in joint.entries if a_ == x)
            assert got == pytest.approx(marginal.probability(x), abs=1e-10)


# ---------------------------------------------------------------------------
# sample_outcomes


def test_sampling_zero_draws_is_empty():
    scenario = two_pointer_scenario(PAULI_Z)
    assert sample_outcomes(scenario, State.basis(2, 0), 0, seed=0) == {}


def test_sampling_rejects_negative_count():
    scenario = two_pointer_scenario(PAULI_Z)
    with pytest.raises(ValueError):
        sample_outcomes(scenario, State.basis(2, 0), -1, seed=0)


def test_sampling_is_deterministic_and_complete():
    scenario = two_pointer_scenario(PAULI_Z)
    psi = State(np.array([0.6, 0.8]))
    first = sample_outcomes(scenario, psi, 500, seed=21)
    second = sample_outcomes(scenario, psi, 500, seed=21)
    assert first == second
    assert sum(first.values()) == 500


def test_sampling_frequencies_track_the_joint_law():
    scenario = two_pointer_scenario(PAULI_Z)
    psi = State(np.array([0.6, 0.8]))
    n = 20_000
    counts = sample_outcomes(scenario, psi, n, seed=2)
    for pair, want in [((1.0, 1.0), 0.36), ((-1.0, -1.0), 0.64)]:
        freq = counts.get(pair, 0) / n
        margin = 3 * np.sqrt(want * (1 - want) / n)
        assert abs(freq - want) <= margin, f"{pair}: {freq} vs {want} +- {margin}"


def test_sampling_never_hits_zero_probability_pairs():
    scenario = two_pointer_scenario(PAULI_Z)
    counts = sample_outcomes(scenario, State.basis(2, 0), 1000, seed=5)
    assert set(counts) == {(1.0, 1.0)}
