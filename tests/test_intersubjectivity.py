"""Tests for two-observer composition, joint statistics, and agreement checks."""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    PAULI_X,
    PAULI_Z,
    random_hermitian,
    random_meter_process,
    random_povm_outcomes,
    random_unitary,
    reference_agreement,
    reference_cell_counts,
    reference_joint_law,
)
from qmeas import intersubjectivity
from qmeas.errors import LocalityError, NumericalConsistencyError
from qmeas.intersubjectivity import (
    IntersubjectivityReport,
    JointDistribution,
    JointScenario,
    OitSummary,
    check_intersubjectivity,
    compose_joint_scenario,
    counterexample_uninformative_povm,
    joint_distribution,
    sample_outcomes,
    verify_oit,
)
from qmeas.linalg import SpectralDecomposition, State, random_state
from qmeas.observables import (
    Observable,
    OutcomeDistribution,
    Povm,
    born_probabilities,
    povm_probabilities,
)
from qmeas.processes import (
    MeasurementProcess,
    induced_povm,
    naimark_dilation,
    outcome_distribution,
)
from qmeas.vonneumann import build_vn_process, check_observable_entanglement, entangled_state


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
    scenario = compose_joint_scenario(p, p)
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
    # The stored rows are V with both ancilla axes in their meters' eigenbases.
    bases = np.kron(p1.meter.spectral.basis, p2.meter.spectral.basis)
    rows = np.kron(np.eye(d), bases.conj().T) @ scenario.isometry
    assert np.max(np.abs(scenario._rows - rows)) <= 1e-12
    for array in (scenario._rows, scenario.isometry, scenario.composite_coupling):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


def test_statistics_never_read_the_composite_coupling(monkeypatch):
    def refuse(self):
        raise AssertionError("statistics must be read from the scenario's rows")

    monkeypatch.setattr(JointScenario, "composite_coupling", property(refuse))
    monkeypatch.setattr(JointScenario, "isometry", property(refuse))
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert verify_oit(a, trials=20, seed=2).passes
    scenario = compose_joint_scenario(
        build_vn_process(a), naimark_dilation(Povm.from_observable(a)), first=2
    )
    psi = random_state(3, seed=9)
    assert joint_distribution(scenario, psi).probability(2.0, 2.0) > 0.0
    assert check_intersubjectivity(scenario, psi).passes
    assert sum(sample_outcomes(scenario, psi, 100, seed=1).values()) == 100


def test_scenario_has_no_constructor_but_compose():
    # A pointer process and a dilation of diag(0, 1) always agree; an
    # isometry sending |0> to the outcome pair (0, 1) cannot be handed in.
    assert "__init__" not in vars(JointScenario)
    a = Observable.from_matrix(np.diag([0.0, 1.0]))
    p1, p2 = build_vn_process(a), naimark_dilation(Povm.from_observable(a))
    disagreeing = np.zeros((8, 2))
    disagreeing[1, 0] = disagreeing[7, 1] = 1.0
    for args in [(2, p1, p2, disagreeing), (p1, p2, disagreeing, 1)]:
        with pytest.raises(TypeError):
            JointScenario(*args)
    with pytest.raises(TypeError):
        JointScenario(process1=p1, process2=p2, isometry=disagreeing, first=1)
    assert check_intersubjectivity(compose_joint_scenario(p1, p2), State.basis(2, 0)).passes


@pytest.mark.parametrize("first", [1, 2])
def test_composed_scenario_survives_a_pickle_round_trip(first):
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    scenario = compose_joint_scenario(
        build_vn_process(a), naimark_dilation(Povm.from_observable(a)), first=first
    )
    copy = pickle.loads(pickle.dumps(scenario))
    assert copy.first == first
    assert np.array_equal(copy.isometry, scenario.isometry)
    assert not copy.isometry.flags.writeable
    psi = random_state(3, seed=4)
    assert joint_distribution(copy, psi) == joint_distribution(scenario, psi)


def test_a_pickled_scenario_leaves_its_isometry_out():
    a = Observable.from_matrix(np.diag([1.0, 2.0, 2.0]))
    scenario = compose_joint_scenario(build_vn_process(a), naimark_dilation(Povm.from_observable(a)))
    before = pickle.dumps(scenario)
    scenario.isometry
    assert pickle.dumps(scenario) == before
    assert "isometry" not in vars(pickle.loads(before))


def reachable(value, path):
    """(path, item) of value and of everything reachable from it through
    tuples, dicts and the attributes of the package's objects."""
    yield path, value
    if isinstance(value, tuple):
        items = enumerate(value)
    elif isinstance(value, dict):
        items = value.items()
    elif type(value).__module__.startswith("qmeas."):
        items = vars(value).items()
    else:
        return
    for key, item in items:
        yield from reachable(item, f"{path}.{key}")


def writeable_arrays(value, path):
    return [p for p, x in reachable(value, path) if isinstance(x, np.ndarray) and x.flags.writeable]


def detached_views(value, path):
    """Path of every POVM whose outcomes, and every spectral family whose
    blocks, do not share memory with its effect stack or its basis."""
    found = []
    for p, x in reachable(value, path):
        if isinstance(x, Povm):
            views, whole = [e for _, e in x.outcomes], x.effects
        elif isinstance(x, SpectralDecomposition):
            views, whole = [b for _, b in x.blocks], x.basis
        else:
            continue
        if not all(np.shares_memory(view, whole) for view in views):
            found.append(p)
    return found


def same_fields(a, b):
    """a and b hold equal arrays and equal values, dataclass field by field."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_fields, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_fields(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a):
        fields = [f.name for f in dataclasses.fields(a)]
        return type(a) is type(b) and all(same_fields(getattr(a, f), getattr(b, f)) for f in fields)
    return a == b


def built_objects():
    a = Observable.from_matrix(np.diag([1.0, 2.0, 2.0]))
    coupling = random_unitary(6, np.random.default_rng(4))
    given = MeasurementProcess(3, State.basis(2, 0), coupling, Observable.from_matrix(np.eye(2)))
    built = build_vn_process(a)
    scenario = compose_joint_scenario(built, naimark_dilation(Povm.from_observable(a)))
    phi = entangled_state(random_state(3, seed=1), a)
    report = check_observable_entanglement(a, built.meter, phi)
    # Read every cached property first: none of them may reach the copy.
    a.matrix, a.spectral.branches, built.coupling, scenario.evolved_meter1, scenario.evolved_meter2
    return {
        "state": random_state(3, seed=2),
        "observable": a,
        "povm": Povm(random_povm_outcomes(3, 4, np.random.default_rng(3))),
        "given-coupling-process": given,
        "built-process": built,
        "scenario": scenario,
        "entanglement-report": report,
    }


@pytest.mark.parametrize(
    "name",
    [
        "state",
        "observable",
        "povm",
        "given-coupling-process",
        "built-process",
        "scenario",
        "entanglement-report",
    ],
)
def test_every_array_stays_read_only_through_a_pickle_round_trip(name):
    value = built_objects()[name]
    assert writeable_arrays(value, name) == []
    assert detached_views(value, name) == []
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert same_fields(copy, value)
    assert writeable_arrays(copy, name) == []
    assert detached_views(copy, name) == []


def test_a_pickled_process_leaves_its_cached_coupling_out():
    mp = build_vn_process(Observable.from_matrix(np.diag([1.0, 2.0, 2.0])))
    before = pickle.dumps(mp)
    mp.coupling, mp.meter.matrix, mp.meter.spectral.branches
    assert pickle.dumps(mp) == before
    assert "coupling" not in vars(pickle.loads(before))


def test_a_dilation_with_unsorted_labels_round_trips_bit_for_bit():
    outcomes = random_povm_outcomes(2, 3, np.random.default_rng(8))
    mp = naimark_dilation(Povm(tuple(zip((3.0, -1.0, 0.5), (e for _, e in outcomes)))))
    copy = pickle.loads(pickle.dumps(mp))
    assert copy.meter.labels == mp.meter.labels == (-1.0, 0.5, 3.0)
    for read in (
        lambda p: p.isometry,
        lambda p: p.coupling,
        lambda p: p.meter.spectral.basis,
        lambda p: induced_povm(p).effects,
    ):
        assert np.array_equal(read(copy), read(mp))
    psi = random_state(2, seed=5)
    assert outcome_distribution(copy, psi) == outcome_distribution(mp, psi)


class ForgedState:
    """Pickles as a State handed a vector of norm 2."""

    def __reduce__(self):
        return State, (np.array([2.0, 0.0]),)


def test_a_pickle_is_checked_by_the_constructor_on_load():
    data = pickle.dumps(ForgedState())
    with pytest.raises(ValueError, match="state has unit norm"):
        pickle.loads(data)


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.booleans(),
)
@example(seed=6, d=3, k1=4, k2=2, first=2, degenerate1=True, degenerate2=False)
@example(seed=7, d=2, k1=3, k2=4, first=1, degenerate1=False, degenerate2=True)
def test_joint_tables_are_the_dense_evolved_meter_law(
    seed, d, k1, k2, first, degenerate1, degenerate2
):
    # Meters in random bases, so each rotation into a meter eigenbasis is a
    # full unitary; k1 != k2 keeps the two ancilla axes apart.
    assume(k1 != k2)
    rng = np.random.default_rng(seed)
    p1 = random_meter_process(d, k1, rng, degenerate1)
    p2 = random_meter_process(d, k2, rng, degenerate2)
    scenario = compose_joint_scenario(p1, p2, first=first)
    states = [random_state(d, seed=seed + t) for t in range(4)]
    tables = intersubjectivity._joint_tables(scenario, np.array([s.amplitudes for s in states]))
    assert tables.shape == (4, len(p1.meter.labels), len(p2.meter.labels))
    for psi, table in zip(states, tables):
        assert np.max(np.abs(table - reference_joint_law(scenario, psi))) <= 1e-12


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


# Meter labels are the integers 0..k-1, so at label_tol 1.5 agreement is not
# transitive (0 agrees with 1 and 1 with 2, but 0 not with 2), and at 1.0 every
# neighbouring pair sits exactly on the inclusive boundary.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1e-8, 1.0, 1.5]),
)
@example(seed=4, d=2, k1=3, k2=5, first=1, degenerate1=False, degenerate2=True, label_tol=1.5)
@example(seed=5, d=3, k1=4, k2=3, first=2, degenerate1=True, degenerate2=False, label_tol=1.5)
def test_agreement_masses_match_the_per_entry_loop(
    seed, d, k1, k2, first, degenerate1, degenerate2, label_tol
):
    assume(k1 != k2)
    rng = np.random.default_rng(seed)
    p1 = random_meter_process(d, k1, rng, degenerate1)
    p2 = random_meter_process(d, k2, rng, degenerate2)
    scenario = compose_joint_scenario(p1, p2, first=first)
    psi = random_state(d, seed=seed)
    report = check_intersubjectivity(scenario, psi, label_tol=label_tol)
    off, diagonal = reference_agreement(joint_distribution(scenario, psi).entries, label_tol)
    assert abs(report.off_diagonal_mass - off) <= 1e-12
    assert list(report.diagonal) == list(diagonal)
    for x, mass in diagonal.items():
        assert abs(report.diagonal[x] - mass) <= 1e-12


def test_report_rejects_leaking_mass():
    with pytest.raises(NumericalConsistencyError):
        IntersubjectivityReport(off_diagonal_mass=0.3, diagonal={1.0: 0.2}, tolerance_used=1e-9)


def test_pass_flags_are_read_from_the_masses_as_python_bools():
    tol = np.float64(1e-9)
    assert IntersubjectivityReport(0.5, {1.0: 0.5}, tol).passes is False
    assert IntersubjectivityReport(0.0, {1.0: 1.0}, tol).passes is True
    z = Observable.from_matrix(PAULI_Z)
    assert verify_oit(z, trials=3, seed=1, tol=tol).passes is True
    assert verify_oit(z, trials=3, seed=1, tol=np.float64(-1.0)).passes is False
    for cls in (IntersubjectivityReport, OitSummary):
        assert "passes" not in {field.name for field in dataclasses.fields(cls)}


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
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        re, im = rng.standard_normal((2, a.dim))
        psi = State.normalized(re + 1j * im)
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
# nondegenerate observable has 5 branches and chunks of 131 trials, four
# distinct eigenvalues give chunks of 204.
OIT_CASES = {
    "trivial-d2": (lambda: Observable.from_matrix(np.eye(2)), 1e-8, ()),
    "pauli-z": (lambda: Observable.from_matrix(PAULI_Z), 1e-8, ()),
    "degenerate-d4": (lambda: Observable.from_matrix(np.diag([0.0, 0.0, 1.0, 1.0])), 1e-8, ()),
    "wide-label-tol-d3": (lambda: Observable.from_matrix(np.diag([1.0, 2.0, 3.0])), 1.0, ()),
    "nondegenerate-d5": (
        lambda: Observable.from_matrix(random_hermitian(5, np.random.default_rng(5))),
        1e-8,
        (350,),
    ),
    "degenerate-d5": (lambda: rotated_observable([0.0, 1.0, 1.0, 2.0, 3.0], 6), 1e-8, (600,)),
    "wide-label-tol-d5": (lambda: rotated_observable(range(5), 7), 1.5, (350,)),
}


@pytest.fixture
def chunks(monkeypatch):
    """The unnormalized trial states of each chunk verify_oit draws, in order;
    the length of each is that draw's count."""
    drawn = []
    draw = intersubjectivity._gaussian_amplitudes

    def recording_draw(rng, count, dim):
        rows = draw(rng, count, dim)
        assert rows.shape == (count, dim)
        drawn.append(rows.copy())
        return rows

    monkeypatch.setattr(intersubjectivity, "_gaussian_amplitudes", recording_draw)
    return drawn


def assert_one_stream(chunks, trials, dim, seed):
    """The drawn states are default_rng(seed)'s first trials x 2 x dim normals,
    real parts then imaginary parts per trial, bit for bit."""
    states = np.concatenate(chunks)
    expected = np.random.default_rng(seed).standard_normal((trials, 2, dim))
    np.testing.assert_array_equal(np.stack([states.real, states.imag], axis=1), expected)


@pytest.mark.parametrize("case", sorted(OIT_CASES))
def test_chunked_oit_matches_the_per_trial_loop(case, chunks):
    make, label_tol, long_runs = OIT_CASES[case]
    a = make()
    for trials in (1, 7, *long_runs):
        chunks.clear()
        summary = verify_oit(a, trials=trials, seed=trials, label_tol=label_tol)
        max_off, max_gap, passes = reference_oit(a, trials, trials, label_tol)
        assert summary.passes is passes
        assert abs(summary.max_off_diagonal_mass - max_off) <= 1e-12
        assert abs(summary.max_born_gap - max_gap) <= 1e-12
        # The trial states are one default_rng(seed) stream in trial order.
        assert_one_stream(chunks, trials, a.dim, trials)
        if trials in long_runs:
            lengths = [len(chunk) for chunk in chunks]
            assert len(lengths) >= 3 and lengths[-1] < lengths[0], lengths


def test_oit_chunks_follow_the_composite_dimension(chunks):
    # Nondegenerate d=12: D = 12^3 = 1728 entries per trial, so a chunk of
    # 2^14 entries holds 9 trials and 100 trials take 12 chunks.
    a = Observable.from_matrix(random_hermitian(12, np.random.default_rng(12)))
    assert len(a.labels) == 12
    assert verify_oit(a, trials=100, seed=0).passes
    assert [len(chunk) for chunk in chunks] == [9] * 11 + [1]
    assert_one_stream(chunks, 100, 12, 0)


def test_oit_states_do_not_depend_on_the_chunk_length(chunks, monkeypatch):
    # Pauli-Z: D = 8, so 2^14 entries hold 2048 trials and 64 entries hold 8.
    a = Observable.from_matrix(PAULI_Z)
    default = verify_oit(a, trials=100, seed=4)
    assert [len(chunk) for chunk in chunks] == [100]
    chunks.clear()
    monkeypatch.setattr(intersubjectivity, "_CHUNK_ENTRIES", 64)
    small = verify_oit(a, trials=100, seed=4)
    assert [len(chunk) for chunk in chunks] == [8] * 12 + [4]
    assert_one_stream(chunks, 100, 2, 4)
    assert small == default


@pytest.mark.parametrize("dim", [2, 5])
def test_oit_trial_zero_is_random_state(chunks, dim):
    a = rotated_observable(range(dim), dim)
    verify_oit(a, trials=3, seed=2**40 + 3)
    first = chunks[0][0]
    np.testing.assert_array_equal(
        first / np.linalg.norm(first), random_state(dim, 2**40 + 3).amplitudes
    )


def test_oit_refuses_more_trials_than_its_chunks_hold(monkeypatch):
    # Pauli-Z: D = 8, so a chunk holds 2^14 / 8 = 2048 trials.
    monkeypatch.setattr(intersubjectivity, "_MAX_CHUNKS", 3)
    a = Observable.from_matrix(PAULI_Z)
    assert verify_oit(a, trials=3 * 2048, seed=1).passes
    with pytest.raises(ValueError, match="trials 6145 exceed the limit 6144"):
        verify_oit(a, trials=3 * 2048 + 1, seed=1)


def test_oit_reads_no_per_state_law(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_oit must not evaluate trials one state at a time")

    for name in ("joint_distribution", "check_intersubjectivity", "born_probabilities"):
        monkeypatch.setattr(intersubjectivity, name, refuse, raising=False)
    monkeypatch.setattr("qmeas.observables.born_probabilities", refuse)
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert verify_oit(a, trials=50, seed=1).passes


def test_oit_validates_the_projective_povm_once(monkeypatch):
    # One projective POVM, dilated, and the POVM each process induces.
    validations = []
    validate = Povm.__post_init__

    def counting(self):
        validations.append(self)
        validate(self)

    monkeypatch.setattr(Povm, "__post_init__", counting)
    assert verify_oit(Observable.from_matrix(np.diag([0.0, 1.0, 2.0])), trials=5).passes
    assert len(validations) == 3


def test_oit_zero_tol_fails_the_agreement_check_not_its_precondition():
    # The reproducibility precondition keeps its own bounds, so a tolerance
    # below rounding fails the agreement check instead of raising.
    a = Observable.from_matrix(random_hermitian(4, np.random.default_rng(4)))
    summary = verify_oit(a, trials=5, tol=0.0)
    assert not summary.passes
    assert summary.max_off_diagonal_mass > 0.0


def test_oit_memory_does_not_grow_with_the_trial_count():
    # Pauli-Z: 2^13 trials are 4 chunks and 2^17 are 64; each chunk reuses
    # the same sizes, and no per-trial array outlives its chunk. A first call
    # allocates lasting caches, so it runs untraced.
    a = Observable.from_matrix(PAULI_Z)
    verify_oit(a, trials=2**13, seed=5)
    peaks = []
    for trials in (2**13, 2**17):
        tracemalloc.start()
        try:
            assert verify_oit(a, trials=trials, seed=5).passes
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 16 * 2**10, peaks


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 1])
def test_joint_distribution_rejects_non_finite_labels(bad, slot):
    pair = [1.0, 2.0]
    pair[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        JointDistribution((((1.0, 1.0), 0.5), (tuple(pair), 0.5)))


@pytest.mark.parametrize(
    "entries, error, message",
    [
        ((((0.0, 0.0), 1.5), ((1.0, 1.0), -0.5)), ValueError, r"outside \[0, 1\]"),
        ((((0.0, 0.0), 0.5), ((0.0, 0.0), 0.5)), ValueError, "pairwise distinct"),
        ((((0.0, 0.0), 0.5), ((1.0, 1.0), 0.4)), NumericalConsistencyError, "sum to 1"),
    ],
    ids=["outside-unit-interval", "repeated-pair", "short-sum"],
)
def test_joint_distribution_has_the_entry_checks_of_a_single_one(entries, error, message):
    with pytest.raises(error, match=message):
        JointDistribution(entries)
    with pytest.raises(error, match=message):
        OutcomeDistribution(tuple((x, p) for (x, _), p in entries))


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


@pytest.mark.parametrize("seed", [None, -1, 1.5, True, np.True_])
def test_every_seeded_call_has_one_seed_rule(seed):
    # random_state, verify_oit and sample_outcomes share linalg._check_seed.
    scenario = two_pointer_scenario(PAULI_Z)
    calls = [
        lambda: random_state(2, seed),
        lambda: verify_oit(Observable.from_matrix(PAULI_Z), trials=1, seed=seed),
        lambda: sample_outcomes(scenario, State.basis(2, 0), 10, seed),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            call()


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


def test_sampling_counts_the_draws_of_its_one_stream():
    # Off-diagonal cells of two pointer observers have probability zero.
    scenario = two_pointer_scenario(np.diag([1.0, 2.0, 3.0]))
    psi = random_state(3, seed=8)
    joint = joint_distribution(scenario, psi)
    boundaries = np.cumsum([p for _, p in joint.entries])
    boundaries[-1] = 1.0
    for seed in (0, 9, 21):
        draws = np.random.default_rng(seed).random(5000)
        want = reference_cell_counts(boundaries, draws).tolist()
        expected = {pair: count for (pair, _), count in zip(joint.entries, want) if count}
        assert sample_outcomes(scenario, psi, 5000, seed) == expected


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
    st.lists(st.integers(min_value=0, max_value=7), max_size=20),
)
def test_sorted_counting_matches_the_per_draw_inverse_cdf(weights, uniforms, on_boundary):
    # Zero weights give empty cells, and a draw equal to a boundary counts
    # in the cell above it in both versions.
    assume(sum(weights) > 0.0)
    boundaries = np.cumsum(np.array(weights) / sum(weights))
    boundaries[-1] = 1.0
    exact = [boundaries[i % len(boundaries)] for i in on_boundary]
    draws = np.array(uniforms + [b for b in exact if b < 1.0] + [0.0])
    counts = intersubjectivity._cell_counts(boundaries, draws)
    assert counts.tolist() == reference_cell_counts(boundaries, draws).tolist()
    assert counts.sum() == len(draws)
