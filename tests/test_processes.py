"""Tests for indirect measurement processes, induced POVMs, and dilations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmeas.processes
from conftest import (
    PAULI_Z,
    random_meter,
    random_meter_process,
    random_povm_outcomes,
    random_unitary,
    reference_spectral_check,
)
from qmeas.intersubjectivity import (
    check_intersubjectivity,
    compose_joint_scenario,
    joint_distribution,
    verify_oit,
)
from qmeas.linalg import (
    SpectralDecomposition,
    State,
    _gram_error,
    complete_isometry_to_unitary,
    random_state,
    tensor,
)
from qmeas.observables import (
    Observable,
    Povm,
    born_probabilities,
    is_projective,
    is_resolution_of_identity,
    povm_probabilities,
)
from qmeas.processes import (
    MeasurementProcess,
    _effect_sqrt,
    check_probability_reproducibility,
    effect_gaps,
    heisenberg_meter,
    induced_povm,
    naimark_dilation,
    outcome_distribution,
)
from qmeas.tolerances import EFFECT_RANK_FACTOR, UNITARY_TOL
from qmeas.vonneumann import (
    build_vn_process,
    check_observable_entanglement,
    entangled_state,
    find_entangled_observables,
)


def identity_process(a: Observable) -> MeasurementProcess:
    """Process with the right shape for ``a`` whose coupling does nothing."""
    n = len(a.labels)
    meter = Observable.from_matrix(np.diag(np.array(a.labels)))
    return MeasurementProcess(
        system_dim=a.dim,
        ancilla_state=State.basis(n, 0),
        coupling=np.eye(a.dim * n, dtype=complex),
        meter=meter,
    )


def random_process(seed: int) -> MeasurementProcess:
    rng = np.random.default_rng(seed)
    meter = Observable.from_matrix(np.diag([0.0, 1.0, 2.0]))
    return MeasurementProcess(
        system_dim=2,
        ancilla_state=random_state(3, seed=seed),
        coupling=random_unitary(6, rng),
        meter=meter,
    )


# ---------------------------------------------------------------------------
# MeasurementProcess validation


def test_process_rejects_non_unitary_coupling():
    with pytest.raises(ValueError, match="unitary"):
        MeasurementProcess(2, State.basis(2, 0), np.eye(4) * 2.0, Observable.from_matrix(PAULI_Z))


def test_process_rejects_coupling_shape_mismatch():
    with pytest.raises(ValueError):
        MeasurementProcess(2, State.basis(3, 0), np.eye(4), Observable.from_matrix(np.diag([0.0, 1.0, 2.0])))


def test_process_rejects_meter_on_wrong_factor():
    with pytest.raises(ValueError, match="meter"):
        MeasurementProcess(2, State.basis(3, 0), np.eye(6), Observable.from_matrix(PAULI_Z))


def test_process_dimensions():
    mp = random_process(0)
    assert mp.ancilla_dim == 3
    assert mp.total_dim == 6


# ---------------------------------------------------------------------------
# heisenberg_meter


def test_heisenberg_identity_coupling_is_lifted_meter():
    a = Observable.from_matrix(PAULI_Z)
    mp = identity_process(a)
    evolved = heisenberg_meter(mp)
    np.testing.assert_allclose(evolved.matrix, tensor(np.eye(2), mp.meter.matrix), atol=1e-12)


def test_heisenberg_labels_preserved_exactly():
    mp = random_process(3)
    assert heisenberg_meter(mp).labels == mp.meter.labels


def test_heisenberg_spectrum_matches_eigensolver_oracle():
    # conjugation by a unitary must not move the spectrum: compare the evolved
    # matrix's eigenvalues against those of the uncoupled lift
    mp = random_process(7)
    evolved = heisenberg_meter(mp).matrix
    lifted = tensor(np.eye(mp.system_dim), mp.meter.matrix)
    got = np.linalg.eigvalsh(evolved)
    want = np.linalg.eigvalsh(lifted)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_heisenberg_projector_ranks_preserved():
    mp = random_process(11)
    for (_, before), (_, after) in zip(
        mp.meter.spectral.branches, heisenberg_meter(mp).spectral.branches
    ):
        assert np.isclose(np.trace(after).real, mp.system_dim * np.trace(before).real, atol=1e-9)


# ---------------------------------------------------------------------------
# outcome_distribution


def test_outcome_distribution_pointer_process():
    a = Observable.from_matrix(PAULI_Z)
    mp = build_vn_process(a)
    dist = outcome_distribution(mp, State(np.array([0.6, 0.8]))).as_dict()
    assert dist[1.0] == pytest.approx(0.36, abs=1e-12)
    assert dist[-1.0] == pytest.approx(0.64, abs=1e-12)


def test_outcome_distribution_identity_coupling_ignores_system():
    a = Observable.from_matrix(PAULI_Z)
    mp = identity_process(a)
    first = outcome_distribution(mp, State.basis(2, 0)).as_dict()
    second = outcome_distribution(mp, State.normalized([1.0, 1.0])).as_dict()
    assert first == pytest.approx(second, abs=1e-12)
    # the ancilla starts in the meter's lowest eigenstate, so that outcome is certain
    assert first[-1.0] == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_dimension_mismatch():
    mp = build_vn_process(Observable.from_matrix(PAULI_Z))
    with pytest.raises(ValueError):
        outcome_distribution(mp, State.basis(3, 0))


def test_outcome_distribution_matches_induced_povm_statistics():
    mp = random_process(13)
    p = induced_povm(mp)
    for seed in range(50):
        psi = random_state(2, seed=seed)
        via_meter = outcome_distribution(mp, psi).as_dict()
        via_povm = povm_probabilities(p, psi).as_dict()
        for label, prob in via_meter.items():
            assert via_povm[label] == pytest.approx(prob, abs=1e-10)


# ---------------------------------------------------------------------------
# induced_povm


def test_induced_povm_pointer_process_recovers_projectors():
    a = Observable.from_matrix(PAULI_Z)
    p = induced_povm(build_vn_process(a))
    assert p.labels == (-1.0, 1.0)
    np.testing.assert_allclose(p.effects[0], np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(p.effects[1], np.diag([1.0, 0.0]), atol=1e-12)


def test_induced_povm_uncoupled_process_is_scalar():
    # with no coupling the system plays no role: every effect is a multiple of
    # the identity with weight given by the ancilla's overlap with that branch
    meter = Observable.from_matrix(np.diag([0.0, 1.0]))
    mp = MeasurementProcess(2, State.normalized([1.0, 1.0]), np.eye(4), meter)
    p = induced_povm(mp)
    np.testing.assert_allclose(p.effects[0], np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(p.effects[1], np.eye(2) / 2, atol=1e-12)


def test_induced_povm_is_resolution_of_identity():
    for seed in (0, 1, 2):
        assert is_resolution_of_identity(induced_povm(random_process(seed)))


# ---------------------------------------------------------------------------
# reproducibility checks


def test_pointer_process_reproduces_its_observable():
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert check_probability_reproducibility(build_vn_process(a), a, tol=1e-10)


def test_uncoupled_process_fails_reproducibility():
    a = Observable.from_matrix(PAULI_Z)
    assert not check_probability_reproducibility(identity_process(a), a)


def test_effect_gaps_pointer_process_tiny():
    a = Observable.from_matrix(PAULI_Z)
    gaps = effect_gaps(build_vn_process(a), a)
    assert gaps is not None
    assert [label for label, _ in gaps] == [-1.0, 1.0]
    assert all(gap <= 1e-12 for _, gap in gaps)


def test_effect_gaps_label_mismatch_returns_none():
    # meter labels {0, 1} cannot be matched to the spectrum {-1, +1}
    meter = Observable.from_matrix(np.diag([0.0, 1.0]))
    mp = MeasurementProcess(2, State.basis(2, 0), np.eye(4), meter)
    assert effect_gaps(mp, Observable.from_matrix(PAULI_Z)) is None
    assert not check_probability_reproducibility(mp, Observable.from_matrix(PAULI_Z))


def test_effect_gaps_label_window_includes_its_boundary():
    # meter labels {0, 1} sit exactly 0.5 from the spectrum {0.5, 1.5}
    mp = build_vn_process(Observable.from_matrix(np.diag([0.0, 1.0])))
    a = Observable.from_matrix(np.diag([0.5, 1.5]))
    gaps = effect_gaps(mp, a, label_tol=0.5)
    assert gaps is not None
    assert [label for label, _ in gaps] == [0.5, 1.5]
    assert check_probability_reproducibility(mp, a, label_tol=0.5)
    assert effect_gaps(mp, a, label_tol=0.25) is None


def test_pointer_meter_reads_each_label_off_its_basis_vector():
    meter = qmeas.processes._pointer_meter((2.0, -1.0, 0.5))
    assert meter.labels == (-1.0, 0.5, 2.0)
    np.testing.assert_array_equal(meter.matrix, np.diag([2.0, -1.0, 0.5]))
    np.testing.assert_array_equal(meter.spectral.projectors[0], np.diag([0.0, 1.0, 0.0]))
    reference_spectral_check(meter.spectral.branches)


def test_effect_gaps_outcome_count_mismatch_returns_none():
    a3 = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    mp = build_vn_process(Observable.from_matrix(np.diag([1.0, 2.0])))
    with pytest.raises(ValueError):
        effect_gaps(mp, a3)
    a2 = Observable.from_matrix(np.diag([1.0, 1.0, 3.0]))  # two branches on dim 3
    mp3 = build_vn_process(a3)
    assert effect_gaps(mp3, a2) is None


# ---------------------------------------------------------------------------
# naimark_dilation


def test_dilation_single_outcome_is_trivial():
    p = Povm(((7.0, np.eye(3)),))
    mp = naimark_dilation(p)
    assert mp.ancilla_dim == 1
    np.testing.assert_allclose(mp.coupling, np.eye(3), atol=1e-12)
    got = induced_povm(mp)
    assert got.labels == (7.0,)
    np.testing.assert_allclose(got.effects[0], np.eye(3), atol=1e-12)


def test_dilation_coin_round_trip():
    coin = Povm(((0.0, np.eye(2) / 2), (1.0, np.eye(2) / 2)))
    mp = naimark_dilation(coin)
    got = induced_povm(mp)
    assert got.labels == coin.labels
    for a, b in zip(got.effects, coin.effects):
        assert np.linalg.norm(a - b) <= 1e-10
    # the dilated measurement is projective upstairs
    assert is_projective(Povm.from_observable(mp.meter))


def test_dilation_of_pvm_reproduces_observable():
    a = Observable.from_matrix(PAULI_Z)
    mp = naimark_dilation(Povm.from_observable(a))
    assert check_probability_reproducibility(mp, a, tol=1e-9)


def test_dilation_round_trips_random_povms():
    for seed, (dim, n) in enumerate([(2, 2), (2, 3), (3, 2), (3, 4)]):
        rng = np.random.default_rng(100 + seed)
        p = Povm(random_povm_outcomes(dim, n, rng))
        got = induced_povm(naimark_dilation(p))
        worst = max(
            np.linalg.norm(a - b) for a, b in zip(got.effects, p.effects)
        )
        assert worst <= 1e-9, f"dim={dim} n={n} worst gap {worst}"


def test_dilation_statistics_match_povm():
    rng = np.random.default_rng(42)
    p = Povm(random_povm_outcomes(2, 3, rng))
    mp = naimark_dilation(p)
    for seed in range(10):
        psi = random_state(2, seed=seed)
        direct = povm_probabilities(p, psi).as_dict()
        via_process = outcome_distribution(mp, psi).as_dict()
        for label, prob in direct.items():
            assert via_process[label] == pytest.approx(prob, abs=1e-10)


def test_dilation_rejects_oversized_product():
    dim, n = 64, 65
    effects = tuple((float(k), np.eye(dim) / n) for k in range(n))
    p = Povm(effects)
    with pytest.raises(ValueError, match="guard"):
        naimark_dilation(p)


@pytest.mark.parametrize("dim, n", [(2, 3), (5, 2), (8, 8), (16, 16)])
def test_dilation_places_completion_columns_as_before(dim, n):
    # Reference: the isometry's columns pinned at ancilla index 0, slots
    # j * n, and the completion columns in every other slot, in order.
    p = Povm(random_povm_outcomes(dim, n, np.random.default_rng(dim * n)))
    isometry = np.zeros((dim * n, dim), dtype=complex)
    for index, effect in enumerate(p.effects):
        isometry[index::n, :] = _effect_sqrt(effect)
    completed = complete_isometry_to_unitary(isometry)
    expected = np.empty_like(completed)
    pinned = [j * n for j in range(dim)]
    rest = [c for c in range(dim * n) if c % n != 0]
    expected[:, pinned] = completed[:, :dim]
    expected[:, rest] = completed[:, dim:]
    np.testing.assert_array_equal(naimark_dilation(p).coupling, expected)


# Rounding noise at or below this many unit roundoffs u, times the dimension
# and the largest eigenvalue, is what the root sets to zero.
def rank_noise(dim):
    return EFFECT_RANK_FACTOR * dim * np.finfo(float).eps / 2


def per_effect_sqrt(effect):
    """Reference principal square root of one effect by its own eigh."""
    values, vectors = np.linalg.eigh(effect)
    return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T


@pytest.mark.parametrize("dim, n", [(1, 1), (2, 3), (3, 2), (5, 7), (8, 8), (16, 16)])
def test_dilation_isometry_matches_the_per_effect_reference_exactly(dim, n):
    p = Povm(random_povm_outcomes(dim, n, np.random.default_rng(7 * dim + n)))
    # Full rank, so the rank cutoff of the roots leaves every eigenvalue as it is.
    values = np.linalg.eigvalsh(p.effects)
    assert np.all(values > rank_noise(dim) * values[:, -1:])
    # Row (i, x) is row i of the square root of effect x.
    want = np.stack([per_effect_sqrt(e) for e in p.effects], axis=1).reshape(dim * n, dim)
    assert np.array_equal(naimark_dilation(p).isometry, want)


@pytest.mark.parametrize("dim", [4, 16, 64])
def test_the_root_of_a_rank_deficient_projector_is_the_projector(dim):
    # A kept rounding-level eigenvalue of u would add sqrt(u) ~ 1e-8 entrywise.
    basis = random_unitary(dim, np.random.default_rng(dim))
    for rank in (1, dim // 2):
        projector = basis[:, :rank] @ basis[:, :rank].conj().T
        assert np.max(np.abs(_effect_sqrt(projector) - projector)) <= rank_noise(dim)


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_the_dilation_of_a_pvm_is_the_pointer_process(dim):
    # Both isometries are the projector stack V[(i, x), j] = P_x[i, j].
    rng = np.random.default_rng(dim)
    for values in (rng.permutation(dim), np.arange(dim) % 3):
        basis = random_unitary(dim, rng)
        a = Observable.from_matrix((basis * values) @ basis.conj().T)
        dilated = naimark_dilation(Povm.from_observable(a)).isometry
        assert np.max(np.abs(dilated - build_vn_process(a).isometry)) <= rank_noise(dim)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=4),
)
def test_dilation_round_trip_property(seed, dim, n):
    rng = np.random.default_rng(seed)
    p = Povm(random_povm_outcomes(dim, n, rng))
    got = induced_povm(naimark_dilation(p))
    assert got.labels == p.labels
    for a, b in zip(got.effects, p.effects):
        assert np.linalg.norm(a - b) <= 1e-9


# ---------------------------------------------------------------------------
# state-tensor statistics against the dense Heisenberg-picture reference


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
)
def test_state_tensor_statistics_match_dense_heisenberg_meter(seed, d, k, degenerate):
    rng = np.random.default_rng(seed)
    mp = random_meter_process(d, k, rng, degenerate)
    evolved = heisenberg_meter(mp).spectral.branches
    reference_spectral_check(evolved)
    psi = random_state(d, seed=seed)
    phi = psi.tensor(mp.ancilla_state).amplitudes
    got = outcome_distribution(mp, psi).entries
    assert [x for x, _ in got] == [x for x, _ in evolved]
    for (_, p), (_, proj) in zip(got, evolved):
        assert abs(p - np.vdot(phi, proj @ phi).real) <= 1e-12

    xi = mp.ancilla_state.amplitudes
    induced = induced_povm(mp)
    assert induced.labels == tuple(x for x, _ in evolved)
    for effect, (_, proj) in zip(induced.effects, evolved):
        want = np.einsum("a,iajb,b->ij", xi.conj(), proj.reshape(d, k, d, k), xi)
        assert np.max(np.abs(effect - want)) <= 1e-12

    a1, a2 = random_meter(d, rng, degenerate), mp.meter
    chi = random_state(d * k, seed=seed + 1)
    vec = chi.amplitudes
    lifted = [
        [np.vdot(vec, np.kron(p, q) @ vec).real for q in a2.spectral.projectors]
        for p in a1.spectral.projectors
    ]
    assert np.max(np.abs(check_observable_entanglement(a1, a2, chi).joint - lifted)) <= 1e-12


def test_statistics_and_builders_never_form_the_coupling(monkeypatch):
    # Both builders hand over V; U, its O(D^3) unitarity product and the dense
    # Heisenberg meter are left to the references, which read ``coupling``.
    def refuse(*_):
        raise AssertionError("dense coupling formed")

    monkeypatch.setattr(MeasurementProcess, "coupling", property(refuse))
    monkeypatch.setattr(qmeas.processes, "heisenberg_meter", refuse)
    rng = np.random.default_rng(16)
    a16 = random_meter(16, rng, degenerate=False)
    assert verify_oit(a16, trials=20, seed=16).passes
    a64 = Observable.from_matrix(np.diag(np.arange(64.0)))
    assert entangled_state(random_state(64, seed=64), a64).dim == 64 * 64
    a = random_meter(4, rng, degenerate=True)
    mp = naimark_dilation(Povm.from_observable(a))
    assert induced_povm(mp).labels == a.labels
    assert outcome_distribution(mp, random_state(4, seed=4)).as_dict().keys() == set(a.labels)
    assert effect_gaps(mp, a) is not None
    assert compose_joint_scenario(build_vn_process(a), mp).total_dim == 4 * 3 * 3
    with pytest.raises(AssertionError, match="coupling formed"):
        mp.coupling


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["given", "dilation", "pointer"]),
)
def test_isometry_is_the_coupling_at_the_ancilla_state(seed, d, k, kind):
    # A package-built coupling, formed on read, is exactly the unitary whose
    # ancilla-state columns are the process's isometry; a given one is read
    # off by one product.
    rng = np.random.default_rng(seed)
    if kind == "dilation":
        mp = naimark_dilation(Povm(random_povm_outcomes(d, k, rng)))
    elif kind == "pointer":
        mp = build_vn_process(random_meter(d, rng, degenerate=k % 2 == 0))
    else:
        mp = random_meter_process(d, k, rng, degenerate=seed % 2 == 0)
    d, k = mp.system_dim, mp.ancilla_dim
    u = mp.coupling
    assert u.shape == (d * k, d * k) and not u.flags.writeable and not mp.isometry.flags.writeable
    assert _gram_error(u) <= UNITARY_TOL
    at_xi = u.reshape(d * k, d, k) @ mp.ancilla_state.amplitudes
    if kind == "given":
        assert np.max(np.abs(mp.isometry - at_xi)) <= 1e-12
    else:
        np.testing.assert_array_equal(mp.isometry, at_xi)


def reference_induced_effects(mp):
    """Each effect V^H (I x P_x) V from the meter's dense projector stack, as
    the projector-stack contraction computed it."""
    d, k = mp.system_dim, mp.ancilla_dim
    v = mp.isometry
    projectors = np.array(mp.meter.spectral.projectors)
    lifted = (projectors[:, None] @ v.reshape(d, k, d)).reshape(-1, d * k, d)
    return [(e + e.conj().T) / 2 for e in v.conj().T @ lifted]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["random-degenerate", "random", "dilation", "pointer"]),
)
def test_induced_povm_matches_the_projector_stack_reference(seed, d, k, kind):
    rng = np.random.default_rng(seed)
    if kind == "dilation":
        mp = naimark_dilation(Povm(random_povm_outcomes(d, k, rng)))
    elif kind == "pointer":
        mp = build_vn_process(random_meter(d, rng, degenerate=k % 2 == 0))
    else:
        mp = random_meter_process(d, k, rng, degenerate=kind == "random-degenerate")
    got = induced_povm(mp)
    assert got.labels == mp.meter.labels
    for effect, want in zip(got.effects, reference_induced_effects(mp), strict=True):
        assert np.max(np.abs(effect - want)) <= 1e-12


def test_statistics_form_no_dense_projector(monkeypatch):
    rng = np.random.default_rng(21)
    a = random_meter(4, rng, degenerate=True)
    pointer = build_vn_process(a)
    scenario = compose_joint_scenario(pointer, naimark_dilation(Povm.from_observable(a)))
    psi = random_state(4, seed=21)
    phi = random_state(12, seed=22)
    a1, a2 = find_entangled_observables(phi, 3, 4)
    mp = random_meter_process(3, 4, rng, degenerate=True)

    def refuse(self):
        raise AssertionError("dense projector family formed")

    monkeypatch.setattr(SpectralDecomposition, "branches", property(refuse))
    with pytest.raises(AssertionError, match="projector family formed"):
        a.spectral.projectors
    assert born_probabilities(a, psi).as_dict().keys() == set(a.labels)
    assert outcome_distribution(mp, random_state(3, seed=23)).as_dict().keys() == set(mp.meter.labels)
    assert len(joint_distribution(scenario, psi).entries) == len(a.labels) ** 2
    assert check_intersubjectivity(scenario, psi).passes
    assert induced_povm(mp).labels == mp.meter.labels
    assert induced_povm(pointer).labels == a.labels
    assert check_observable_entanglement(a1, a2, phi).is_entangled
