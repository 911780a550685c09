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
)
from qmeas.intersubjectivity import verify_oit
from qmeas.linalg import State, random_state, tensor
from qmeas.observables import (
    Observable,
    Povm,
    is_projective,
    is_resolution_of_identity,
    povm_probabilities,
)
from qmeas.processes import (
    MeasurementProcess,
    check_probability_reproducibility,
    effect_gaps,
    heisenberg_meter,
    induced_povm,
    naimark_dilation,
    outcome_distribution,
)
from qmeas.vonneumann import build_vn_process, check_observable_entanglement


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


def test_statistics_never_build_the_dense_heisenberg_meter(monkeypatch):
    def refuse(mp):
        raise AssertionError("dense Heisenberg meter built")

    monkeypatch.setattr(qmeas.processes, "heisenberg_meter", refuse)
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    mp = naimark_dilation(Povm.from_observable(a))
    assert induced_povm(mp).labels == a.labels
    assert outcome_distribution(mp, random_state(3, seed=0)).as_dict().keys() == set(a.labels)
    assert effect_gaps(mp, a) is not None
    assert verify_oit(a, trials=3, seed=0).passes
