"""Tests for the pointer-coupling construction and correlation conditions."""

import dataclasses
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PAULI_Z, random_hermitian, random_unitary, reference_spectral_check
from qmeas.linalg import State, random_state, schmidt_decompose, tensor
from qmeas.observables import Observable, born_probabilities
from qmeas.processes import check_probability_reproducibility, induced_povm, outcome_distribution
from qmeas.vonneumann import (
    CONDITION_NAMES,
    EntanglementReport,
    _best_pairing,
    build_vn_process,
    check_observable_entanglement,
    entangled_state,
    find_entangled_observables,
)


def joint_oracle(a1, a2, phi):
    """Direct double loop over lifted projector pairs."""
    vec = phi.amplitudes
    out = np.zeros((len(a1.labels), len(a2.labels)))
    for k, p in enumerate(a1.spectral.projectors):
        for m, q in enumerate(a2.spectral.projectors):
            op = np.kron(p, np.eye(a2.dim)) @ np.kron(np.eye(a1.dim), q)
            out[k, m] = np.real(np.vdot(vec, op @ vec))
    return out


# ---------------------------------------------------------------------------
# build_vn_process


def test_coupling_is_branch_controlled_shift():
    a = Observable.from_matrix(np.diag([1.0, 2.0]))
    mp = build_vn_process(a)
    shift = np.array([[0.0, 1.0], [1.0, 0.0]])
    want = tensor(np.diag([1.0, 0.0]), np.eye(2)) + tensor(np.diag([0.0, 1.0]), shift)
    np.testing.assert_allclose(mp.coupling, want, atol=1e-14)


def test_coupling_matches_the_kron_sum_for_a_degenerate_observable():
    # d=5 with three branches of ranks 2, 2 and 1, in a random basis: the
    # coupling is read off the projector stack by index, and must equal the
    # sum over k of P_k x S^k with S the cyclic shift on three slots.
    basis = random_unitary(5, np.random.default_rng(5))
    a = Observable.from_matrix((basis * np.array([0.0, 0.0, 1.0, 1.0, 2.0])) @ basis.conj().T)
    assert len(a.labels) == 3
    want = sum(
        tensor(proj, np.roll(np.eye(3, dtype=complex), k, axis=0))
        for k, proj in enumerate(a.spectral.projectors)
    )
    np.testing.assert_array_equal(build_vn_process(a).coupling, want)


def test_single_branch_observable_couples_trivially():
    a = Observable.from_matrix(np.eye(3))
    mp = build_vn_process(a)
    assert mp.ancilla_dim == 1
    np.testing.assert_allclose(mp.coupling, np.eye(3), atol=1e-14)
    assert check_probability_reproducibility(mp, a)


def test_meter_carries_observable_labels():
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert build_vn_process(a).meter.labels == (1.0, 2.0, 3.0)


def test_pointer_coupling_rejects_oversized_product():
    # 65 distinct eigenvalues on d=65: the coupling would be 4225 x 4225,
    # past the 4096 cap, and must be refused before anything is built.
    a = Observable.from_matrix(np.diag(np.arange(65.0)))
    with pytest.raises(ValueError, match="guard"):
        build_vn_process(a)
    with pytest.raises(ValueError, match="guard"):
        entangled_state(State.basis(65, 0), a)


def test_pointer_process_induces_the_spectral_family():
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    got = induced_povm(build_vn_process(a))
    for effect, proj in zip(got.effects, a.spectral.projectors):
        assert np.linalg.norm(effect - proj) <= 1e-10


def test_degenerate_observable_gets_one_pointer_slot_per_branch():
    a = Observable.from_matrix(np.diag([1.0, 1.0, 2.0]))
    mp = build_vn_process(a)
    assert mp.ancilla_dim == 2
    assert check_probability_reproducibility(mp, a, tol=1e-10)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=4))
def test_pointer_statistics_match_born_rule(seed, dim):
    rng = np.random.default_rng(seed)
    a = Observable.from_matrix(random_hermitian(dim, rng))
    psi = random_state(dim, seed=seed)
    born = born_probabilities(a, psi).as_dict()
    meter = outcome_distribution(build_vn_process(a), psi).as_dict()
    for label, p in born.items():
        assert meter[label] == pytest.approx(p, abs=1e-12)


# ---------------------------------------------------------------------------
# entangled_state


def test_entangled_state_weights_branches_by_amplitude():
    a = Observable.from_matrix(np.diag([1.0, 2.0]))
    alpha, beta = 0.6j, 0.8
    phi = entangled_state(State(np.array([alpha, beta])), a)
    np.testing.assert_allclose(phi.amplitudes, [alpha, 0.0, 0.0, beta], atol=1e-14)


def test_entangled_state_general_formula():
    rng = np.random.default_rng(8)
    a = Observable.from_matrix(random_hermitian(3, rng))
    psi = random_state(3, seed=8)
    phi = entangled_state(psi, a)
    n = len(a.labels)
    want = sum(
        np.kron(proj @ psi.amplitudes, np.eye(n)[:, k])
        for k, proj in enumerate(a.spectral.projectors)
    )
    np.testing.assert_allclose(phi.amplitudes, want, atol=1e-12)


def test_entangled_state_balanced_superposition_is_maximally_entangled():
    plus = State.normalized([1.0, 1.0])
    phi = entangled_state(plus, Observable.from_matrix(PAULI_Z))
    coeffs, _, _ = schmidt_decompose(phi, 2, 2)
    np.testing.assert_allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_entangled_state_eigenstate_stays_product():
    phi = entangled_state(State.basis(2, 0), Observable.from_matrix(PAULI_Z))
    # |0> lives in the second (larger-eigenvalue) branch, so the pointer lands
    # on the second slot
    np.testing.assert_allclose(phi.amplitudes, [0.0, 1.0, 0.0, 0.0], atol=1e-14)
    coeffs, _, _ = schmidt_decompose(phi, 2, 2)
    assert len(coeffs) == 1


def test_entangled_state_dimension_mismatch():
    with pytest.raises(ValueError):
        entangled_state(State.basis(3, 0), Observable.from_matrix(PAULI_Z))


# ---------------------------------------------------------------------------
# check_observable_entanglement


def test_bell_state_perfectly_correlates_matching_spins():
    bell = State(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    z = Observable.from_matrix(PAULI_Z)
    report = check_observable_entanglement(z, z, bell)
    np.testing.assert_allclose(report.joint, joint_oracle(z, z, bell), atol=1e-12)
    np.testing.assert_allclose(report.joint, np.diag([0.5, 0.5]), atol=1e-12)
    assert report.pairing == ((0, 0), (1, 1))
    assert report.is_entangled
    assert report.max_violation <= 1e-12
    assert set(report.condition_results) == set(CONDITION_NAMES)


def test_entanglement_flag_is_read_from_the_conditions_as_a_python_bool():
    z = Observable.from_matrix(PAULI_Z)
    bell = State(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    product = State.basis(2, 0).tensor(State.normalized([1.0, 1.0]))
    assert check_observable_entanglement(z, z, bell, np.float64(1e-9)).is_entangled is True
    assert check_observable_entanglement(z, z, product, np.float64(1e-9)).is_entangled is False
    assert "is_entangled" not in {field.name for field in dataclasses.fields(EntanglementReport)}


def test_product_state_fails_all_pairings():
    phi = State.basis(2, 0).tensor(State.normalized([1.0, 1.0]))
    z = Observable.from_matrix(PAULI_Z)
    report = check_observable_entanglement(z, z, phi)
    # oracle: both injective pairings of two branches leave half the mass out
    joint = joint_oracle(z, z, phi)
    assert max(joint[0, 0] + joint[1, 1], joint[0, 1] + joint[1, 0]) == pytest.approx(0.5)
    assert not report.is_entangled
    assert report.max_violation == pytest.approx(0.5, abs=1e-12)
    assert not report.condition_results["off_pairing_vanishes"]
    assert not report.condition_results["paired_mass_unity"]


def test_deterministic_branch_counts_as_correlated():
    a = Observable.from_matrix(np.diag([1.0, 2.0]))
    phi = entangled_state(State.basis(2, 0), a)
    report = check_observable_entanglement(a, build_vn_process(a).meter, phi)
    assert report.is_entangled
    assert report.joint[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_pointer_outputs_always_pass_all_five_conditions():
    for seed, dim in [(0, 2), (1, 3), (2, 4)]:
        rng = np.random.default_rng(seed)
        a = Observable.from_matrix(random_hermitian(dim, rng))
        psi = random_state(dim, seed=seed)
        phi = entangled_state(psi, a)
        report = check_observable_entanglement(a, build_vn_process(a).meter, phi)
        assert report.is_entangled, f"seed {seed}: violation {report.max_violation}"
        assert all(report.condition_results.values())


def test_paired_labels_follow_pairing():
    bell = State(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    z = Observable.from_matrix(PAULI_Z)
    report = check_observable_entanglement(z, z, bell)
    assert report.paired_labels() == ((-1.0, -1.0), (1.0, 1.0))


def test_mismatched_branch_counts_still_compare():
    # first observable has three branches, second only two: the pairing is an
    # injection of the smaller side
    a1 = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    a2 = Observable.from_matrix(PAULI_Z)
    phi = State.basis(6, 0)  # |0> x |0>: a1 reads 1, a2 reads +1
    report = check_observable_entanglement(a1, a2, phi)
    assert len(report.pairing) == 2
    assert report.is_entangled


def loop_violations(joint, pairing, tol):
    """The five condition violations by direct loops over the table's cells."""
    rows, cols = joint.sum(axis=1), joint.sum(axis=0)
    cells = [(k, m) for k in range(joint.shape[0]) for m in range(joint.shape[1])]
    conditionals = [
        abs(joint[k, m] / marginal - 1.0)
        for k, m in pairing
        if joint[k, m] > tol
        for marginal in (rows[k], cols[m])
    ]
    return (
        max([joint[k, m] for k, m in cells if (k, m) not in pairing], default=0.0),
        max(0.0, 1.0 - sum(joint[k, m] for k, m in pairing)),
        max(abs(rows[k] - joint[k, m]) for k, m in pairing),
        max(abs(cols[m] - joint[k, m]) for k, m in pairing),
        max(conditionals, default=0.0),
    )


def test_conditions_match_a_per_cell_loop():
    for seed, (d1, d2) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (1, 3)] * 3):
        rng = np.random.default_rng(seed)
        a1 = Observable.from_matrix(random_hermitian(d1, rng))
        a2 = Observable.from_matrix(random_hermitian(d2, rng))
        phi = random_state(d1 * d2, seed=seed)
        if seed % 3 == 1:
            phi, a2 = entangled_state(random_state(d1, seed=seed), a1), build_vn_process(a1).meter
        for tol in (1e-9, 0.2):
            report = check_observable_entanglement(a1, a2, phi, tol=tol)
            want = loop_violations(report.joint, report.pairing, tol)
            assert report.max_violation == max(want)
            assert report.condition_results == {
                name: value <= tol for name, value in zip(CONDITION_NAMES, want)
            }


def test_entanglement_dimension_mismatch_raises():
    z = Observable.from_matrix(PAULI_Z)
    with pytest.raises(ValueError):
        check_observable_entanglement(z, z, State.basis(5, 0))


def test_conditions_agree_when_leading_one_holds():
    # once no probability escapes the pairing, the remaining conditions follow
    # within a small multiple of the tolerance
    tol = 1e-9
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = Observable.from_matrix(random_hermitian(3, rng))
        phi = entangled_state(random_state(3, seed=seed), a)
        report = check_observable_entanglement(a, build_vn_process(a).meter, phi, tol=tol)
        if report.condition_results["off_pairing_vanishes"]:
            assert report.max_violation <= 10 * tol


# ---------------------------------------------------------------------------
# _best_pairing: exact against brute force


def brute_force_mass(joint):
    """Largest paired mass over every injection of the smaller side."""
    n1, n2 = joint.shape
    if n1 > n2:
        return brute_force_mass(joint.T)
    targets = np.array(list(permutations(range(n2), n1))).reshape(-1, n1)
    return float(joint[np.arange(n1), targets].sum(axis=1).max())


def assert_optimal_pairing(joint):
    pairing = _best_pairing(joint)
    rows = [k for k, _ in pairing]
    cols = [m for _, m in pairing]
    assert len(pairing) == min(joint.shape)
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    assert all(0 <= k < joint.shape[0] and 0 <= m < joint.shape[1] for k, m in pairing)
    assert list(pairing) == sorted(pairing)
    assert abs(sum(joint[k, m] for k, m in pairing) - brute_force_mass(joint)) <= 1e-12


def test_pairing_is_optimal_for_every_shape_up_to_seven():
    rng = np.random.default_rng(7)
    for n1 in range(1, 8):
        for n2 in range(1, 8):
            skewed = rng.random((n1, n2)) ** 6
            assert_optimal_pairing(skewed / skewed.sum())
            # few distinct values: many maximizing pairings tie
            assert_optimal_pairing(rng.integers(0, 3, size=(n1, n2)) / 4.0)
            assert_optimal_pairing(np.zeros((n1, n2)))


table_entries = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 0.5, 1.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_pairing_matches_brute_force(data):
    n1, n2 = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    flat = data.draw(st.lists(table_entries, min_size=n1 * n2, max_size=n1 * n2))
    assert_optimal_pairing(np.array(flat).reshape(n1, n2))


def test_seven_branch_pairing_beats_the_greedy_choice():
    # Taking the largest remaining cell first pairs mass 0.3785 here.
    joint = np.random.default_rng(0).random((7, 7)) ** 6
    joint /= joint.sum()
    pairing = _best_pairing(joint)
    assert sum(joint[k, m] for k, m in pairing) == pytest.approx(0.404673, abs=1e-6)
    assert_optimal_pairing(joint)


def test_permuted_diagonal_pairs_along_the_permutation():
    rng = np.random.default_rng(3)
    for n in (5, 16):
        perm = rng.permutation(n)
        joint = np.zeros((n, n))
        joint[np.arange(n), perm] = rng.uniform(0.5, 1.5, size=n)
        joint += 1e-17 * rng.random((n, n))
        assert _best_pairing(joint / joint.sum()) == tuple((k, int(m)) for k, m in enumerate(perm))


# ---------------------------------------------------------------------------
# find_entangled_observables


def test_find_observables_for_bell_state():
    bell = State(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    a1, a2 = find_entangled_observables(bell, 2, 2)
    assert a1.labels == (1.0, 2.0)
    assert a2.labels == (1.0, 2.0)
    assert check_observable_entanglement(a1, a2, bell).is_entangled


def test_find_observables_for_seven_branch_state():
    phi = random_state(49, seed=11)
    a1, a2 = find_entangled_observables(phi, 7, 7)
    assert len(a1.labels) == len(a2.labels) == 7
    report = check_observable_entanglement(a1, a2, phi)
    assert report.is_entangled, report.max_violation
    assert report.pairing == tuple((k, k) for k in range(7))


def test_find_observables_for_product_state():
    phi = State.basis(2, 0).tensor(State.basis(2, 0))
    a1, a2 = find_entangled_observables(phi, 2, 2)
    report = check_observable_entanglement(a1, a2, phi)
    assert report.is_entangled
    # all mass sits on the single Schmidt branch
    assert report.joint[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_find_observables_unequal_factors():
    phi = random_state(6, seed=77)
    a1, a2 = find_entangled_observables(phi, 2, 3)
    assert a1.dim == 2 and a2.dim == 3
    assert check_observable_entanglement(a1, a2, phi).is_entangled


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_find_observables_random_bipartite(seed):
    dims = [(2, 2), (2, 3), (3, 3), (2, 4)][seed % 4]
    phi = random_state(dims[0] * dims[1], seed=seed)
    a1, a2 = find_entangled_observables(phi, *dims)
    assert check_observable_entanglement(a1, a2, phi).is_entangled
    reference_spectral_check(a1.spectral.branches)
    reference_spectral_check(a2.spectral.branches)


# ---------------------------------------------------------------------------
# paired_mass_unity


def paired_mass_unity(a1, a2, phi):
    return check_observable_entanglement(a1, a2, phi).condition_results["paired_mass_unity"]


def test_pointer_output_is_perfectly_correlated():
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    phi = entangled_state(random_state(3, seed=5), a)
    assert paired_mass_unity(a, build_vn_process(a).meter, phi)


def test_product_state_is_not_perfectly_correlated():
    phi = State.basis(2, 0).tensor(State.normalized([1.0, 1.0]))
    z = Observable.from_matrix(PAULI_Z)
    assert not paired_mass_unity(z, z, phi)


def test_bell_state_is_perfectly_correlated():
    bell = State(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    z = Observable.from_matrix(PAULI_Z)
    assert paired_mass_unity(z, z, bell)


def test_check_entanglement_forms_no_reduced_state():
    # A (d1 d2)^2 reduced state at d1 = d2 = 64 would take 256 MiB; the
    # rotated 64 x 64 state table takes 64 KiB.
    phi = random_state(4096, seed=3)
    a1, a2 = find_entangled_observables(phi, 64, 64)
    tracemalloc.start()
    try:
        report = check_observable_entanglement(a1, a2, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_entangled
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
