"""Relations between runs on jw12, the 12-mode Jordan-Wigner operator, and
of the dense reference solve and the sampled Ritz sweep on jw8; on jw12
and on 24- and 40-site chains, the MPO's bonds against the bridge and the
bridge under label reversal and under an added multiple of the identity;
and, on random 24- and 40-site states, the sampler's law.

Each relation compares the chain on one operator with the chain on a
transformed copy, so it needs no second reference and, past the dense
solve, holds at any size. Each test also breaks its relation with one
injected fault, to show the check can fail. The reference relations
solve the original and the copy one after the other, so a stale
reference for a changed sum would break them too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paulibridge.bridge import BridgeDecomposition, compile as compile_bridge, set_bridge, structural_hash
from paulibridge.fermion import load_fermion_terms, map_hamiltonian
from paulibridge.lcu import compile_lcu
from paulibridge.mpo import build_mpo_qr, mpo_error
from paulibridge.mps import Mps, canonicalize_mps, ground_state_reference, string_expectations
from paulibridge.pauli import PauliSum, diagonal_rows, label_rows
from paulibridge.sampler import SamplerConfig, conditional_weights, sample_strings
from paulibridge.varopt import energy_vs_samples_sweep

from conftest import (
    bridge_matrix, chain_sum, fermion_document, jw12_document, mps_to_dense, row_codes, row_labels,
)

CUT = 6
BONDS = [1, 4, 8, 22, 38, 58, 62, 52, 30, 18, 10, 4, 1]


@pytest.fixture(scope="module")
def jw12() -> PauliSum:
    n_modes, terms = load_fermion_terms(jw12_document())
    return map_hamiltonian(terms, n_modes)


@pytest.fixture(scope="module")
def jw8() -> PauliSum:
    """8 modes, 40 two-body pairs: 553 terms, ground energy -19.24 with gap 0.25."""
    n_modes, terms = load_fermion_terms(fermion_document((5, 3), 8, 40))
    return map_hamiltonian(terms, n_modes)


def hashes(op: PauliSum) -> tuple[str, str]:
    """The bridge's structural hash and the LCU program's select hash at the middle cut."""
    d = compile_bridge(op, CUT)
    return structural_hash(d), compile_lcu(d).select_hash


def test_term_order_keeps_both_hashes_and_the_operator(jw12):
    perm = np.random.default_rng(18).permutation(jw12.n_terms)
    permuted = PauliSum.from_rows(jw12.n_sites, jw12.rows[perm], jw12.coeffs[perm])
    assert hashes(permuted) == hashes(jw12)
    assert mpo_error(build_mpo_qr(permuted), jw12) <= 1e-10
    # fault: one coefficient of the permuted sum changed
    coeffs = permuted.coeffs.copy()
    coeffs[0] += 1e-3
    faulty = PauliSum.from_rows(jw12.n_sites, permuted.rows, coeffs)
    assert mpo_error(build_mpo_qr(faulty), jw12) > 1e-10


def reversed_sum(op: PauliSum) -> PauliSum:
    """``op`` with every label read right to left: site j becomes site n - 1 - j."""
    labels = row_labels(op.rows, op.n_sites)
    return PauliSum.from_rows(op.n_sites, label_rows([l[::-1] for l in labels], op.n_sites), op.coeffs)


def test_label_reversal_mirrors_the_bond_profile(jw12):
    labels = row_labels(jw12.rows, jw12.n_sites)
    assert list(build_mpo_qr(jw12).bond_dims) == BONDS
    assert list(build_mpo_qr(reversed_sum(jw12)).bond_dims) == BONDS[::-1]
    # fault: the first two sites swapped after the reversal
    swapped = PauliSum.from_rows(
        jw12.n_sites, label_rows([l[-2::-1] + l[-1] for l in labels], jw12.n_sites), jw12.coeffs)
    assert list(build_mpo_qr(swapped).bond_dims) != BONDS[::-1]


def test_rescaling_keeps_both_hashes_and_scales_lambda(jw12):
    scaled = PauliSum.from_rows(jw12.n_sites, jw12.rows, 2.5 * jw12.coeffs)
    assert hashes(scaled) == hashes(jw12)
    lam = compile_lcu(compile_bridge(jw12, CUT)).lam
    assert compile_lcu(compile_bridge(scaled, CUT)).lam == pytest.approx(2.5 * lam, rel=1e-12, abs=0)
    # fault: one coefficient left unscaled
    coeffs = 2.5 * jw12.coeffs
    coeffs[0] = jw12.coeffs[0]
    faulty = PauliSum.from_rows(jw12.n_sites, jw12.rows, coeffs)
    assert compile_lcu(compile_bridge(faulty, CUT)).lam != pytest.approx(2.5 * lam, rel=1e-12, abs=0)


def scaling_holds(op: PauliSum, scaled: PauliSum, s: float) -> tuple[bool, bool]:
    """Whether the reference energy scales by ``s`` to 1e-12 relative, and whether the state stays."""
    gs, gs_s = ground_state_reference(op), ground_state_reference(scaled)
    energy = abs(gs_s.energy - s * gs.energy) <= 1e-12 * abs(s * gs.energy)
    state = abs(np.vdot(mps_to_dense(gs_s.mps), mps_to_dense(gs.mps))) >= 1 - 1e-12
    return energy, state


def test_rescaling_scales_the_reference_energy_and_keeps_the_state(jw8):
    assert scaling_holds(jw8, PauliSum.from_rows(jw8.n_sites, jw8.rows, 2.5 * jw8.coeffs), 2.5) == (True, True)
    # fault: one off-diagonal coefficient left unscaled, so the state moves too
    coeffs = 2.5 * jw8.coeffs
    k = int(np.flatnonzero(~diagonal_rows(jw8.rows))[0])
    coeffs[k] = jw8.coeffs[k]
    assert scaling_holds(jw8, PauliSum.from_rows(jw8.n_sites, jw8.rows, coeffs), 2.5) == (False, False)


def shift_holds(op: PauliSum, shifted: PauliSum, c: float) -> bool:
    """Whether the reference energy moves by ``c``, to 1e-12 max(1, |E|)."""
    energy = ground_state_reference(op).energy
    return abs(ground_state_reference(shifted).energy - (energy + c)) <= 1e-12 * max(1.0, abs(energy))


def test_adding_c_identity_shifts_the_reference_energy(jw8):
    identity = np.zeros((1, jw8.rows.shape[1]), dtype=np.uint64)
    rows = np.concatenate([jw8.rows, identity])
    shifted = PauliSum.from_rows(jw8.n_sites, rows, np.append(jw8.coeffs, 0.75))
    assert shifted.n_terms == jw8.n_terms  # merged into jw8's identity term
    assert shift_holds(jw8, shifted, 0.75)
    # fault: c Z on site 0 in place of c I
    z0 = PauliSum.from_rows(jw8.n_sites, np.concatenate([jw8.rows, label_rows(["Z" + "I" * 7], 8)]),
                            np.append(jw8.coeffs, 0.75))
    assert not shift_holds(jw8, z0, 0.75)


SWEEP_SIZES, SWEEP_SEED = (4, 8, 16), 7


@pytest.fixture(scope="module")
def jw8_state(jw8) -> Mps:
    """jw8's reference state at bond 4: the one state both sweeps of a Ritz relation run on."""
    return ground_state_reference(jw8, max_bond=4).mps


def sweep_energies(op: PauliSum, state: Mps) -> np.ndarray:
    return np.array([r.energy for r in energy_vs_samples_sweep(op, state, SWEEP_SIZES, seed=SWEEP_SEED)])


# the second sweep of each relation draws the first one's samples and contracts its strings, from
# the memos, while the coefficients change: a coefficient kept in either memo would break it


def test_rescaling_scales_the_ritz_energies(jw8, jw8_state):
    def holds(scaled):
        energies = sweep_energies(jw8, jw8_state)
        return bool(np.all(np.abs(sweep_energies(scaled, jw8_state) - 2.5 * energies) <= 1e-12 * np.abs(2.5 * energies)))

    assert holds(PauliSum.from_rows(jw8.n_sites, jw8.rows, 2.5 * jw8.coeffs))
    # fault: one coefficient left unscaled
    coeffs = 2.5 * jw8.coeffs
    coeffs[0] = jw8.coeffs[0]
    assert not holds(PauliSum.from_rows(jw8.n_sites, jw8.rows, coeffs))


def test_adding_c_identity_shifts_the_ritz_energies(jw8, jw8_state):
    def holds(shifted):
        energies = sweep_energies(jw8, jw8_state)
        gap = np.abs(sweep_energies(shifted, jw8_state) - (energies + 0.75))
        return bool(np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(energies))))

    identity = np.zeros((1, jw8.rows.shape[1]), dtype=np.uint64)
    assert holds(PauliSum.from_rows(jw8.n_sites, np.concatenate([jw8.rows, identity]), np.append(jw8.coeffs, 0.75)))
    # fault: c Z on site 0 in place of c I
    z0 = label_rows(["Z" + "I" * 7], 8)
    assert not holds(PauliSum.from_rows(jw8.n_sites, np.concatenate([jw8.rows, z0]), np.append(jw8.coeffs, 0.75)))


def bonds_are_bridge_ranks(op: PauliSum, rank_tol: float = 0.0) -> bool:
    """Whether each bond of the swept MPO is the rank of the bridge matrix at its cut, a count
    through ``bridge.compile`` that needs no dense operator: the sweep's exactness witness."""
    ranks = [np.linalg.matrix_rank(bridge_matrix(compile_bridge(op, k))) for k in range(1, op.n_sites)]
    return build_mpo_qr(op, rank_tol=rank_tol).bond_dims == [1, *ranks, 1]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([24, 40]))
def test_chain_bonds_are_the_bridge_ranks(seed, n_sites):
    op = chain_sum(seed, n_sites)
    assert bonds_are_bridge_ranks(op)
    # fault: a rank tolerance that drops pivots the bridge keeps
    assert not bonds_are_bridge_ranks(op, rank_tol=0.5)


def test_jw12_bonds_are_the_bridge_ranks(jw12):
    assert bonds_are_bridge_ranks(jw12)
    assert not bonds_are_bridge_ranks(jw12, rank_tol=0.5)


def bridge_entries(d: BridgeDecomposition) -> dict[tuple[str, str], complex]:
    """The bridge as ``{(left fragment, right fragment): coefficient}``, one entry per pair."""
    return {(d.left[a], d.right[b]): c for (a, b), c in zip(d.bridge.pairs.tolist(), d.bridge.coeffs.tolist())}


def is_reversed_transpose(d: BridgeDecomposition, rev: BridgeDecomposition) -> bool:
    """Whether ``rev``, the reversed sum's bridge at cut n - k, is exactly the transpose of ``d``, the
    bridge at cut k, once each fragment is mapped to its reversed label."""
    return bridge_entries(rev) == {(r[::-1], l[::-1]): c for (l, r), c in bridge_entries(d).items()}


def swap_two_coeffs(d: BridgeDecomposition) -> BridgeDecomposition:
    """``d`` with its first coefficient swapped with the first that differs from it."""
    coeffs = d.bridge.coeffs.copy()
    k = int(np.flatnonzero(coeffs != coeffs[0])[0])
    coeffs[[0, k]] = coeffs[[k, 0]]
    return set_bridge(d, coeffs)


def check_reversal_transposes(op: PauliSum) -> None:
    rev = reversed_sum(op)
    for k in range(1, op.n_sites):
        d, d_rev = compile_bridge(op, k), compile_bridge(rev, op.n_sites - k)
        assert is_reversed_transpose(d, d_rev), k
        # fault: two bridge coefficients swapped
        assert not is_reversed_transpose(swap_two_coeffs(d), d_rev), k


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([24, 40]))
def test_chain_label_reversal_transposes_the_bridge(seed, n_sites):
    check_reversal_transposes(chain_sum(seed, n_sites))


def test_jw12_label_reversal_transposes_the_bridge(jw12):
    check_reversal_transposes(jw12)


def moves_only_the_identity_pair(d: BridgeDecomposition, shifted: BridgeDecomposition, c: float) -> bool:
    """Whether ``shifted`` keeps the dictionaries of ``d`` and every pair's coefficient but the
    identity pair's, which becomes the old value plus ``c``, or ``c`` where ``d`` has no such pair."""
    old = bridge_entries(d)
    identity = ("I" * d.cut, "I" * (d.n_sites - d.cut))
    return (structural_hash(shifted) == structural_hash(d)
            and bridge_entries(shifted) == {**old, identity: old.get(identity, 0) + c})


def check_identity_shift(op: PauliSum) -> None:
    identity = np.zeros((1, op.rows.shape[1]), dtype=np.uint64)
    shifted = PauliSum.from_rows(op.n_sites, np.concatenate([op.rows, identity]), np.append(op.coeffs, 0.75))
    for k in range(1, op.n_sites):
        d, d_shifted = compile_bridge(op, k), compile_bridge(shifted, k)
        assert moves_only_the_identity_pair(d, d_shifted, 0.75), k
        # fault: an update that also rescales one other pair, the first that is not (0, 0); the
        # identity fragments sort first, so (0, 0) is the identity pair wherever it is listed
        coeffs = d_shifted.bridge.coeffs.copy()
        coeffs[int(np.flatnonzero(d_shifted.bridge.pairs.any(axis=1))[0])] *= 2
        assert not moves_only_the_identity_pair(d, set_bridge(d_shifted, coeffs), 0.75), k


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([24, 40]))
def test_chain_adding_c_identity_moves_the_identity_pair_only(seed, n_sites):
    check_identity_shift(chain_sum(seed, n_sites))


def test_jw12_adding_c_identity_moves_the_identity_pair_only(jw12):
    check_identity_shift(jw12)


def random_mps(seed: int, n_sites: int, chi: int) -> Mps:
    """A random complex unit-norm state of bond ``chi`` in the full right gauge, built without a dense vector."""
    rng = np.random.default_rng(seed)
    bonds = [min(chi, 2**j, 2 ** (n_sites - j)) for j in range(n_sites + 1)]
    tensors = [rng.standard_normal((l, r, 2)) + 1j * rng.standard_normal((l, r, 2)) for l, r in zip(bonds, bonds[1:])]
    m = canonicalize_mps(Mps(tensors))
    return Mps([m.tensors[0] / np.linalg.norm(m.tensors[0]), *m.tensors[1:]], m.gauge)


def path_log_weights(m: Mps, codes: np.ndarray) -> np.ndarray:
    """For each string of symbol ``codes``, the sum of the log conditional weights along its path."""
    rows = np.arange(len(codes))
    envs, total = np.ones((len(codes), 1, 1), dtype=np.complex128), np.zeros(len(codes))
    for j, tensor in enumerate(m.tensors):
        weights, cand = conditional_weights(tensor, envs)
        total += np.log(weights[rows, codes[:, j]])
        envs = cand[rows, codes[:, j]]
        envs /= np.linalg.norm(envs.reshape(len(codes), -1), axis=1)[:, None, None]
    return total


def sampler_law_holds(m: Mps, strings: np.ndarray) -> bool:
    """Whether each string's path through the conditional weights has log probability
    log(<psi|P|psi>^2 / 2^n), the law read off ``string_expectations`` (split at the middle cut), to 1e-10."""
    law = np.log(np.abs(string_expectations(m, strings)) ** 2) - m.n_sites * np.log(2)
    return bool(np.all(np.abs(path_log_weights(m, row_codes(strings, m.n_sites)) - law) <= 1e-10))


@pytest.mark.parametrize("n_sites", [24, 40])
def test_sampler_law_at_any_size(n_sites):
    m = random_mps(n_sites, n_sites, chi=4)
    strings = sample_strings(m, SamplerConfig(n_samples=50, seed=n_sites))
    assert sampler_law_holds(m, strings)
    # fault: one site tensor scaled by 1 + 1e-6 between the draw and the check
    scaled = [t.copy() for t in m.tensors]
    scaled[n_sites // 3] *= 1 + 1e-6
    assert not sampler_law_holds(Mps(scaled), strings)
