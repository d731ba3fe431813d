"""Relations between runs on jw12, the 12-mode Jordan-Wigner operator, and
of the dense reference solve and the sampled Ritz sweep on jw8; and, on
jw12 and on 24- and 40-site chains, the MPO's bonds against the bridge.

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

from paulibridge.bridge import compile as compile_bridge, structural_hash
from paulibridge.fermion import load_fermion_terms, map_hamiltonian
from paulibridge.lcu import compile_lcu
from paulibridge.mpo import build_mpo_qr, mpo_error
from paulibridge.mps import Mps, ground_state_reference
from paulibridge.pauli import PauliSum, diagonal_rows, label_rows
from paulibridge.varopt import energy_vs_samples_sweep

from conftest import bridge_matrix, chain_sum, fermion_document, jw12_document, mps_to_dense, row_labels

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


def test_label_reversal_mirrors_the_bond_profile(jw12):
    labels = row_labels(jw12.rows, jw12.n_sites)
    assert list(build_mpo_qr(jw12).bond_dims) == BONDS
    mirrored = PauliSum.from_rows(jw12.n_sites, label_rows([l[::-1] for l in labels], jw12.n_sites), jw12.coeffs)
    assert list(build_mpo_qr(mirrored).bond_dims) == BONDS[::-1]
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
