"""Relations between runs on jw12, the 12-mode Jordan-Wigner operator, and
of the dense reference solve on jw8.

Each relation compares the chain on one operator with the chain on a
transformed copy, so it needs no second reference and, past the dense
solve, holds at any size. Each test also breaks its relation with one
injected fault, to show the check can fail. The reference relations
solve the original and the copy one after the other, so a stale
reference for a changed sum would break them too.
"""

import numpy as np
import pytest

from paulibridge.bridge import compile as compile_bridge, structural_hash
from paulibridge.fermion import load_fermion_terms, map_hamiltonian
from paulibridge.lcu import compile_lcu
from paulibridge.mpo import build_mpo_qr, mpo_error
from paulibridge.mps import ground_state_reference
from paulibridge.pauli import PauliSum, diagonal_rows, label_rows

from conftest import fermion_document, jw12_document, mps_to_dense, row_labels

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
