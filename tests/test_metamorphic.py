"""Relations between runs on jw12, the 12-mode Jordan-Wigner operator.

Each relation compares the chain on one operator with the chain on a
transformed copy, so it needs no dense reference and holds at any size.
Each test also breaks its relation with one injected fault, to show the
check can fail.
"""

import numpy as np
import pytest

from paulibridge.bridge import compile as compile_bridge, structural_hash
from paulibridge.fermion import load_fermion_terms, map_hamiltonian
from paulibridge.lcu import compile_lcu
from paulibridge.mpo import build_mpo_qr, mpo_error
from paulibridge.pauli import PauliSum, label_rows

from conftest import jw12_document, row_labels

CUT = 6
BONDS = [1, 4, 8, 22, 38, 58, 62, 52, 30, 18, 10, 4, 1]


@pytest.fixture(scope="module")
def jw12() -> PauliSum:
    n_modes, terms = load_fermion_terms(jw12_document())
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
