"""Variational energy estimates over sampled Pauli pools.

The ansatz space is span{P_k |psi>} for pool strings P_k, with the
identity always first, so the reference state itself is reachable.
Effective matrices are assembled algebraically: products of pool and
Hamiltonian strings reduce to single strings with phases, so each entry
is a phase-weighted sum of reference-state expectation values and no
dense operator is ever formed. One product tensor holds the k^2 (T + 1)
strings P_a T P_b for T in [I] + the Hamiltonian's; its distinct rows
are split at the cut n // 2 and contracted from the MPS's environments,
swept once per distinct half (``mps.string_expectations``). Its identity
slice is N, and the rest contracts with the coefficients into H. Pools
and pencils hold their strings as packed rows. A sweep assembles
its largest pool's pencil once and solves each prefix's block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from paulibridge.mps import Mps, lowest_pairs, string_expectations
from paulibridge.pauli import DimensionMismatch, PauliSum, _I_POWERS, packed_product, rows_fit, unique_rows
# Not called here; kept as module attributes because the benchmark tracer
# (bench/tracer.py) wraps the functions it times by these names.
from paulibridge.mps import string_expectation  # noqa: F401
from paulibridge.pauli import apply_string, pauli_product, to_dense  # noqa: F401
from paulibridge.sampler import SamplerConfig, curate, sample_strings

__all__ = [
    "ConvergenceFailure",
    "EffectivePencil",
    "RitzSolution",
    "SweepRow",
    "assemble_pencil",
    "energy_vs_samples_sweep",
    "solve_ritz_dense",
    "solve_ritz_lobpcg",
    "sweep_to_csv",
]


class ConvergenceFailure(RuntimeError):
    """Iterative eigensolver failed to reach tolerance."""


@dataclass
class EffectivePencil:
    """Pool-space matrices H_kl = <P_k psi|H|P_l psi>, N_kl = <P_k psi|P_l psi>
    over the packed rows ``strings``, the identity first; ``coeff_norm``,
    the one-norm of H's coefficients, scales h's rounding."""

    h: np.ndarray
    n: np.ndarray
    strings: np.ndarray
    coeff_norm: float

    @property
    def size(self) -> int:
        return len(self.strings)


@dataclass
class RitzSolution:
    energies: np.ndarray
    coefficients: np.ndarray
    n_kept: int
    iterations: int = 0


NULL_TOL = 1e-12  # metric eigenvalues below this times the largest are deflated
HERMITIAN_TOL = 1e-10  # largest ||h - h^dag|| relative to coeff_norm * ||N||


def assemble_pencil(op: PauliSum, rows: np.ndarray, state: Mps) -> EffectivePencil:
    """Build the effective pencil for a pool of packed rows over a reference MPS.

    The identity is moved to the front of the pool, or prepended. Pool
    strings are Hermitian, so N_ab = <P_a I P_b> and H_ab = sum_t c_t
    <P_a T_t P_b>: one product tensor over T in [I] + op's strings, whose
    k^2 (T + 1) strings are deduplicated and each evaluated once.
    """
    if state.n_sites != op.n_sites:
        raise DimensionMismatch(f"state has {state.n_sites} sites, operator has {op.n_sites}")
    if not rows_fit(rows, op.n_sites):
        raise DimensionMismatch(f"pool rows of shape {rows.shape} do not fit {op.n_sites} sites")
    p = np.concatenate([np.zeros((1, rows.shape[1]), np.uint64), rows[rows.any(axis=1)]])
    terms = np.concatenate([p[:1], op.rows])
    pt_exp, pt_codes = packed_product(p[:, None], terms[None, :])
    ptp_exp, codes = packed_product(pt_codes[:, :, None], p[None, None, :])
    unique, inverse = unique_rows(codes.reshape(-1, p.shape[1]))
    values = string_expectations(state, unique)[inverse].reshape(codes.shape[:-1])
    entries = _I_POWERS[(pt_exp[:, :, None] + ptp_exp) % 4] * values
    h = np.tensordot(op.coeffs, entries[:, 1:], axes=(0, 1))
    return EffectivePencil(h, entries[:, 0].copy(), p, float(np.abs(op.coeffs).sum()))


def _whiten(pencil: EffectivePencil):
    h, n = pencil.h, pencil.n
    if np.linalg.norm(h - h.conj().T) > HERMITIAN_TOL * pencil.coeff_norm * np.linalg.norm(n):
        raise ValueError("effective Hamiltonian is not Hermitian")
    w, v = scipy.linalg.eigh(n)
    keep = w > NULL_TOL * max(w[-1], 0.0)
    if not np.any(keep):
        raise ValueError("overlap metric is numerically zero")
    basis = v[:, keep] / np.sqrt(w[keep])
    a = basis.conj().T @ h @ basis
    return (a + a.conj().T) / 2, basis


def solve_ritz_dense(pencil: EffectivePencil, n_roots: int = 1) -> RitzSolution:
    """Lowest generalized Ritz pairs by null-space deflation.

    Directions of the overlap metric below NULL_TOL (relative to its
    largest eigenvalue) are projected out before whitening; for pools
    built from a single state the metric's null space lies inside the
    effective Hamiltonian's, so deflation keeps the variational bound
    intact rather than regularizing it away.
    """
    a, basis = _whiten(pencil)
    vals, vecs = scipy.linalg.eigh(a)
    return RitzSolution(vals[:n_roots], basis @ vecs[:, :n_roots], n_kept=a.shape[0])


def solve_ritz_lobpcg(
    pencil: EffectivePencil,
    n_roots: int = 1,
    tol: float = 1e-9,
    max_iter: int = 200,
    seed: int = 0,
) -> RitzSolution:
    """Block Rayleigh-Ritz iteration with residual and momentum blocks.

    Runs on the whitened pencil; each step diagonalizes the projection
    onto span[X, R, P] (the textbook unpreconditioned scheme). Raises
    ConvergenceFailure when residual norms stay above ``tol`` times the
    operator norm after ``max_iter`` steps.
    """
    a, basis = _whiten(pencil)
    m = a.shape[0]
    k = min(n_roots, m)
    anorm = np.linalg.norm(a, 2)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    x, _ = scipy.linalg.qr(x, mode="economic")
    prev = None
    for it in range(1, max_iter + 1):
        ax = a @ x
        theta = np.einsum("ij,ij->j", x.conj(), ax).real
        residual = ax - x * theta
        res_norms = np.linalg.norm(residual, axis=0)
        if np.all(res_norms <= tol * max(anorm, 1e-300)):
            order = np.argsort(theta)
            return RitzSolution(
                theta[order[:k]], basis @ x[:, order[:k]], n_kept=m, iterations=it
            )
        blocks = [x, residual] if prev is None else [x, residual, prev]
        stacked = np.concatenate(blocks, axis=1)
        q, r, piv = scipy.linalg.qr(stacked, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        rank = int(np.count_nonzero(diag > 1e-12 * diag[0]))
        s = q[:, :rank]
        small = s.conj().T @ a @ s
        small = (small + small.conj().T) / 2
        _, y = scipy.linalg.eigh(small)
        x_new = s @ y[:, :k]
        prev = x_new - x @ (x.conj().T @ x_new)
        norms = np.linalg.norm(prev, axis=0)
        prev = prev[:, norms > 1e-14]
        if prev.size == 0:
            prev = None
        x = x_new
    raise ConvergenceFailure(
        f"residual above {tol:g} after {max_iter} iterations"
    )


@dataclass(frozen=True)
class SweepRow:
    n_samples: int
    pool_size: int
    energy: float
    reference_energy: float


def energy_vs_samples_sweep(
    op: PauliSum,
    state: Mps,
    sample_sizes: Sequence[int],
    seed: int = 0,
) -> list[SweepRow]:
    """Variational energy as the sampled pool grows.

    Pools are cumulative unions over the sample prefix, so the ansatz
    space is nested, the energy column is non-increasing by construction,
    and each pool's pencil is a leading block of the largest pool's, the
    one pencil assembled. Each sample size is a positive integer by
    ``SamplerConfig``'s rule: 2.7, True or "4" is refused, not cast. The
    reference column is the dense ground energy, ``mps.lowest_pairs``'
    lowest eigenvalue, which after ``ground_state_reference`` or
    ``optimize`` on the same sum is read, not solved again.
    """
    sizes = sorted({int(SamplerConfig(s, seed).n_samples) for s in sample_sizes})
    if not sizes:
        raise ValueError("no sample sizes given")
    reference = float(lowest_pairs(op)[0][0])
    samples = sample_strings(state, SamplerConfig(n_samples=sizes[-1], seed=seed))
    pools = [curate(samples[:n], op.n_sites).strings for n in sizes]
    stacked = np.concatenate(pools)
    first = np.sort(np.unique(stacked, axis=0, return_index=True)[1])  # the union, in first-occurrence order
    # the identity, then the union rows that the prefixes up to this one bring
    ends = (1 + np.searchsorted(first, np.cumsum([len(p) for p in pools]))).tolist()
    full = assemble_pencil(op, stacked[first], state)
    blocks = (EffectivePencil(full.h[:e, :e], full.n[:e, :e], full.strings[:e], full.coeff_norm) for e in ends)
    energies = [float(solve_ritz_dense(block).energies[0]) for block in blocks]
    return [SweepRow(n, e - 1, energy, reference) for n, e, energy in zip(sizes, ends, energies)]


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["n_samples,p_pool,energy,reference_energy"]
    for r in rows:
        lines.append(
            f"{r.n_samples},{r.pool_size},{r.energy:.12f},{r.reference_energy:.12f}"
        )
    return "\n".join(lines) + "\n"
