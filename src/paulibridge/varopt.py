"""Variational energy estimates over sampled Pauli pools.

The ansatz space is span{P_k |psi>} for pool strings P_k (identity
prepended by default, so the reference state itself is always reachable).
Effective matrices are assembled algebraically: products of pool and
Hamiltonian strings reduce to single strings with phases, so each entry
is a phase-weighted sum of reference-state expectation values and no
dense operator is ever formed. All k^2 (T + 1) product strings are
formed as packed arrays and deduplicated together; each distinct one is
split at the cut n // 2 and contracted from environments swept once per
distinct half (``mps.string_expectations``; a dense vector becomes an
exact MPS first), and the values are contracted with the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from paulibridge.mps import Mps, dense_to_mps, string_expectations
from paulibridge.pauli import (
    DimensionMismatch,
    PauliString,
    PauliSum,
    pack_strings,
    packed_product,
    to_dense,
    unique_rows,
)
# Not called here; kept as module attributes because the benchmark tracer
# (bench/tracer.py) wraps the functions it times by these names.
from paulibridge.mps import string_expectation  # noqa: F401
from paulibridge.pauli import apply_string, pauli_product  # noqa: F401
from paulibridge.sampler import SamplerConfig, curate, sample_strings

__all__ = [
    "ConvergenceFailure",
    "EffectivePencil",
    "FidelityFit",
    "RitzSolution",
    "SweepRow",
    "assemble_pencil",
    "energy_vs_samples_sweep",
    "fidelity_fit",
    "solve_ritz_dense",
    "solve_ritz_lobpcg",
    "sweep_to_csv",
]


class ConvergenceFailure(RuntimeError):
    """Iterative eigensolver failed to reach tolerance."""


@dataclass
class EffectivePencil:
    """Pool-space matrices H_kl = <P_k psi|H|P_l psi>, N_kl = <P_k psi|P_l psi>."""

    h: np.ndarray
    n: np.ndarray
    strings: tuple[PauliString, ...]

    @property
    def size(self) -> int:
        return len(self.strings)


@dataclass
class RitzSolution:
    energies: np.ndarray
    coefficients: np.ndarray
    n_kept: int
    iterations: int = 0


@dataclass
class FidelityFit:
    coefficients: np.ndarray
    fidelity: float


_I_POWERS = np.array([1, 1j, -1, -1j])
NULL_TOL = 1e-12  # metric eigenvalues below this times the largest are deflated
RIDGE = 1e-10  # fidelity_fit's ridge, relative to the metric's mean diagonal


def _expectations(state, packed: np.ndarray, n_sites: int) -> np.ndarray:
    if not isinstance(state, Mps):
        vec = np.asarray(state, dtype=np.complex128)
        if vec.shape != (2**n_sites,):
            raise DimensionMismatch(f"state has shape {vec.shape}, expected ({2**n_sites},)")
        state = dense_to_mps(vec, normalize=False)  # exact, norm kept
    if state.n_sites != n_sites:
        raise DimensionMismatch(f"state has {state.n_sites} sites, operator has {n_sites}")
    return string_expectations(state, packed)


def assemble_pencil(
    op: PauliSum,
    strings: Sequence[PauliString],
    state,
    include_identity: bool = True,
) -> EffectivePencil:
    """Build the effective pencil for a pool over a reference state.

    ``state`` is an Mps or a dense vector. Pool strings are Hermitian, so
    N_ab = <P_a P_b> and H_ab = sum_t c_t <P_a T_t P_b>; the k^2 (T + 1)
    product strings are deduplicated and each distinct one is evaluated
    once.
    """
    pool = tuple(strings)
    if include_identity:
        ident = PauliString.identity(op.n_sites)
        pool = (ident,) + tuple(s for s in pool if s != ident)
    for s in pool:
        if s.n_sites != op.n_sites:
            raise DimensionMismatch(
                f"pool string {s.label} has {s.n_sites} sites, operator has {op.n_sites}"
            )
    k = len(pool)
    p = pack_strings(pool, op.n_sites)
    t = pack_strings((term.string for term in op.terms), op.n_sites)
    coeffs = np.array([term.coeff for term in op.terms], dtype=np.complex128)
    n_exp, n_codes = packed_product(p[:, None], p[None, :])
    pt_exp, pt_codes = packed_product(p[:, None], t[None, :])
    ptp_exp, h_codes = packed_product(pt_codes[:, :, None], p[None, None, :])
    words = p.shape[1]
    unique, inverse = unique_rows(
        np.concatenate([n_codes.reshape(-1, words), h_codes.reshape(-1, words)])
    )
    values = _expectations(state, unique, op.n_sites)[inverse]
    n = _I_POWERS[n_exp] * values[: k * k].reshape(k, k)
    h_entries = _I_POWERS[(pt_exp[:, :, None] + ptp_exp) % 4] * values[k * k :].reshape(
        k, len(coeffs), k
    )
    h = np.tensordot(coeffs, h_entries, axes=(0, 1))
    return EffectivePencil(h, n, pool)


def _whiten(pencil: EffectivePencil):
    h, n = pencil.h, pencil.n
    herm_gap = np.linalg.norm(h - h.conj().T)
    if herm_gap > 1e-10 * max(np.linalg.norm(h), 1.0):
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
    k = min(n_roots, a.shape[0])
    return RitzSolution(vals[:k], basis @ vecs[:, :k], n_kept=a.shape[0])


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


def fidelity_fit(pencil: EffectivePencil, overlaps: np.ndarray) -> FidelityFit:
    """Best pool approximation to a unit-norm target state.

    ``overlaps[k] = <P_k psi|phi>``; solves the ridge-regularized normal
    equations and reports the squared normalized overlap achieved.
    """
    b = np.asarray(overlaps, dtype=np.complex128)
    if b.shape != (pencil.size,):
        raise DimensionMismatch(
            f"expected {pencil.size} overlaps, got shape {b.shape}"
        )
    k = pencil.size
    scale = max(np.trace(pencil.n).real / k, 1e-300)
    x = scipy.linalg.solve(
        pencil.n + RIDGE * scale * np.eye(k), b, assume_a="her"
    )
    denom = float((x.conj() @ pencil.n @ x).real)
    if denom <= 0:
        raise ValueError("fitted state has vanishing norm")
    return FidelityFit(x, float(abs(x.conj() @ b) ** 2 / denom))


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
    keep_iz: int | None = None,
    seed: int = 0,
    reference: float | None = None,
) -> list[SweepRow]:
    """Variational energy as the sampled pool grows.

    Pools are cumulative unions over the sample prefix, so the ansatz
    space is nested and the energy column is non-increasing by
    construction. The reference column is the dense ground energy;
    a caller that already has it passes it as ``reference``.
    """
    sizes = sorted(set(int(s) for s in sample_sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError("sample sizes must be positive")
    if reference is None:
        reference = float(scipy.linalg.eigvalsh(to_dense(op))[0])
    samples = sample_strings(state, SamplerConfig(n_samples=sizes[-1], seed=seed))
    union: dict[PauliString, None] = {}
    rows: list[SweepRow] = []
    for n in sizes:
        pool = curate(samples[:n], op.n_sites, keep_iz)
        for s in pool.strings:
            union.setdefault(s)
        pencil = assemble_pencil(op, tuple(union), state)
        sol = solve_ritz_dense(pencil)
        rows.append(SweepRow(n, len(union), float(sol.energies[0]), reference))
    return rows


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["n_samples,p_pool,energy,reference_energy"]
    for r in rows:
        lines.append(
            f"{r.n_samples},{r.pool_size},{r.energy:.12f},{r.reference_energy:.12f}"
        )
    return "\n".join(lines) + "\n"
