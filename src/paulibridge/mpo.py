"""Matrix product operators from Pauli sums via pivoted-QR cut matrices.

The left-to-right sweep keeps a carried coefficient matrix over right
suffixes. At each site the carried matrix is regrouped into the cut matrix
(rows: occurring (incoming bond, site symbol) pairs; columns: remaining
suffixes), factored by column-pivoted QR, and the Q factor becomes the site
tensor while ``R P^T`` is carried on. Bond dimensions are numerical ranks:
for an ``m x k`` cut matrix a pivot counts when ``|R_jj| > max(rank_tol,
eps * max(m, k)) * |R_00|``, numpy's ``matrix_rank`` threshold at
``rank_tol = 0``. Column pivoting (Businger & Golub, 1965) keeps every
column of the dropped trailing block of R no longer than the first
dropped pivot, so that block's Frobenius norm is at most ``sqrt(k)``
times the threshold: at ``rank_tol = 0`` the contraction reproduces the
operator up to roundoff, and roundoff pivots do not become bonds.

MPO tensors are indexed ``W[left_bond, right_bond, s_out, s_in]``. The
gauge sweep, compression, isometry checks and JSON codec are the shared
tensor-chain ones of ``paulibridge.mps``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from paulibridge.bridge import Bridge, BridgeDecomposition, EmptyOperator
from paulibridge.mps import _SIGMA, TensorChain, chain_from_json, chain_to_json
from paulibridge.pauli import (
    DENSE_LIMIT,
    SYMBOLS,
    PauliSum,
    TooLarge,
    site_codes,
)

__all__ = [
    "BridgeSvd",
    "CutMatrix",
    "Mpo",
    "RankExceedsDims",
    "bridge_svd",
    "build_mpo_qr",
    "mpo_from_json",
    "mpo_to_dense",
    "mpo_to_json",
]

FORMAT_NAME = "mpo-v1"


class RankExceedsDims(UserWarning):
    """Requested rank larger than the matrix allows; clamped."""


@dataclass
class CutMatrix:
    """One step's regrouped coefficient matrix.

    ``row_keys[j] = (incoming bond, symbol code)`` for the occurring pairs,
    sorted; ``col_labels`` are the remaining right suffixes, sorted, with
    ``""`` at the final site.
    """

    site: int
    row_keys: tuple[tuple[int, int], ...]
    col_labels: tuple[str, ...]
    matrix: np.ndarray


class Mpo(TensorChain):
    """Matrix product operator: physical shape ``(2, 2)``, ``W[left, right, s_out, s_in]``."""


def build_mpo_qr(
    op: PauliSum, rank_tol: float = 0.0, cut_log: list[CutMatrix] | None = None
) -> Mpo:
    """Compile a Pauli sum into an MPO by the pivoted-QR sweep.

    ``cut_log``, when given a list, receives the CutMatrix of every step.
    A pivot counts as rank when ``|R_jj| > max(rank_tol, eps * max(m, k))
    * |R_00|`` for an ``m x k`` cut matrix. Each dropped trailing block of
    R then has Frobenius norm at most ``sqrt(k)`` times that threshold, so
    with ``rank_tol = 0`` the result contracts back to the operator up to
    roundoff; larger tolerances trade bond dimension for a controlled
    truncation of the cut matrices. ``rank_tol`` must be finite and
    non-negative.
    """
    if op.n_terms == 0:
        raise EmptyOperator("cannot build an MPO from a sum with no terms")
    if not (math.isfinite(rank_tol) and rank_tol >= 0):
        raise ValueError(f"rank_tol must be finite and non-negative, got {rank_tol}")
    n = op.n_sites
    # Suffix ids, right to left: the carried columns at site k have keys
    # code_k * n_rests[k] + (id of the suffix past k), one per term at site
    # 0 and one per distinct suffix after it. np.unique sorts the keys in
    # label order, since I < X < Y < Z is code order.
    codes = site_codes(op.rows, n, np.arange(n))
    ids = np.zeros(op.n_terms, dtype=np.int64)
    keys, n_rests = [], [1]
    for k in range(n - 1, 0, -1):
        key, ids = np.unique(codes[:, k] * n_rests[-1] + ids, return_inverse=True)
        keys.append(key)
        n_rests.append(key.size)
    keys.append(codes[:, 0] * n_rests[-1] + ids)
    keys.reverse()
    n_rests.reverse()
    rest_labels = [("",)]
    if cut_log is not None:
        for k in range(n - 1, 0, -1):
            sym, rest = np.divmod(keys[k], n_rests[k])
            rest_labels.insert(0, tuple(SYMBOLS[p] + rest_labels[0][r] for p, r in zip(sym, rest)))
    carried = op.coeffs[None]
    tensors: list[np.ndarray] = []
    for site in range(n):
        chi = carried.shape[0]
        # regroup columns into (bond, symbol) rows over remaining suffixes:
        # one scatter, as the columns are distinct; += stores -0.0 as 0.0
        sym, rest = np.divmod(keys[site], n_rests[site])
        raw = np.zeros((chi, 4, n_rests[site]), dtype=np.complex128)
        raw[:, sym, rest] += carried
        bond, code = np.nonzero(np.any(raw != 0, axis=2))
        gamma = raw[bond, code]
        if cut_log is not None:
            cut_log.append(CutMatrix(site, tuple(zip(bond.tolist(), code.tolist())), rest_labels[site], gamma))
        if site == n - 1:
            q, rank = gamma, 1  # one column: the last site's tensor takes it whole
        else:
            q, r, piv = scipy.linalg.qr(gamma, mode="economic", pivoting=True)
            if not (np.isfinite(q).all() and np.isfinite(r).all()):
                raise ValueError(f"cut matrix at site {site} overflows in the QR")
            diag = np.abs(np.diag(r))
            floor = max(rank_tol, np.finfo(np.float64).eps * max(gamma.shape))
            rank = int(np.count_nonzero(diag > floor * diag[0]))
            if rank == 0:
                raise EmptyOperator(f"cut matrix at site {site} vanished")
            carried = np.zeros((rank, n_rests[site]), dtype=np.complex128)
            carried[:, piv] = r[:rank, :]
        # one add per row and entry, in row order, so each bond takes its
        # symbols in ascending order; flat indices take add.at's 1-D fast path
        w, block = np.zeros((chi, rank, 2, 2), dtype=np.complex128), 4 * rank
        terms = q[:, :rank, None, None] * _SIGMA[code, None]
        np.add.at(w.reshape(-1), (bond[:, None] * block + np.arange(block)).ravel(), terms.ravel())
        tensors.append(w)
    return Mpo(tensors)


def mpo_to_dense(m: Mpo) -> np.ndarray:
    """Contract to the dense matrix (site 0 most significant)."""
    if m.n_sites > DENSE_LIMIT:
        raise TooLarge(f"{m.n_sites} sites exceeds dense limit {DENSE_LIMIT}")
    if m.tensors[0].shape[0] != 1 or m.tensors[-1].shape[1] != 1:
        raise ValueError("boundary bond dimensions must be 1")
    acc = np.ones((1, 1, 1), dtype=np.complex128)
    for w in m.tensors:
        # contract the bond as one BLAS product, then interleave the new
        # site below the old ones: (p, q, b, s, t) -> (b, p s, q t)
        acc = np.tensordot(acc, w, axes=(0, 0)).transpose(2, 0, 3, 1, 4)
        two_p = acc.shape[1] * acc.shape[2]
        acc = acc.reshape(acc.shape[0], two_p, two_p)
    return acc[0]


def mpo_to_json(m: Mpo) -> str:
    """Serialize to the mpo-v1 JSON format (see mps.chain_to_json)."""
    return chain_to_json(FORMAT_NAME, m)


def mpo_from_json(text: str) -> Mpo:
    """Read an mpo-v1 document; every malformed field raises ValueError naming it."""
    return Mpo(*chain_from_json(text, FORMAT_NAME, (2, 2)))


@dataclass
class BridgeSvd:
    """Rank-r factorization of a bridge matrix.

    ``left_factor @ right_factor`` is the Frobenius-optimal rank-r
    approximation (the square root of the kept singular values is split
    evenly between the factors); ``sigma`` is the full spectrum.
    """

    left_factor: np.ndarray
    sigma: np.ndarray
    right_factor: np.ndarray
    truncated: Bridge


def bridge_svd(d: BridgeDecomposition, rank: int) -> BridgeSvd:
    """Optimal low-rank truncation of the dense bridge matrix."""
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    c = d.bridge.to_matrix()
    u, s, vh = scipy.linalg.svd(c, full_matrices=False)
    if rank > len(s):
        warnings.warn(
            f"rank {rank} exceeds min dimension {len(s)}; clamped", RankExceedsDims,
            stacklevel=2,
        )
        rank = len(s)
    root = np.sqrt(s[:rank])
    left = u[:, :rank] * root
    right = root[:, None] * vh[:rank]
    approx = (u[:, :rank] * s[:rank]) @ vh[:rank]
    a, b = np.nonzero(approx)  # row-major, so the pairs come sorted
    truncated = Bridge(d.bridge.shape, np.stack([a, b], axis=1), approx[a, b])
    return BridgeSvd(left, s, right, truncated)
