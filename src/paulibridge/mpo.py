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

MPO tensors are indexed ``W[left_bond, right_bond, s_out, s_in]``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from paulibridge.bridge import Bridge, BridgeDecomposition, EmptyOperator
from paulibridge.mps import chain_from_json, chain_to_json
from paulibridge.pauli import (
    DENSE_LIMIT,
    PAULI_MATRICES,
    SYMBOLS,
    PauliSum,
    TooLarge,
    pack_strings,
    site_codes,
)

__all__ = [
    "BridgeSvd",
    "CutMatrix",
    "Mpo",
    "RankExceedsDims",
    "bridge_svd",
    "build_mpo_qr",
    "canonicalize",
    "compress",
    "is_left_canonical_site",
    "is_right_canonical_site",
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


@dataclass
class Mpo:
    """Matrix product operator with per-site gauge tags."""

    tensors: list[np.ndarray]
    gauge: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.gauge:
            self.gauge = ["none"] * len(self.tensors)

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> list[int]:
        return [self.tensors[0].shape[0]] + [w.shape[1] for w in self.tensors]


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
    codes = site_codes(pack_strings((t.string for t in op.terms), n), n, np.arange(n))
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
    carried = np.array([[t.coeff for t in op.terms]], dtype=np.complex128)
    tensors: list[np.ndarray] = []
    for site in range(n):
        chi = carried.shape[0]
        # regroup columns into (bond, symbol) rows over remaining suffixes:
        # one scatter, as the columns are distinct; += stores -0.0 as 0.0
        sym, rest = np.divmod(keys[site], n_rests[site])
        raw = np.zeros((chi, 4, n_rests[site]), dtype=np.complex128)
        raw[:, sym, rest] += carried
        bond, code = np.nonzero(np.any(raw != 0, axis=2))
        occurring = list(zip(bond.tolist(), code.tolist()))
        gamma = raw[bond, code]
        if cut_log is not None:
            cut_log.append(CutMatrix(site, tuple(occurring), rest_labels[site], gamma))
        if site == n - 1:
            w = np.zeros((chi, 1, 2, 2), dtype=np.complex128)
            for j, (a, p) in enumerate(occurring):
                w[a, 0] += gamma[j, 0] * PAULI_MATRICES[p]
            tensors.append(w)
            break
        q, r, piv = scipy.linalg.qr(gamma, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        floor = max(rank_tol, np.finfo(np.float64).eps * max(gamma.shape))
        rank = int(np.count_nonzero(diag > floor * diag[0]))
        if rank == 0:
            raise EmptyOperator(f"cut matrix at site {site} vanished")
        w = np.zeros((chi, rank, 2, 2), dtype=np.complex128)
        for j, (a, p) in enumerate(occurring):
            w[a] += q[j, :rank, None, None] * PAULI_MATRICES[p]
        tensors.append(w)
        carried = np.zeros((rank, n_rests[site]), dtype=np.complex128)
        carried[:, piv] = r[:rank, :]
    return Mpo(tensors)


def mpo_to_dense(m: Mpo, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """Contract to the dense matrix (site 0 most significant)."""
    if m.n_sites > dense_limit:
        raise TooLarge(f"{m.n_sites} sites exceeds dense limit {dense_limit}")
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


def is_left_canonical_site(w: np.ndarray, tol: float = 1e-12) -> bool:
    mat = w.transpose(0, 2, 3, 1).reshape(-1, w.shape[1])
    return bool(np.allclose(mat.conj().T @ mat, np.eye(w.shape[1]), atol=tol))


def is_right_canonical_site(w: np.ndarray, tol: float = 1e-12) -> bool:
    mat = w.reshape(w.shape[0], -1)
    return bool(np.allclose(mat @ mat.conj().T, np.eye(w.shape[0]), atol=tol))


def canonicalize(m: Mpo, center: int) -> Mpo:
    """Bring the MPO to mixed-canonical form about ``center``.

    Sites left of the center satisfy the left condition
    ``sum_{a,s,s'} W*[a,l] W[a,l'] = delta``, sites right of it the
    mirrored right condition; the dense operator is unchanged.
    """
    n = m.n_sites
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range for {n} sites")
    ws = [w.copy() for w in m.tensors]
    for j in range(n - 1, center, -1):
        l, r = ws[j].shape[0], ws[j].shape[1]
        mat = ws[j].reshape(l, r * 4)
        qh, rh = scipy.linalg.qr(mat.conj().T, mode="economic")
        k = qh.shape[1]
        ws[j] = qh.conj().T.reshape(k, r, 2, 2)
        ws[j - 1] = np.einsum("alst,lk->akst", ws[j - 1], rh.conj().T)
    for j in range(center):
        l, r = ws[j].shape[0], ws[j].shape[1]
        mat = ws[j].transpose(0, 2, 3, 1).reshape(l * 4, r)
        q, rr = scipy.linalg.qr(mat, mode="economic")
        k = q.shape[1]
        ws[j] = q.reshape(l, 2, 2, k).transpose(0, 3, 1, 2)
        ws[j + 1] = np.einsum("kr,rbst->kbst", rr, ws[j + 1])
    gauge = ["left"] * center + ["center"] + ["right"] * (n - 1 - center)
    return Mpo(ws, gauge)


def compress(
    m: Mpo, svd_tol: float = 0.0, max_bond: int | None = None
) -> tuple[Mpo, list[float]]:
    """Sweep of SVD truncations in mixed-canonical gauge.

    Singular values below ``svd_tol`` relative to each bond's largest are
    discarded, and bonds are capped at ``max_bond``. Returns the
    compressed MPO and the discarded weight (sum of dropped squared
    singular values) per bond; the Frobenius error of the dense
    contraction obeys ``err <= sqrt(sum of discarded weights)`` up to
    roundoff, with equality when a single bond is truncated.
    """
    work = canonicalize(m, 0)
    ws = work.tensors
    n = len(ws)
    discarded: list[float] = []
    for j in range(n - 1):
        l, r = ws[j].shape[0], ws[j].shape[1]
        mat = ws[j].transpose(0, 2, 3, 1).reshape(l * 4, r)
        u, s, vh = scipy.linalg.svd(mat, full_matrices=False)
        keep = int(np.count_nonzero(s > svd_tol * s[0])) if s[0] > 0 else 1
        if max_bond is not None:
            keep = min(keep, max_bond)
        keep = max(keep, 1)
        discarded.append(float(np.sum(s[keep:] ** 2)))
        ws[j] = u[:, :keep].reshape(l, 2, 2, keep).transpose(0, 3, 1, 2)
        carry = s[:keep, None] * vh[:keep]
        ws[j + 1] = np.einsum("kr,rbst->kbst", carry, ws[j + 1])
    gauge = ["left"] * (n - 1) + ["center"]
    return Mpo(ws, gauge), discarded


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
    entries = {
        (a, b): complex(approx[a, b])
        for a in range(approx.shape[0])
        for b in range(approx.shape[1])
        if approx[a, b] != 0
    }
    return BridgeSvd(left, s, right, Bridge(d.bridge.shape, entries))
