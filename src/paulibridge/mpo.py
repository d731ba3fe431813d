"""Matrix product operators from Pauli sums via pivoted-QR cut matrices.

The left-to-right sweep keeps a carried coefficient matrix over right
suffixes. At each site the carried matrix is regrouped into the cut matrix
(rows: occurring (incoming bond, site symbol) pairs; columns: remaining
suffixes), factored by column-pivoted QR, and the Q factor becomes the site
tensor while ``R P^T`` is carried on. Bond dimensions are the numerical
ranks ``|{m : |R_mm| > rank_tol |R_00|}|``; with ``rank_tol = 0`` the
contraction reproduces the operator exactly.

MPO tensors are indexed ``W[left_bond, right_bond, s_out, s_in]``.
"""

from __future__ import annotations

import base64
import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from paulibridge.bridge import Bridge, BridgeDecomposition, EmptyOperator
from paulibridge.pauli import DENSE_LIMIT, PAULI_MATRICES, PauliSum, SYMBOLS, TooLarge

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


def _encode_array(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<c16").tobytes()).decode()


def _decode_array(text: str, shape: tuple[int, ...]) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(text), dtype="<c16")
    expected = int(np.prod(shape))
    if flat.size != expected:
        raise ValueError(f"payload holds {flat.size} values, shape {shape} needs {expected}")
    return flat.reshape(shape).astype(np.complex128)


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
    With ``rank_tol = 0`` the result contracts back to the operator
    exactly (up to roundoff); larger tolerances trade bond dimension for
    a controlled truncation of the cut matrices.
    """
    if op.n_terms == 0:
        raise EmptyOperator("cannot build an MPO from a sum with no terms")
    if rank_tol < 0:
        raise ValueError(f"rank_tol must be non-negative, got {rank_tol}")
    n = op.n_sites
    # carried matrix: bond x unique suffixes, starting from the raw terms
    suffixes = [t.string.label for t in op.terms]
    carried = np.array([[t.coeff for t in op.terms]], dtype=np.complex128)
    tensors: list[np.ndarray] = []
    for site in range(n):
        chi = carried.shape[0]
        rests = sorted({s[1:] for s in suffixes})
        rest_index = {r: k for k, r in enumerate(rests)}
        # regroup columns into (bond, symbol) rows over remaining suffixes
        raw = np.zeros((chi, 4, len(rests)), dtype=np.complex128)
        for k, s in enumerate(suffixes):
            raw[:, SYMBOLS.index(s[0]), rest_index[s[1:]]] += carried[:, k]
        occurring = [
            (a, p) for a in range(chi) for p in range(4) if np.any(raw[a, p] != 0)
        ]
        gamma = np.array([raw[a, p] for a, p in occurring])
        if cut_log is not None:
            cut_log.append(CutMatrix(site, tuple(occurring), tuple(rests), gamma.copy()))
        if site == n - 1:
            w = np.zeros((chi, 1, 2, 2), dtype=np.complex128)
            for j, (a, p) in enumerate(occurring):
                w[a, 0] += gamma[j, 0] * PAULI_MATRICES[p]
            tensors.append(w)
            break
        q, r, piv = scipy.linalg.qr(gamma, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        rank = int(np.count_nonzero(diag > rank_tol * diag[0]))
        if rank == 0:
            raise EmptyOperator(f"cut matrix at site {site} vanished")
        w = np.zeros((chi, rank, 2, 2), dtype=np.complex128)
        for j, (a, p) in enumerate(occurring):
            w[a] += q[j, :rank, None, None] * PAULI_MATRICES[p]
        tensors.append(w)
        carried = np.zeros((rank, len(rests)), dtype=np.complex128)
        carried[:, piv] = r[:rank, :]
        suffixes = rests
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
    """Serialize to the mpo-v1 JSON format.

    Tensor payloads are base64 of little-endian complex128 values in
    row-major order; the header carries the shapes so the payload can be
    decoded without guessing.
    """
    doc = {
        "format": FORMAT_NAME,
        "n_sites": m.n_sites,
        "bond_dims": m.bond_dims,
        "gauge": list(m.gauge),
        "tensors": [_encode_array(w) for w in m.tensors],
    }
    return json.dumps(doc, indent=2) + "\n"


def mpo_from_json(text: str) -> Mpo:
    doc = json.loads(text)
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"expected format {FORMAT_NAME!r}, got {doc.get('format')!r}")
    n = doc["n_sites"]
    bonds = doc["bond_dims"]
    if len(bonds) != n + 1 or len(doc["tensors"]) != n:
        raise ValueError("bond_dims or tensors length inconsistent with n_sites")
    tensors = [
        _decode_array(payload, (bonds[i], bonds[i + 1], 2, 2))
        for i, payload in enumerate(doc["tensors"])
    ]
    gauge = list(doc.get("gauge", []))
    if gauge and len(gauge) != n:
        raise ValueError("gauge length inconsistent with n_sites")
    return Mpo(tensors, gauge)


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
