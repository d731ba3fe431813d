"""Matrix product states: construction from dense vectors, gauges, overlaps.

Tensor layout is ``A[left_bond, right_bond, phys]`` with site 0 the most
significant qubit of the dense index, matching the operator conventions.
"""

from __future__ import annotations

import base64
import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from paulibridge.pauli import (
    PauliString,
    PauliSum,
    TooLarge,
    n_words,
    pack_strings,
    to_dense,
)

__all__ = [
    "DegenerateGroundState",
    "GroundStateResult",
    "Mps",
    "canonicalize_mps",
    "dense_to_mps",
    "ground_state_reference",
    "is_left_canonical_site",
    "is_right_canonical_site",
    "mps_from_json",
    "mps_to_dense",
    "mps_to_json",
    "overlap",
    "string_expectation",
    "string_expectations",
]

FORMAT_NAME = "mps-v1"
STATE_DENSE_LIMIT = 20
# strings swept together; the sampler's chunk size, so memory stays flat
CHUNK_STRINGS = 4096

# Pauli code c maps physical row s of a ket to row s ^ _FLIPS[c], times
# _ROW_PHASES[c, s]: sigma_c[s, t] = _ROW_PHASES[c, s] when t = s ^ flip
_FLIPS = np.array([False, True, True, False])
_ROW_PHASES = np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]], dtype=np.complex128)


class DegenerateGroundState(UserWarning):
    """Spectral gap below tolerance; the reference state is arbitrary."""


@dataclass
class Mps:
    """Matrix product state with per-site gauge tags."""

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
        return [self.tensors[0].shape[0]] + [t.shape[1] for t in self.tensors]


def dense_to_mps(
    state: np.ndarray,
    max_bond: int | None = None,
    svd_tol: float = 0.0,
    normalize: bool = True,
    discard_log: list[float] | None = None,
) -> Mps:
    """Factor a dense state vector by successive SVDs.

    All but the last tensor come out left-isometric. Truncation keeps
    singular values above ``svd_tol`` relative to each bond's largest,
    capped at ``max_bond``; dropped squared weights are appended to
    ``discard_log`` when a list is given. With ``normalize`` the result
    has unit norm regardless of input scale or truncation.
    """
    vec = np.asarray(state, dtype=np.complex128).ravel()
    n = vec.size.bit_length() - 1
    if vec.size != 2**n or n < 1:
        raise ValueError(f"state length {vec.size} is not a power of two")
    if np.linalg.norm(vec) == 0:
        raise ValueError("cannot factor the zero state")
    tensors: list[np.ndarray] = []
    mat = vec.reshape(2, -1)
    chi = 1
    for _ in range(n - 1):
        u, s, vh = scipy.linalg.svd(mat, full_matrices=False)
        keep = int(np.count_nonzero(s > svd_tol * s[0])) if s[0] > 0 else 1
        if max_bond is not None:
            keep = min(keep, max_bond)
        keep = max(keep, 1)
        if discard_log is not None:
            discard_log.append(float(np.sum(s[keep:] ** 2)))
        tensors.append(u[:, :keep].reshape(chi, 2, keep).transpose(0, 2, 1))
        mat = (s[:keep, None] * vh[:keep]).reshape(keep * 2, -1)
        chi = keep
    last = mat.reshape(chi, 2, 1).transpose(0, 2, 1)
    if normalize:
        last = last / np.linalg.norm(last)
    tensors.append(last)
    return Mps(tensors, ["left"] * (n - 1) + ["center"])


def mps_to_dense(m: Mps, dense_limit: int = STATE_DENSE_LIMIT) -> np.ndarray:
    if m.n_sites > dense_limit:
        raise TooLarge(f"{m.n_sites} sites exceeds dense limit {dense_limit}")
    if m.tensors[0].shape[0] != 1 or m.tensors[-1].shape[1] != 1:
        raise ValueError("boundary bond dimensions must be 1")
    acc = np.ones((1, 1), dtype=np.complex128)
    for t in m.tensors:
        acc = np.einsum("lB,lrp->rBp", acc, t).reshape(t.shape[1], -1)
    return acc[0]


def is_left_canonical_site(t: np.ndarray, tol: float = 1e-12) -> bool:
    mat = t.transpose(0, 2, 1).reshape(-1, t.shape[1])
    return bool(np.allclose(mat.conj().T @ mat, np.eye(t.shape[1]), atol=tol))


def is_right_canonical_site(t: np.ndarray, tol: float = 1e-12) -> bool:
    mat = t.reshape(t.shape[0], -1)
    return bool(np.allclose(mat @ mat.conj().T, np.eye(t.shape[0]), atol=tol))


def canonicalize_mps(m: Mps, form: str = "right") -> Mps:
    """Sweep into a full left or right gauge.

    The norm collects in the terminal site (the last for ``"left"``, the
    first for ``"right"``), which is tagged ``"center"``; for a unit-norm
    state that site then satisfies the same isometry condition as the
    rest, which is what the sampling chain rule requires.
    """
    if form not in ("left", "right"):
        raise ValueError(f"form must be 'left' or 'right', got {form!r}")
    ts = [t.copy() for t in m.tensors]
    n = len(ts)
    if form == "right":
        for j in range(n - 1, 0, -1):
            l, r = ts[j].shape[0], ts[j].shape[1]
            mat = ts[j].reshape(l, r * 2)
            qh, rh = scipy.linalg.qr(mat.conj().T, mode="economic")
            k = qh.shape[1]
            ts[j] = qh.conj().T.reshape(k, r, 2)
            ts[j - 1] = np.einsum("alp,lk->akp", ts[j - 1], rh.conj().T)
        gauge = ["center"] + ["right"] * (n - 1)
    else:
        for j in range(n - 1):
            l, r = ts[j].shape[0], ts[j].shape[1]
            mat = ts[j].transpose(0, 2, 1).reshape(l * 2, r)
            q, rr = scipy.linalg.qr(mat, mode="economic")
            k = q.shape[1]
            ts[j] = q.reshape(l, 2, k).transpose(0, 2, 1)
            ts[j + 1] = np.einsum("kr,rbp->kbp", rr, ts[j + 1])
        gauge = ["left"] * (n - 1) + ["center"]
    return Mps(ts, gauge)


def overlap(a: Mps, b: Mps) -> complex:
    """Inner product ``<a|b>`` by transfer-matrix contraction."""
    if a.n_sites != b.n_sites:
        raise ValueError(f"site counts differ: {a.n_sites} vs {b.n_sites}")
    env = np.ones((1, 1), dtype=np.complex128)
    for ta, tb in zip(a.tensors, b.tensors):
        env = np.einsum("acp,ab,bdp->cd", ta.conj(), env, tb)
    return complex(env[0, 0])


def string_expectation(m: Mps, p: PauliString) -> complex:
    """``<psi|P|psi>`` by transfer-matrix contraction."""
    if p.n_sites != m.n_sites:
        raise ValueError(f"string has {p.n_sites} sites, state has {m.n_sites}")
    return complex(string_expectations(m, pack_strings([p], p.n_sites))[0])


def string_expectations(m: Mps, packed: np.ndarray) -> np.ndarray:
    """``<psi|P|psi>`` for every row of a pack_strings array.

    One left-to-right transfer sweep carries the environments of up to
    CHUNK_STRINGS strings at once. Per site, one tensordot contracts the
    environments with the ket tensor, the Pauli acts as a row swap and
    phase, and one batched matmul closes the bra.
    """
    n = m.n_sites
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim != 2 or packed.shape[1] != n_words(n):
        raise ValueError(
            f"packed strings have shape {packed.shape}, state needs (count, {n_words(n)})"
        )
    kets = [np.ascontiguousarray(t.transpose(0, 2, 1)) for t in m.tensors]
    bras = [k.reshape(-1, k.shape[2]).conj().T for k in kets]
    out = np.empty(len(packed), dtype=np.complex128)
    for start in range(0, len(packed), CHUNK_STRINGS):
        chunk = packed[start : start + CHUNK_STRINGS]
        batch = len(chunk)
        env = np.ones((batch, 1, 1), dtype=np.complex128)
        for j, (ket, bra) in enumerate(zip(kets, bras)):
            offset = 2 * (n - 1 - j)
            word = chunk[:, -1 - offset // 64]
            codes = ((word >> np.uint64(offset % 64)) & np.uint64(3)).astype(np.intp)
            half = np.tensordot(env, ket, axes=(2, 0))
            half = np.where(_FLIPS[codes, None, None, None], half[:, :, ::-1], half)
            half *= _ROW_PHASES[codes, None, :, None]
            env = bra @ half.reshape(batch, -1, ket.shape[2])
        out[start : start + batch] = env[:, 0, 0]
    return out


@dataclass
class GroundStateResult:
    energy: float
    gap: float
    vector: np.ndarray
    mps: Mps


def ground_state_reference(
    op: PauliSum,
    max_bond: int | None = None,
    degeneracy_tol: float = 1e-8,
    dense_limit: int = 12,
) -> GroundStateResult:
    """Dense lowest eigenpair, returned as a right-canonical MPS.

    The global phase is fixed by making the largest-magnitude component
    real and positive, so repeated runs agree bit for bit. Warns when the
    spectral gap falls below ``degeneracy_tol``, in which case the chosen
    eigenvector is a basis-dependent representative.
    """
    dense = to_dense(op, dense_limit=dense_limit)
    if np.linalg.norm(dense - dense.conj().T) > 1e-10 * max(np.linalg.norm(dense), 1.0):
        raise ValueError("operator is not Hermitian")
    vals, vecs = scipy.linalg.eigh(dense)
    energy = float(vals[0])
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else np.inf
    if gap < degeneracy_tol:
        warnings.warn(
            f"spectral gap {gap:.3e} below {degeneracy_tol:.3e}",
            DegenerateGroundState,
            stacklevel=2,
        )
    vec = vecs[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.abs(vec[pivot]) / vec[pivot])
    mps = canonicalize_mps(dense_to_mps(vec, max_bond=max_bond), "right")
    return GroundStateResult(energy, gap, vec, mps)


def mps_to_json(m: Mps) -> str:
    """Serialize to the mps-v1 JSON format (same payload scheme as mpo-v1)."""
    doc = {
        "format": FORMAT_NAME,
        "n_sites": m.n_sites,
        "bond_dims": m.bond_dims,
        "gauge": list(m.gauge),
        "tensors": [
            base64.b64encode(
                np.ascontiguousarray(t, dtype="<c16").tobytes()
            ).decode()
            for t in m.tensors
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def mps_from_json(text: str) -> Mps:
    doc = json.loads(text)
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"expected format {FORMAT_NAME!r}, got {doc.get('format')!r}")
    n = doc["n_sites"]
    bonds = doc["bond_dims"]
    if len(bonds) != n + 1 or len(doc["tensors"]) != n:
        raise ValueError("bond_dims or tensors length inconsistent with n_sites")
    tensors = []
    for i, payload in enumerate(doc["tensors"]):
        shape = (bonds[i], bonds[i + 1], 2)
        flat = np.frombuffer(base64.b64decode(payload), dtype="<c16")
        if flat.size != int(np.prod(shape)):
            raise ValueError(f"payload size mismatch at site {i}")
        tensors.append(flat.reshape(shape).astype(np.complex128))
    gauge = list(doc.get("gauge", []))
    if gauge and len(gauge) != n:
        raise ValueError("gauge length inconsistent with n_sites")
    return Mps(tensors, gauge)
