"""Tensor chains (MPS and MPO) and matrix product states.

``TensorChain`` is the one chain type: tensors ``T[left_bond, right_bond,
*phys]`` with per-site gauge tags. An ``Mps`` has physical shape ``(2,)``,
an ``Mpo`` (``paulibridge.mpo``) ``(2, 2)``; both share the isometry
checks, the QR gauge sweep (``canonicalize``), the SVD truncation sweep
(``compress``) and the JSON codec defined here. Site 0 is the most
significant qubit of the dense index, matching the operator conventions.
"""

from __future__ import annotations

import base64
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from paulibridge.pauli import (
    PAULI_MATRICES,
    PauliString,
    PauliSum,
    JsonText,
    TooLarge,
    json_document,
    json_field,
    json_text,
    malformed,
    n_words,
    pack_strings,
    site_codes,
    to_dense,
    unique_rows,
)

__all__ = [
    "DegenerateGroundState",
    "GroundStateResult",
    "Mps",
    "TensorChain",
    "canonicalize",
    "canonicalize_mps",
    "chain_from_json",
    "chain_to_json",
    "compress",
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
STATE_DENSE_LIMIT = 20  # most sites of a dense state vector
DEGENERACY_TOL = 1e-8  # spectral gap below which ground_state_reference warns
# strings swept or contracted together; on a 2-core x86 host, 1024 ran 2x
# faster than 4096 at bond 16 (the chunk stays cache-sized), as fast at bond 4
CHUNK_STRINGS = 1024

# Pauli code c maps physical row s of a ket to row s ^ _FLIPS[c], times
# _ROW_PHASES[c, s]: sigma_c[s, t] = _ROW_PHASES[c, s] when t = s ^ flip
_SIGMA = np.stack(PAULI_MATRICES)
_FLIPS = _SIGMA[:, 0, 0] == 0
_ROW_PHASES = _SIGMA[np.arange(4)[:, None], [0, 1], [0, 1] ^ _FLIPS[:, None]]


class DegenerateGroundState(UserWarning):
    """Spectral gap below tolerance; the reference state is arbitrary."""


@dataclass
class TensorChain:
    """Tensors ``T[left_bond, right_bond, *phys]`` with per-site gauge tags."""

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


class Mps(TensorChain):
    """Matrix product state: physical shape ``(2,)``."""


def is_left_canonical_site(t: np.ndarray, tol: float = 1e-12) -> bool:
    """``sum_{a,phys} T*[a,r] T[a,r'] = delta``: left bond and physical legs are isometric."""
    mat = np.moveaxis(t, 1, -1).reshape(-1, t.shape[1])
    return bool(np.abs(mat.conj().T @ mat - np.eye(t.shape[1])).max() <= tol)


def is_right_canonical_site(t: np.ndarray, tol: float = 1e-12) -> bool:
    """``sum_{b,phys} T[l,b] T*[l',b] = delta``: right bond and physical legs are isometric."""
    mat = t.reshape(t.shape[0], -1)
    return bool(np.abs(mat @ mat.conj().T - np.eye(t.shape[0])).max() <= tol)


def _svd_split(mat: np.ndarray, max_bond: int | None, discard_log: list | None):
    """Truncated SVD ``mat ~ u @ carry`` with ``u`` isometric.

    Keeps the nonzero singular values, at most ``max_bond`` and at least
    one; the dropped squared weight is appended to ``discard_log`` when a
    list is given.
    """
    u, s, vh = scipy.linalg.svd(mat, full_matrices=False)
    keep = int(np.count_nonzero(s))
    if max_bond is not None:
        keep = min(keep, max_bond)
    keep = max(keep, 1)
    if discard_log is not None:
        discard_log.append(float(np.sum(s[keep:] ** 2)))
    return u[:, :keep], s[:keep, None] * vh[:keep]


def _split_left(ts: list[np.ndarray], j: int, split) -> None:
    """Make site j left-isometric with ``split`` and push the remainder into site j+1."""
    t = ts[j]
    q, carry = split(np.moveaxis(t, 1, -1).reshape(-1, t.shape[1]))
    ts[j] = np.moveaxis(q.reshape(t.shape[0], *t.shape[2:], q.shape[1]), -1, 1)
    ts[j + 1] = np.einsum("kr,rb...->kb...", carry, ts[j + 1])


def canonicalize(chain: TensorChain, center: int) -> TensorChain:
    """Bring a chain to mixed-canonical form about ``center``.

    Sites left of the center satisfy the left isometry condition, sites
    right of it the mirrored right condition; the center holds the norm
    and the contracted chain is unchanged. Returns the input's type.
    """
    n = chain.n_sites
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range for {n} sites")
    ts = [t.copy() for t in chain.tensors]
    for j in range(n - 1, center, -1):
        qh, rh = scipy.linalg.qr(ts[j].reshape(ts[j].shape[0], -1).conj().T, mode="economic")
        ts[j] = qh.conj().T.reshape(qh.shape[1], *ts[j].shape[1:])
        ts[j - 1] = np.einsum("al...,lk->ak...", ts[j - 1], rh.conj().T)
    for j in range(center):
        _split_left(ts, j, lambda mat: scipy.linalg.qr(mat, mode="economic"))
    gauge = ["left"] * center + ["center"] + ["right"] * (n - 1 - center)
    return type(chain)(ts, gauge)


def compress(chain: TensorChain, max_bond: int | None = None) -> tuple[TensorChain, list[float]]:
    """Sweep of SVD truncations in mixed-canonical gauge.

    Zero singular values are discarded, and bonds are capped at
    ``max_bond``. Returns the compressed chain (the input's type) and the
    discarded weight (sum of dropped squared singular values) per bond;
    the Frobenius error of the contraction obeys ``err <= sqrt(sum of
    discarded weights)`` up to roundoff, with equality when a single bond
    is truncated.
    """
    ts = canonicalize(chain, 0).tensors
    discarded: list[float] = []
    for j in range(len(ts) - 1):
        _split_left(ts, j, lambda mat: _svd_split(mat, max_bond, discarded))
    return type(chain)(ts, ["left"] * (len(ts) - 1) + ["center"]), discarded


def dense_to_mps(
    state: np.ndarray,
    max_bond: int | None = None,
    normalize: bool = True,
    discard_log: list[float] | None = None,
) -> Mps:
    """Factor a dense state vector by successive SVDs.

    All but the last tensor come out left-isometric. Truncation keeps
    the nonzero singular values, capped at ``max_bond``; dropped squared
    weights are appended to ``discard_log`` when a list is given. With
    ``normalize`` the result has unit norm regardless of input scale or
    truncation.
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
        u, carry = _svd_split(mat, max_bond, discard_log)
        keep = u.shape[1]
        tensors.append(u.reshape(chi, 2, keep).transpose(0, 2, 1))
        mat = carry.reshape(keep * 2, -1)
        chi = keep
    last = mat.reshape(chi, 2, 1).transpose(0, 2, 1)
    if normalize:
        last = last / np.linalg.norm(last)
    tensors.append(last)
    return Mps(tensors, ["left"] * (n - 1) + ["center"])


def mps_to_dense(m: Mps) -> np.ndarray:
    if m.n_sites > STATE_DENSE_LIMIT:
        raise TooLarge(f"{m.n_sites} sites exceeds dense limit {STATE_DENSE_LIMIT}")
    if m.tensors[0].shape[0] != 1 or m.tensors[-1].shape[1] != 1:
        raise ValueError("boundary bond dimensions must be 1")
    acc = np.ones((1, 1), dtype=np.complex128)
    for t in m.tensors:
        acc = np.einsum("lB,lrp->rBp", acc, t).reshape(t.shape[1], -1)
    return acc[0]


def canonicalize_mps(m: Mps) -> Mps:
    """Sweep into the full right gauge, as the sampler needs it.

    The norm collects in site 0, which is tagged ``"center"``; for a
    unit-norm state that site then satisfies the same isometry condition
    as the rest, which is what the sampling chain rule requires. The left
    gauge is ``canonicalize(m, m.n_sites - 1)``.
    """
    return canonicalize(m, 0)


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


def _transfer(env: np.ndarray, t: np.ndarray, codes) -> np.ndarray:
    """``env[..., bra, ket]`` through site tensor ``t``: one tensordot with the ket,
    the Pauli ``codes`` (broadcast over the leading axes) as a row swap and
    phase on the physical leg, and one batched matmul with the bra."""
    ket = np.ascontiguousarray(t.transpose(0, 2, 1))
    half = np.tensordot(env, ket, axes=([-1], [0]))
    half = np.where(_FLIPS[codes][..., None, None, None], half[..., ::-1, :], half)
    half *= _ROW_PHASES[codes][..., None, :, None]
    return ket.reshape(-1, t.shape[1]).conj().T @ half.reshape(*half.shape[:-3], -1, t.shape[1])


def _environments(tensors: list[np.ndarray], codes: np.ndarray) -> np.ndarray:
    """``E[string, bra, ket]`` after ``tensors``, with ``codes[string, j]`` on tensor j."""
    chi = tensors[-1].shape[1] if tensors else 1
    out = np.empty((len(codes), chi, chi), dtype=np.complex128)
    for start in range(0, len(codes), CHUNK_STRINGS):
        chunk = codes[start : start + CHUNK_STRINGS]
        env = np.ones((len(chunk), 1, 1), dtype=np.complex128)
        for j, t in enumerate(tensors):
            env = _transfer(env, t, chunk[:, j])
        out[start : start + len(chunk)] = env
    return out


def string_expectations(m: Mps, packed: np.ndarray) -> np.ndarray:
    """``<psi|P|psi>`` for every row of a pack_strings array.

    Strings are split at the fixed cut ``c = n // 2``. Left environments
    ``L[a, b]`` (sites ``0..c-1``) are swept once per distinct left half,
    right ones ``R[a, b]`` once per distinct right half by the same step
    on the mirrored chain (sites ``n-1..c``, bonds swapped); each string's
    value ``sum_ab L[a, b] R[a, b]`` is contracted in CHUNK_STRINGS chunks.
    """
    n = m.n_sites
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim != 2 or packed.shape[1] != n_words(n):
        raise ValueError(
            f"packed strings have shape {packed.shape}, state needs (count, {n_words(n)})"
        )
    cut = n // 2
    right_bits = pack_strings([PauliString(n, 4 ** (n - cut) - 1)], n)
    (left, il), (right, ir) = unique_rows(packed & ~right_bits), unique_rows(packed & right_bits)
    left_env = _environments(m.tensors[:cut], site_codes(left, n, np.arange(cut)))
    mirrored = [t.transpose(1, 0, 2) for t in reversed(m.tensors[cut:])]
    right_env = _environments(mirrored, site_codes(right, n, np.arange(n - 1, cut - 1, -1)))
    out = np.empty(len(packed), dtype=np.complex128)
    for start in range(0, len(packed), CHUNK_STRINGS):
        rows = slice(start, start + CHUNK_STRINGS)
        out[rows] = np.einsum("sab,sab->s", left_env[il[rows]], right_env[ir[rows]])
    return out


@dataclass
class GroundStateResult:
    energy: float
    gap: float
    vector: np.ndarray
    mps: Mps


def ground_state_reference(op: PauliSum, max_bond: int | None = None) -> GroundStateResult:
    """Dense lowest eigenpair, returned as a right-canonical MPS.

    The global phase is fixed by making the largest-magnitude component
    real and positive, so repeated runs agree bit for bit. Warns when the
    spectral gap falls below DEGENERACY_TOL, in which case the chosen
    eigenvector is a basis-dependent representative.
    """
    dense = to_dense(op)
    # ||H - H^dag||_F <= 1e-10 max(||H||_F, 1) from the coefficients: the strings
    # are Hermitian and Frobenius-orthogonal, each of norm 2^(n/2)
    norm = 2.0 ** (op.n_sites / 2)
    if 2 * norm * np.linalg.norm(op.coeffs.imag) > 1e-10 * max(norm * np.linalg.norm(op.coeffs), 1.0):
        raise ValueError("operator is not Hermitian")
    vals, vecs = scipy.linalg.eigh(dense)
    energy = float(vals[0])
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else np.inf
    if gap < DEGENERACY_TOL:
        warnings.warn(
            f"spectral gap {gap:.3e} below {DEGENERACY_TOL:.3e}",
            DegenerateGroundState,
            stacklevel=2,
        )
    vec = vecs[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.abs(vec[pivot]) / vec[pivot])
    mps = canonicalize_mps(dense_to_mps(vec, max_bond=max_bond))
    return GroundStateResult(energy, gap, vec, mps)


def _check_finite(fmt: str, i: int, t: np.ndarray) -> None:
    """Refuse a non-finite tensor: neither side of the format accepts one."""
    if not np.isfinite(t).all():
        raise malformed(fmt, f"tensors[{i}]", "non-finite values")


def chain_to_json(fmt: str, m: TensorChain) -> str:
    """The mps-v1 and mpo-v1 JSON form of a tensor chain.

    Tensor payloads are base64 of little-endian complex128 values in
    row-major order; the header carries the shapes so the payload can be
    decoded without guessing. A non-finite tensor raises ValueError
    naming it, as chain_from_json would.
    """
    for i, t in enumerate(m.tensors):
        _check_finite(fmt, i, t)
    doc = {
        "format": fmt,
        "n_sites": m.n_sites,
        "bond_dims": m.bond_dims,
        "gauge": list(m.gauge),
        # base64 never needs a JSON escape, so the payloads are placed verbatim
        "tensors": JsonText('[\n    "' + '",\n    "'.join(
            base64.b64encode(np.ascontiguousarray(t, dtype="<c16").tobytes()).decode() for t in m.tensors
        ) + '"\n  ]'),
    }
    return json_text(doc)


def chain_from_json(text: str, fmt: str, phys: tuple[int, ...]) -> tuple[list, list]:
    """Tensors and gauge tags of a chain_to_json document.

    The header check shared by the mps-v1 and mpo-v1 readers: a positive
    integer ``n_sites``, ``n_sites + 1`` positive integer ``bond_dims``
    with both boundary bonds 1, one base64 string per site holding
    exactly its shape's finite values, and optional string gauge tags.
    Every malformed field raises ValueError naming it.
    """
    doc = json_document(text, fmt)
    n = json_field(fmt, doc, "n_sites", int)
    bonds = json_field(fmt, doc, "bond_dims", list)
    payloads = json_field(fmt, doc, "tensors", list)
    gauge = doc.get("gauge", [])
    if n < 1:
        raise malformed(fmt, "n_sites", f"expected at least 1, got {n}")
    if len(bonds) != n + 1 or not all(type(b) is int and b >= 1 for b in bonds):
        raise malformed(fmt, "bond_dims", f"expected {n + 1} positive integers, got {bonds!r}")
    if bonds[0] != 1 or bonds[-1] != 1:
        raise malformed(fmt, "bond_dims", f"boundary bonds must be 1, got {bonds!r}")
    if len(payloads) != n:
        raise malformed(fmt, "tensors", f"expected {n} payloads, got {len(payloads)}")
    if not (isinstance(gauge, list) and len(gauge) in (0, n)
            and all(isinstance(g, str) for g in gauge)):
        raise malformed(fmt, "gauge", f"expected {n} strings, got {gauge!r}")
    tensors = []
    for i, payload in enumerate(payloads):
        shape = (bonds[i], bonds[i + 1], *phys)
        try:
            raw = base64.b64decode(payload, validate=True)
        except (TypeError, ValueError):
            raise malformed(fmt, f"tensors[{i}]", "expected a base64 string") from None
        if len(raw) != 16 * math.prod(shape):
            raise malformed(
                fmt, f"tensors[{i}]", f"{len(raw) / 16:g} values, shape {shape} needs {math.prod(shape)}"
            )
        t = np.frombuffer(raw, dtype="<c16").reshape(shape).astype(np.complex128)
        _check_finite(fmt, i, t)
        tensors.append(t)
    return tensors, gauge


def mps_to_json(m: Mps) -> str:
    """Serialize to the mps-v1 JSON format (see chain_to_json)."""
    return chain_to_json(FORMAT_NAME, m)


def mps_from_json(text: str) -> Mps:
    """Read an mps-v1 document; every malformed field raises ValueError naming it."""
    return Mps(*chain_from_json(text, FORMAT_NAME, (2,)))
