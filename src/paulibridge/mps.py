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
    PauliSum,
    JsonText,
    _pack_codes,
    json_document,
    json_field,
    json_text,
    malformed,
    require_hermitian,
    rows_fit,
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
    "is_right_canonical_site",
    "lowest_pairs",
    "mps_from_json",
    "mps_to_json",
    "string_expectation",
    "string_expectations",
]

FORMAT_NAME = "mps-v1"
DEGENERACY_TOL = 1e-8  # spectral gap below which ground_state_reference warns
# strings swept or contracted together; on a 2-core x86 host, 1024 ran 2x
# faster than 4096 at bond 16 (the chunk stays cache-sized), as fast at bond 4
CHUNK_STRINGS = 1024


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
    state: np.ndarray, max_bond: int | None = None, discard_log: list[float] | None = None
) -> Mps:
    """Factor a dense state vector by successive SVDs into a unit-norm MPS.

    All but the last tensor come out left-isometric, and the last holds
    the norm, rescaled to 1 whatever the input's scale or truncation.
    Truncation keeps the nonzero singular values, capped at ``max_bond``;
    dropped squared weights are appended to ``discard_log`` when a list
    is given.
    """
    vec = np.asarray(state, dtype=np.complex128).ravel()
    n = vec.size.bit_length() - 1
    if vec.size != 2**n or n < 1:
        raise ValueError(f"state length {vec.size} is not 2**n for n >= 1 sites")
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
    tensors.append(last / np.linalg.norm(last))
    return Mps(tensors, ["left"] * (n - 1) + ["center"])


def canonicalize_mps(m: Mps) -> Mps:
    """Sweep into the full right gauge, as the sampler needs it.

    The norm collects in site 0, which is tagged ``"center"``; for a
    unit-norm state that site then satisfies the same isometry condition
    as the rest, which is what the sampling chain rule requires. The left
    gauge is ``canonicalize(m, m.n_sites - 1)``.
    """
    return canonicalize(m, 0)


def string_expectation(m: Mps, row: np.ndarray) -> complex:
    """``<psi|P|psi>`` of one packed row by transfer-matrix contraction."""
    return complex(string_expectations(m, np.reshape(row, (1, -1)))[0])


def _transfer(env: np.ndarray, t: np.ndarray, codes) -> np.ndarray:
    """``env[..., bra, ket]`` through site tensor ``t``: a tensordot with the ket, then
    a batched matmul with the bra ``A^* sigma_c`` of each Pauli code c in ``codes``
    (broadcast over the leading axes), all four bras built by one einsum."""
    half = np.tensordot(env, t.transpose(0, 2, 1), axes=([-1], [0]))
    bras = np.einsum("lrs,cst->crlt", t.conj(), PAULI_MATRICES).reshape(4, t.shape[1], -1)
    return bras[codes] @ half.reshape(*half.shape[:-3], -1, t.shape[1])


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
    """``<psi|P|psi>`` for every row of a packed array; rows that do not fit the sites are refused.

    Strings are split at the fixed cut ``c = n // 2``. Left environments
    ``L[a, b]`` (sites ``0..c-1``) are swept once per distinct left half,
    right ones ``R[a, b]`` once per distinct right half by the same step
    on the mirrored chain (sites ``n-1..c``, bonds swapped); each string's
    value ``sum_ab L[a, b] R[a, b]`` is contracted in CHUNK_STRINGS chunks.
    """
    n = m.n_sites
    packed = np.asarray(packed, dtype=np.uint64)
    if not rows_fit(packed, n):
        raise ValueError(f"packed strings of shape {packed.shape} do not fit {n} sites")
    cut = n // 2
    right_bits = _pack_codes(np.repeat([[0, 3]], [cut, n - cut], axis=1))  # both bits of every right site
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
    mps: Mps
    discarded: float  # squared weight the max_bond truncation dropped


_last_pairs: dict = {}  # lowest_pairs' one entry


def lowest_pairs(op: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenpairs of dense Hermitian ``op`` (a sum has at least one site): the one
    dense reference solve. The last sum's read-only pairs are kept, keyed by its exact content (term
    order too, as ``to_dense`` sums in order), so a second caller on that sum does not solve again."""
    key = (op.n_sites, op.rows.tobytes(), op.coeffs.tobytes())
    if key not in _last_pairs:
        vals, vecs = scipy.linalg.eigh(to_dense(require_hermitian(op)), subset_by_index=[0, 1])
        vals.flags.writeable = vecs.flags.writeable = False
        _last_pairs.clear()
        _last_pairs[key] = vals, vecs
    return _last_pairs[key]


def ground_state_reference(op: PauliSum, max_bond: int | None = None) -> GroundStateResult:
    """Dense lowest eigenpair, returned as a right-canonical MPS.

    ``lowest_pairs`` gives the two lowest eigenpairs; the second gives the
    gap. With ``max_bond`` the MPS is
    truncated and renormalized; ``discarded`` is the total squared weight
    its SVDs dropped. The global phase is fixed by making the
    largest-magnitude component real and positive, so repeated runs agree
    bit for bit. Warns when the spectral gap falls below DEGENERACY_TOL,
    in which case the chosen eigenvector is a basis-dependent
    representative.
    """
    vals, vecs = lowest_pairs(op)
    energy = float(vals[0])
    gap = float(vals[1] - vals[0])
    if gap < DEGENERACY_TOL:
        warnings.warn(
            f"spectral gap {gap:.3e} below {DEGENERACY_TOL:.3e}",
            DegenerateGroundState,
            stacklevel=2,
        )
    vec = vecs[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.abs(vec[pivot]) / vec[pivot])
    discarded: list[float] = []
    mps = canonicalize_mps(dense_to_mps(vec, max_bond=max_bond, discard_log=discarded))
    return GroundStateResult(energy, gap, mps, sum(discarded))


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
