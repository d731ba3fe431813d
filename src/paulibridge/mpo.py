"""Matrix product operators from Pauli sums via pivoted-QR cut matrices.

The left-to-right sweep keeps a carried coefficient matrix over right
suffixes, numbered right to left before it starts: a presence table over a
site's ``4 * n_rest`` (symbol, suffix) keys lists the distinct ones in
sorted order, and its running count numbers them, so no sort is needed. At
each site the carried matrix is regrouped into the cut matrix (rows: the
occupied (incoming bond, site symbol) pairs, one flat index ``4 * bond +
symbol``; columns: remaining suffixes), factored by column-pivoted QR, and
the kept columns of Q, the only ones formed, become the site tensor through
that same index while ``R P^T`` is carried on.
The sweep runs in float64 when every coefficient is real, as a Hermitian
sum's are, and in complex128 otherwise; the site tensors are complex128.
Bond dimensions are numerical ranks: for the ``m x k`` cut matrix at site
``s`` a pivot counts when ``|R_jj| > max(rank_tol, eps * max(m, k) * (s + 1))
* |R_00|``, numpy's ``matrix_rank`` threshold at site 0 and ``rank_tol = 0``;
``s + 1`` covers the roundoff of the s QRs before. Column pivoting (Businger
& Golub, 1965) keeps every column of the dropped trailing block of R no
longer than the first dropped pivot, so that block's Frobenius norm is at
most ``sqrt(k)`` times the threshold: at ``rank_tol = 0`` the contraction
reproduces the operator up to roundoff, and roundoff pivots do not become
bonds.

MPO tensors are indexed ``W[left_bond, right_bond, s_out, s_in]``. The
gauge sweep, compression, isometry checks and JSON codec are the shared
tensor-chain ones of ``paulibridge.mps``; ``mpo_error`` checks an MPO
against a Pauli sum on their Pauli coefficients, in float64 when all of
them are real.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from paulibridge.bridge import EmptyOperator
from paulibridge.mps import TensorChain, chain_from_json, chain_to_json
from paulibridge.pauli import (
    PAULI_MATRICES,
    PauliSum,
    require_dense,
    site_codes,
)

__all__ = [
    "Mpo",
    "build_mpo_qr",
    "mpo_from_json",
    "mpo_error",
    "mpo_to_dense",
    "mpo_to_json",
]

FORMAT_NAME = "mpo-v1"


class Mpo(TensorChain):
    """Matrix product operator: physical shape ``(2, 2)``, ``W[left, right, s_out, s_in]``."""


def build_mpo_qr(op: PauliSum, rank_tol: float = 0.0) -> Mpo:
    """Compile a Pauli sum into an MPO by the pivoted-QR sweep.

    A pivot counts as rank when ``|R_jj| > max(rank_tol, eps * max(m, k) *
    (site + 1)) * |R_00|`` for the ``m x k`` cut matrix at ``site``. Each
    dropped trailing block of R then has Frobenius norm at most ``sqrt(k)``
    times that threshold, so with ``rank_tol = 0`` the result contracts back
    to the operator up to roundoff; larger tolerances trade bond dimension
    for a controlled truncation of the cut matrices. ``rank_tol`` must be
    in [0, 1), and every coefficient finite.
    """
    if op.n_terms == 0:
        raise EmptyOperator("cannot build an MPO from a sum with no terms")
    if not 0 <= rank_tol < 1:  # also refuses NaN; at 1 and above no pivot passes, not even R_00
        raise ValueError(f"rank_tol must be in [0, 1), got {rank_tol}")
    if not np.isfinite(op.coeffs).all():
        raise ValueError("coefficients must not contain infs or NaNs")
    n = op.n_sites
    # the carried columns at site k have keys code_k * n_rest + (id of the suffix past k):
    # one per term at site 0, one per distinct key after it, in label order (I < X < Y < Z)
    codes = site_codes(op.rows, n, np.arange(n))
    ids, n_rest, cols = np.zeros(op.n_terms, dtype=np.int64), 1, [None] * n
    for k in range(n - 1, 0, -1):
        key = codes[:, k] * n_rest + ids
        present = np.zeros(4 * n_rest, dtype=bool)
        present[key] = True
        cols[k] = (*np.divmod(np.flatnonzero(present), n_rest), n_rest)  # (symbol, rest, n_rest)
        count = np.cumsum(present)
        ids, n_rest = (count - 1)[key], int(count[-1])
    cols[0] = (codes[:, 0], ids, n_rest)
    # a Hermitian sum's coefficients are real: the sweep then runs in float64
    carried = (op.coeffs if op.coeffs.imag.any() else op.coeffs.real)[None]
    geqp3, orgqr = scipy.linalg.get_lapack_funcs(("geqp3", "orgqr"), (carried,))  # d or z routines
    tensors: list[np.ndarray] = []
    for site, (sym, rest, n_rest) in enumerate(cols):
        chi = carried.shape[0]
        # one scatter, as the columns are distinct (+= stores -0.0 as 0.0); take() returns
        # C order: gamma, the occupied rows 4 * bond + symbol, is F-ordered, factored in place
        raw = np.zeros((n_rest, 4 * chi), dtype=carried.dtype)
        raw.reshape(n_rest, chi, 4)[rest, :, sym] += carried.T
        occ = np.flatnonzero(raw.any(axis=0))
        gamma = raw.take(occ, axis=1).T
        if site == n - 1:
            q, rank = gamma, 1  # one column: the last site's tensor takes it whole
        else:
            # each call sizes its workspace by its own query, as SciPy's qr wrapper does: the same bits
            lwork = int(geqp3(gamma, lwork=-1, overwrite_a=True)[3][0].real)
            qr, piv, tau = geqp3(gamma, lwork=lwork, overwrite_a=True)[:3]
            diag = np.abs(qr.diagonal())
            floor = max(rank_tol, np.finfo(np.float64).eps * max(gamma.shape) * (site + 1))
            rank = int(np.count_nonzero(diag > floor * diag[0]))
            finite = np.isfinite(qr).all()  # every entry of R, read before orgqr writes Q over it
            # R's kept rows, zeroed below the diagonal as triu does; geqp3's pivots count from 1
            carried = np.zeros((rank, n_rest), dtype=raw.dtype)
            carried[:, piv - 1] = np.where(np.tri(rank, n_rest, -1, dtype=bool), 0, qr[:rank])
            kept, tau = qr[:, : max(rank, 1)], tau[: max(rank, 1)]  # rank 0 is refused below
            lwork = int(orgqr(kept, tau, lwork=-1, overwrite_a=True)[1][0].real)
            q = orgqr(kept, tau, lwork=lwork, overwrite_a=True)[0]
            if not (finite and np.isfinite(q).all()):
                raise ValueError(f"cut matrix at site {site} overflows in the QR")
            if rank == 0:
                raise EmptyOperator(f"cut matrix at site {site} vanished")
        # W[l, r] = sum_c coef[4 l + c, r] sigma_c, one product with the Paulis; + 0.0 stores -0.0 as 0.0
        coef = np.zeros((4 * chi, rank), dtype=q.dtype)
        coef[occ] = q[:, :rank]
        w = coef.reshape(chi, 4, rank).transpose(0, 2, 1).reshape(-1, 4) @ PAULI_MATRICES.reshape(4, 4)
        tensors.append(w.reshape(chi, rank, 2, 2) + 0.0)
    return Mpo(tensors)


def mpo_to_dense(m: Mpo) -> np.ndarray:
    """Contract to the dense matrix (site 0 most significant)."""
    require_dense(m.n_sites)
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


def mpo_error(m: Mpo, op: PauliSum) -> float:
    """``||M - H||_F / ||H||_F`` from Pauli coefficients, as ``||X||_F^2 = 2^n sum_P |x_P|^2``.

    One GEMM joins the Pauli-projected halves of the middle cut, ``L`` (4^c x chi)
    and ``R`` (chi x 4^(n-c)), into all 4^n coefficients, hence DENSE_LIMIT.
    """
    n = m.n_sites
    require_dense(n)
    if op.n_sites != n:
        raise ValueError(f"MPO has {n} sites, operator has {op.n_sites}")
    if m.tensors[0].shape[0] != 1 or m.tensors[-1].shape[1] != 1:
        raise ValueError("boundary bond dimensions must be 1")
    # hats[k][l, p, r] = sum_st W[l, r, s, t] conj(sigma_p[s, t]) / 2
    proj = PAULI_MATRICES.reshape(4, 4).conj().T / 2
    hats = [(w.reshape(-1, 4) @ proj).reshape(*w.shape[:2], 4).transpose(0, 2, 1) for w in m.tensors]
    coeffs = op.coeffs
    if not (coeffs.imag.any() or any(h.imag.any() for h in hats)):  # real halves join in half the memory
        hats, coeffs = [h.real for h in hats], coeffs.real
    left, right = np.ones((1, 1)), np.ones((1, 1))  # (prefix, bond) and (bond, suffix)
    for h in hats[: n // 2]:
        left = (left @ h.reshape(h.shape[0], -1)).reshape(-1, h.shape[2])
    for h in reversed(hats[n // 2 :]):
        right = (h.reshape(-1, h.shape[2]) @ right).reshape(h.shape[0], -1)
    c = (left @ right).reshape(-1)  # base-4 index, site 0 most significant
    c[site_codes(op.rows, n, np.arange(n)) @ 4 ** np.arange(n - 1, -1, -1)] -= coeffs
    return float(np.linalg.norm(c) / np.linalg.norm(coeffs))


def mpo_to_json(m: Mpo) -> str:
    """Serialize to the mpo-v1 JSON format (see mps.chain_to_json)."""
    return chain_to_json(FORMAT_NAME, m)


def mpo_from_json(text: str) -> Mpo:
    """Read an mpo-v1 document; every malformed field raises ValueError naming it."""
    return Mpo(*chain_from_json(text, FORMAT_NAME, (2, 2)))
