"""Second-quantized fermionic terms and their Jordan-Wigner qubit image.

Modes map to qubits one to one (mode p is qubit p, basis index bit p from
the left). A mode operator picks up a Z tail over all lower modes:
``a_p = Z...Z s-``, ``a_p^dag = Z...Z s+`` with ``s+- = (X -+ iY)/2``.

map_hamiltonian multiplies each kind's terms as one batch of packed strings
in ``multiply``'s order, and its bytes equal the term-by-term chain's: raw
coefficients are +-2^-k or +-2^-k i, so each term's sums are exact; a
nonzero partial product cancels no string, so the chain's intermediate
merges drop nothing; and the sum across terms runs in input order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from paulibridge.pauli import (
    IndexOutOfRange,
    PauliSum,
    _I_POWERS,
    json_field,
    json_load,
    label_rows,
    malformed,
    packed_product,
    require_hermitian,
)
# Not called here; kept as a module attribute because the benchmark tracer
# (bench/tracer.py) wraps the function it times by this name.
from paulibridge.pauli import multiply  # noqa: F401

__all__ = [
    "FermionTerm",
    "IndexOutOfRange",
    "NonHermitianInput",
    "jordan_wigner_op",
    "load_fermion_terms",
    "map_hamiltonian",
]

class NonHermitianInput(UserWarning):
    """The fermionic term list is not Hermitian-closed."""


@dataclass(frozen=True)
class FermionTerm:
    """One ``h_pq a_p^dag a_q`` or ``g_pqrs a_p^dag a_q^dag a_r a_s`` entry."""

    kind: str
    indices: tuple[int, ...]
    coeff: complex

    def __post_init__(self) -> None:
        expected = {"one_body": 2, "two_body": 4}.get(self.kind)
        if expected is None:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if len(self.indices) != expected:
            raise ValueError(f"{self.kind} needs {expected} indices, got {len(self.indices)}")


def jordan_wigner_op(kind: str, p: int, n: int) -> PauliSum:
    """Qubit image of a single mode operator, a two-term Pauli sum.

    ``kind`` is "create" or "annihilate".
    """
    if not 0 <= p < n:
        raise IndexOutOfRange(f"mode {p} out of range for {n} modes")
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    tail, pad = "Z" * p, "I" * (n - p - 1)
    y_coeff = -0.5j if kind == "create" else 0.5j
    return PauliSum.from_rows(n, label_rows([tail + "X" + pad, tail + "Y" + pad], n), [0.5, y_coeff])


# i-exponents of the ladder operators' Y coefficients: -0.5j = 0.5 i^3, 0.5j = 0.5 i^1
_Y_EXPONENT = {"create": 3, "annihilate": 1}
_LADDERS = {
    "one_body": ("create", "annihilate"),
    "two_body": ("create", "create", "annihilate", "annihilate"),
}


def _term_products(modes: np.ndarray, ladders: tuple[str, ...], table: np.ndarray):
    """Jordan-Wigner products of a batch of terms with one ladder sequence.

    ``modes`` is (terms, k) and ``table`` holds each mode's packed X- and
    Y-strings. Returns the (terms, 2**k, words) raw product strings, in
    the order ``multiply`` forms them, and their merged coefficients: a
    string's first occurrence in its term holds the sum, every other row 0.
    """
    codes = table[modes[:, 0]]
    exponent = np.array([[0, _Y_EXPONENT[ladders[0]]]])
    for j, ladder in enumerate(ladders[1:], start=1):
        step, codes = packed_product(codes[:, :, None], table[modes[:, j]][:, None])
        exponent = exponent[:, :, None] + step + np.array([0, _Y_EXPONENT[ladder]])
        codes = codes.reshape(len(modes), 2 ** (j + 1), codes.shape[-1])
        exponent = exponent.reshape(len(modes), 2 ** (j + 1)) % 4
    first = (codes[:, :, None] == codes[:, None]).all(axis=-1).argmax(axis=1)
    merged = np.zeros(exponent.shape, dtype=np.complex128)
    np.add.at(merged, (np.arange(len(modes))[:, None], first), _I_POWERS[exponent])
    return codes, merged * 0.5 ** len(ladders)


def map_hamiltonian(terms: list[FermionTerm], n: int) -> PauliSum:
    """Map a fermionic Hamiltonian to one merged Pauli sum.

    Two-body coefficients enter with the conventional 1/2 prefactor.
    Emits a NonHermitianInput warning when ``pauli.require_hermitian`` would
    refuse the merged sum.
    """
    for idx in (i for term in terms for i in term.indices if not 0 <= i < n):
        raise IndexOutOfRange(f"mode {idx} out of range for {n} modes")
    table = np.stack([jordan_wigner_op("create", p, n).rows for p in range(n)])
    # each term's nonzero products, keyed by term position then product position (< 16)
    keys, rows, values = [], [], []
    for kind, ladders in _LADDERS.items():
        where = np.array([k for k, term in enumerate(terms) if term.kind == kind], dtype=np.intp)
        batch = [terms[k] for k in where]
        modes = np.array([t.indices for t in batch], dtype=np.intp).reshape(-1, len(ladders))
        codes, merged = _term_products(modes, ladders, table)
        scale = np.array(
            [complex(t.coeff) if kind == "one_body" else 0.5 * complex(t.coeff) for t in batch],
            dtype=np.complex128,
        )
        keep = merged != 0
        keys.append((16 * where[:, None] + np.arange(merged.shape[1]))[keep])
        rows.append(codes[keep])
        values.append((scale[:, None] * merged)[keep])
    order = np.argsort(np.concatenate(keys))
    out = PauliSum.from_rows(n, np.concatenate(rows)[order], np.concatenate(values)[order])
    try:
        require_hermitian(out)
    except ValueError:
        warnings.warn(
            f"mapped coefficients keep imaginary parts up to {np.abs(out.coeffs.imag).max():.2e}; "
            "input term list is not Hermitian-closed",
            NonHermitianInput,
            stacklevel=2,
        )
    return out


_malformed = partial(malformed, "fermion")
_field = partial(json_field, "fermion")


def load_fermion_terms(text: str) -> tuple[int, list[FermionTerm]]:
    """Read the JSON form {"n": ..., "terms": [{kind, indices, coeff}, ...]}.

    ``coeff`` is a finite number or a ``[re, im]`` pair of them. Every
    malformed field raises ValueError naming it, as in ``terms[3].coeff``.
    """
    doc = json_load(text, "fermion")
    n = _field(doc, "n", int)
    if n < 1:
        raise _malformed("n", f"expected at least one mode, got {n}")
    terms = []
    for k, entry in enumerate(_field(doc, "terms", list)):
        where = f"terms[{k}]."
        if not isinstance(entry, dict):
            raise _malformed(f"terms[{k}]", f"expected an object, got {entry!r}")
        kind = _field(entry, "kind", str, where)
        indices = _field(entry, "indices", list, where)
        if not all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n for i in indices):
            raise _malformed(where + "indices", f"expected mode indices in 0..{n - 1}, got {indices!r}")
        raw = entry.get("coeff")
        if isinstance(raw, list) and len(raw) == 2:
            pair = {"coeff[0]": raw[0], "coeff[1]": raw[1]}
            coeff = complex(_field(pair, "coeff[0]", float, where), _field(pair, "coeff[1]", float, where))
        else:
            coeff = complex(_field(entry, "coeff", float, where))
        try:
            terms.append(FermionTerm(kind, tuple(indices), coeff))
        except ValueError as exc:
            raise _malformed(f"terms[{k}]", str(exc)) from None
    return n, terms
