"""Second-quantized fermionic terms and their Jordan-Wigner qubit image.

Modes map to qubits one to one (mode p is qubit p, basis index bit p from
the left). A mode operator picks up a Z tail over all lower modes:
``a_p = Z...Z s-``, ``a_p^dag = Z...Z s+`` with ``s+- = (X -+ iY)/2``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import partial

from paulibridge.pauli import PauliString, PauliSum, json_field, json_finite, malformed, multiply

__all__ = [
    "FermionTerm",
    "IndexOutOfRange",
    "NonHermitianInput",
    "jordan_wigner_op",
    "load_fermion_terms",
    "map_hamiltonian",
]

HERMITIAN_TOL = 1e-12  # relative imaginary residue above which map_hamiltonian warns


class IndexOutOfRange(ValueError):
    """A mode index falls outside [0, n)."""


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
    tail = "Z" * p
    pad = "I" * (n - p - 1)
    x_string = PauliString.from_label(tail + "X" + pad)
    y_string = PauliString.from_label(tail + "Y" + pad)
    y_coeff = -0.5j if kind == "create" else 0.5j
    return PauliSum(n, [(0.5, x_string), (y_coeff, y_string)])


def _mode_product(factors: list[tuple[str, int]], n: int) -> PauliSum:
    acc: PauliSum | None = None
    for kind, p in factors:
        op = jordan_wigner_op(kind, p, n)
        acc = op if acc is None else multiply(acc, op)
    assert acc is not None
    return acc


def map_hamiltonian(terms: list[FermionTerm], n: int) -> PauliSum:
    """Map a fermionic Hamiltonian to one merged Pauli sum.

    Two-body coefficients enter with the conventional 1/2 prefactor.
    Emits a NonHermitianInput warning when the merged coefficients keep an
    imaginary part above HERMITIAN_TOL relative to the largest one.
    """
    entries = []
    for term in terms:
        for idx in term.indices:
            if not 0 <= idx < n:
                raise IndexOutOfRange(f"mode {idx} out of range for {n} modes")
        if term.kind == "one_body":
            p, q = term.indices
            product = _mode_product([("create", p), ("annihilate", q)], n)
            scale = complex(term.coeff)
        else:
            p, q, r, s = term.indices
            product = _mode_product(
                [("create", p), ("create", q), ("annihilate", r), ("annihilate", s)], n
            )
            scale = 0.5 * complex(term.coeff)
        entries.extend((scale * t.coeff, t.string) for t in product.terms)
    out = PauliSum(n, entries)
    if out.n_terms:
        top = max(abs(t.coeff) for t in out.terms)
        residue = max(abs(t.coeff.imag) for t in out.terms)
        if residue > HERMITIAN_TOL * max(top, 1.0):
            warnings.warn(
                f"mapped coefficients keep imaginary parts up to {residue:.2e}; "
                "input term list is not Hermitian-closed",
                NonHermitianInput,
                stacklevel=2,
            )
    return out


_malformed = partial(malformed, "fermion")
_field = partial(json_field, "fermion")
_finite = partial(json_finite, "fermion")


def load_fermion_terms(text: str) -> tuple[int, list[FermionTerm]]:
    """Read the JSON form {"n": ..., "terms": [{kind, indices, coeff}, ...]}.

    ``coeff`` is a finite number or a ``[re, im]`` pair of them. Every
    malformed field raises ValueError naming it, as in ``terms[3].coeff``.
    """
    doc = json.loads(text)
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
            coeff = complex(_finite(pair, "coeff[0]", where), _finite(pair, "coeff[1]", where))
        else:
            coeff = complex(_finite(entry, "coeff", where))
        try:
            terms.append(FermionTerm(kind, tuple(indices), coeff))
        except ValueError as exc:
            raise _malformed(f"terms[{k}]", str(exc)) from None
    return n, terms
