"""Coefficient-decoupled compilation of Pauli-sum operators.

The package factors a weighted Pauli sum at a cut into left/right fragment
dictionaries joined by a sparse coefficient bridge, builds MPOs from cut
matrices by rank-revealing QR, samples Pauli strings perfectly from a
reference MPS, optimizes coefficients over sampled pools, and emits
prepare/select programs for linear-combination-of-unitaries circuits.
"""

from paulibridge.pauli import (
    PauliSum,
    parse_pauli_sum,
    pauli_product,
    serialize_pauli_sum,
    to_dense,
)

__version__ = "0.1.0"

__all__ = [
    "PauliSum",
    "__version__",
    "parse_pauli_sum",
    "pauli_product",
    "serialize_pauli_sum",
    "to_dense",
]
