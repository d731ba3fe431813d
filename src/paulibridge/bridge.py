"""Symbolic decomposition of a Pauli sum at a cut.

Splitting every string of a weighted Pauli sum at a fixed cut position
yields a pair of fragment dictionaries (the deduplicated left and right
half-strings) joined by a sparse coefficient matrix, the bridge: the
operator is the sum over active index pairs (a, b) of
``C[a, b] * left[a] (x) right[b]``.

The symbolic side (the dictionaries, stored as sorted label tuples) is
decoupled from the numeric side (the bridge entries). The layered
prefix/suffix graphs that generate the dictionaries are never built; the
``bridge-v1`` document reports their layer sizes and edge counts, counted
from the labels. Coefficients can be swapped without touching the
symbolic skeleton, which is what ``set_bridge`` does and what the
structural hash certifies.

Layout conventions fixed here and relied on downstream:

* fragment dictionaries are sorted lexicographically with I < X < Y < Z;
* the left graph is a prefix trie from the empty word down to the left
  fragments; the right graph starts from the full right fragments and
  strips one leading symbol per layer until the empty word;
* bridge entries that are set to zero stay listed (a cancelled pair is
  distinct from a pair that never occurred).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from paulibridge.pauli import (
    PauliString,
    PauliSum,
    PauliTerm,
    json_document,
    json_field,
    json_finite,
    json_labels,
    json_text,
    malformed,
)

__all__ = [
    "Bridge",
    "BridgeDecomposition",
    "CutOutOfRange",
    "EmptyOperator",
    "FragmentDictionary",
    "IndexOutOfRange",
    "compile",
    "decomposition_from_json",
    "decomposition_to_json",
    "reconstruct",
    "set_bridge",
    "skeleton_hash",
    "structural_hash",
]

FORMAT_NAME = "bridge-v1"
_malformed = partial(malformed, FORMAT_NAME)
_field = partial(json_field, FORMAT_NAME)
_finite = partial(json_finite, FORMAT_NAME)


class CutOutOfRange(ValueError):
    """Cut position outside 1..n_sites-1."""


class EmptyOperator(ValueError):
    """Compilation of a sum with no terms."""


class IndexOutOfRange(ValueError):
    """Bridge entry index outside the fragment dictionaries."""


@dataclass(frozen=True)
class FragmentDictionary:
    """Ordered, duplicate-free half-string labels for one side of the cut.

    ``labels`` are sorted lexicographically with I < X < Y < Z (ASCII
    order agrees), all of one length.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("a fragment dictionary cannot be empty")
        lengths = {len(s) for s in self.labels}
        if len(lengths) != 1:
            raise ValueError(f"mixed fragment lengths {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def width(self) -> int:
        return len(self.labels[0])


@dataclass
class Bridge:
    """Sparse coefficient matrix over fragment index pairs.

    ``entries`` maps (left index, right index) to a complex coefficient.
    Zero values are legitimate entries: they mark cancelled pairs that
    still belong to the active index set.
    """

    shape: tuple[int, int]
    entries: dict[tuple[int, int], complex] = field(default_factory=dict)

    @property
    def active_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(p for p, c in self.entries.items() if c != 0))

    @property
    def cancelled_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(p for p, c in self.entries.items() if c == 0))

    def to_matrix(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=np.complex128)
        for (a, b), c in self.entries.items():
            m[a, b] = c
        return m


@dataclass
class BridgeDecomposition:
    """A Pauli sum factored at one cut: dictionaries and bridge."""

    cut: int
    left: FragmentDictionary
    right: FragmentDictionary
    bridge: Bridge

    @property
    def n_sites(self) -> int:
        return self.left.width + self.right.width


def compile(op: PauliSum, cut: int) -> BridgeDecomposition:
    """Factor ``op`` at ``cut`` into dictionaries and a bridge.

    The dictionaries are the deduplicated half-string labels sorted
    lexicographically; the bridge holds each term's coefficient at its
    (left fragment, right fragment) index pair. Reconstruction is
    exact: ``reconstruct(compile(op, cut)) == op`` up to term order.
    """
    if op.n_terms == 0:
        raise EmptyOperator("cannot compile a sum with no terms")
    if not 1 <= cut <= op.n_sites - 1:
        raise CutOutOfRange(f"cut {cut} not in 1..{op.n_sites - 1}")
    labels = [t.string.label for t in op.terms]
    left = FragmentDictionary(tuple(sorted({s[:cut] for s in labels})))
    right = FragmentDictionary(tuple(sorted({s[cut:] for s in labels})))
    left_index = {s: i for i, s in enumerate(left.labels)}
    right_index = {s: i for i, s in enumerate(right.labels)}
    # PauliSum terms are distinct, so each index pair occurs once
    entries = {(left_index[s[:cut]], right_index[s[cut:]]): t.coeff for s, t in zip(labels, op.terms)}
    return BridgeDecomposition(cut, left, right, Bridge((len(left), len(right)), entries))


def reconstruct(d: BridgeDecomposition) -> PauliSum:
    """Expand the decomposition back into a flat Pauli sum.

    Terms come out in bridge index order; zero entries drop out of the
    sum (an all-cancelled bridge reconstructs to an empty sum).
    """
    terms = [
        PauliTerm(coeff, PauliString.from_label(d.left.labels[a] + d.right.labels[b]))
        for (a, b), coeff in sorted(d.bridge.entries.items())
    ]
    return PauliSum(d.n_sites, terms)


def set_bridge(d: BridgeDecomposition, entries: dict[tuple[int, int], complex]) -> BridgeDecomposition:
    """Same symbolic skeleton, new coefficient mapping.

    The mapping replaces the old one wholesale; pairs outside the original
    active set may be introduced as long as the indices address existing
    fragments. Explicit zeros are kept as cancelled pairs.
    """
    n_l, n_r = d.bridge.shape
    checked: dict[tuple[int, int], complex] = {}
    for (a, b), coeff in entries.items():
        if not (0 <= a < n_l and 0 <= b < n_r):
            raise IndexOutOfRange(f"pair ({a}, {b}) outside {d.bridge.shape}")
        checked[(a, b)] = complex(coeff)
    return replace(d, bridge=Bridge((n_l, n_r), checked))


def skeleton_hash(cut: int, left, right, pairs=()) -> str:
    """Digest of a symbolic skeleton: cut, fragment labels and index pairs.

    ``left`` and ``right`` are the fragment labels in dictionary order;
    ``pairs`` (sorted here) is the active pair set when the digest covers
    it, as an LCU program's select hash does. No coefficient enters.
    """
    parts = [f"cut={cut}", "L"] + list(left) + ["R"] + list(right) + ["P"]
    parts += [f"{a},{b}" for a, b in sorted(pairs)]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def structural_hash(d: BridgeDecomposition) -> str:
    """Digest of the symbolic skeleton only: cut and fragment dictionaries.

    The layered graphs are a function of the dictionaries, so they add
    nothing; every coefficient is ignored, so swapping bridge values
    leaves the hash fixed.
    """
    return skeleton_hash(d.cut, d.left.labels, d.right.labels)


def decomposition_to_json(d: BridgeDecomposition) -> str:
    """Deterministic JSON form; exact float round trip."""
    doc = {
        "format": FORMAT_NAME,
        "n_sites": d.n_sites,
        "cut": d.cut,
        "left_fragments": list(d.left.labels),
        "right_fragments": list(d.right.labels),
        "bridge": [
            {"a": a, "b": b, "re": d.bridge.entries[(a, b)].real, "im": d.bridge.entries[(a, b)].imag}
            for a, b in sorted(d.bridge.entries)
        ],
    }
    # sizes of the layered graphs generating the dictionaries: each left
    # edge ends at a distinct prefix, each right edge starts at a distinct suffix
    left = [len({s[:i] for s in d.left.labels}) for i in range(d.cut + 1)]
    right = [len({s[i:] for s in d.right.labels}) for i in range(d.right.width + 1)]
    for side, sizes, edges in (("left", left, left[1:]), ("right", right, right[:-1])):
        doc[f"graph_{side}"] = {"layer_sizes": sizes, "edge_counts": edges}
    return json_text(doc)


def decomposition_from_json(text: str) -> BridgeDecomposition:
    """Rebuild a decomposition from its labels and bridge entries.

    Every malformed field raises ValueError naming it, e.g. ``bridge[3].re``.
    """
    doc = json_document(text, FORMAT_NAME)
    n_sites = _field(doc, "n_sites", int)
    cut = _field(doc, "cut", int)
    if not 1 <= cut < n_sites:
        raise _malformed("cut", f"{cut} not in 1..{n_sites - 1}")
    left = FragmentDictionary(json_labels(FORMAT_NAME, doc, "left_fragments", cut))
    right = FragmentDictionary(json_labels(FORMAT_NAME, doc, "right_fragments", n_sites - cut))
    entries: dict[tuple[int, int], complex] = {}
    for k, e in enumerate(_field(doc, "bridge", list)):
        where = f"bridge[{k}]"
        a, b = _field(e, "a", int, where + "."), _field(e, "b", int, where + ".")
        if not (0 <= a < len(left) and 0 <= b < len(right)):
            raise IndexOutOfRange(
                f"{FORMAT_NAME} field {where}: pair ({a}, {b}) outside ({len(left)}, {len(right)})"
            )
        if (a, b) in entries:
            raise _malformed(where, f"pair ({a}, {b}) appears twice")
        entries[(a, b)] = complex(_finite(e, "re", where + "."), _finite(e, "im", where + "."))
    return BridgeDecomposition(cut, left, right, Bridge((len(left), len(right)), entries))
