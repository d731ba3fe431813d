"""Symbolic decomposition of a Pauli sum at a cut.

Splitting every string of a weighted Pauli sum at a fixed cut position
yields a pair of fragment dictionaries (the deduplicated left and right
half-strings) joined by a sparse coefficient matrix, the bridge: the
operator is the sum over active index pairs (a, b) of
``C[a, b] * left[a] (x) right[b]``.

The symbolic side (the dictionaries, stored as sorted label tuples) is
decoupled from the numeric side (the bridge, held as an index-pair column
and a coefficient column, sorted by pair). The layered
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
import itertools
import operator
import types
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from paulibridge.pauli import (
    PauliString,
    PauliSum,
    _row_labels,
    json_document,
    json_columns,
    json_field,
    json_finite,
    json_labels,
    json_rows,
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
        lengths = set(map(len, self.labels))
        if len(lengths) != 1:
            raise ValueError(f"mixed fragment lengths {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def width(self) -> int:
        return len(self.labels[0])


class Bridge:
    """Sparse coefficient matrix over fragment index pairs.

    ``Bridge(shape, pairs, coeffs)`` holds its columns read-only: ``pairs``,
    a ``(P, 2)`` int64 array sorted by (a, b) with none repeated, and
    ``coeffs``, their complex128 values. ``entries`` is a read-only mapping
    view of the same table, built on first use.
    Zero values are legitimate entries: they mark cancelled pairs that
    still belong to the active index set.
    """

    def __init__(self, shape: tuple[int, int], pairs: np.ndarray, coeffs: np.ndarray):
        self.shape, self.pairs, self.coeffs = tuple(shape), pairs, coeffs
        pairs.flags.writeable = coeffs.flags.writeable = False

    @cached_property
    def entries(self) -> types.MappingProxyType:
        return types.MappingProxyType(dict(zip(map(tuple, self.pairs.tolist()), self.coeffs.tolist())))

    @property
    def active_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.pairs[self.coeffs != 0].tolist()))

    def to_matrix(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=np.complex128)
        m[self.pairs[:, 0], self.pairs[:, 1]] = self.coeffs
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bridge):
            return NotImplemented
        return (self.shape == other.shape and np.array_equal(self.pairs, other.pairs)
                and np.array_equal(self.coeffs, other.coeffs))


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
    order = np.lexsort(op.rows.T[::-1])  # label order, so (a, b) order; PauliSum terms are distinct
    labels = _row_labels(op.rows[order], op.n_sites).tolist()
    sides = []
    for part in (slice(None, cut), slice(cut, None)):
        halves = list(map(operator.itemgetter(part), labels))
        fragments = sorted(set(halves))
        index = dict(zip(fragments, itertools.count()))
        sides.append((FragmentDictionary(tuple(fragments)), list(map(index.get, halves))))
    (left, a), (right, b) = sides
    bridge = Bridge((len(left), len(right)), np.array([a, b], dtype=np.int64).T, op.coeffs[order])
    return BridgeDecomposition(cut, left, right, bridge)


def reconstruct(d: BridgeDecomposition) -> PauliSum:
    """Expand the decomposition back into a flat Pauli sum.

    Terms come out in bridge index order; zero entries drop out of the
    sum (an all-cancelled bridge reconstructs to an empty sum).
    """
    labels = [d.left.labels[a] + d.right.labels[b] for a, b in d.bridge.pairs.tolist()]
    return PauliSum(d.n_sites, list(zip(d.bridge.coeffs.tolist(), map(PauliString.from_label, labels))))


def set_bridge(d: BridgeDecomposition, entries: dict[tuple[int, int], complex]) -> BridgeDecomposition:
    """Same symbolic skeleton, new coefficient mapping.

    The mapping replaces the old one wholesale; pairs outside the original
    active set may be introduced as long as the indices address existing
    fragments. Explicit zeros are kept as cancelled pairs. An index must
    be an int or a numpy integer; a float or a bool is refused.
    """
    pairs = np.array(list(entries), dtype=object).reshape(-1, 2)  # ints of any size, compared exactly
    integral = np.vectorize(lambda i: isinstance(i, (int, np.integer)) and not isinstance(i, bool), otypes=[bool])
    outside = ~(integral(pairs) & (0 <= pairs) & (pairs < d.bridge.shape)).all(axis=1)
    if outside.any():
        a, b = pairs[outside.argmax()].tolist()
        raise IndexOutOfRange(f"pair ({a}, {b}) outside {d.bridge.shape}")
    pairs = pairs.astype(np.int64)
    order = np.lexsort(pairs.T[::-1])
    coeffs = np.array(list(entries.values()), dtype=np.complex128)[order]
    return replace(d, bridge=Bridge(d.bridge.shape, pairs[order], coeffs))


def skeleton_hash(cut: int, left, right, pairs=()) -> str:
    """Digest of a symbolic skeleton: cut, fragment labels and index pairs.

    ``left`` and ``right`` are the fragment labels in dictionary order;
    ``pairs`` (sorted here) is the active pair set when the digest covers
    it, as an LCU program's select hash does. No coefficient enters.
    """
    pairs = tuple(itertools.chain.from_iterable(sorted(pairs)))
    text = "\n".join([f"cut={cut}", "L", *left, "R", *right, "P"]) + "\n%d,%d" * (len(pairs) // 2) % pairs
    return hashlib.sha256(text.encode()).hexdigest()


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
        "bridge": json_rows(
            {"a": "%d", "b": "%d", "re": "%r", "im": "%r"},
            [*d.bridge.pairs.T.tolist(), d.bridge.coeffs.real.tolist(), d.bridge.coeffs.imag.tolist()],
        ),
    }
    # sizes of the layered graphs generating the dictionaries: each left
    # edge ends at a distinct prefix, each right edge starts at a distinct suffix
    left = [len(set(map(operator.itemgetter(slice(i)), d.left.labels))) for i in range(d.cut + 1)]
    right = [len(set(map(operator.itemgetter(slice(i, None)), d.right.labels)))
             for i in range(d.right.width + 1)]
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
    rows = _field(doc, "bridge", list)
    columns = json_columns(rows, ("a", "b", "re", "im"), (len(left), len(right), float, float))
    if columns is None:
        _raise_row_error(rows, len(left), len(right))
    order = np.lexsort(columns[1::-1])
    pairs = np.array(columns[:2], dtype=np.int64).T[order]
    if (pairs[1:] == pairs[:-1]).all(axis=1).any():  # two rows share a pair
        _raise_row_error(rows, len(left), len(right))
    coeffs = np.array(columns[2], dtype=np.complex128)
    coeffs.imag = columns[3]
    return BridgeDecomposition(cut, left, right, Bridge((len(left), len(right)), pairs, coeffs[order]))


def _raise_row_error(rows: list, n_left: int, n_right: int):
    """Raise the error of the first bridge row that breaks the format."""
    seen = set()
    for k, e in enumerate(rows):
        where = f"bridge[{k}]"
        a, b = _field(e, "a", int, where + "."), _field(e, "b", int, where + ".")
        if not (0 <= a < n_left and 0 <= b < n_right):
            raise IndexOutOfRange(f"{FORMAT_NAME} field {where}: pair ({a}, {b}) outside ({n_left}, {n_right})")
        if (a, b) in seen:
            raise _malformed(where, f"pair ({a}, {b}) appears twice")
        seen.add((a, b))
        _finite(e, "re", where + "."), _finite(e, "im", where + ".")
    raise AssertionError("every bridge row is well formed")
