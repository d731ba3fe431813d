"""Symbolic decomposition of a Pauli sum at a cut.

Splitting every string of a weighted Pauli sum at a fixed cut position
yields a pair of fragment dictionaries (the deduplicated left and right
half-strings) joined by a sparse coefficient matrix, the bridge: the
operator is the sum over active index pairs (a, b) of
``C[a, b] * left[a] (x) right[b]``.

The symbolic side (the dictionaries, plain tuples of sorted labels) is
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
import math
import operator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from paulibridge.pauli import (
    IndexOutOfRange,
    PauliSum,
    _row_labels,
    json_document,
    json_field,
    json_rows,
    json_skeleton,
    json_text,
    label_rows,
    malformed,
)

__all__ = [
    "Bridge",
    "BridgeDecomposition",
    "CutOutOfRange",
    "EmptyOperator",
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


class CutOutOfRange(ValueError):
    """Cut position outside 1..n_sites-1."""


class EmptyOperator(ValueError):
    """Compilation of a sum with no terms."""


class Bridge:
    """Sparse coefficient matrix over fragment index pairs.

    ``Bridge(pairs, coeffs)`` holds its columns read-only: ``pairs``, a
    ``(P, 2)`` int64 array sorted by (a, b) with none repeated, indexing the
    decomposition's left and right dictionaries, and ``coeffs``, their
    complex128 values. Zero values are legitimate entries: they mark
    cancelled pairs that still belong to the active index set.
    """

    def __init__(self, pairs: np.ndarray, coeffs: np.ndarray):
        self.pairs, self.coeffs = pairs, coeffs
        pairs.flags.writeable = coeffs.flags.writeable = False

    @property
    def active_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.pairs[self.coeffs != 0].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bridge):
            return NotImplemented
        return np.array_equal(self.pairs, other.pairs) and np.array_equal(self.coeffs, other.coeffs)


@dataclass(frozen=True)
class BridgeDecomposition:
    """A Pauli sum factored at one cut: dictionaries and bridge.

    ``left`` and ``right``, the fragment dictionaries, are non-empty tuples of distinct
    ``cut``- and ``(n_sites - cut)``-site labels, sorted with I < X < Y < Z (ASCII order).
    """

    cut: int
    left: tuple[str, ...]
    right: tuple[str, ...]
    bridge: Bridge

    @property
    def n_sites(self) -> int:
        return self.cut + len(self.right[0])


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
        sides.append((tuple(fragments), list(map(index.get, halves))))
    (left, a), (right, b) = sides
    bridge = Bridge(np.array([a, b], dtype=np.int64).T, op.coeffs[order])
    return BridgeDecomposition(cut, left, right, bridge)


def reconstruct(d: BridgeDecomposition) -> PauliSum:
    """Expand the decomposition back into a flat Pauli sum.

    Terms come out in bridge index order; zero entries drop out of the
    sum (an all-cancelled bridge reconstructs to an empty sum).
    """
    labels = [d.left[a] + d.right[b] for a, b in d.bridge.pairs.tolist()]
    return PauliSum.from_rows(d.n_sites, label_rows(labels, d.n_sites), d.bridge.coeffs)


def set_bridge(d: BridgeDecomposition, coeffs) -> BridgeDecomposition:
    """Same symbolic skeleton and pairs, new coefficient column.

    ``coeffs`` holds one value per row of ``d.bridge.pairs``, in that order; a
    zero marks a cancelled pair. A column of any other shape is refused.
    """
    coeffs = np.array(coeffs, dtype=np.complex128)  # a copy: the bridge makes its columns read-only
    if coeffs.shape != d.bridge.coeffs.shape:
        raise ValueError(f"expected {d.bridge.coeffs.size} coefficients, one per pair, got shape {coeffs.shape}")
    return replace(d, bridge=Bridge(d.bridge.pairs, coeffs))


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
    return skeleton_hash(d.cut, d.left, d.right)


def decomposition_to_json(d: BridgeDecomposition) -> str:
    """Deterministic JSON form; exact float round trip."""
    doc = {
        "format": FORMAT_NAME,
        "n_sites": d.n_sites,
        "cut": d.cut,
        "left_fragments": list(d.left),
        "right_fragments": list(d.right),
        "bridge": json_rows(
            {"a": "%d", "b": "%d", "re": "%r", "im": "%r"},
            [*d.bridge.pairs.T.tolist(), d.bridge.coeffs.real.tolist(), d.bridge.coeffs.imag.tolist()],
        ),
    }
    # sizes of the layered graphs generating the dictionaries: each left
    # edge ends at a distinct prefix, each right edge starts at a distinct suffix
    left = [len(set(map(operator.itemgetter(slice(i)), d.left))) for i in range(d.cut + 1)]
    right = [len(set(map(operator.itemgetter(slice(i, None)), d.right)))
             for i in range(len(d.right[0]) + 1)]
    for side, sizes, edges in (("left", left, left[1:]), ("right", right, right[:-1])):
        doc[f"graph_{side}"] = {"layer_sizes": sizes, "edge_counts": edges}
    return json_text(doc)


def decomposition_from_json(text: str) -> BridgeDecomposition:
    """Rebuild a decomposition from its labels and bridge entries, read row by row in file order.

    Every malformed field raises ValueError naming it, e.g. ``bridge[3].re``."""
    doc = json_document(text, FORMAT_NAME)
    cut, left, right = json_skeleton(FORMAT_NAME, doc, "left_fragments", "right_fragments")
    n_left, n_right, seen, values = len(left), len(right), set(), []
    for k, e in enumerate(_field(doc, "bridge", list)):
        try:  # a row of exact JSON types that passes its checks reads as _read_row would read it
            a, b, re, im = e["a"], e["b"], e["re"], e["im"]
        except (KeyError, TypeError):  # not a dict, or a field missing
            a = None
        if not (type(a) is int is type(b) and 0 <= a < n_left and 0 <= b < n_right
                and type(re) is float is type(im) and math.isfinite(re) and math.isfinite(im)
                and a * n_right + b not in seen):
            a, b, re, im = _read_row(e, k, n_left, n_right, seen)
        seen.add(a * n_right + b)
        values += a, b, re, im
    table = np.array(values, dtype=np.float64).reshape(-1, 4)
    table = table[np.lexsort(table[:, 1::-1].T)]  # by pair, as a C-ordered copy
    coeffs = table[:, 2:].copy().view(np.complex128).ravel()
    return BridgeDecomposition(cut, left, right, Bridge(table[:, :2].astype(np.int64), coeffs))


def _read_row(e, k: int, n_left: int, n_right: int, seen: set) -> tuple[int, int, float, float]:
    """The rule for ``bridge[k]``, earlier rows' ``a * n_right + b`` being ``seen``: its values or first error."""
    where = f"bridge[{k}]."
    a, b = _field(e, "a", int, where), _field(e, "b", int, where)
    if not (0 <= a < n_left and 0 <= b < n_right):
        raise IndexOutOfRange(f"{FORMAT_NAME} field bridge[{k}]: pair ({a}, {b}) outside ({n_left}, {n_right})")
    if a * n_right + b in seen:
        raise _malformed(f"bridge[{k}]", f"pair ({a}, {b}) appears twice")
    return a, b, _field(e, "re", float, where), _field(e, "im", float, where)
