import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulibridge.bridge import (
    Bridge,
    CutOutOfRange,
    EmptyOperator,
    FragmentDictionary,
    IndexOutOfRange,
    compile,
    decomposition_from_json,
    decomposition_to_json,
    reconstruct,
    set_bridge,
    skeleton_hash,
    structural_hash,
)
from paulibridge.pauli import PauliSum, parse_pauli_sum

from conftest import random_pauli_sum


class TestWorkedExample:
    def test_mid_cut_dictionaries(self, h2_subset):
        d = compile(h2_subset, 2)
        assert d.left.labels == ("II", "IZ", "XX", "YX", "ZI", "ZZ")
        assert d.right.labels == ("II", "XY", "YY", "ZI", "ZZ")
        assert len(d.bridge.entries) == 9
        a = d.left.labels.index("YX")
        b = d.right.labels.index("XY")
        assert d.bridge.entries[(a, b)] == pytest.approx(0.045322, abs=1e-12)

    def test_first_cut_matrix(self, h2_subset):
        # expected matrix derived by splitting each fixture term at the
        # first site and accumulating coefficients per (prefix, suffix)
        d = compile(h2_subset, 1)
        assert d.left.labels == ("I", "X", "Y", "Z")
        assert d.right.labels == ("III", "IZI", "IZZ", "XXY", "XYY", "ZII", "ZZI")
        want = np.array(
            [
                [-0.098864, -0.222786, 0.174348, 0.0, 0.0, 0.0, 0.165867],
                [0.0, 0.0, 0.0, 0.0, -0.045322, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.045322, 0.0, 0.0, 0.0],
                [0.171198, 0.120545, 0.0, 0.0, 0.0, 0.168622, 0.0],
            ]
        )
        assert np.max(np.abs(d.bridge.to_matrix() - want)) < 1e-12

    def test_fragment_count_bound(self, h2_subset):
        d = compile(h2_subset, 2)
        assert len(d.left) <= min(h2_subset.n_terms, 4**2)
        assert len(d.right) <= min(h2_subset.n_terms, 4**2)


class TestRoundTrips:
    def test_reconstruct_compile_identity(self, h2_subset):
        got = reconstruct(compile(h2_subset, 2))
        assert got.as_dict() == h2_subset.as_dict()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_reconstruct_compile_random(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 6))
        op = random_pauli_sum(rng, n, data.draw(st.integers(1, 12)), complex_coeffs=True)
        cut = data.draw(st.integers(1, n - 1))
        assert reconstruct(compile(op, cut)).as_dict() == op.as_dict()

    def test_compile_reconstruct_identity(self, h2_subset):
        d = compile(h2_subset, 2)
        d2 = compile(reconstruct(d), 2)
        assert d2.left == d.left and d2.right == d.right
        assert d2.bridge.entries == d.bridge.entries

    def test_json_roundtrip(self, h2_subset):
        d = compile(h2_subset, 2)
        text = decomposition_to_json(d)
        d2 = decomposition_from_json(text)
        assert d2 == d
        assert decomposition_to_json(d2) == text

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_labels_sliced_at_every_cut(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 6))
        op = random_pauli_sum(rng, n, data.draw(st.integers(1, 16)), complex_coeffs=data.draw(st.booleans()))
        labels = [t.string.label for t in op.terms]
        for cut in range(1, n):
            d = compile(op, cut)
            assert d.left.labels == tuple(sorted({s[:cut] for s in labels}))
            assert d.right.labels == tuple(sorted({s[cut:] for s in labels}))
            assert reconstruct(d).as_dict() == op.as_dict()
            back = decomposition_from_json(decomposition_to_json(d))
            assert (back.left, back.right, back.bridge.entries) == (d.left, d.right, d.bridge.entries)
            assert decomposition_to_json(back) == decomposition_to_json(d)

    def test_compile_deterministic_bytes(self, h2_text, h2_subset):
        a = decomposition_to_json(compile(parse_pauli_sum(h2_text), 2))
        b = decomposition_to_json(compile(parse_pauli_sum(h2_text), 2))
        assert a == b


class TestSetBridge:
    def test_coefficients_replaced(self, h2_subset):
        d = compile(h2_subset, 2)
        new_entries = {pair: 1.0 + 0j for pair in d.bridge.entries}
        d2 = set_bridge(d, new_entries)
        got = reconstruct(d2)
        assert all(t.coeff == 1.0 for t in got.terms)
        assert got.n_terms == 9

    def test_structural_hash_invariant(self, h2_subset):
        d = compile(h2_subset, 2)
        d2 = set_bridge(d, {pair: 2.5j * c for pair, c in d.bridge.entries.items()})
        assert structural_hash(d2) == structural_hash(d)

    def test_new_pair_allowed_hash_fixed(self, h2_subset):
        d = compile(h2_subset, 2)
        extra = dict(d.bridge.entries)
        extra[(0, 1)] = 0.5 + 0j  # II (x) XY was not an original term
        d2 = set_bridge(d, extra)
        assert structural_hash(d2) == structural_hash(d)
        assert reconstruct(d2).n_terms == 10

    def test_zero_entries_kept(self, h2_subset):
        d = compile(h2_subset, 2)
        zeroed = {pair: 0j for pair in d.bridge.entries}
        d2 = set_bridge(d, zeroed)
        assert len(d2.bridge.entries) == 9
        assert d2.bridge.active_pairs == ()
        assert np.count_nonzero(d2.bridge.coeffs == 0) == 9
        assert reconstruct(d2).n_terms == 0

    def test_index_out_of_range(self, h2_subset):
        d = compile(h2_subset, 2)
        with pytest.raises(IndexOutOfRange):
            set_bridge(d, {(0, 99): 1.0})

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_hash_invariance_random(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 5))
        op = random_pauli_sum(rng, n, data.draw(st.integers(1, 10)))
        cut = data.draw(st.integers(1, n - 1))
        d = compile(op, cut)
        scale = data.draw(st.floats(-3, 3, allow_nan=False))
        d2 = set_bridge(d, {pair: scale * c for pair, c in d.bridge.entries.items()})
        assert structural_hash(d2) == structural_hash(d)
        assert structural_hash(d) == skeleton_hash(cut, d.left.labels, d.right.labels)
        # the skeleton itself is hashed: another cut or one changed fragment moves it
        if n > 2:
            assert structural_hash(compile(op, cut % (n - 1) + 1)) != structural_hash(d)
        side = data.draw(st.sampled_from(["left", "right"]))
        frags = getattr(d, side)
        fresh = sorted(
            set(map("".join, itertools.product("IXYZ", repeat=frags.width))) - set(frags.labels)
        )
        if fresh:
            k = data.draw(st.integers(0, len(frags) - 1))
            swapped = list(frags.labels)
            swapped[k] = data.draw(st.sampled_from(fresh))
            changed = dataclasses.replace(d, **{side: FragmentDictionary(tuple(swapped))})
            assert structural_hash(changed) != structural_hash(d)


def graph_cases(h2_subset, data):
    """h2 and one hypothesis operator of at most six sites, each at every cut."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(2, 6))
    op = random_pauli_sum(rng, n, data.draw(st.integers(1, 24)))
    return [compile(o, cut) for o in (h2_subset, op) for cut in range(1, o.n_sites)]


def layered_graph(side, labels):
    """Vertex layers and labeled edges of the graph generating ``labels``.

    Left: a prefix trie, layer i holding the length-i prefixes. Right: a
    suffix chain, layer i holding the suffixes from site i, each edge
    stripping the leading symbol.
    """
    vertex = (lambda lab, i: lab[:i]) if side == "left" else (lambda lab, i: lab[i:])
    width = len(labels[0])
    layers = [{vertex(lab, i) for lab in labels} for i in range(width + 1)]
    edges = [{(vertex(lab, i), lab[i], vertex(lab, i + 1)) for lab in labels} for i in range(width)]
    return layers, edges


def json_counts(d, side):
    graph = json.loads(decomposition_to_json(d))[f"graph_{side}"]
    return graph["layer_sizes"], graph["edge_counts"]


class TestGraphs:
    """The bridge-v1 counts are the sizes of the graphs built here from the labels."""

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_left_graph_is_prefix_trie(self, h2_subset, data):
        for d in graph_cases(h2_subset, data):
            layers, edges = layered_graph("left", d.left.labels)
            assert json_counts(d, "left") == ([len(v) for v in layers], [len(e) for e in edges])
            assert layers[-1] == set(d.left.labels)
            for i, gap in enumerate(edges):
                # each edge appends its symbol; each non-root vertex has
                # exactly one incoming edge
                assert all(u in layers[i] and v == u + symbol for u, symbol, v in gap)
                assert sorted(v for _, _, v in gap) == sorted(layers[i + 1])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_right_graph_strips_leading_symbol(self, h2_subset, data):
        for d in graph_cases(h2_subset, data):
            layers, edges = layered_graph("right", d.right.labels)
            assert json_counts(d, "right") == ([len(v) for v in layers], [len(e) for e in edges])
            assert layers[0] == set(d.right.labels)
            for i, gap in enumerate(edges):
                # each edge strips its symbol; each vertex above the sink
                # has exactly one outgoing edge
                assert all(v in layers[i + 1] and u == symbol + v for u, symbol, v in gap)
                assert sorted(u for u, _, _ in gap) == sorted(layers[i])

    def test_unique_path_reaches_each_fragment(self, h2_subset):
        d = compile(h2_subset, 2)
        _, edges = layered_graph("left", d.left.labels)
        for frag in d.left.labels:
            vertex = ""
            for i, symbol in enumerate(frag):
                [(_, _, vertex)] = [e for e in edges[i] if e[0] == vertex and e[1] == symbol]
            assert vertex == frag

    def test_layer_sizes_monotone_amortized(self, h2_subset):
        d = compile(h2_subset, 2)
        assert json_counts(d, "left") == ([1, 4, 6], [4, 6])
        assert json_counts(d, "right") == ([5, 3, 1], [5, 3])
        # one root on the left and one sink on the right at every cut
        for cut in range(1, h2_subset.n_sites):
            d = compile(h2_subset, cut)
            assert json_counts(d, "left")[0][0] == 1
            assert json_counts(d, "right")[0][-1] == 1


class TestErrors:
    def test_cut_out_of_range(self, h2_subset):
        with pytest.raises(CutOutOfRange):
            compile(h2_subset, 0)
        with pytest.raises(CutOutOfRange):
            compile(h2_subset, 4)

    def test_empty_operator(self):
        with pytest.raises(EmptyOperator):
            compile(PauliSum(3, []), 1)

    def test_single_term_cut(self):
        op = parse_pauli_sum("2.0 XZ\n")
        d = compile(op, 1)
        assert d.left.labels == ("X",)
        assert d.right.labels == ("Z",)
        assert d.bridge.entries == {(0, 0): 2.0 + 0j}
