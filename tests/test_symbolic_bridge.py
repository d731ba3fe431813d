import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paulibridge.bridge import (
    Bridge,
    CutOutOfRange,
    EmptyOperator,
    compile,
    decomposition_from_json,
    decomposition_to_json,
    reconstruct,
    set_bridge,
    skeleton_hash,
    structural_hash,
)
from paulibridge.pauli import parse_pauli_sum

from conftest import (
    BYTE_IDENTITY,
    bridge_matrix,
    field_bytes,
    from_rows_sums,
    pauli_sum,
    random_pauli_sum,
    sum_terms,
    term_dict,
)


class TestWorkedExample:
    def test_mid_cut_dictionaries(self, h2_subset):
        d = compile(h2_subset, 2)
        assert d.left == ("II", "IZ", "XX", "YX", "ZI", "ZZ")
        assert d.right == ("II", "XY", "YY", "ZI", "ZZ")
        assert len(d.bridge.pairs) == 9
        a = d.left.index("YX")
        b = d.right.index("XY")
        assert bridge_matrix(d)[a, b] == pytest.approx(0.045322, abs=1e-12)

    def test_first_cut_matrix(self, h2_subset):
        # expected matrix derived by splitting each fixture term at the
        # first site and accumulating coefficients per (prefix, suffix)
        d = compile(h2_subset, 1)
        assert d.left == ("I", "X", "Y", "Z")
        assert d.right == ("III", "IZI", "IZZ", "XXY", "XYY", "ZII", "ZZI")
        want = np.array(
            [
                [-0.098864, -0.222786, 0.174348, 0.0, 0.0, 0.0, 0.165867],
                [0.0, 0.0, 0.0, 0.0, -0.045322, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.045322, 0.0, 0.0, 0.0],
                [0.171198, 0.120545, 0.0, 0.0, 0.0, 0.168622, 0.0],
            ]
        )
        assert np.max(np.abs(bridge_matrix(d) - want)) < 1e-12

    def test_fragment_count_bound(self, h2_subset):
        d = compile(h2_subset, 2)
        assert len(d.left) <= min(h2_subset.n_terms, 4**2)
        assert len(d.right) <= min(h2_subset.n_terms, 4**2)


class TestRoundTrips:
    def test_reconstruct_compile_identity(self, h2_subset):
        got = reconstruct(compile(h2_subset, 2))
        assert term_dict(got) == term_dict(h2_subset)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_reconstruct_compile_random(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 6))
        op = random_pauli_sum(rng, n, data.draw(st.integers(1, 12)), complex_coeffs=True)
        cut = data.draw(st.integers(1, n - 1))
        assert term_dict(reconstruct(compile(op, cut))) == term_dict(op)

    def test_compile_reconstruct_identity(self, h2_subset):
        d = compile(h2_subset, 2)
        d2 = compile(reconstruct(d), 2)
        assert d2.left == d.left and d2.right == d.right
        assert d2.bridge == d.bridge

    def test_json_roundtrip(self, h2_subset):
        d = compile(h2_subset, 2)
        text = decomposition_to_json(d)
        d2 = decomposition_from_json(text)
        assert d2 == d
        assert decomposition_to_json(d2) == text

    @BYTE_IDENTITY
    @given(from_rows_sums(min_sites=2), st.data())
    def test_reader_returns_the_written_decomposition(self, op, data):
        # field for field, in order: the CLI hands compile's decomposition on to the next reader of its bytes
        assume(op.n_terms and np.isfinite(op.coeffs).all())  # the sums the Pauli text reader returns
        d = compile(op, data.draw(st.integers(1, op.n_sites - 1)))
        assert field_bytes(decomposition_from_json(decomposition_to_json(d))) == field_bytes(d)

    def test_decomposition_is_frozen(self, h2_subset):
        d = compile(h2_subset, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.bridge = compile(h2_subset, 1).bridge

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_labels_sliced_at_every_cut(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 6))
        op = random_pauli_sum(rng, n, data.draw(st.integers(1, 16)), complex_coeffs=data.draw(st.booleans()))
        labels = [label for _, label in sum_terms(op)]
        for cut in range(1, n):
            d = compile(op, cut)
            assert d.left == tuple(sorted({s[:cut] for s in labels}))
            assert d.right == tuple(sorted({s[cut:] for s in labels}))
            assert term_dict(reconstruct(d)) == term_dict(op)
            back = decomposition_from_json(decomposition_to_json(d))
            assert (back.left, back.right, back.bridge) == (d.left, d.right, d.bridge)
            assert decomposition_to_json(back) == decomposition_to_json(d)

    def test_compile_deterministic_bytes(self, h2_text, h2_subset):
        a = decomposition_to_json(compile(parse_pauli_sum(h2_text), 2))
        b = decomposition_to_json(compile(parse_pauli_sum(h2_text), 2))
        assert a == b


class TestSetBridge:
    def test_coefficients_replaced(self, h2_subset):
        d = compile(h2_subset, 2)
        d2 = set_bridge(d, np.ones(9))
        got = reconstruct(d2)
        assert got.coeffs.tolist() == [1.0] * 9

    def test_structural_hash_invariant(self, h2_subset):
        d = compile(h2_subset, 2)
        d2 = set_bridge(d, 2.5j * d.bridge.coeffs)
        assert structural_hash(d2) == structural_hash(d)
        assert d2.bridge.pairs is d.bridge.pairs

    def test_new_pair_allowed_hash_fixed(self, h2_subset):
        # a new pair over the same dictionaries is a new operator, compiled afresh
        d = compile(h2_subset, 2)
        d2 = compile(pauli_sum(4, sum_terms(h2_subset) + [(0.5, "IIXY")]), 2)  # II (x) XY: a new pair
        assert structural_hash(d2) == structural_hash(d)
        assert (0, 1) in d2.bridge.active_pairs and (0, 1) not in d.bridge.active_pairs
        assert reconstruct(d2).n_terms == 10

    def test_zero_entries_kept(self, h2_subset):
        d = compile(h2_subset, 2)
        d2 = set_bridge(d, np.zeros(9))
        assert len(d2.bridge.pairs) == 9
        assert d2.bridge.active_pairs == ()
        assert np.count_nonzero(d2.bridge.coeffs == 0) == 9
        assert reconstruct(d2).n_terms == 0

    @pytest.mark.parametrize("shape", [(0,), (8,), (10,), (9, 1), (3, 3), ()])
    def test_wrong_length_refused(self, h2_subset, shape):
        d = compile(h2_subset, 2)
        with pytest.raises(ValueError) as info:
            set_bridge(d, np.ones(shape))
        assert str(info.value) == f"expected 9 coefficients, one per pair, got shape {shape}"

    def test_caller_column_is_copied(self, h2_subset):
        d = compile(h2_subset, 2)
        coeffs = 2 * d.bridge.coeffs
        d2 = set_bridge(d, coeffs)
        coeffs[0] = 0
        assert d2.bridge.coeffs[0] == 2 * d.bridge.coeffs[0]
        assert coeffs.flags.writeable and not d2.bridge.coeffs.flags.writeable

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_hash_invariance_random(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 5))
        op = random_pauli_sum(rng, n, data.draw(st.integers(1, 10)))
        cut = data.draw(st.integers(1, n - 1))
        d = compile(op, cut)
        scale = data.draw(st.floats(-3, 3, allow_nan=False))
        d2 = set_bridge(d, scale * d.bridge.coeffs)
        assert structural_hash(d2) == structural_hash(d)
        assert structural_hash(d) == skeleton_hash(cut, d.left, d.right)
        # the skeleton itself is hashed: another cut or one changed fragment moves it
        if n > 2:
            assert structural_hash(compile(op, cut % (n - 1) + 1)) != structural_hash(d)
        side = data.draw(st.sampled_from(["left", "right"]))
        frags = getattr(d, side)
        fresh = sorted(
            set(map("".join, itertools.product("IXYZ", repeat=len(frags[0])))) - set(frags)
        )
        if fresh:
            k = data.draw(st.integers(0, len(frags) - 1))
            swapped = list(frags)
            swapped[k] = data.draw(st.sampled_from(fresh))
            changed = dataclasses.replace(d, **{side: tuple(swapped)})
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
            layers, edges = layered_graph("left", d.left)
            assert json_counts(d, "left") == ([len(v) for v in layers], [len(e) for e in edges])
            assert layers[-1] == set(d.left)
            for i, gap in enumerate(edges):
                # each edge appends its symbol; each non-root vertex has
                # exactly one incoming edge
                assert all(u in layers[i] and v == u + symbol for u, symbol, v in gap)
                assert sorted(v for _, _, v in gap) == sorted(layers[i + 1])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_right_graph_strips_leading_symbol(self, h2_subset, data):
        for d in graph_cases(h2_subset, data):
            layers, edges = layered_graph("right", d.right)
            assert json_counts(d, "right") == ([len(v) for v in layers], [len(e) for e in edges])
            assert layers[0] == set(d.right)
            for i, gap in enumerate(edges):
                # each edge strips its symbol; each vertex above the sink
                # has exactly one outgoing edge
                assert all(v in layers[i + 1] and u == symbol + v for u, symbol, v in gap)
                assert sorted(u for u, _, _ in gap) == sorted(layers[i])

    def test_unique_path_reaches_each_fragment(self, h2_subset):
        d = compile(h2_subset, 2)
        _, edges = layered_graph("left", d.left)
        for frag in d.left:
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
            compile(pauli_sum(3, []), 1)

    def test_single_term_cut(self):
        op = parse_pauli_sum("2.0 XZ\n")
        d = compile(op, 1)
        assert d.left == ("X",)
        assert d.right == ("Z",)
        assert d.bridge == Bridge(np.array([[0, 0]]), np.array([2.0 + 0j]))
