"""MPO construction, canonical forms, compression, bridge truncation."""

import json
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from paulibridge.bridge import EmptyOperator, compile as compile_bridge
from paulibridge.mpo import (
    BridgeSvd,
    CutMatrix,
    Mpo,
    RankExceedsDims,
    bridge_svd,
    build_mpo_qr,
    mpo_from_json,
    mpo_to_dense,
    mpo_to_json,
)
from paulibridge.mps import (
    canonicalize,
    compress,
    dense_to_mps,
    is_left_canonical_site,
    is_right_canonical_site,
    mps_to_dense,
)
from paulibridge.pauli import (
    PAULI_MATRICES,
    PauliString,
    PauliSum,
    PauliTerm,
    parse_pauli_sum,
    to_dense,
)

from conftest import CHAIN_MUTATIONS, random_pauli_sum, random_state


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def h2_chains(h2_subset):
    """(chain, its dense contraction, exact reference) for the h2 MPO and a
    generic four-site MPS (bonds 1, 2, 4, 2, 1): the chain functions serve both."""
    vec = random_state(np.random.default_rng(4), 4)
    return [
        (build_mpo_qr(h2_subset), mpo_to_dense, to_dense(h2_subset)),
        (dense_to_mps(vec), mps_to_dense, vec),
    ]


def chain_operator(rng, n):
    """Nearest-neighbour XX/YY/ZZ couplings plus X and Z fields: 5n - 3 terms."""
    labels = [
        "I" * i + pair + "I" * (n - i - len(pair))
        for i in range(n)
        for pair in (("XX", "YY", "ZZ") if i < n - 1 else ()) + ("X", "Z")
    ]
    return PauliSum(n, [(rng.standard_normal(), PauliString.from_label(s)) for s in labels])


def pauli_coefficients(m, strings):
    """Coefficient of each string in the MPO's Pauli expansion.

    Each site tensor is projected onto the Pauli basis,
    ``c[a, b, p] = tr(sigma_p W[a, b]) / 2``, so a coefficient is one
    product of matrices and needs no dense operator.
    """
    sigma = np.array(PAULI_MATRICES)
    proj = [np.einsum("abst,pts->pab", w, sigma) / 2 for w in m.tensors]
    out = []
    for s in strings:
        env = np.ones((1, 1))
        for c, code in zip(proj, s.codes):
            env = env @ c[code]
        out.append(env[0, 0])
    return np.array(out)


def reference_regroup(carried, suffixes):
    """The string-built regroup: rows are the occurring (bond, symbol) pairs,
    columns the sorted remaining suffixes."""
    rests = sorted({s[1:] for s in suffixes})
    rest_index = {r: k for k, r in enumerate(rests)}
    raw = np.zeros((carried.shape[0], 4, len(rests)), dtype=np.complex128)
    for k, s in enumerate(suffixes):
        raw[:, "IXYZ".index(s[0]), rest_index[s[1:]]] += carried[:, k]
    rows = [(a, p) for a in range(carried.shape[0]) for p in range(4) if np.any(raw[a, p] != 0)]
    return tuple(rows), tuple(rests), np.array([raw[a, p] for a, p in rows])


class TestBuild:
    def test_h2_first_cut_matrix(self, h2_subset):
        # derived by splitting each fixture term at the first site
        cols = ("III", "IZI", "IZZ", "XXY", "XYY", "ZII", "ZZI")
        expected = np.zeros((4, 7))
        expected[0, 0] = -0.098864
        expected[0, 1] = -0.222786
        expected[0, 2] = 0.174348
        expected[0, 6] = 0.165867
        expected[1, 4] = -0.045322
        expected[2, 3] = 0.045322
        expected[3, 0] = 0.171198
        expected[3, 1] = 0.120545
        expected[3, 5] = 0.168622
        cuts = []
        build_mpo_qr(h2_subset, cut_log=cuts)
        first = cuts[0]
        assert first.site == 0
        assert first.row_keys == ((0, 0), (0, 1), (0, 2), (0, 3))
        assert first.col_labels == cols
        np.testing.assert_allclose(first.matrix, expected, atol=1e-12)

    def test_first_cut_matches_bridge_matrix(self, h2_subset):
        # two independent routes to the same regrouping must agree
        cuts = []
        build_mpo_qr(h2_subset, cut_log=cuts)
        d = compile_bridge(h2_subset, 1)
        np.testing.assert_allclose(
            cuts[0].matrix, d.bridge.to_matrix(), atol=1e-14
        )

    def test_h2_bond_profile(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        assert m.bond_dims == [1, 4, 5, 3, 1]

    def test_h2_exact_reconstruction(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        assert rel_err(mpo_to_dense(m), to_dense(h2_subset)) < 1e-12

    def test_cut_log_has_one_entry_per_site(self, h2_subset):
        cuts = []
        build_mpo_qr(h2_subset, cut_log=cuts)
        assert [c.site for c in cuts] == [0, 1, 2, 3]
        assert cuts[-1].col_labels == ("",)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 18))
    def test_random_exact_reconstruction(self, seed, n_sites, n_terms):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=True)
        m = build_mpo_qr(op)
        assert rel_err(mpo_to_dense(m), to_dense(op)) < 1e-10
        np.testing.assert_allclose(mpo_to_dense(m), to_dense(op), rtol=0, atol=1e-12)

    def test_identity_is_bond_one(self):
        op = PauliSum(3, [PauliTerm(2.5, PauliString.identity(3))])
        m = build_mpo_qr(op)
        assert m.bond_dims == [1, 1, 1, 1]
        np.testing.assert_allclose(mpo_to_dense(m), 2.5 * np.eye(8), atol=1e-14)

    def test_single_string_is_bond_one(self):
        op = PauliSum(4, [PauliTerm(-1.0j, PauliString.from_label("XYZI"))])
        m = build_mpo_qr(op)
        assert m.bond_dims == [1, 1, 1, 1, 1]
        assert rel_err(mpo_to_dense(m), to_dense(op)) < 1e-14

    def test_single_site_operator(self):
        op = parse_pauli_sum("0.5 X\n-0.25 Z\n")
        m = build_mpo_qr(op)
        assert m.bond_dims == [1, 1]
        assert rel_err(mpo_to_dense(m), to_dense(op)) < 1e-14

    def test_empty_operator_raises(self):
        with pytest.raises(EmptyOperator):
            build_mpo_qr(PauliSum(2, []))

    def test_negative_rank_tol_raises(self, h2_subset):
        with pytest.raises(ValueError):
            build_mpo_qr(h2_subset, rank_tol=-0.1)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rank_tol_raises(self, h2_subset, tol):
        with pytest.raises(ValueError, match="rank_tol"):
            build_mpo_qr(h2_subset, rank_tol=tol)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([24, 40]))
    def test_chain_bonds_are_exact_rank(self, seed, n_sites):
        # the channels past a cut are identity, X, Y, Z and "done": rank 5;
        # roundoff pivots kept as bonds used to give up to 99 (24 sites)
        rng = np.random.default_rng(seed)
        op = chain_operator(rng, n_sites)
        assert op.n_terms == 5 * n_sites - 3
        m = build_mpo_qr(op)
        assert max(m.bond_dims) <= 5
        absent = [PauliString.from_codes(rng.integers(0, 4, n_sites)) for _ in range(20)]
        absent = [s for s in absent if s not in op.as_dict()]
        strings = [t.string for t in op.terms] + absent
        want = [t.coeff for t in op.terms] + [0.0] * len(absent)
        np.testing.assert_allclose(pauli_coefficients(m, strings), want, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 40), st.booleans())
    def test_bonds_equal_matrix_rank_of_cut(self, seed, n_sites, n_terms, complex_coeffs):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=complex_coeffs)
        cuts = []
        m = build_mpo_qr(op, cut_log=cuts)
        ranks = [np.linalg.matrix_rank(c.matrix) for c in cuts[:-1]]
        assert m.bond_dims == [1] + ranks + [1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(1, 8), st.integers(30, 40)),
        st.integers(1, 40),
    )
    def test_cut_log_matches_string_regroup(self, seed, n_sites, n_terms):
        # mostly-identity strings share suffixes, so columns merge; 33 or
        # more sites take two packed words per string
        rng = np.random.default_rng(seed)
        codes = rng.choice(4, size=(n_terms, n_sites), p=[0.7, 0.1, 0.1, 0.1])
        op = PauliSum(n_sites, [
            (complex(*rng.standard_normal(2)), PauliString.from_codes(int(c) for c in row))
            for row in codes
        ])
        cuts = []
        m = build_mpo_qr(op, cut_log=cuts)
        assert [c.site for c in cuts] == list(range(n_sites))
        suffixes = [t.string.label for t in op.terms]
        carried = np.array([[t.coeff for t in op.terms]])
        for site, cut in enumerate(cuts):
            rows, rests, matrix = reference_regroup(carried, suffixes)
            assert cut.row_keys == rows
            assert cut.col_labels == rests
            assert np.array_equal(cut.matrix, matrix)
            if site < n_sites - 1:
                _, r, piv = scipy.linalg.qr(cut.matrix, mode="economic", pivoting=True)
                rank = m.bond_dims[site + 1]
                carried = np.zeros((rank, len(rests)), dtype=np.complex128)
                carried[:, piv] = r[:rank]
                suffixes = rests

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 18))
    def test_wide_coefficient_range_reconstruction(self, seed, n_sites, n_terms):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=True)
        magnitudes = 10.0 ** rng.uniform(-8, 3, op.n_terms)
        op = PauliSum(n_sites, [
            (t.coeff / abs(t.coeff) * mag, t.string) for t, mag in zip(op.terms, magnitudes)
        ])
        assert rel_err(mpo_to_dense(build_mpo_qr(op)), to_dense(op)) < 1e-12

    def test_rank_tol_shrinks_bonds(self, h2_subset):
        exact = build_mpo_qr(h2_subset)
        loose = build_mpo_qr(h2_subset, rank_tol=0.3)
        assert all(
            b <= a for a, b in zip(exact.bond_dims, loose.bond_dims)
        )
        assert sum(loose.bond_dims) < sum(exact.bond_dims)

    def test_tiny_rank_tol_still_exact(self, h2_subset):
        m = build_mpo_qr(h2_subset, rank_tol=1e-14)
        assert m.bond_dims == [1, 4, 5, 3, 1]
        assert rel_err(mpo_to_dense(m), to_dense(h2_subset)) < 1e-12


class TestCanonicalize:
    @pytest.mark.parametrize("center", [0, 1, 2, 3])
    def test_gauge_conditions_and_invariance(self, h2_subset, center):
        for m, dense_of, _ in h2_chains(h2_subset):
            dense = dense_of(m)
            can = canonicalize(m, center)
            assert type(can) is type(m)
            assert can.gauge == (
                ["left"] * center + ["center"] + ["right"] * (3 - center)
            )
            for j in range(center):
                assert is_left_canonical_site(can.tensors[j])
            for j in range(center + 1, 4):
                assert is_right_canonical_site(can.tensors[j])
            np.testing.assert_allclose(dense_of(can), dense, atol=1e-12)

    def test_bad_center_raises(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        with pytest.raises(ValueError):
            canonicalize(m, 4)
        with pytest.raises(ValueError):
            canonicalize(m, -1)

    def test_input_not_mutated(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        before = [w.copy() for w in m.tensors]
        canonicalize(m, 2)
        for a, b in zip(m.tensors, before):
            np.testing.assert_array_equal(a, b)


class TestCompress:
    def test_lossless_when_untruncated(self, h2_subset):
        for m, dense_of, _ in h2_chains(h2_subset):
            comp, discarded = compress(m)
            assert type(comp) is type(m)
            assert comp.bond_dims == m.bond_dims
            assert all(d == 0.0 for d in discarded)
            np.testing.assert_allclose(dense_of(comp), dense_of(m), atol=1e-12)
            assert comp.gauge == ["left", "left", "left", "center"]

    @pytest.mark.parametrize("max_bond", [1, 2, 3, 4])
    def test_discarded_weight_equals_squared_error(self, h2_subset, max_bond):
        # single-sweep truncations discard mutually orthogonal pieces, so
        # the dense Frobenius gap matches the weight sum exactly
        for m, dense_of, reference in h2_chains(h2_subset):
            comp, discarded = compress(m, max_bond=max_bond)
            assert type(comp) is type(m)
            assert max(comp.bond_dims) <= max(max_bond, 1)
            assert all(is_left_canonical_site(t) for t in comp.tensors[:-1])
            err = np.linalg.norm(dense_of(comp) - reference)
            assert err == pytest.approx(np.sqrt(sum(discarded)), abs=1e-10)

    def test_single_bond_error_matches_cut_spectrum(self, h2_subset):
        # with max_bond=4 only the middle bond truncates (5 -> 4); the gap
        # must equal the dropped Schmidt coefficient of the dense operator,
        # i.e. 2^(n/2) times the smallest cut-matrix singular value
        m = build_mpo_qr(h2_subset)
        comp, discarded = compress(m, max_bond=4)
        assert comp.bond_dims == [1, 4, 4, 3, 1]
        assert discarded[0] == 0.0 and discarded[2] == 0.0
        sigma = scipy.linalg.svd(
            compile_bridge(h2_subset, 2).bridge.to_matrix(), compute_uv=False
        )
        err = np.linalg.norm(mpo_to_dense(comp) - to_dense(h2_subset))
        assert err == pytest.approx(4.0 * sigma[4], abs=1e-9)
        assert err == pytest.approx(4.0 * 0.045322, abs=1e-9)

    def test_single_bond_error_matches_schmidt_spectrum(self, h2_subset):
        # the same identity on an MPS: max_bond=3 truncates only the middle
        # bond (4 -> 3), and the gap is the dropped Schmidt coefficient
        [_, (m, _, vec)] = h2_chains(h2_subset)
        comp, discarded = compress(m, max_bond=3)
        assert comp.bond_dims == [1, 2, 3, 2, 1]
        assert discarded[0] == 0.0 and discarded[2] == 0.0
        sigma = scipy.linalg.svd(vec.reshape(4, 4), compute_uv=False)
        err = np.linalg.norm(mps_to_dense(comp) - vec)
        assert err == pytest.approx(np.sqrt(discarded[1]), abs=1e-12)
        assert err == pytest.approx(sigma[3], abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(3, 16))
    def test_random_discarded_weight_identity(self, seed, n_sites, n_terms):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms)
        m = build_mpo_qr(op)
        comp, discarded = compress(m, max_bond=2)
        err = np.linalg.norm(mpo_to_dense(comp) - to_dense(op))
        assert err == pytest.approx(np.sqrt(sum(discarded)), abs=1e-9)


class TestBridgeSvd:
    def test_h2_cut1_spectrum(self, h2_subset):
        d = compile_bridge(h2_subset, 1)
        res = bridge_svd(d, 4)
        np.testing.assert_allclose(
            res.sigma,
            [0.37951186, 0.21344966, 0.045322, 0.045322],
            atol=1e-6,
        )

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_eckart_young_equality(self, h2_subset, rank):
        d = compile_bridge(h2_subset, 1)
        c = d.bridge.to_matrix()
        res = bridge_svd(d, rank)
        gap = np.linalg.norm(c - res.left_factor @ res.right_factor)
        assert gap == pytest.approx(
            np.sqrt(np.sum(res.sigma[rank:] ** 2)), abs=1e-12
        )

    def test_rank2_error_value(self, h2_subset):
        # the two dropped values coincide at 0.045322, so the optimal
        # rank-2 gap is that value times sqrt(2)
        d = compile_bridge(h2_subset, 1)
        res = bridge_svd(d, 2)
        gap = np.linalg.norm(
            d.bridge.to_matrix() - res.left_factor @ res.right_factor
        )
        assert gap == pytest.approx(0.045322 * np.sqrt(2.0), abs=1e-6)

    def test_truncated_bridge_reconstructs_factors(self, h2_subset):
        d = compile_bridge(h2_subset, 1)
        res = bridge_svd(d, 2)
        np.testing.assert_allclose(
            res.truncated.to_matrix(),
            res.left_factor @ res.right_factor,
            atol=1e-14,
        )
        assert res.truncated.shape == d.bridge.shape

    def test_factor_shapes(self, h2_subset):
        d = compile_bridge(h2_subset, 2)
        res = bridge_svd(d, 3)
        assert res.left_factor.shape == (6, 3)
        assert res.right_factor.shape == (3, 5)

    def test_rank_clamped_with_warning(self, h2_subset):
        d = compile_bridge(h2_subset, 1)
        with pytest.warns(RankExceedsDims):
            res = bridge_svd(d, 10)
        assert res.left_factor.shape[1] == 4
        np.testing.assert_allclose(
            res.truncated.to_matrix(), d.bridge.to_matrix(), atol=1e-12
        )

    def test_rank_below_one_raises(self, h2_subset):
        d = compile_bridge(h2_subset, 1)
        with pytest.raises(ValueError):
            bridge_svd(d, 0)


class TestSerialization:
    def test_round_trip_exact(self, h2_subset):
        m = canonicalize(build_mpo_qr(h2_subset), 1)
        text = mpo_to_json(m)
        back = mpo_from_json(text)
        assert back.bond_dims == m.bond_dims
        assert back.gauge == m.gauge
        for a, b in zip(back.tensors, m.tensors):
            np.testing.assert_array_equal(a, b)

    def test_serialization_deterministic(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        assert mpo_to_json(m) == mpo_to_json(m)

    def test_header_fields(self, h2_subset):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        assert doc["format"] == "mpo-v1"
        assert doc["n_sites"] == 4
        assert doc["bond_dims"] == [1, 4, 5, 3, 1]
        assert len(doc["tensors"]) == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_not_written(self, h2_subset, value):
        m = build_mpo_qr(h2_subset)
        m.tensors[2][0, 0, 1, 1] = value
        with pytest.raises(ValueError, match=r"^mpo-v1 field tensors\[2\]: non-finite values"):
            mpo_to_json(m)

    def test_overflowing_qr_names_site(self):
        with pytest.raises(ValueError, match="cut matrix at site 0 overflows"):
            build_mpo_qr(parse_pauli_sum("1e308 XZ\n1e308 ZZ\n"))

    def test_wrong_format_rejected(self, h2_subset):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        doc["format"] = "mpo-v0"
        with pytest.raises(ValueError):
            mpo_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field, mutate", CHAIN_MUTATIONS)
    def test_malformed_document_names_field(self, h2_subset, field, mutate):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        mutate(doc)
        with pytest.raises(ValueError, match=rf"^mpo-v1 field {re.escape(field)}:"):
            mpo_from_json(json.dumps(doc))

    def test_truncated_payload_rejected(self, h2_subset):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        doc["tensors"][0] = doc["tensors"][0][: len(doc["tensors"][0]) // 2]
        with pytest.raises(ValueError):
            mpo_from_json(json.dumps(doc))
