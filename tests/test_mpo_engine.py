"""MPO construction, canonical forms, compression, bridge truncation."""

import json

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
    canonicalize,
    compress,
    is_left_canonical_site,
    is_right_canonical_site,
    mpo_from_json,
    mpo_to_dense,
    mpo_to_json,
)
from paulibridge.pauli import (
    PauliString,
    PauliSum,
    PauliTerm,
    parse_pauli_sum,
    to_dense,
)

from conftest import random_pauli_sum


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


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
        m = build_mpo_qr(h2_subset)
        dense = mpo_to_dense(m)
        can = canonicalize(m, center)
        assert can.gauge == (
            ["left"] * center + ["center"] + ["right"] * (3 - center)
        )
        for j in range(center):
            assert is_left_canonical_site(can.tensors[j])
        for j in range(center + 1, 4):
            assert is_right_canonical_site(can.tensors[j])
        np.testing.assert_allclose(mpo_to_dense(can), dense, atol=1e-12)

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
        m = build_mpo_qr(h2_subset)
        comp, discarded = compress(m)
        assert comp.bond_dims == m.bond_dims
        assert all(d == 0.0 for d in discarded)
        np.testing.assert_allclose(
            mpo_to_dense(comp), mpo_to_dense(m), atol=1e-12
        )
        assert comp.gauge == ["left", "left", "left", "center"]

    @pytest.mark.parametrize("max_bond", [1, 2, 3, 4])
    def test_discarded_weight_equals_squared_error(self, h2_subset, max_bond):
        # single-sweep truncations discard mutually orthogonal pieces, so
        # the dense Frobenius gap matches the weight sum exactly
        m = build_mpo_qr(h2_subset)
        comp, discarded = compress(m, max_bond=max_bond)
        assert max(comp.bond_dims) <= max(max_bond, 1)
        err = np.linalg.norm(mpo_to_dense(comp) - to_dense(h2_subset))
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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(3, 16))
    def test_random_discarded_weight_identity(self, seed, n_sites, n_terms):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms)
        m = build_mpo_qr(op)
        comp, discarded = compress(m, max_bond=2)
        err = np.linalg.norm(mpo_to_dense(comp) - to_dense(op))
        assert err == pytest.approx(np.sqrt(sum(discarded)), abs=1e-9)

    def test_svd_tol_drops_small_values(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        comp, discarded = compress(m, svd_tol=0.5)
        assert sum(comp.bond_dims) < sum(m.bond_dims)
        err = np.linalg.norm(mpo_to_dense(comp) - to_dense(h2_subset))
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

    def test_wrong_format_rejected(self, h2_subset):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        doc["format"] = "mpo-v0"
        with pytest.raises(ValueError):
            mpo_from_json(json.dumps(doc))

    def test_truncated_payload_rejected(self, h2_subset):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        doc["tensors"][0] = doc["tensors"][0][: len(doc["tensors"][0]) // 2]
        with pytest.raises(ValueError):
            mpo_from_json(json.dumps(doc))
