"""MPS factorization, gauges, overlaps, dense ground-state reference."""

from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from paulibridge.mps import (
    DegenerateGroundState,
    Mps,
    canonicalize,
    canonicalize_mps,
    dense_to_mps,
    ground_state_reference,
    is_left_canonical_site,
    is_right_canonical_site,
    mps_from_json,
    mps_to_dense,
    mps_to_json,
    overlap,
    string_expectation,
    string_expectations,
)
from paulibridge import mps as mps_module
from paulibridge.pauli import (
    PAULI_MATRICES,
    PauliString,
    apply_string,
    pack_strings,
    parse_pauli_sum,
    to_dense,
)

from conftest import random_state


def random_mps(rng, n_sites, max_bond):
    """Random tensors with bonds up to ``max_bond``, scaled to a unit-norm state."""
    bonds = [1] + [min(max_bond, 2 ** min(j, n_sites - j)) for j in range(1, n_sites)] + [1]
    tensors = [
        rng.standard_normal((bonds[j], bonds[j + 1], 2))
        + 1j * rng.standard_normal((bonds[j], bonds[j + 1], 2))
        for j in range(n_sites)
    ]
    tensors[0] = tensors[0] / np.linalg.norm(mps_to_dense(Mps(tensors)))
    return Mps(tensors)


class TestDenseToMps:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    def test_exact_round_trip(self, seed, n_sites):
        rng = np.random.default_rng(seed)
        vec = random_state(rng, n_sites)
        m = dense_to_mps(vec, normalize=False)
        np.testing.assert_allclose(mps_to_dense(m), vec, atol=1e-12)

    def test_left_isometric_structure(self):
        rng = np.random.default_rng(3)
        m = dense_to_mps(random_state(rng, 5))
        for t in m.tensors[:-1]:
            assert is_left_canonical_site(t)
        assert m.gauge == ["left"] * 4 + ["center"]

    def test_bond_dims_capped(self):
        rng = np.random.default_rng(4)
        m = dense_to_mps(random_state(rng, 6), max_bond=3)
        assert max(m.bond_dims) <= 3

    def test_truncation_discard_matches_dense_gap(self):
        # without renormalization the dropped weight is exactly the
        # squared distance to the truncated state
        rng = np.random.default_rng(5)
        vec = random_state(rng, 6)
        log = []
        m = dense_to_mps(vec, max_bond=2, normalize=False, discard_log=log)
        gap = np.linalg.norm(mps_to_dense(m) - vec)
        assert gap == pytest.approx(np.sqrt(sum(log)), abs=1e-10)

    def test_normalize_restores_unit_norm(self):
        rng = np.random.default_rng(6)
        m = dense_to_mps(3.7 * random_state(rng, 4), max_bond=2)
        assert np.linalg.norm(mps_to_dense(m)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_bond_one(self):
        vec = np.zeros(16)
        vec[0b1010] = 1.0
        m = dense_to_mps(vec)
        assert m.bond_dims == [1, 1, 1, 1, 1]

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            dense_to_mps(np.ones(6))

    def test_zero_state_raises(self):
        with pytest.raises(ValueError):
            dense_to_mps(np.zeros(8))


class TestGauges:
    @pytest.mark.parametrize("form", ["left", "right"])
    def test_canonical_conditions(self, form):
        rng = np.random.default_rng(11)
        vec = random_state(rng, 6)
        raw = dense_to_mps(vec)
        m = canonicalize(raw, raw.n_sites - 1) if form == "left" else canonicalize_mps(raw)
        check = is_left_canonical_site if form == "left" else is_right_canonical_site
        interior = m.tensors[:-1] if form == "left" else m.tensors[1:]
        for t in interior:
            assert check(t)
        np.testing.assert_allclose(mps_to_dense(m), vec, atol=1e-12)

    def test_right_gauge_center_is_isometric_for_unit_norm(self):
        # the sampling chain rule needs every site right-isometric, which
        # holds once the norm collected at site 0 equals one
        rng = np.random.default_rng(12)
        m = canonicalize_mps(dense_to_mps(random_state(rng, 5)))
        for t in m.tensors:
            assert is_right_canonical_site(t)


class TestContractions:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_overlap_matches_dense(self, seed, n_sites):
        rng = np.random.default_rng(seed)
        va, vb = random_state(rng, n_sites), random_state(rng, n_sites)
        got = overlap(dense_to_mps(va), dense_to_mps(vb))
        assert got == pytest.approx(np.vdot(va, vb), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 4**5 - 1))
    def test_string_expectation_matches_dense(self, seed, n_sites, bits):
        rng = np.random.default_rng(seed)
        vec = random_state(rng, n_sites)
        p = PauliString(n_sites, bits % 4**n_sites)
        got = string_expectation(dense_to_mps(vec), p)
        assert got == pytest.approx(np.vdot(vec, apply_string(p, vec)), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 8),
        st.integers(0, 40), st.integers(1, 8),
    )
    def test_string_expectations_match_dense(self, seed, n_sites, max_bond, count, chunk):
        # random, non-canonical tensors; strings split at n // 2, with
        # repeated rows and chunks of `chunk` strings on both sides of the cut
        rng = np.random.default_rng(seed)
        m = random_mps(rng, n_sites, max_bond)
        vec = mps_to_dense(m)
        strings = [PauliString(n_sites, int(b)) for b in rng.integers(0, 4**n_sites, count)]
        strings += strings[: count // 3]
        with patch.object(mps_module, "CHUNK_STRINGS", chunk):
            got = string_expectations(m, pack_strings(strings, n_sites))
        want = [np.vdot(vec, apply_string(p, vec)) for p in strings]
        assert got.shape == (len(strings),)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_string_expectations_chunk_boundaries(self, monkeypatch):
        rng = np.random.default_rng(15)
        m = dense_to_mps(random_state(rng, 5), max_bond=3)
        packed = pack_strings([PauliString(5, int(b)) for b in rng.integers(0, 4**5, 11)], 5)
        whole = string_expectations(m, packed)
        monkeypatch.setattr(mps_module, "CHUNK_STRINGS", 3)
        np.testing.assert_array_equal(string_expectations(m, packed), whole)
        assert string_expectations(m, packed[:0]).shape == (0,)

    def test_string_expectations_past_one_chunk(self):
        # more strings and more distinct halves than CHUNK_STRINGS
        rng = np.random.default_rng(17)
        n_sites = 7
        m = random_mps(rng, n_sites, 4)
        vec = mps_to_dense(m)
        bits = np.concatenate([np.arange(4**n_sites), rng.integers(0, 4**n_sites, 100)])
        strings = [PauliString(n_sites, int(b)) for b in bits]
        assert len(strings) > mps_module.CHUNK_STRINGS
        got = string_expectations(m, pack_strings(strings, n_sites))
        want = [np.vdot(vec, apply_string(p, vec)) for p in strings]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for n_sites in (1, 2):
            m = random_mps(rng, n_sites, 2)
            assert string_expectations(m, np.zeros((0, 1), dtype=np.uint64)).shape == (0,)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(33, 40), st.integers(0, 30))
    def test_string_expectations_multiword_product_state(self, seed, n_sites, count):
        # past 32 sites the halves are multi-word rows; a product state's value is
        # the product of its single-site expectations
        rng = np.random.default_rng(seed)
        sites = [random_state(rng, 1) for _ in range(n_sites)]
        m = Mps([v.reshape(1, 1, 2) for v in sites])
        codes = rng.integers(0, 4, size=(count, n_sites))
        # sparse strings, so the expectations are not all vanishingly small
        codes[rng.random(codes.shape) < 0.8] = 0
        strings = [PauliString.from_codes(row) for row in codes]
        strings += strings[: count // 3]
        got = string_expectations(m, pack_strings(strings, n_sites))
        want = [
            np.prod([np.vdot(v, PAULI_MATRICES[c] @ v) for v, c in zip(sites, p.codes)])
            for p in strings
        ]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_string_expectations_reject_bad_packing(self):
        rng = np.random.default_rng(16)
        m = dense_to_mps(random_state(rng, 3))
        with pytest.raises(ValueError):
            string_expectations(m, np.zeros((2, 2), dtype=np.uint64))
        with pytest.raises(ValueError):
            string_expectations(m, np.zeros(2, dtype=np.uint64))

    def test_overlap_length_mismatch_raises(self):
        rng = np.random.default_rng(14)
        a = dense_to_mps(random_state(rng, 3))
        b = dense_to_mps(random_state(rng, 4))
        with pytest.raises(ValueError):
            overlap(a, b)


class TestGroundState:
    def test_h2_reference(self, h2_subset):
        res = ground_state_reference(h2_subset)
        vals = scipy.linalg.eigh(to_dense(h2_subset), eigvals_only=True)
        assert res.energy == pytest.approx(vals[0], abs=1e-12)
        assert res.gap == pytest.approx(vals[1] - vals[0], abs=1e-12)
        psi = mps_to_dense(res.mps)
        fidelity = abs(np.vdot(psi, res.vector))
        assert fidelity == pytest.approx(1.0, abs=1e-12)
        for t in res.mps.tensors:
            assert is_right_canonical_site(t)

    def test_energy_is_rayleigh_quotient(self, h2_subset):
        res = ground_state_reference(h2_subset)
        dense = to_dense(h2_subset)
        quot = np.vdot(res.vector, dense @ res.vector).real
        assert quot == pytest.approx(res.energy, abs=1e-12)

    def test_deterministic_phase(self, h2_subset):
        a = ground_state_reference(h2_subset)
        b = ground_state_reference(h2_subset)
        np.testing.assert_array_equal(a.vector, b.vector)

    def test_degenerate_warns(self):
        op = parse_pauli_sum("1.0 ZI\n")
        with pytest.warns(DegenerateGroundState):
            ground_state_reference(op)

    def test_non_hermitian_raises(self):
        op = parse_pauli_sum("1.0i XY\n")
        with pytest.raises(ValueError):
            ground_state_reference(op)


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(21)
        m = canonicalize_mps(dense_to_mps(random_state(rng, 5)))
        back = mps_from_json(mps_to_json(m))
        assert back.bond_dims == m.bond_dims
        assert back.gauge == m.gauge
        for a, b in zip(back.tensors, m.tensors):
            np.testing.assert_array_equal(a, b)

    def test_wrong_format_rejected(self):
        rng = np.random.default_rng(22)
        text = mps_to_json(dense_to_mps(random_state(rng, 3)))
        with pytest.raises(ValueError):
            mps_from_json(text.replace("mps-v1", "mpo-v1"))
