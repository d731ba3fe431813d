"""MPS factorization, gauges, contractions, dense ground-state reference."""

import warnings
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from paulibridge.mps import (
    DEGENERACY_TOL,
    DegenerateGroundState,
    Mps,
    canonicalize,
    canonicalize_mps,
    dense_to_mps,
    ground_state_reference,
    is_right_canonical_site,
    lowest_pairs,
    mps_from_json,
    mps_to_json,
    string_expectation,
    string_expectations,
)
from paulibridge import mps as mps_module
from paulibridge.pauli import (
    PAULI_MATRICES,
    SYMBOLS,
    PauliSum,
    apply_string,
    label_rows,
    parse_pauli_sum,
    to_dense,
)

from conftest import (
    FIXTURES,
    count_dense_solves,
    evict_lowest_pairs,
    int_rows,
    is_left_canonical_site,
    kron_string,
    mps_to_dense,
    random_pauli_sum,
    random_state,
    row_codes,
)


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
        m = dense_to_mps(vec)
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
        # Eckart-Young: before renormalization the truncated state, of
        # squared norm 1 - sum(log), lies the dropped weight away from vec
        rng = np.random.default_rng(5)
        vec = random_state(rng, 6)
        log = []
        m = dense_to_mps(vec, max_bond=2, discard_log=log)
        gap = np.linalg.norm(vec - np.sqrt(1 - sum(log)) * mps_to_dense(m))
        assert sum(log) > 0.01
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
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 4**5 - 1))
    def test_string_expectation_matches_dense(self, seed, n_sites, bits):
        rng = np.random.default_rng(seed)
        vec = random_state(rng, n_sites)
        row = int_rows([bits % 4**n_sites], n_sites)
        got = string_expectation(dense_to_mps(vec), row[0])
        assert got == pytest.approx(np.vdot(vec, kron_string(row_codes(row, n_sites)[0]) @ vec), abs=1e-12)

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
        strings = int_rows(rng.integers(0, 4**n_sites, count), n_sites)
        strings = np.vstack([strings, strings[: count // 3]])
        with patch.object(mps_module, "CHUNK_STRINGS", chunk):
            got = string_expectations(m, strings)
        want = [np.vdot(vec, apply_string(p, vec)) for p in strings]
        assert got.shape == (len(strings),)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_string_expectations_chunk_boundaries(self, monkeypatch):
        rng = np.random.default_rng(15)
        m = dense_to_mps(random_state(rng, 5), max_bond=3)
        packed = int_rows(rng.integers(0, 4**5, 11), 5)
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
        strings = int_rows(bits, n_sites)
        assert len(strings) > mps_module.CHUNK_STRINGS
        got = string_expectations(m, strings)
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
        codes = np.vstack([codes, codes[: count // 3]])
        got = string_expectations(m, label_rows(["".join(SYMBOLS[c] for c in row) for row in codes], n_sites))
        want = [np.prod([np.vdot(v, PAULI_MATRICES[c] @ v) for v, c in zip(sites, row)]) for row in codes]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_string_expectations_reject_bad_packing(self):
        rng = np.random.default_rng(16)
        m = dense_to_mps(random_state(rng, 3))
        with pytest.raises(ValueError):
            string_expectations(m, np.zeros((2, 2), dtype=np.uint64))
        with pytest.raises(ValueError):
            string_expectations(m, np.zeros(2, dtype=np.uint64))

    def test_string_expectations_refuse_rows_that_do_not_fit(self):
        # a bit past the last site was once read as another string: Z on site 0 of the
        # h2 ground state gave the same value with 1 << 20 OR'd in
        m = mps_from_json((FIXTURES.parent.parent / "artifacts" / "h2" / "groundstate.json").read_text())
        vec = mps_to_dense(m)
        z0 = label_rows(["ZIII"], 4)
        for bad in (z0 | np.uint64(1 << 20), z0 | np.uint64(1 << 8), np.zeros((1, 2), dtype=np.uint64)):
            with pytest.raises(ValueError, match=r"do not fit 4 sites"):
                string_expectations(m, bad)
            with pytest.raises(ValueError, match=r"do not fit 4 sites"):
                string_expectation(m, bad[0])
        want = np.vdot(vec, apply_string(z0[0], vec))
        assert string_expectations(m, z0)[0] == pytest.approx(want, abs=1e-12)
        assert string_expectation(m, z0[0]) == pytest.approx(want, abs=1e-12)


class TestGroundState:
    @settings(max_examples=60, deadline=None)
    @given(st.builds(
        lambda seed, n, n_terms: random_pauli_sum(np.random.default_rng(seed), n, n_terms),
        st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 12),
    ))
    @example(parse_pauli_sum((FIXTURES / "h2_subset.pauli").read_text()))
    def test_lowest_two_eigenpairs_match_the_full_solve(self, op):
        # the oracle: every eigenvalue from the full solve
        dense = to_dense(op)
        vals = scipy.linalg.eigh(dense, eigvals_only=True)
        tol = 1e-12 * max(np.abs(op.coeffs).sum(), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGroundState)
            res = ground_state_reference(op)
        assert abs(res.energy - vals[0]) <= tol
        assert abs(res.gap - (vals[1] - vals[0])) <= tol
        psi = mps_to_dense(res.mps)
        assert abs(np.vdot(psi, dense @ psi) - res.energy) <= tol
        if res.gap > DEGENERACY_TOL:
            assert np.linalg.norm(dense @ psi - res.energy * psi) <= 1e-10
        assert res.discarded == 0
        for t in res.mps.tensors:
            assert is_right_canonical_site(t)

    def test_energy_is_rayleigh_quotient(self, h2_subset):
        res = ground_state_reference(h2_subset)
        dense = to_dense(h2_subset)
        psi = mps_to_dense(res.mps)
        quot = np.vdot(psi, dense @ psi).real
        assert quot == pytest.approx(res.energy, abs=1e-12)

    def test_deterministic_phase(self, h2_subset):
        a = ground_state_reference(h2_subset)
        b = ground_state_reference(h2_subset)
        np.testing.assert_array_equal(mps_to_dense(a.mps), mps_to_dense(b.mps))

    def test_degenerate_warns(self):
        op = parse_pauli_sum("1.0 ZI\n")
        with pytest.warns(DegenerateGroundState):
            ground_state_reference(op)

    def test_non_hermitian_raises(self):
        op = parse_pauli_sum("1.0i XY\n")
        with pytest.raises(ValueError):
            ground_state_reference(op)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_hermiticity_decision_matches_the_dense_formula(self, n, data):
        # real parts from 1e-14 to 1e4, so ||H||_F falls either side of 1, and
        # imaginary parts sized to put ||H - H^dag||_F at 0 or 0.05 to 20 times
        # 1e-10 max(||H||_F, 1)
        labels = data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=6, unique=True))
        scale = st.tuples(st.floats(0.1, 1.0), st.integers(-13, 4)).map(lambda t: t[0] * 10.0 ** t[1])
        re = np.array(data.draw(st.lists(scale, min_size=len(labels), max_size=len(labels))))
        direction = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=len(labels), max_size=len(labels))))
        assume(np.linalg.norm(direction) > 1e-3)
        target = data.draw(st.one_of(st.just(0.0), st.floats(0.05, 20)))
        frobenius = 2.0 ** (n / 2)
        im = direction / np.linalg.norm(direction) * target * 1e-10 * max(frobenius * np.linalg.norm(re), 1) / (2 * frobenius)
        op = parse_pauli_sum("".join(f"{x:.17g}{y:+.17g}i {label}\n" for x, y, label in zip(re, im, labels)))
        dense = to_dense(op)
        ratio = np.linalg.norm(dense - dense.conj().T) / (1e-10 * max(np.linalg.norm(dense), 1.0))
        assume(not 0.99 < ratio < 1.01)  # away from the threshold, where the two roundings may differ
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGroundState)
            try:
                ground_state_reference(op)
                refused = False
            except ValueError as exc:
                assert str(exc) == "operator is not Hermitian"
                refused = True
        assert refused == (ratio > 1)


class TestLowestPairs:
    """The one dense reference solve, and its one entry keyed by the sum's exact content."""

    @pytest.fixture
    def op(self):
        return random_pauli_sum(np.random.default_rng(31), 5, 20)

    @staticmethod
    def fresh(op):
        return scipy.linalg.eigh(to_dense(op), subset_by_index=[0, 1])

    def test_a_hit_is_bitwise_a_fresh_solve(self, op, monkeypatch):
        evict_lowest_pairs()
        want = self.fresh(op)
        calls = count_dense_solves(monkeypatch, 5)
        miss, hit = lowest_pairs(op), lowest_pairs(op)
        assert calls == [("eigh", [0, 1])]  # the index-range route, once
        assert hit[0] is miss[0] and hit[1] is miss[1]
        assert np.array_equal(hit[0], want[0]) and np.array_equal(hit[1], want[1])

    @pytest.mark.parametrize("change", ["one ulp", "term order", "a sum in between"])
    def test_changed_content_solves_again(self, op, monkeypatch, change):
        evict_lowest_pairs()
        if change == "one ulp":
            coeffs = op.coeffs.copy()
            coeffs[3] = np.nextafter(coeffs[3].real, np.inf)
            other = PauliSum.from_rows(op.n_sites, op.rows, coeffs)
        elif change == "term order":
            perm = np.random.default_rng(4).permutation(op.n_terms)
            other = PauliSum.from_rows(op.n_sites, op.rows[perm], op.coeffs[perm])
            assert other == op  # equal sums, summed in another order by to_dense
        else:
            other = random_pauli_sum(np.random.default_rng(32), 5, 20)
        wants = [self.fresh(op), self.fresh(other), self.fresh(op)]
        calls = count_dense_solves(monkeypatch, 5)
        for k, (sum_, want) in enumerate(zip([op, other, op], wants), 1):
            vals, vecs = lowest_pairs(sum_)
            assert len(calls) == k
            assert np.array_equal(vals, want[0]) and np.array_equal(vecs, want[1])

    def test_the_arrays_refuse_writes(self, op):
        vals, vecs = lowest_pairs(op)
        kept = vals.copy(), vecs.copy()
        with pytest.raises(ValueError, match="read-only"):
            vals[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            vecs[:, 0] *= -1
        again = lowest_pairs(op)
        assert np.array_equal(again[0], kept[0]) and np.array_equal(again[1], kept[1])

    def test_degeneracy_warns_on_a_miss_and_on_a_hit(self, monkeypatch):
        op = parse_pauli_sum("1.0 ZI\n")
        evict_lowest_pairs()
        calls = count_dense_solves(monkeypatch, 2)
        for _ in range(3):
            with pytest.warns(DegenerateGroundState):
                ground_state_reference(op)
        assert len(calls) == 1

    def test_non_hermitian_sum_is_refused_on_every_call(self):
        op = parse_pauli_sum("1.0i XY\n")
        for _ in range(2):
            with pytest.raises(ValueError, match="^operator is not Hermitian$"):
                lowest_pairs(op)


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
